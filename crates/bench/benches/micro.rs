//! Microbenchmarks of the substrates: wire codec, spin observer,
//! connection handshake, simulator event throughput, and population
//! generation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use quicspin_core::{EdgeMachine, EdgePolicy, PacketObservation};
use quicspin_netsim::{LinkConfig, Side, SimDuration, SimTime, Simulator};
use quicspin_quic::{Connection, ConnectionLab, LabConfig, TransportConfig, CID_LEN};
use quicspin_webpop::{Population, PopulationConfig};
use quicspin_wire::{ConnectionId, Frame, Header, Packet, PacketNumber, PacketWriter, ShortHeader};

fn wire_codec(c: &mut Criterion) {
    let header = Header::Short(ShortHeader {
        spin: true,
        vec: 2,
        dcid: ConnectionId::from_u64(42),
        packet_number: PacketNumber::new(1234),
    });
    let data = vec![0x42; 1200];
    let stream = Frame::Stream {
        id: 0,
        offset: 9000,
        fin: false,
        data: &data,
    };
    let encode = || {
        let mut packet = PacketWriter::new(std::hint::black_box(&header), Vec::new());
        packet.push(std::hint::black_box(&stream));
        packet.finish()
    };
    let encoded = encode();
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_1200B_stream_packet", |b| b.iter(encode));
    group.bench_function("decode_1200B_stream_packet", |b| {
        b.iter(|| {
            let packet = Packet::decode(std::hint::black_box(&encoded), 8).unwrap();
            packet.frames().count()
        })
    });
    group.bench_function("peek_observable", |b| {
        b.iter(|| Header::peek_observable(std::hint::black_box(&encoded), 8).unwrap())
    });
    group.finish();
}

/// The client's first datagram, as the lab sends it: one CRYPTO frame
/// padded to 1 200 bytes, which the server decodes (and walks twice:
/// validation, then its frames) once per probe.
fn padded_initial(c: &mut Criterion) {
    let initial = Connection::new_client(TransportConfig::default(), 1, SimTime::ZERO)
        .poll_transmit(SimTime::ZERO)
        .expect("a client opens with an Initial");
    let packet = Packet::decode(&initial, CID_LEN).expect("the Initial decodes");
    let frames: Vec<Frame<'_>> = packet
        .frames()
        .filter(|f| !matches!(f, Frame::Padding { .. }))
        .collect();
    let encode = || {
        let mut writer = PacketWriter::new(std::hint::black_box(&packet.header), Vec::new());
        for frame in &frames {
            writer.push(frame);
        }
        writer.pad_to(1200);
        writer.finish()
    };
    assert_eq!(encode(), initial, "the bench re-encodes the lab's Initial");
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Bytes(initial.len() as u64));
    group.bench_function("encode_padded_initial", |b| b.iter(encode));
    group.bench_function("decode_padded_initial", |b| {
        b.iter(|| {
            let packet = Packet::decode(std::hint::black_box(&initial), CID_LEN).unwrap();
            packet.frames().count()
        })
    });
    group.finish();
}

fn observer_throughput(c: &mut Criterion) {
    // One million observations of a 40 ms square wave.
    let observations: Vec<PacketObservation> = (0..1_000_000u64)
        .map(|i| PacketObservation::wire(i * 10_000, (i / 4) % 2 == 0))
        .collect();
    let mut group = c.benchmark_group("observer");
    group.throughput(Throughput::Elements(observations.len() as u64));
    group.sample_size(10);
    // The client-side extraction's policy, and the on-path observer's
    // (a 16-period running median per edge).
    for (name, policy) in [
        ("spin_observer_1M_packets", EdgePolicy::RAW),
        ("spin_observer_on_path_1M_packets", EdgePolicy::ON_PATH),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut machine = EdgeMachine::new();
                let mut samples = 0usize;
                for obs in &observations {
                    samples += usize::from(
                        machine
                            .observe(std::hint::black_box(obs), &policy)
                            .is_some(),
                    );
                }
                samples
            })
        });
    }
    group.finish();
}

fn connection_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("quic");
    group.sample_size(20);
    group.bench_function("full_exchange_36KB_40ms", |b| {
        b.iter(|| {
            let mut lab = ConnectionLab::new(LabConfig::default());
            let out = lab.run();
            std::hint::black_box(out.response_bytes)
        })
    });
    group.finish();
}

fn simulator_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("netsim");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("send_and_drain_10k_datagrams", |b| {
        b.iter(|| {
            let mut sim = Simulator::symmetric(LinkConfig::ideal(SimDuration::from_millis(10)), 1);
            for i in 0..10_000u64 {
                sim.send(Side::Client, vec![(i % 256) as u8; 64]);
            }
            let mut n = 0;
            while sim.step().is_some() {
                n += 1;
            }
            n
        })
    });
    group.finish();
}

/// `Population::generate` in the shape `spinctl run --domains 200000`
/// builds (⅞ zone domains), all of it before the first probe.
fn population_generation(c: &mut Criterion) {
    let domains = 200_000;
    let config = PopulationConfig {
        seed: 23,
        toplist_domains: domains / 8 + 1,
        zone_domains: domains - domains / 8 - 1,
    };
    let mut group = c.benchmark_group("webpop");
    group.throughput(Throughput::Elements(u64::from(domains)));
    group.sample_size(10);
    group.bench_function("generate_200k_domains", |b| {
        b.iter(|| Population::generate(std::hint::black_box(config.clone())).len())
    });
    group.finish();
}

criterion_group!(
    benches,
    wire_codec,
    padded_initial,
    observer_throughput,
    connection_exchange,
    simulator_events,
    population_generation
);
criterion_main!(benches);
