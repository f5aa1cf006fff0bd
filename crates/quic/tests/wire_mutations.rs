//! Mutation harness for the wire decoders that see untrusted bytes.
//!
//! Real datagrams of simulated exchanges (long and short headers; ACKs
//! with gaps, CRYPTO, STREAM, HANDSHAKE_DONE, CONNECTION_CLOSE and
//! PADDING frames) are
//! truncated and mutated byte- and bit-wise under a seeded `netsim` RNG,
//! then fed to the packet decoder — walking every frame and every ACK
//! range — and to `Header::peek_observable`, the view an on-path observer
//! takes of arbitrary traffic. Every input must decode to an error or a
//! value without panicking, and decoding must not allocate.

mod counting;

use counting::allocations;
use quicspin_netsim::{LinkConfig, Rng, Side, SimDuration, SimEvent, SimTime, Simulator};
use quicspin_quic::{AppEvent, Connection, TransportConfig};
use quicspin_wire::{Frame, Header, Packet};

/// Mutated inputs per run; the harness must apply at least 20 000.
const MUTATIONS: usize = 24_000;

/// Every datagram of one request/response exchange of `response` bytes
/// over `link`, copied as each endpoint sends it. The tap keeps only
/// header snaps, so the corpus is taken at the senders.
fn exchange(link: LinkConfig, seed: u64, response: usize) -> Vec<Vec<u8>> {
    let mut sim = Simulator::symmetric(link, seed);
    let mut conns = [
        Connection::new_client(TransportConfig::default(), seed * 2 + 1, sim.now()),
        Connection::new_server(TransportConfig::default(), seed * 2 + 2, sim.now()),
    ];
    let sides = [Side::Client, Side::Server];
    let deadline = SimTime::ZERO + SimDuration::from_secs(60);
    let mut armed: [Option<SimTime>; 2] = [None, None];
    let mut sent = Vec::new();
    loop {
        for (i, conn) in conns.iter_mut().enumerate() {
            while let Some(datagram) = conn.poll_transmit(sim.now()) {
                sent.push(datagram.clone());
                sim.send(sides[i], datagram);
            }
            // One pending wakeup per side, as the lab arms them.
            if let Some(at) = conn.next_timeout() {
                if armed[i].is_none_or(|pending| at < pending) {
                    armed[i] = Some(at);
                    sim.set_timer(sides[i], at, 0);
                }
            }
        }
        if conns.iter().all(Connection::is_closed) {
            return sent;
        }
        let Some((now, event)) = sim.step() else {
            return sent;
        };
        assert!(now <= deadline, "the exchange must finish");
        match event {
            SimEvent::Datagram { to, datagram } => {
                conns[usize::from(to == Side::Server)].handle_datagram(now, &datagram);
            }
            SimEvent::Timer { side, .. } => {
                let i = usize::from(side == Side::Server);
                armed[i] = None;
                conns[i].on_timeout(now);
            }
        }
        let [client, server] = &mut conns;
        while let Some(event) = client.poll_event() {
            match event {
                AppEvent::HandshakeCompleted => client.send_stream(0, b"GET /", true),
                AppEvent::StreamData { id: 0, fin: true } => client.close("done"),
                _ => {}
            }
        }
        while let Some(event) = server.poll_event() {
            if let AppEvent::StreamData { id: 0, fin: true } = event {
                server.send_stream(0, &vec![0x42; response], true);
            }
        }
    }
}

/// Every datagram of a clean, a lossy and a large-response exchange.
fn lab_datagrams() -> Vec<Vec<u8>> {
    let ideal = LinkConfig::ideal(SimDuration::from_millis(20));
    let lossy = LinkConfig {
        jitter: SimDuration::from_millis(2),
        ..ideal.clone().with_loss(0.05).with_reorder(0.02)
    };
    [
        exchange(ideal, 1, 36_000),
        exchange(lossy.clone(), 7, 36_000),
        exchange(lossy, 7, 120_000),
    ]
    .concat()
}

/// Decodes `bytes` every way an untrusted datagram is decoded, touching
/// every decoded field; returns a digest so nothing is optimised away.
fn decode_every_way(bytes: &[u8], cid_len: usize) -> (bool, u64) {
    let mut digest = 0u64;
    let decoded = Packet::decode(bytes, cid_len);
    let ok = decoded.is_ok();
    if let Ok(packet) = decoded {
        digest += packet.header.packet_number().map_or(0, |pn| pn.value());
        for frame in packet.frames() {
            digest += match frame {
                Frame::Padding { len } => len as u64,
                Frame::Ack {
                    largest,
                    delay_us,
                    ranges,
                } => largest ^ delay_us ^ ranges.map(|r| r.start ^ r.end).fold(0, |a, b| a ^ b),
                Frame::Crypto { offset, data } => offset ^ data.len() as u64,
                Frame::Stream {
                    id, offset, data, ..
                } => id ^ offset ^ data.len() as u64,
                Frame::NewConnectionId { seq, cid } => seq ^ cid.len() as u64,
                Frame::ConnectionClose { error_code, reason } => error_code ^ reason.len() as u64,
                Frame::Ping | Frame::HandshakeDone => 1,
            };
        }
    }
    if let Some(observed) = Header::peek_observable(bytes, cid_len) {
        digest += u64::from(observed.spin) + u64::from(observed.vec);
    }
    (ok, digest)
}

/// Fails unless the corpus has long and short headers, an ACK with a gap
/// and every frame kind the decoder walks.
fn assert_covers_every_frame_kind(corpus: &[Vec<u8>]) {
    let mut kinds = std::collections::BTreeSet::new();
    for datagram in corpus {
        let packet = Packet::decode(datagram, 8).expect("real datagrams decode");
        kinds.insert(match packet.header {
            Header::Long(_) => "long",
            Header::Short(_) => "short",
        });
        for frame in packet.frames() {
            kinds.insert(match frame {
                Frame::Padding { .. } => "padding",
                Frame::Ack { ranges, .. } if ranges.count_remaining() > 1 => "ack-gap",
                Frame::Ack { .. } => "ack",
                Frame::Crypto { .. } => "crypto",
                Frame::Stream { .. } => "stream",
                Frame::HandshakeDone => "handshake-done",
                Frame::ConnectionClose { .. } => "close",
                Frame::Ping | Frame::NewConnectionId { .. } => "other",
            });
        }
    }
    for kind in [
        "long",
        "short",
        "padding",
        "ack-gap",
        "ack",
        "crypto",
        "stream",
        "handshake-done",
        "close",
    ] {
        assert!(kinds.contains(kind), "corpus lacks {kind}: {kinds:?}");
    }
}

/// Decodes `bytes` and demands that doing so allocated nothing.
fn check(bytes: &[u8], cid_len: usize) -> bool {
    let ((ok, digest), allocs) = allocations(|| decode_every_way(bytes, cid_len));
    std::hint::black_box(digest);
    assert_eq!(allocs, 0, "decoding {bytes:02x?} allocated");
    ok
}

/// One random mutation of `buf`: a truncation, byte overwrites, bit
/// flips, or overwrites followed by a truncation.
fn mutate(buf: &mut Vec<u8>, rng: &mut Rng) {
    let kind = rng.next_below(4);
    if kind == 1 || kind == 3 {
        for _ in 0..=rng.next_below(4) {
            let at = rng.index(buf.len());
            buf[at] = rng.next_u64() as u8;
        }
    }
    if kind == 2 {
        for _ in 0..=rng.next_below(4) {
            let at = rng.index(buf.len());
            buf[at] ^= 1 << rng.next_below(8);
        }
    }
    if kind == 0 || kind == 3 {
        let len = rng.index(buf.len() + 1);
        buf.truncate(len);
    }
}

#[test]
fn mutated_lab_datagrams_never_panic_or_allocate() {
    let corpus = lab_datagrams();
    assert!(corpus.len() > 100, "corpus of {} datagrams", corpus.len());
    for datagram in &corpus {
        assert!(check(datagram, 8), "every real datagram decodes");
    }
    assert_covers_every_frame_kind(&corpus);

    let mut rng = Rng::new(0x6d75_7461_7465);
    let mut buf = Vec::with_capacity(2048);
    let mut still_valid = 0usize;
    for _ in 0..MUTATIONS {
        buf.clear();
        buf.extend_from_slice(&corpus[rng.index(corpus.len())]);
        mutate(&mut buf, &mut rng);
        // Mostly the lab's CID length; sometimes any other (0..=20), as
        // an observer guessing at foreign traffic would.
        let cid_len = if rng.chance(0.9) { 8 } else { rng.index(21) };
        still_valid += usize::from(check(&buf, cid_len));
    }
    // Both outcomes must actually occur, or the harness tests nothing.
    assert!(
        still_valid > 0 && still_valid < MUTATIONS,
        "{still_valid} valid"
    );
}

#[test]
fn every_truncation_of_every_frame_kind_is_an_error_or_a_value() {
    // Exhaustive truncations of one datagram per distinct leading byte
    // pattern (packet type) and length.
    let corpus = lab_datagrams();
    let mut seen = std::collections::BTreeSet::new();
    for datagram in corpus
        .iter()
        .filter(|d| seen.insert((d[0] & 0xf0, d.len())))
    {
        for len in 0..datagram.len() {
            check(&datagram[..len], 8);
        }
    }
}
