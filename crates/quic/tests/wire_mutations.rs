//! Mutation harness for the wire decoders that see untrusted bytes.
//!
//! Real lab datagrams (long and short headers; ACKs with gaps, CRYPTO,
//! STREAM, HANDSHAKE_DONE, CONNECTION_CLOSE and PADDING frames) are
//! truncated and mutated byte- and bit-wise under a seeded `netsim` RNG,
//! then fed to the packet decoder — walking every frame and every ACK
//! range — and to `Header::peek_observable`, the view an on-path observer
//! takes of arbitrary traffic. Every input must decode to an error or a
//! value without panicking, and decoding must not allocate.

mod counting;

use counting::allocations;
use quicspin_netsim::Rng;
use quicspin_quic::{ConnectionLab, LabConfig, ServerProfile};
use quicspin_wire::{Frame, Header, Packet};

/// Mutated inputs per run; the harness must apply at least 20 000.
const MUTATIONS: usize = 24_000;

/// Every datagram of a clean, a lossy and a large-response lab, as the
/// tap captured them.
fn lab_datagrams() -> Vec<Vec<u8>> {
    let lossy = LabConfig {
        loss: 0.05,
        reorder: 0.02,
        jitter_ms: 2.0,
        seed: 7,
        ..LabConfig::default()
    };
    let large = LabConfig {
        server_profile: ServerProfile::instant(120_000),
        ..lossy.clone()
    };
    [LabConfig::default(), lossy, large]
        .into_iter()
        .flat_map(|cfg| ConnectionLab::new(cfg).run().tap_records)
        .map(|record| record.datagram.to_vec())
        .collect()
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
