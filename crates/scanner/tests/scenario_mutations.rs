//! Mutation harness for the scenario parser, which reads user-supplied
//! TOML (`spinctl matrix <file>`).
//!
//! The committed `loss_vantage.toml` is truncated and mutated byte- and
//! bit-wise under a seeded `netsim` RNG and handed to `parse_scenario`.
//! Every input must come back as `Ok` or as a one-line `scenario error:`,
//! never as a panic or an abort.

use quicspin_netsim::Rng;
use quicspin_scanner::{parse_scenario, MAX_CELLS};

const SCENARIO: &str = include_str!("../../../examples/scenarios/loss_vantage.toml");

/// Mutated inputs per run.
const MUTATIONS: usize = 20_000;

/// Parses `bytes` (lossily decoded, as a file read would be) and checks
/// the error contract; returns whether the scenario parsed.
fn check(bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    match parse_scenario(&text) {
        Ok(matrix) => {
            assert!(!matrix.cells.is_empty() && matrix.cells.len() <= MAX_CELLS);
            true
        }
        Err(err) => {
            assert!(err.starts_with("scenario error: "), "{err:?} for {text:?}");
            assert!(!err.contains('\n'), "{err:?} spans lines");
            false
        }
    }
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
fn mutated_scenarios_parse_or_fail_cleanly() {
    assert!(check(SCENARIO.as_bytes()), "the committed scenario parses");
    let mut rng = Rng::new(0x7363_656e_6172_696f);
    let mut buf = Vec::with_capacity(SCENARIO.len());
    let mut parsed = 0usize;
    for _ in 0..MUTATIONS {
        buf.clear();
        buf.extend_from_slice(SCENARIO.as_bytes());
        mutate(&mut buf, &mut rng);
        parsed += usize::from(check(&buf));
    }
    // Both outcomes must actually occur, or the harness tests nothing.
    assert!(parsed > 0 && parsed < MUTATIONS, "{parsed} parsed");
}

#[test]
fn every_truncation_parses_or_fails_cleanly() {
    for len in 0..SCENARIO.len() {
        check(&SCENARIO.as_bytes()[..len]);
    }
}
