//! The tap records datagrams in the order they cross it. Under seeded
//! random loss, reordering, jitter and link rates, with sends from both
//! sides interleaved with event steps, the captured records must equal a
//! stable sort by crossing time of the same records in send order: equal
//! times keep send order.

use quicspin_netsim::{LinkConfig, Rng, Side, SimDuration, Simulator, TapRecord};

/// Random link configurations tried.
const CASES: u64 = 400;

fn random_link(rng: &mut Rng) -> LinkConfig {
    LinkConfig {
        delay: SimDuration::from_micros(rng.next_below(40_000)),
        jitter: SimDuration::from_micros(rng.next_below(4) * rng.next_below(10_000)),
        loss: rng.range_f64(0.0, 0.3),
        reorder: rng.range_f64(0.0, 0.4),
        reorder_hold: SimDuration::from_micros(rng.next_below(30_000)),
        rate_bytes_per_sec: rng.chance(0.5).then(|| 50_000 + rng.next_below(5_000_000)),
    }
}

/// The send index a test datagram carries in its first four bytes.
fn send_index(record: &TapRecord) -> u32 {
    u32::from_be_bytes(record.snap()[..4].try_into().expect("4-byte tag"))
}

#[test]
fn captured_records_are_a_stable_sort_of_send_order() {
    let mut rng = Rng::new(0x7461_705f);
    let mut reordered = 0;
    for case in 0..CASES {
        let (c2s, s2c) = (random_link(&mut rng), random_link(&mut rng));
        let position = rng.f64();
        let mut sim = Simulator::new(c2s, s2c, case).with_tap(position);
        let sends = 1 + rng.index(120) as u32;
        for i in 0..sends {
            let from = if rng.chance(0.5) {
                Side::Client
            } else {
                Side::Server
            };
            let mut datagram = i.to_be_bytes().to_vec();
            datagram.resize(4 + rng.index(1200), 0);
            let delay = SimDuration::from_micros(rng.next_below(3) * rng.next_below(2_000));
            sim.send_after(from, delay, datagram);
            // Move the clock on now and then, so sends start at many times.
            for _ in 0..rng.next_below(3) {
                sim.step();
            }
        }
        while sim.step().is_some() {}

        let captured = sim.tap_records().to_vec();
        assert_eq!(
            captured.len(),
            sends as usize,
            "case {case}: a record per send"
        );
        let mut expected = captured.clone();
        expected.sort_by_key(send_index);
        if expected != captured {
            reordered += 1;
        }
        expected.sort_by_key(|r| r.time);
        assert_eq!(captured, expected, "case {case}");
    }
    // The cases must include crossings out of send order, or the
    // property holds trivially.
    assert!(reordered > CASES / 4, "only {reordered} cases reordered");
}
