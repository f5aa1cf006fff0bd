//! Snapshot paths read a shared registry while workers absorb into it.
//!
//! Four writer threads each absorb many worker shards carrying counters,
//! stage samples and scope wall into one `Registry` and one
//! `ProfilerRegistry`; a reader thread loops over every snapshot path
//! meanwhile. No read may panic, and after the join the totals must be
//! exact, including the scope enters that are views of counters.

use quicspin_telemetry::{Metric, ProfilerRegistry, Registry, ScopeId, Stage, WorkerShard};
use std::sync::atomic::{AtomicBool, Ordering};

const WRITERS: u64 = 4;
const SHARDS_PER_WRITER: u64 = 400;
const SAMPLES_PER_SHARD: u64 = 16;

#[test]
fn snapshots_never_panic_while_shards_are_absorbed() {
    let reg = Registry::new();
    let prof = ProfilerRegistry::new();
    let reading = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let reads = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut reads = 0u64;
            loop {
                let last = done.load(Ordering::Acquire);
                let manifest = reg.manifest(Vec::new(), 0);
                assert_eq!(manifest.stages.len(), Stage::COUNT);
                let progress = reg.progress(1, 1);
                assert!(progress.errored <= progress.completed);
                for &stage in Stage::ALL {
                    let hist = reg.stage_histogram(stage).to_shard();
                    assert!(hist.quantile(0.99) <= hist.max());
                }
                let snap = prof.snapshot();
                assert_eq!(snap.doc().scopes.len(), ScopeId::COUNT - 1);
                assert!(snap.collapsed().len() <= ScopeId::COUNT);
                reads += 1;
                reading.store(true, Ordering::Release);
                if last {
                    return reads;
                }
            }
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (reg, prof, reading) = (&reg, &prof, &reading);
                s.spawn(move || {
                    // Start absorbing only once the reader is looping.
                    while !reading.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    for _ in 0..SHARDS_PER_WRITER {
                        let mut shard = WorkerShard::default();
                        shard.set_enabled(true, true);
                        for i in 0..SAMPLES_PER_SHARD {
                            shard.incr(Metric::ProbesCompleted);
                            shard.add(Metric::PacketsSent, 3);
                            shard.add_wall_ns(ScopeId::Classify, 1_000 + w * 100 + i);
                        }
                        prof.absorb(&shard);
                        reg.absorb(&shard);
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        done.store(true, Ordering::Release);
        reader.join().unwrap()
    });
    assert!(
        reads > 1,
        "the reader must have read while shards were absorbed"
    );

    let shards = WRITERS * SHARDS_PER_WRITER;
    let samples = shards * SAMPLES_PER_SHARD;
    assert_eq!(reg.counter(Metric::ProbesCompleted), samples);
    assert_eq!(reg.counter(Metric::PacketsSent), 3 * samples);
    let wall: u64 = (0..WRITERS)
        .map(|w| {
            SHARDS_PER_WRITER
                * (0..SAMPLES_PER_SHARD)
                    .map(|i| 1_000 + w * 100 + i)
                    .sum::<u64>()
        })
        .sum();
    let hist = reg.stage_histogram(Stage::Classify).to_shard();
    assert_eq!(hist.count(), samples);
    assert_eq!(hist.sum(), wall);
    let snap = prof.snapshot();
    assert_eq!(snap.cost(ScopeId::Classify).wall_ns, wall);
    assert_eq!(snap.cost(ScopeId::PacketEncode).enters, 3 * samples);
}
