//! Event-queue scheduler microbenchmark: the simulator's binary-heap
//! `EventQueue` on a recorded probe trace and at 10³–10⁷ queued events.
//!
//! `event_queue/lab_trace` replays what a probe actually asks of the
//! scheduler: the push/pop sequence of two lossy `ConnectionLab` runs
//! (`lossy_lab_trace.txt`; 5% loss, 2% reorder, 2 ms jitter, seed 7; the
//! default 36 KB response, then a 120 KB response over a 2 MB/s link),
//! with a `clear()` between the runs as the scan loop's scratch reuse
//! does. Queue depth never exceeds 46 there. The trace was recorded by
//! logging every `Simulator` push (with its due time) and pop.
//!
//! `event_queue/<n>` is a mixed push/pop churn over a standing population
//! of `n` timers: each iteration pre-fills the queue with `n` events
//! spread over a 400 ms horizon, then alternates pop-earliest /
//! push-later for `n` churn steps, then drains. Timestamps derive from a
//! fixed LCG. It guards the heap's O(log n) scaling.
//!
//! The case names keep their `binary_heap` suffix from when a timing
//! wheel raced the heap here, so the committed baseline rows compare
//! like for like.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use quicspin_netsim::{EventQueue, SimTime};

/// Deterministic pseudo-random event offsets (no external RNG crates).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Musl's LCG constants; plenty for spreading timer deadlines.
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.0 >> 17
    }
}

/// Event deadlines spread over a 400 ms horizon (ns granularity), in
/// schedule order.
fn deadlines(n: usize) -> Vec<u64> {
    let mut lcg = Lcg(0x5eed_cafe);
    (0..n).map(|_| lcg.next() % 400_000_000).collect()
}

/// One churn round: pre-fill with `n` events, then `n` alternating
/// pop/push steps that keep the population size constant, then drain.
fn churn(q: &mut EventQueue<u32>, times: &[u64]) -> u64 {
    for (i, &t) in times.iter().enumerate() {
        q.push(SimTime::from_nanos(t), i as u32);
    }
    let mut acc = 0u64;
    for &t in times {
        if let Some((at, id)) = q.pop() {
            acc = acc.wrapping_add(at.as_nanos()).wrapping_add(u64::from(id));
            // Reschedule relative to the popped deadline, as retransmit
            // and pacing timers do.
            q.push(SimTime::from_nanos(at.as_nanos() + 1 + t % 1_000_000), id);
        }
    }
    while let Some((at, id)) = q.pop() {
        acc = acc.wrapping_add(at.as_nanos()).wrapping_add(u64::from(id));
    }
    acc
}

/// One scheduler operation of a recorded lab run.
#[derive(Clone, Copy)]
enum Op {
    Push(u64),
    Pop,
    Clear,
}

/// Parses the recorded trace: `p <ns>` pushes an event due at `ns`, `o`
/// pops the earliest, `c` clears the queue between lab runs.
fn lab_trace() -> Vec<Op> {
    include_str!("lossy_lab_trace.txt")
        .lines()
        .map(|line| match line.split_once(' ') {
            Some(("p", ns)) => Op::Push(ns.parse().expect("push time")),
            None if line == "o" => Op::Pop,
            None if line == "c" => Op::Clear,
            _ => panic!("bad trace line {line:?}"),
        })
        .collect()
}

/// Replays a recorded trace on a queue.
fn replay(q: &mut EventQueue<u32>, ops: &[Op]) -> u64 {
    let mut acc = 0u64;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Push(ns) => q.push(SimTime::from_nanos(ns), i as u32),
            Op::Pop => {
                if let Some((at, id)) = q.pop() {
                    acc = acc.wrapping_add(at.as_nanos()).wrapping_add(u64::from(id));
                }
            }
            Op::Clear => q.clear(),
        }
    }
    acc
}

fn event_queue_lab_trace(c: &mut Criterion) {
    let ops = lab_trace();
    let mut group = c.benchmark_group("event_queue/lab_trace");
    group.throughput(Throughput::Elements(ops.len() as u64));
    // The queue is reused across iterations, as `SimScratch` reuses it
    // across probes; `clear()` at the trace's run boundaries resets it.
    let mut q = EventQueue::new();
    group.bench_function("binary_heap", |b| {
        b.iter(|| std::hint::black_box(replay(&mut q, std::hint::black_box(&ops))))
    });
    group.finish();
}

fn event_queue_scaling(c: &mut Criterion) {
    // CI's --scale gate and the committed baseline both cap the
    // population at 10^6 (EVENT_QUEUE_MAX_N=1000000); unset, the bench
    // also runs 10^7.
    let max_n: usize = std::env::var("EVENT_QUEUE_MAX_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX);
    for n in [1_000usize, 10_000, 100_000, 1_000_000, 10_000_000] {
        if n > max_n {
            continue;
        }
        let times = deadlines(n);
        let name = format!("event_queue/{n}");
        let mut group = c.benchmark_group(&name);
        group.throughput(Throughput::Elements(2 * n as u64));
        group.sample_size(if n >= 1_000_000 { 10 } else { 20 });
        group.bench_function("binary_heap", |b| {
            b.iter(|| {
                let mut q = EventQueue::new();
                std::hint::black_box(churn(&mut q, std::hint::black_box(&times)))
            })
        });
        group.finish();
    }
}

criterion_group!(benches, event_queue_lab_trace, event_queue_scaling);
criterion_main!(benches);
