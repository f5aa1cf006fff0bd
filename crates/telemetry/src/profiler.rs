//! Per-probe hierarchical cost profiler.
//!
//! The ROADMAP's 1:1-scale blocker is probe cost: 41–43 µs per
//! established probe against a ~20 µs target. A stage histogram says
//! *that* a probe is slow, not *where* — this module attributes cost to
//! a static tree of [`ScopeId`]s threaded through the hot path, so the
//! ranked "where does the next 2× live" list falls out of any profiled
//! sweep.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Campaign artifacts are byte-identical across
//!    worker counts; the profile artifact must be too. Wall-clock time
//!    can never be, so the profile splits in two: `profile.json` carries
//!    only costs that are pure functions of the record stream (enter
//!    counts, allocation deltas, event-queue-op deltas), while wall-time
//!    weights ride exclusively in the collapsed-stack export
//!    (`profile.folded`) meant for flamegraph tooling. Scopes whose cost
//!    is pure scheduling (the campaign engine's batch-mailbox hand-off)
//!    are marked non-deterministic and excluded from `profile.json`
//!    entirely.
//! 2. **Hot-path overhead under the CI-gated 3% budget.** Only the
//!    coarse per-probe scopes read the clock: one lap chain of at most
//!    eight reads per established probe (probe start, then the end of
//!    `plan`, `lab`, `spin_extraction`, `classify`, `observer_fold` and
//!    `qlog_encode`, plus the probe's own end), each read shared by the
//!    scope it closes and the one it opens. A flight-recorded campaign
//!    adds one read per domain, closing the top-level `flight_inspect`
//!    scope on the engine's per-domain chain. The inner netsim/quic scopes
//!    are fed *post hoc* from the plain counters those crates already
//!    export, costing integer adds. [`MAX_SCOPE_DEPTH`] bounds the tree
//!    so per-scope work stays O(1).
//! 3. **One instrumentation shard.** Scope costs accumulate in the same
//!    [`WorkerShard`] as the telemetry counters and stage histograms
//!    (plain integers, no atomics); the engine folds it into the shared
//!    [`ProfilerRegistry`] (relaxed atomics, commutative adds — merge
//!    order cannot matter) and the [`Registry`](crate::Registry).
//!    Every [`Stage`] except
//!    [`Stage::Probe`] is a *view* of exactly one scope (the stage
//!    column of the scope table): one wall value per boundary feeds the
//!    scope and its stage histogram, so the two can never disagree.
//!
//! The scope *paths* are interned statically: every [`ScopeId`] carries
//! its full slash-joined path as a `&'static str`, so nothing on the hot
//! path ever formats a string.

use crate::metrics::{Counter, Stage};
use crate::registry::WorkerShard;
use serde::{Deserialize, Serialize};

/// Schema version stamped into [`ProfileDoc`] (`profile.json`).
pub const PROFILE_SCHEMA_VERSION: u32 = 1;

/// Upper bound on scope nesting. The static table keeps well under it
/// (current maximum depth is 3); the bound exists so the snapshot walk
/// and any future dynamic nesting stay O(1) per scope.
pub const MAX_SCOPE_DEPTH: usize = 8;

/// One node in the static profiler scope tree.
///
/// Declaration order is index order, export order, and (for the tree)
/// topological order: a parent always precedes its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum ScopeId {
    /// One connection probe (one lab run): plan to record. Counts
    /// connections, not domains — see [`Stage::Probe`] for the latter.
    Probe,
    /// Probe plan derivation (population lookup, RNG seeding).
    Plan,
    /// The connection lab: both endpoints plus the simulated path.
    Lab,
    /// Lab wall time until the handshake completed.
    LabHandshake,
    /// Lab wall time from handshake to close.
    LabTransfer,
    /// Netsim event-queue pushes (count-only; fed from `PathStats`). The
    /// scope keeps the `wheel_push` name from when the scheduler was a
    /// timing wheel: `profile.json` bytes fix it.
    WheelPush,
    /// Netsim event-queue pops (count-only; fed from `PathStats`); named
    /// `wheel_pop` for the same reason.
    WheelPop,
    /// Datagrams the simulated link delivered (count-only).
    LinkDelivery,
    /// QUIC packets encoded and sent (count-only; both endpoints).
    PacketEncode,
    /// QUIC datagrams decoded or rejected (count-only; both endpoints).
    PacketDecode,
    /// Crypto/stream frames folded into reassembly buffers (count-only).
    Reassembly,
    /// Datagram pool lookups; allocation delta = pool misses.
    DatagramPool,
    /// §3.3 qlog extraction into packet observations.
    SpinExtraction,
    /// Observer-report construction and flow classification.
    Classify,
    /// On-path observer fold over the probe's tap capture.
    ObserverFold,
    /// Tap packets the observer ingested (count-only).
    ObserverSamples,
    /// Qlog trace retention/encoding on `keep_qlogs` campaigns.
    QlogEncode,
    /// The flight recorder inspecting one scanned domain's records:
    /// anomaly checks, trace encoding and retention. Enters count the
    /// domains inspected.
    FlightInspect,
    /// Folding finished domain records into the shared accumulators.
    RecordIntern,
    /// A worker publishing a finished batch to the campaign engine's
    /// in-order mailbox (lock + hand-off). Pure scheduling cost, so
    /// non-deterministic and excluded from `profile.json`.
    BatchMailbox,
}

/// Static metadata for one scope: leaf name, interned full path,
/// parent link, whether its counts are deterministic (pure functions of
/// the record stream, independent of worker count), and the telemetry
/// stage it feeds.
#[derive(Debug)]
pub struct ScopeInfo {
    /// Leaf name (last path segment).
    pub name: &'static str,
    /// Full slash-joined path from the root.
    pub path: &'static str,
    /// Enclosing scope; `None` for tree roots.
    pub parent: Option<ScopeId>,
    /// Whether the scope's counts belong in `profile.json`.
    pub deterministic: bool,
    /// The stage histogram that is a view of this scope's wall samples.
    pub stage: Option<Stage>,
}

const fn scope(
    name: &'static str,
    path: &'static str,
    parent: Option<ScopeId>,
    deterministic: bool,
    stage: Option<Stage>,
) -> ScopeInfo {
    ScopeInfo {
        name,
        path,
        parent,
        deterministic,
        stage,
    }
}

/// The static scope table, indexed by `ScopeId as usize`.
const SCOPES: [ScopeInfo; ScopeId::COUNT] = [
    scope("probe", "probe", None, true, None),
    scope("plan", "probe/plan", Some(ScopeId::Probe), true, None),
    scope("lab", "probe/lab", Some(ScopeId::Probe), true, None),
    scope(
        "handshake",
        "probe/lab/handshake",
        Some(ScopeId::Lab),
        true,
        Some(Stage::Handshake),
    ),
    scope(
        "transfer",
        "probe/lab/transfer",
        Some(ScopeId::Lab),
        true,
        Some(Stage::Transfer),
    ),
    scope(
        "wheel_push",
        "probe/lab/wheel_push",
        Some(ScopeId::Lab),
        true,
        None,
    ),
    scope(
        "wheel_pop",
        "probe/lab/wheel_pop",
        Some(ScopeId::Lab),
        true,
        None,
    ),
    scope(
        "link_delivery",
        "probe/lab/link_delivery",
        Some(ScopeId::Lab),
        true,
        None,
    ),
    scope(
        "packet_encode",
        "probe/lab/packet_encode",
        Some(ScopeId::Lab),
        true,
        None,
    ),
    scope(
        "packet_decode",
        "probe/lab/packet_decode",
        Some(ScopeId::Lab),
        true,
        None,
    ),
    scope(
        "reassembly",
        "probe/lab/reassembly",
        Some(ScopeId::Lab),
        true,
        None,
    ),
    scope(
        "datagram_pool",
        "probe/lab/datagram_pool",
        Some(ScopeId::Lab),
        true,
        None,
    ),
    scope(
        "spin_extraction",
        "probe/spin_extraction",
        Some(ScopeId::Probe),
        true,
        Some(Stage::SpinExtraction),
    ),
    scope(
        "classify",
        "probe/classify",
        Some(ScopeId::Probe),
        true,
        Some(Stage::Classify),
    ),
    scope(
        "observer_fold",
        "probe/observer_fold",
        Some(ScopeId::Probe),
        true,
        Some(Stage::ObserverFold),
    ),
    scope(
        "samples",
        "probe/observer_fold/samples",
        Some(ScopeId::ObserverFold),
        true,
        None,
    ),
    scope(
        "qlog_encode",
        "probe/qlog_encode",
        Some(ScopeId::Probe),
        true,
        Some(Stage::QlogEncode),
    ),
    scope("flight_inspect", "flight_inspect", None, true, None),
    scope("record_intern", "record_intern", None, true, None),
    scope("batch_mailbox", "batch_mailbox", None, false, None),
];

impl ScopeId {
    /// Every scope, in declaration (and index) order.
    pub const ALL: &'static [ScopeId] = &[
        ScopeId::Probe,
        ScopeId::Plan,
        ScopeId::Lab,
        ScopeId::LabHandshake,
        ScopeId::LabTransfer,
        ScopeId::WheelPush,
        ScopeId::WheelPop,
        ScopeId::LinkDelivery,
        ScopeId::PacketEncode,
        ScopeId::PacketDecode,
        ScopeId::Reassembly,
        ScopeId::DatagramPool,
        ScopeId::SpinExtraction,
        ScopeId::Classify,
        ScopeId::ObserverFold,
        ScopeId::ObserverSamples,
        ScopeId::QlogEncode,
        ScopeId::FlightInspect,
        ScopeId::RecordIntern,
        ScopeId::BatchMailbox,
    ];

    /// Number of scopes.
    pub const COUNT: usize = ScopeId::ALL.len();

    /// Static metadata for this scope.
    #[inline]
    pub fn info(self) -> &'static ScopeInfo {
        &SCOPES[self as usize]
    }

    /// Leaf name (last path segment).
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// Interned full path (`probe/lab/handshake`).
    pub fn path(self) -> &'static str {
        self.info().path
    }

    /// Enclosing scope, if any.
    pub fn parent(self) -> Option<ScopeId> {
        self.info().parent
    }

    /// Whether this scope's counts are worker-count invariant.
    pub fn deterministic(self) -> bool {
        self.info().deterministic
    }

    /// The telemetry stage whose histogram is a view of this scope's
    /// wall samples, if any.
    pub fn stage(self) -> Option<Stage> {
        self.info().stage
    }

    /// Nesting depth (roots are 0).
    pub fn depth(self) -> usize {
        let mut d = 0;
        let mut cur = self;
        while let Some(p) = cur.parent() {
            d += 1;
            cur = p;
        }
        d
    }

    /// Direct children, in declaration order.
    pub fn children(self) -> impl Iterator<Item = ScopeId> {
        ScopeId::ALL
            .iter()
            .copied()
            .filter(move |s| s.parent() == Some(self))
    }
}

/// One scope's cells inside a [`WorkerShard`]: plain integers the
/// [`ProfilerRegistry`] folds in on absorb.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScopeCells {
    pub(crate) enters: u64,
    pub(crate) wall_ns: u64,
    pub(crate) allocs: u64,
    pub(crate) queue_ops: u64,
}

/// The shared, campaign-wide profiler store (relaxed atomics).
///
/// Absorbing a shard is a sequence of commutative `fetch_add`s, so the
/// merged totals are independent of worker count and absorb order —
/// the property that makes `profile.json` byte-identical across
/// `--threads 1` and `--threads 4`.
pub struct ProfilerRegistry {
    enabled: bool,
    enters: [Counter; ScopeId::COUNT],
    wall_ns: [Counter; ScopeId::COUNT],
    allocs: [Counter; ScopeId::COUNT],
    queue_ops: [Counter; ScopeId::COUNT],
}

impl Default for ProfilerRegistry {
    fn default() -> Self {
        ProfilerRegistry::disabled()
    }
}

impl std::fmt::Debug for ProfilerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfilerRegistry")
            .field("enabled", &self.enabled)
            .field("probe_enters", &self.enters(ScopeId::Probe))
            .finish_non_exhaustive()
    }
}

impl ProfilerRegistry {
    fn with_enabled(enabled: bool) -> Self {
        ProfilerRegistry {
            enabled,
            enters: std::array::from_fn(|_| Counter::new()),
            wall_ns: std::array::from_fn(|_| Counter::new()),
            allocs: std::array::from_fn(|_| Counter::new()),
            queue_ops: std::array::from_fn(|_| Counter::new()),
        }
    }

    /// A live profiler that records everything.
    pub fn new() -> Self {
        ProfilerRegistry::with_enabled(true)
    }

    /// A no-op profiler: shards stay disabled, absorbs are ignored.
    /// The default for campaigns that don't ask for profiling.
    pub fn disabled() -> Self {
        ProfilerRegistry::with_enabled(false)
    }

    /// Whether this profiler records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Creates a worker shard that profiles when this profiler is
    /// enabled (and records no metrics).
    pub fn shard(&self) -> WorkerShard {
        let mut shard = WorkerShard::default();
        shard.set_enabled(false, self.enabled);
        shard
    }

    /// Folds the scope cells of one worker shard into the shared store
    /// (no-op when disabled; only nonzero cells touch shared
    /// cachelines).
    pub fn absorb(&self, shard: &WorkerShard) {
        if !self.enabled {
            return;
        }
        for (i, cells) in shard.scopes.iter().enumerate() {
            let pairs = [
                (&self.enters[i], cells.enters),
                (&self.wall_ns[i], cells.wall_ns),
                (&self.allocs[i], cells.allocs),
                (&self.queue_ops[i], cells.queue_ops),
            ];
            for (total, v) in pairs {
                if v != 0 {
                    total.add(v);
                }
            }
        }
    }

    /// Current enter count for one scope.
    pub fn enters(&self, scope: ScopeId) -> u64 {
        self.enters[scope as usize].get()
    }

    /// Current cumulative wall nanoseconds for one scope.
    pub fn wall_ns(&self, scope: ScopeId) -> u64 {
        self.wall_ns[scope as usize].get()
    }

    /// Point-in-time export: every scope with cumulative wall and
    /// derived self time.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let wall: Vec<u64> = ScopeId::ALL.iter().map(|&s| self.wall_ns(s)).collect();
        let scopes = ScopeId::ALL
            .iter()
            .map(|&s| {
                let child_wall: u64 = s.children().map(|c| wall[c as usize]).sum();
                ScopeCost {
                    scope: s,
                    enters: self.enters(s),
                    wall_ns: wall[s as usize],
                    self_ns: wall[s as usize].saturating_sub(child_wall),
                    allocs: self.allocs[s as usize].get(),
                    queue_ops: self.queue_ops[s as usize].get(),
                }
            })
            .collect();
        ProfileSnapshot { scopes }
    }
}

/// One scope's merged costs inside a [`ProfileSnapshot`].
#[derive(Debug, Clone, Copy)]
pub struct ScopeCost {
    /// Which scope.
    pub scope: ScopeId,
    /// Times the scope was entered.
    pub enters: u64,
    /// Cumulative wall nanoseconds (scope plus its children).
    pub wall_ns: u64,
    /// Self wall nanoseconds: cumulative minus the children's cumulative
    /// (saturating — clock jitter can make children sum past the parent).
    pub self_ns: u64,
    /// Heap allocations attributed to the scope.
    pub allocs: u64,
    /// Event-queue operations attributed to the scope.
    pub queue_ops: u64,
}

/// A merged view of every scope, in declaration order.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// One entry per [`ScopeId`], declaration order.
    pub scopes: Vec<ScopeCost>,
}

impl ProfileSnapshot {
    /// The cost row for one scope.
    pub fn cost(&self, scope: ScopeId) -> &ScopeCost {
        &self.scopes[scope as usize]
    }

    /// The deterministic half, ready to write as `profile.json`.
    pub fn doc(&self) -> ProfileDoc {
        ProfileDoc {
            schema_version: PROFILE_SCHEMA_VERSION,
            scopes: self
                .scopes
                .iter()
                .filter(|c| c.scope.deterministic())
                .map(|c| ProfileScopeRow {
                    path: c.scope.path().to_string(),
                    enters: c.enters,
                    allocs: c.allocs,
                    queue_ops: c.queue_ops,
                })
                .collect(),
        }
    }

    /// Collapsed-stack weights: `(full path, self wall ns)` for every
    /// scope that accumulated self time, declaration order. The caller
    /// renders these as `frame;frame;frame weight` lines.
    pub fn collapsed(&self) -> Vec<(&'static str, u64)> {
        self.scopes
            .iter()
            .filter(|c| c.self_ns > 0)
            .map(|c| (c.scope.path(), c.self_ns))
            .collect()
    }
}

/// The deterministic profile artifact (`profile.json`): per-scope enter
/// counts and allocation / event-queue-op deltas. Wall time is
/// deliberately absent — it can never be byte-identical across runs, so
/// it rides only in the collapsed-stack export.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileDoc {
    /// Schema version (currently [`PROFILE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// One row per deterministic scope, declaration order. Always the
    /// full set, so the layout is stable across runs and diffs line up.
    pub scopes: Vec<ProfileScopeRow>,
}

/// One deterministic scope's costs inside a [`ProfileDoc`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileScopeRow {
    /// Full slash-joined scope path.
    pub path: String,
    /// Times the scope was entered.
    pub enters: u64,
    /// Heap allocations attributed to the scope.
    pub allocs: u64,
    /// Event-queue operations attributed to the scope.
    pub queue_ops: u64,
}

impl ProfileDoc {
    /// The row for one scope path.
    pub fn row(&self, path: &str) -> Option<&ProfileScopeRow> {
        self.scopes.iter().find(|r| r.path == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_table_is_a_well_formed_bounded_forest() {
        use std::collections::HashSet;
        let names: HashSet<&str> = ScopeId::ALL.iter().map(|s| s.path()).collect();
        assert_eq!(names.len(), ScopeId::COUNT, "scope paths must be unique");
        for (i, &s) in ScopeId::ALL.iter().enumerate() {
            assert_eq!(s as usize, i);
            assert!(s.depth() <= MAX_SCOPE_DEPTH, "{} too deep", s.path());
            match s.parent() {
                None => assert_eq!(s.path(), s.name(), "root path is its name"),
                Some(p) => {
                    assert!(
                        (p as usize) < i,
                        "parent {} must precede child {}",
                        p.path(),
                        s.path()
                    );
                    assert_eq!(
                        s.path(),
                        format!("{}/{}", p.path(), s.name()),
                        "interned path must be parent path + leaf name"
                    );
                }
            }
        }
        // The deliberate exception: the batch-mailbox hand-off is pure
        // scheduling cost, so it must stay out of profile.json.
        assert!(!ScopeId::BatchMailbox.deterministic());
        assert_eq!(
            ScopeId::ALL.iter().filter(|s| !s.deterministic()).count(),
            1
        );
    }

    #[test]
    fn every_stage_but_probe_is_a_view_of_exactly_one_scope() {
        for &stage in Stage::ALL {
            let scopes: Vec<ScopeId> = ScopeId::ALL
                .iter()
                .copied()
                .filter(|s| s.stage() == Some(stage))
                .collect();
            match stage {
                Stage::Probe => assert!(scopes.is_empty()),
                _ => {
                    assert_eq!(scopes.len(), 1, "{}", stage.name());
                    assert_eq!(scopes[0].name(), stage.name());
                }
            }
        }
    }

    #[test]
    fn disabled_profiler_costs_a_branch_and_records_nothing() {
        let reg = ProfilerRegistry::disabled();
        let mut shard = reg.shard();
        assert!(!shard.is_enabled());
        assert!(shard.begin().is_none());
        assert!(shard.lap(ScopeId::Plan, None).is_none());
        shard.end(ScopeId::Probe, None);
        shard.enter(ScopeId::Probe);
        assert!(shard.is_empty());
        reg.absorb(&shard);
        assert_eq!(reg.enters(ScopeId::Probe), 0);
        assert!(reg.snapshot().scopes.iter().all(|c| c.enters == 0));
    }

    #[test]
    fn lap_chain_counts_enters_and_accumulates_wall() {
        let reg = ProfilerRegistry::new();
        let mut shard = reg.shard();
        let t0 = shard.begin();
        assert!(t0.is_some());
        let t = shard.lap(ScopeId::Plan, t0);
        let t = shard.lap(ScopeId::Lab, t);
        assert!(t.is_some());
        shard.end(ScopeId::Probe, t0);
        assert_eq!(shard.enters(ScopeId::Plan), 1);
        assert_eq!(shard.enters(ScopeId::Lab), 1);
        assert_eq!(shard.enters(ScopeId::Probe), 1);
        // The probe scope spans the whole chain, so its wall dominates.
        assert!(
            shard.wall_ns(ScopeId::Probe)
                >= shard.wall_ns(ScopeId::Plan) + shard.wall_ns(ScopeId::Lab)
        );
    }

    #[test]
    fn snapshot_derives_self_time_from_the_children() {
        let reg = ProfilerRegistry::new();
        let mut shard = reg.shard();
        shard.add_wall_ns(ScopeId::Probe, 100);
        shard.add_wall_ns(ScopeId::Lab, 60);
        shard.add_wall_ns(ScopeId::Plan, 10);
        shard.add_wall_ns(ScopeId::LabHandshake, 25);
        shard.add_wall_ns(ScopeId::LabTransfer, 30);
        reg.absorb(&shard);
        let snap = reg.snapshot();
        // probe self = 100 - (plan 10 + lab 60); count-only children of
        // probe contribute no wall.
        assert_eq!(snap.cost(ScopeId::Probe).self_ns, 30);
        assert_eq!(snap.cost(ScopeId::Lab).self_ns, 5);
        assert_eq!(snap.cost(ScopeId::LabHandshake).self_ns, 25);
        // A child summing past its parent saturates instead of wrapping.
        let over = ProfilerRegistry::new();
        let mut s = over.shard();
        s.add_wall_ns(ScopeId::ObserverFold, 10);
        s.add_wall_ns(ScopeId::ObserverSamples, 25);
        over.absorb(&s);
        assert_eq!(over.snapshot().cost(ScopeId::ObserverFold).self_ns, 0);
    }

    #[test]
    fn absorb_order_cannot_change_the_merged_totals() {
        // Satellite guarantee: scope-tree determinism under shard merge.
        // Build k distinct shards and fold them in different orders (and
        // groupings, by recording several into one shard); every variant
        // must agree.
        let profiler = ProfilerRegistry::new();
        let fill = |s: &mut WorkerShard, k: u64| {
            for (i, &scope) in ScopeId::ALL.iter().enumerate() {
                s.enter_n(scope, k * 7 + i as u64);
                s.add_wall_ns(scope, k * 1_000 + i as u64 * 13);
                s.add_allocs(scope, k + i as u64);
                s.add_queue_ops(scope, (k * i as u64) % 9);
            }
        };
        let shards: Vec<WorkerShard> = (0..5u64)
            .map(|k| {
                let mut s = profiler.shard();
                fill(&mut s, k);
                s
            })
            .collect();
        let totals = |reg: &ProfilerRegistry| {
            let snap = reg.snapshot();
            snap.scopes
                .iter()
                .map(|c| (c.enters, c.wall_ns, c.self_ns, c.allocs, c.queue_ops))
                .collect::<Vec<_>>()
        };
        let forward = ProfilerRegistry::new();
        for s in &shards {
            forward.absorb(s);
        }
        let reverse = ProfilerRegistry::new();
        for s in shards.iter().rev() {
            reverse.absorb(s);
        }
        let grouped = ProfilerRegistry::new();
        for ks in [0..3u64, 3..5] {
            let mut s = profiler.shard();
            for k in ks {
                fill(&mut s, k);
            }
            grouped.absorb(&s);
        }
        assert_eq!(totals(&forward), totals(&reverse));
        assert_eq!(totals(&forward), totals(&grouped));
        assert_eq!(
            serde_json::to_string(&forward.snapshot().doc()).unwrap(),
            serde_json::to_string(&grouped.snapshot().doc()).unwrap(),
            "the serialized deterministic doc must match byte for byte"
        );
    }

    #[test]
    fn doc_covers_exactly_the_deterministic_scopes_without_wall_time() {
        let reg = ProfilerRegistry::new();
        let mut shard = reg.shard();
        shard.enter_n(ScopeId::WheelPush, 42);
        shard.add_queue_ops(ScopeId::WheelPush, 42);
        shard.enter(ScopeId::BatchMailbox);
        shard.add_wall_ns(ScopeId::BatchMailbox, 9_999);
        reg.absorb(&shard);
        let doc = reg.snapshot().doc();
        assert_eq!(doc.schema_version, PROFILE_SCHEMA_VERSION);
        assert_eq!(
            doc.scopes.len(),
            ScopeId::ALL.iter().filter(|s| s.deterministic()).count()
        );
        assert!(doc.row("batch_mailbox").is_none());
        let row = doc.row("probe/lab/wheel_push").unwrap();
        assert_eq!((row.enters, row.queue_ops), (42, 42));
        // Zero rows still export: a stable layout keeps diffs aligned.
        assert_eq!(doc.scopes[0].path, "probe");
        let json = serde_json::to_string(&doc).unwrap();
        assert!(
            !json.contains("wall"),
            "profile.json must not carry wall time"
        );
        let back: ProfileDoc = serde_json::from_str(&json).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn collapsed_weights_cover_only_scopes_with_self_time() {
        let reg = ProfilerRegistry::new();
        let mut shard = reg.shard();
        shard.add_wall_ns(ScopeId::Probe, 100);
        shard.add_wall_ns(ScopeId::Lab, 100);
        shard.add_wall_ns(ScopeId::LabHandshake, 40);
        reg.absorb(&shard);
        let lines = reg.snapshot().collapsed();
        // probe self = 0 (lab swallows it) — only lab and its handshake
        // carry weight.
        assert_eq!(lines, vec![("probe/lab", 60), ("probe/lab/handshake", 40)]);
    }
}
