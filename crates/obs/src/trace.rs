//! Virtual-time span recording.
//!
//! A [`TraceRecorder`] lives next to the `StatsRegistry` in a cluster. Each
//! instrumented operation opens a [`SpanGuard`] with its virtual start time
//! and closes it with the virtual completion time the layer computed —
//! tracing never participates in the time arithmetic, so enabling it cannot
//! perturb results. Parent/child links come from an open-span stack per
//! engine process, and one for the driver outside every process: layer
//! calls are synchronous (mount → store → net → device), and the engine's
//! baton (one simulated process executes at a time, in `(virtual clock,
//! id)` order) makes the shared append order — and thus the whole trace —
//! deterministic.

use crate::causal::CausalCtx;
use simcore::{Histogram, ProcId, Snapshot, StatsRegistry, VTime};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Which layer of the stack a span or instant belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Application-visible nvmalloc API (`NvmClient`, `NvmVec`).
    Nvm,
    /// FUSE memory-mapped cache layer.
    Fuse,
    /// Aggregate chunk store (manager RPCs, chunk fetches, repair).
    Store,
    /// Interconnect transfers.
    Net,
    /// SSD / PFS device service.
    Dev,
    /// Injected fault events (instants).
    Fault,
}

impl Layer {
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Nvm => "nvm",
            Layer::Fuse => "fuse",
            Layer::Store => "store",
            Layer::Net => "net",
            Layer::Dev => "dev",
            Layer::Fault => "fault",
        }
    }

    pub const ALL: [Layer; 6] = [
        Layer::Nvm,
        Layer::Fuse,
        Layer::Store,
        Layer::Net,
        Layer::Dev,
        Layer::Fault,
    ];
}

/// One closed span. `id` is the span's index in creation order; `parent`
/// points at the span that was open in the same engine process (or in the
/// driver, outside the engine) when this one started (lexical call
/// nesting, which for async work — write-back, read-ahead — may *end*
/// after the parent does).
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u32,
    pub parent: Option<u32>,
    /// Causal cross-lane edge (DESIGN.md §14): the span that *enqueued*
    /// this one across a rank boundary. Only detached spans recorded via
    /// [`TraceRecorder::causal_span`] carry one; the Chrome exporter
    /// renders it as a flow-event arrow and the critical-path analyzer
    /// treats it as a dependency edge, exactly like `parent`.
    pub link: Option<u32>,
    /// Trace lane: the engine `ProcId` for spans recorded inside a
    /// simulated process, or the driver lane 1 000 000 otherwise.
    pub lane: u32,
    pub layer: Layer,
    pub name: &'static str,
    pub start: VTime,
    pub end: VTime,
    pub args: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    pub fn dur(&self) -> VTime {
        self.end.saturating_sub(self.start)
    }
}

/// A point event (fault injections, failovers).
#[derive(Clone, Debug)]
pub struct InstantRecord {
    pub lane: u32,
    pub layer: Layer,
    pub name: String,
    pub t: VTime,
}

/// The lane of the code that runs outside every engine process (the bench
/// driver doing setup I/O, a test's own body). Engine lanes are `ProcId`s
/// counting from zero, so the two cannot collide in practice. A recorder
/// stays on the thread that made it, so it has one driver.
const DRIVER_LANE: u32 = 1_000_000;

/// Spans kept before the recorder starts dropping (footer reports drops).
const MAX_SPANS: usize = 1 << 21;

struct Inner {
    stats: StatsRegistry,
    baseline: Snapshot,
    spans: RefCell<Vec<SpanRecord>>,
    instants: RefCell<Vec<InstantRecord>>,
    /// Stack of open span ids (lexical nesting) per engine process, and
    /// the driver's under `None`.
    open: RefCell<HashMap<Option<ProcId>, Vec<u32>>>,
    lane_labels: RefCell<BTreeMap<u32, String>>,
    dropped: Cell<u64>,
    /// Latency histograms per span name, interned once per name.
    hists: RefCell<HashMap<&'static str, Histogram>>,
}

/// Records spans/instants when enabled; every method is a cheap no-op when
/// disabled (one branch, no allocation). Cheap to clone — clones share the
/// underlying trace, on the one thread that runs the simulation. A recorder
/// never leaves that thread, so everything outside the engine's processes
/// is one driver, on one lane (DESIGN.md §13 "One thread, no atomics"):
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<obs::TraceRecorder>();
/// ```
#[derive(Clone, Default)]
pub struct TraceRecorder {
    inner: Option<Rc<Inner>>,
}

impl TraceRecorder {
    /// A recorder that drops everything (the default for every cluster).
    pub fn disabled() -> Self {
        TraceRecorder { inner: None }
    }

    /// A live recorder. `stats` is snapshotted now so the footer can report
    /// counter deltas over the traced window, and receives the latency
    /// histograms (`lat.<span name>`). Layers record lexical spans on the
    /// calling process's lane and detached spans on remote lanes (shard
    /// CPUs, benefactor SSDs) linked to the client spans that enqueued
    /// them (DESIGN.md §14).
    pub fn enabled(stats: &StatsRegistry) -> Self {
        TraceRecorder {
            inner: Some(Rc::new(Inner {
                stats: stats.clone(),
                baseline: stats.snapshot(),
                spans: RefCell::new(Vec::new()),
                instants: RefCell::new(Vec::new()),
                open: RefCell::new(HashMap::new()),
                lane_labels: RefCell::new(BTreeMap::new()),
                dropped: Cell::new(0),
                hists: RefCell::new(HashMap::new()),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The current causal context: the innermost span open in the calling
    /// engine process (or the driver), or an empty context when disabled
    /// or nothing is open. Pass it to [`TraceRecorder::causal_span`] to
    /// link remote work back to its enqueuer.
    pub fn ctx(&self) -> CausalCtx {
        let Some(inner) = &self.inner else {
            return CausalCtx(None);
        };
        CausalCtx(
            inner
                .open
                .borrow()
                .get(&simcore::current_proc())
                .and_then(|stack| stack.last().copied()),
        )
    }

    /// A process draws on lane `ProcId`; the driver on [`DRIVER_LANE`],
    /// labelled at its first span or instant.
    fn lane_of(inner: &Inner, runner: Option<ProcId>) -> u32 {
        match runner {
            Some(id) => id as u32,
            None => {
                inner
                    .lane_labels
                    .borrow_mut()
                    .entry(DRIVER_LANE)
                    .or_insert_with(|| "driver 0".into());
                DRIVER_LANE
            }
        }
    }

    /// Open a span at virtual time `start`. Close it with
    /// [`SpanGuard::finish`] at the operation's computed completion time;
    /// a guard dropped without `finish` (early `?` return) closes
    /// zero-length at `start`.
    pub fn span(&self, layer: Layer, name: &'static str, start: VTime) -> SpanGuard {
        self.open(layer, name, start, None)
    }

    /// Open a *detached* span pinned to an explicit `lane`, causally
    /// linked back to `cause` (DESIGN.md §14). Detached spans model
    /// remote work — shard-manager CPU occupancy, benefactor-side SSD
    /// service — that the client process computes synchronously but that
    /// conceptually runs on another rank: they never join the calling
    /// process's open-span stack (so lexical nesting is undisturbed and
    /// any close order is fine) and carry no lexical parent.
    pub fn causal_span(
        &self,
        layer: Layer,
        name: &'static str,
        start: VTime,
        lane: u32,
        cause: CausalCtx,
    ) -> SpanGuard {
        self.open(layer, name, start, Some((lane, cause)))
    }

    /// The one span opener: a lexical span on the calling process's lane,
    /// nested in its innermost open span, or — given `(lane, cause)` — a
    /// detached span on that lane, linked to `cause`.
    fn open(
        &self,
        layer: Layer,
        name: &'static str,
        start: VTime,
        detached: Option<(u32, CausalCtx)>,
    ) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard::inert();
        };
        let mut spans = inner.spans.borrow_mut();
        if spans.len() >= MAX_SPANS {
            inner.dropped.set(inner.dropped.get() + 1);
            return SpanGuard::inert();
        }
        let id = spans.len() as u32;
        let (lane, parent, link) = match detached {
            Some((lane, cause)) => (lane, None, cause.0),
            None => {
                let runner = simcore::current_proc();
                let lane = Self::lane_of(inner, runner);
                let mut open = inner.open.borrow_mut();
                let stack = open.entry(runner).or_default();
                let parent = stack.last().copied();
                stack.push(id);
                (lane, parent, None)
            }
        };
        spans.push(SpanRecord {
            id,
            parent,
            link,
            lane,
            layer,
            name,
            start,
            end: start,
            args: Vec::new(),
        });
        SpanGuard {
            rec: Some(self.clone()),
            id: Some(id),
            detached: detached.is_some(),
        }
    }

    /// Record a point event (fault injection, failover decision).
    pub fn instant(&self, layer: Layer, name: impl Into<String>, t: VTime) {
        let Some(inner) = &self.inner else { return };
        let lane = Self::lane_of(inner, simcore::current_proc());
        inner.instants.borrow_mut().push(InstantRecord {
            lane,
            layer,
            name: name.into(),
            t,
        });
    }

    fn close(&self, id: u32, end: VTime, detached: bool) {
        let Some(inner) = &self.inner else { return };
        if !detached {
            let mut open = inner.open.borrow_mut();
            let stack = open.entry(simcore::current_proc()).or_default();
            debug_assert_eq!(
                stack.last().copied(),
                Some(id),
                "spans must close in LIFO order in a process or the driver"
            );
            if let Some(pos) = stack.iter().rposition(|&s| s == id) {
                stack.truncate(pos);
            }
        }
        let mut spans = inner.spans.borrow_mut();
        let rec = &mut spans[id as usize];
        rec.end = rec.start.max(end);
        let dur = rec.end.saturating_sub(rec.start).as_nanos();
        let name = rec.name;
        drop(spans);
        let hist = {
            let mut hists = inner.hists.borrow_mut();
            hists
                .entry(name)
                .or_insert_with(|| inner.stats.histogram(&format!("lat.{name}")))
                .clone()
        };
        hist.record(dur);
    }

    fn add_arg(&self, id: u32, k: &'static str, v: u64) {
        let Some(inner) = &self.inner else { return };
        inner.spans.borrow_mut()[id as usize].args.push((k, v));
    }

    /// Label a lane: the ranks' (`run_job`) and the causal lanes (shard
    /// CPUs, benefactor SSDs, metrics), which only ever receive detached
    /// spans. Labelling steers no span onto the lane.
    pub fn label_lane(&self, lane: u32, label: impl Into<String>) {
        let Some(inner) = &self.inner else { return };
        inner
            .lane_labels
            .borrow_mut()
            .entry(lane)
            .or_insert(label.into());
    }

    /// Closed-so-far spans, in creation order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner.spans.borrow().clone(),
            None => Vec::new(),
        }
    }

    pub fn instants(&self) -> Vec<InstantRecord> {
        match &self.inner {
            Some(inner) => inner.instants.borrow().clone(),
            None => Vec::new(),
        }
    }

    pub fn lane_labels(&self) -> BTreeMap<u32, String> {
        match &self.inner {
            Some(inner) => inner.lane_labels.borrow().clone(),
            None => BTreeMap::new(),
        }
    }

    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.dropped.get(),
            None => 0,
        }
    }

    /// The registry this recorder feeds (panics when disabled).
    pub fn stats(&self) -> &StatsRegistry {
        &self.inner.as_ref().expect("recorder disabled").stats
    }

    /// Counter values captured when the recorder was created.
    pub fn baseline(&self) -> Snapshot {
        match &self.inner {
            Some(inner) => inner.baseline.clone(),
            None => Snapshot::default(),
        }
    }
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("enabled", &self.is_enabled())
            .field("spans", &self.spans().len())
            .finish()
    }
}

/// Handle to an open span. `finish(end)` closes it at the operation's
/// computed virtual completion time; `arg` attaches small key/value pairs
/// (bytes, node ids, chunk indices) for the exported trace.
#[must_use = "call finish(end) with the op's virtual completion time"]
pub struct SpanGuard {
    rec: Option<TraceRecorder>,
    id: Option<u32>,
    /// Detached (causal) spans are not on the process's open-span stack,
    /// so closing must not pop it.
    detached: bool,
}

impl SpanGuard {
    fn inert() -> Self {
        SpanGuard {
            rec: None,
            id: None,
            detached: false,
        }
    }

    pub fn arg(&self, k: &'static str, v: u64) -> &Self {
        if let (Some(rec), Some(id)) = (&self.rec, self.id) {
            rec.add_arg(id, k, v);
        }
        self
    }

    /// Close the span at virtual time `end`.
    pub fn finish(mut self, end: VTime) {
        if let (Some(rec), Some(id)) = (self.rec.take(), self.id.take()) {
            rec.close(id, end, self.detached);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Early-error path: close zero-length so the open-span stack stays
        // balanced and the export stays well-formed.
        if let (Some(rec), Some(id)) = (self.rec.take(), self.id.take()) {
            let start = rec
                .inner
                .as_ref()
                .map(|i| i.spans.borrow()[id as usize].start)
                .unwrap_or(VTime::ZERO);
            rec.close(id, start, self.detached);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = TraceRecorder::disabled();
        let sp = rec.span(Layer::Fuse, "fuse.read", VTime::from_nanos(5));
        sp.arg("bytes", 100);
        sp.finish(VTime::from_nanos(9));
        assert!(!rec.ctx().is_linked());
        rec.causal_span(
            Layer::Store,
            "shardmgr.cpu",
            VTime::from_nanos(6),
            crate::causal::SHARD_LANE_BASE,
            rec.ctx(),
        )
        .finish(VTime::from_nanos(8));
        rec.instant(Layer::Fault, "crash", VTime::ZERO);
        assert!(rec.spans().is_empty());
        assert!(rec.instants().is_empty());
    }

    #[test]
    fn spans_nest_lexically() {
        let stats = StatsRegistry::new();
        let rec = TraceRecorder::enabled(&stats);
        let outer = rec.span(Layer::Fuse, "fuse.read", VTime::from_nanos(10));
        let inner = rec.span(Layer::Store, "store.chunk_fetch", VTime::from_nanos(12));
        inner.arg("chunk", 3);
        inner.finish(VTime::from_nanos(20));
        outer.finish(VTime::from_nanos(25));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].args, vec![("chunk", 3)]);
        assert_eq!(spans[0].dur(), VTime::from_nanos(15));
        // Latency histogram was fed with the duration.
        assert_eq!(stats.histogram("lat.store.chunk_fetch").count(), 1);
        assert_eq!(stats.histogram("lat.store.chunk_fetch").max(), 8);
    }

    #[test]
    fn dropped_guard_closes_zero_length() {
        let stats = StatsRegistry::new();
        let rec = TraceRecorder::enabled(&stats);
        {
            let _sp = rec.span(Layer::Store, "store.write_pages", VTime::from_nanos(7));
            // early `?` return: guard dropped without finish
        }
        let after = rec.span(Layer::Store, "store.other", VTime::from_nanos(8));
        after.finish(VTime::from_nanos(9));
        let spans = rec.spans();
        assert_eq!(spans[0].dur(), VTime::ZERO);
        assert_eq!(spans[1].parent, None, "dropped guard must pop the stack");
    }

    #[test]
    fn end_clamps_to_start() {
        let stats = StatsRegistry::new();
        let rec = TraceRecorder::enabled(&stats);
        let sp = rec.span(Layer::Net, "net.xfer", VTime::from_nanos(10));
        sp.finish(VTime::from_nanos(3));
        assert_eq!(rec.spans()[0].end, VTime::from_nanos(10));
    }

    #[test]
    fn causal_span_is_detached_and_linked() {
        let stats = StatsRegistry::new();
        let rec = TraceRecorder::enabled(&stats);
        let client = rec.span(Layer::Store, "store.mgr_rpc", VTime::from_nanos(10));
        let ctx = rec.ctx();
        assert!(ctx.is_linked());
        let remote = rec.causal_span(
            Layer::Store,
            "shardmgr.cpu",
            VTime::from_nanos(12),
            crate::causal::SHARD_LANE_BASE + 3,
            ctx,
        );
        // Detached: not on the driver's open stack, so a new lexical span
        // still parents to the client span.
        let nested = rec.span(Layer::Net, "net.transfer", VTime::from_nanos(13));
        nested.finish(VTime::from_nanos(14));
        remote.finish(VTime::from_nanos(20));
        client.finish(VTime::from_nanos(25));
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].name, "shardmgr.cpu");
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[1].link, Some(0));
        assert_eq!(spans[1].lane, crate::causal::SHARD_LANE_BASE + 3);
        assert_eq!(spans[2].parent, Some(0), "detached span must not nest");
        assert_eq!(spans[2].link, None);
    }

    #[test]
    fn label_lane_does_not_bind_thread() {
        let stats = StatsRegistry::new();
        let rec = TraceRecorder::enabled(&stats);
        rec.label_lane(crate::causal::DEV_LANE_BASE + 1, "ssd/1");
        rec.span(Layer::Nvm, "nvm.read", VTime::ZERO)
            .finish(VTime::ZERO);
        let spans = rec.spans();
        assert_eq!(
            spans[0].lane, DRIVER_LANE,
            "labelling must not steer the driver's spans"
        );
        assert_eq!(
            rec.lane_labels()
                .get(&(crate::causal::DEV_LANE_BASE + 1))
                .map(String::as_str),
            Some("ssd/1")
        );
    }

    #[test]
    fn open_spans_follow_the_engine_process_across_hand_offs() {
        let stats = StatsRegistry::new();
        let rec = TraceRecorder::enabled(&stats);
        let body = |ctx: &mut simcore::ProcCtx| {
            let outer = rec.span(Layer::Nvm, "outer", ctx.now());
            // The peer is behind: it runs, opens its own `outer` and hands
            // the baton back before this process opens `inner`.
            ctx.advance(VTime::from_nanos(1));
            ctx.yield_until_min();
            rec.span(Layer::Fuse, "inner", ctx.now()).finish(ctx.now());
            outer.finish(ctx.now());
        };
        simcore::Engine::run(vec![body, body]);
        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.lane)).collect();
        assert_eq!(
            names,
            [("outer", 0), ("outer", 1), ("inner", 0), ("inner", 1)]
        );
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(1));
    }

    #[test]
    fn one_driver_lane_and_a_lane_per_process_across_runs() {
        let stats = StatsRegistry::new();
        let rec = TraceRecorder::enabled(&stats);
        let setup = rec.span(Layer::Nvm, "setup", VTime::ZERO);
        let body = |ctx: &mut simcore::ProcCtx| {
            let outer = rec.span(Layer::Nvm, "outer", ctx.now());
            ctx.advance(VTime::from_nanos(1));
            ctx.yield_until_min();
            rec.span(Layer::Fuse, "inner", ctx.now()).finish(ctx.now());
            outer.finish(ctx.now());
        };
        simcore::Engine::run(vec![body, body]);
        rec.instant(Layer::Fault, "between", VTime::ZERO);
        simcore::Engine::run(vec![body]);
        rec.span(Layer::Fuse, "teardown", VTime::ZERO)
            .finish(VTime::ZERO);
        setup.finish(VTime::ZERO);

        let spans = rec.spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.lane, s.parent)).collect();
        assert_eq!(
            shape,
            [
                ("setup", DRIVER_LANE, None),
                ("outer", 0, None),
                ("outer", 1, None),
                ("inner", 0, Some(1)),
                ("inner", 1, Some(2)),
                ("outer", 0, None),
                ("inner", 0, Some(5)),
                ("teardown", DRIVER_LANE, Some(0)),
            ]
        );
        assert_eq!(rec.instants()[0].lane, DRIVER_LANE);
        let labels = rec.lane_labels();
        assert_eq!(labels.len(), 1, "{labels:?}");
        assert_eq!(labels[&DRIVER_LANE], "driver 0");
    }
}
