//! Critical-path attribution over the causal span DAG (DESIGN.md §14.2).
//!
//! The question every bench ultimately asks is *which layer bounds the
//! makespan*: the paper's thesis holds only while manager CPU, benefactor
//! SSDs, and network fan-in stay off the critical path. The trace is a
//! dependency forest — every span has at most one
//! outgoing edge (`parent` for lexical nesting, `link` for cross-rank
//! causal edges), both meaning "the pointed-to span's completion depended
//! on mine". The analyzer walks that forest backward from the makespan:
//!
//! 1. Append a pseudo-root covering `[min start, window end]` whose
//!    dependencies are all rootless spans; its own time is `untraced`.
//! 2. `walk(x, hi)`: starting from `t = min(hi, x.end)`, repeatedly take
//!    x's latest-ending dependency `d` that starts before `t`; the gap
//!    `(min(d.end, t), t]` is *x's own* critical time, then recurse into
//!    `d` below `min(d.end, t)` and continue from `t = d.start`. Whatever
//!    remains down to `x.start` is also x's own.
//!
//! Every nanosecond of the window is attributed exactly once, so the
//! per-category totals sum to the window length — the output is an exact
//! accounting, not a sample. All arithmetic is integer nanoseconds over
//! deterministically ordered spans, so the result is bit-identical across
//! reruns of the same seed.
//!
//! Categories are span layers (`fuse`, `store`, `net`, `dev`, ...) except
//! the shard-manager CPU spans, which get their own `mgr_cpu` bucket —
//! they are the paper's headline contention point — and gaps, which are
//! `untraced` (client think time, engine idle).

use crate::trace::{Layer, TraceRecorder};
use simcore::VTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One span as the analyzer sees it: a half-open interval plus at most
/// one outgoing dependency edge. `id`s must be dense (`0..len`, in
/// vector order).
struct CpSpan {
    id: u32,
    /// The span whose completion depended on this one (`parent` or
    /// causal `link`); `None` for roots.
    dep_of: Option<u32>,
    /// Attribution bucket (layer name, `mgr_cpu`, ...).
    category: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Critical-path attribution result. All durations are virtual
/// nanoseconds; `by_category` sums exactly to `path_ns`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CritPath {
    /// `[start, end]` of the analyzed window.
    pub window_ns: (u64, u64),
    /// Total attributed time (window length).
    pub path_ns: u64,
    /// Per-category critical time, sorted by category name.
    pub by_category: Vec<(String, u64)>,
    /// Heaviest span names on the path (desc by time, max 8).
    pub top_spans: Vec<(String, u64)>,
    /// Number of contiguous attributed intervals.
    pub segments: usize,
}

impl CritPath {
    pub fn category_ns(&self, cat: &str) -> u64 {
        self.by_category
            .iter()
            .find(|(c, _)| c == cat)
            .map_or(0, |&(_, ns)| ns)
    }

    /// Critical-path share of `cat`, in permille of the window.
    pub fn share_permille(&self, cat: &str) -> u64 {
        if self.path_ns == 0 {
            return 0;
        }
        self.category_ns(cat) * 1000 / self.path_ns
    }

    /// Human-readable report (the bench footers print it).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let (w0, w1) = self.window_ns;
        let _ = writeln!(
            out,
            "critical path: {:.3} ms over window [{:.3}, {:.3}] ms, {} segments",
            self.path_ns as f64 / 1e6,
            w0 as f64 / 1e6,
            w1 as f64 / 1e6,
            self.segments
        );
        let mut cats = self.by_category.clone();
        cats.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let _ = writeln!(out, "  by category:");
        for (cat, ns) in &cats {
            let _ = writeln!(
                out,
                "    {:<10} {:>12.3} ms  {:>5.1}%",
                cat,
                *ns as f64 / 1e6,
                self.share_permille(cat) as f64 / 10.0
            );
        }
        if !self.top_spans.is_empty() {
            let _ = writeln!(out, "  top spans on the path:");
            for (name, ns) in &self.top_spans {
                let _ = writeln!(out, "    {:<24} {:>12.3} ms", name, *ns as f64 / 1e6);
            }
        }
        out
    }
}

struct Acc {
    by_cat: BTreeMap<&'static str, u64>,
    by_name: BTreeMap<&'static str, u64>,
    segments: usize,
}

impl Acc {
    fn attr(&mut self, cat: &'static str, name: &'static str, lo: u64, hi: u64) {
        if hi <= lo {
            return;
        }
        *self.by_cat.entry(cat).or_default() += hi - lo;
        *self.by_name.entry(name).or_default() += hi - lo;
        self.segments += 1;
    }
}

/// Walk span `x`'s slice of the path below `hi`; see the module doc for
/// the recurrence. Each span is visited at most once (the dep graph is a
/// forest), so the walk is `O(n)` after the per-list sorts.
#[allow(clippy::too_many_arguments)]
fn walk(
    spans: &[CpSpan],
    deps: &[Vec<u32>],
    acc: &mut Acc,
    cat: &'static str,
    name: &'static str,
    start: u64,
    end: u64,
    my_deps: &[u32],
    hi: u64,
) {
    let mut t = hi.min(end);
    for &d in my_deps {
        let ds = &spans[d as usize];
        if ds.start_ns >= t {
            continue;
        }
        let de = ds.end_ns.min(t);
        acc.attr(cat, name, de, t);
        walk(
            spans,
            deps,
            acc,
            ds.category,
            ds.name,
            ds.start_ns,
            ds.end_ns,
            &deps[d as usize],
            de,
        );
        t = ds.start_ns;
    }
    acc.attr(cat, name, start, t);
}

/// Attribute the window `[min span start, window_end]` (or the spans'
/// extent when `window_end_ns` is `None`) across the dependency forest.
fn analyze(spans: &[CpSpan], window_end_ns: Option<u64>) -> CritPath {
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(s.id as usize, i, "CpSpan ids must be dense and in order");
    }
    let max_end = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
    let window_end = window_end_ns.unwrap_or(max_end).max(max_end);
    let window_start = spans.iter().map(|s| s.start_ns).min().unwrap_or(window_end);

    // Dependency lists, latest-ending first (ties: lower id first) so the
    // walk's greedy "latest dependency" choice is a plain iteration.
    let mut deps: Vec<Vec<u32>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<u32> = Vec::new();
    for s in spans {
        match s.dep_of {
            Some(p) => deps[p as usize].push(s.id),
            None => roots.push(s.id),
        }
    }
    let latest_first = |list: &mut Vec<u32>| {
        list.sort_by(|&a, &b| {
            spans[b as usize]
                .end_ns
                .cmp(&spans[a as usize].end_ns)
                .then(a.cmp(&b))
        });
    };
    for list in &mut deps {
        latest_first(list);
    }
    latest_first(&mut roots);

    let mut acc = Acc {
        by_cat: BTreeMap::new(),
        by_name: BTreeMap::new(),
        segments: 0,
    };
    // Pseudo-root: the whole window, depending on every rootless span.
    walk(
        spans,
        &deps,
        &mut acc,
        "untraced",
        "(untraced)",
        window_start,
        window_end,
        &roots,
        window_end,
    );

    let path_ns = window_end - window_start;
    debug_assert_eq!(
        acc.by_cat.values().sum::<u64>(),
        path_ns,
        "attribution must cover the window exactly once"
    );
    let mut top_spans: Vec<(&str, u64)> = acc.by_name.into_iter().collect();
    top_spans.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    top_spans.truncate(8);
    let owned = |(s, ns): (&str, u64)| (s.to_string(), ns);
    CritPath {
        window_ns: (window_start, window_end),
        path_ns,
        by_category: acc.by_cat.into_iter().map(owned).collect(),
        top_spans: top_spans.into_iter().map(owned).collect(),
        segments: acc.segments,
    }
}

/// Attribution bucket for a span (see module doc).
fn category_of(layer: Layer, name: &str) -> &'static str {
    if name == "shardmgr.cpu" {
        "mgr_cpu"
    } else {
        layer.as_str()
    }
}

/// Run the analyzer over a live recorder's spans. `window_end` is the
/// run's makespan; `None` falls back to the latest span end. Returns
/// `None` for a disabled recorder.
pub fn critical_path(rec: &TraceRecorder, window_end: Option<VTime>) -> Option<CritPath> {
    if !rec.is_enabled() {
        return None;
    }
    let spans: Vec<CpSpan> = rec
        .spans()
        .iter()
        .map(|s| CpSpan {
            id: s.id,
            dep_of: s.parent.or(s.link),
            category: category_of(s.layer, s.name),
            name: s.name,
            start_ns: s.start.as_nanos(),
            end_ns: s.end.as_nanos(),
        })
        .collect();
    Some(analyze(&spans, window_end.map(|t| t.as_nanos())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::SHARD_LANE_BASE;
    use simcore::StatsRegistry;

    fn span(
        id: u32,
        dep_of: Option<u32>,
        cat: &'static str,
        name: &'static str,
        s: u64,
        e: u64,
    ) -> CpSpan {
        CpSpan {
            id,
            dep_of,
            category: cat,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn empty_trace_is_all_untraced() {
        let cp = analyze(&[], Some(1000));
        assert_eq!(cp.window_ns, (1000, 1000));
        assert_eq!(cp.path_ns, 0);
    }

    #[test]
    fn nested_spans_attribute_gaps_to_parent() {
        // fuse [0,100] with dev dep [20,60]; window end 120.
        let spans = vec![
            span(0, None, "fuse", "fuse.read", 0, 100),
            span(1, Some(0), "dev", "dev.read", 20, 60),
        ];
        let cp = analyze(&spans, Some(120));
        assert_eq!(cp.path_ns, 120);
        // untraced: (100,120]; fuse: (60,100] + [0,20) = 60; dev: 40.
        assert_eq!(cp.category_ns("untraced"), 20);
        assert_eq!(cp.category_ns("fuse"), 60);
        assert_eq!(cp.category_ns("dev"), 40);
        assert_eq!(cp.top_spans[0], ("fuse.read".to_string(), 60));
    }

    #[test]
    fn latest_dependency_wins_on_overlap() {
        // Two overlapping deps: the walk chains through both, never
        // double-counting.
        let spans = vec![
            span(0, None, "fuse", "fuse.read", 0, 100),
            span(1, Some(0), "dev", "dev.read", 10, 90),
            span(2, Some(0), "net", "net.transfer", 5, 50),
        ];
        let cp = analyze(&spans, Some(100));
        assert_eq!(cp.path_ns, 100);
        // (90,100] fuse, (50,90] dev... then from t=10, net overlaps:
        // de=min(50,10)=10 -> 0ns to fuse, recurse net below 10 -> 5ns,
        // then t=5, finally [0,5) fuse.
        assert_eq!(cp.category_ns("fuse"), 15);
        assert_eq!(cp.category_ns("dev"), 80);
        assert_eq!(cp.category_ns("net"), 5);
        let total: u64 = cp.by_category.iter().map(|&(_, ns)| ns).sum();
        assert_eq!(total, cp.path_ns);
    }

    #[test]
    fn shardmgr_cpu_gets_its_own_category() {
        let stats = StatsRegistry::new();
        let rec = TraceRecorder::enabled(&stats);
        let client = rec.span(Layer::Store, "store.mgr_rpc", VTime::from_nanos(0));
        let cpu = rec.causal_span(
            Layer::Store,
            "shardmgr.cpu",
            VTime::from_nanos(40),
            SHARD_LANE_BASE,
            rec.ctx(),
        );
        cpu.finish(VTime::from_nanos(90));
        client.finish(VTime::from_nanos(100));
        let cp = critical_path(&rec, Some(VTime::from_nanos(100))).unwrap();
        assert_eq!(cp.category_ns("mgr_cpu"), 50);
        assert_eq!(cp.category_ns("store"), 50);
        assert_eq!(cp.share_permille("mgr_cpu"), 500);
    }
}
