//! Virtual-time metrics sampler (DESIGN.md §14.3).
//!
//! End-of-run counter totals cannot show how dirty ratio, cache hit rate,
//! or shard queue depth *evolved* during a run. [`MetricsSampler`] closes
//! that gap the same way the scrub and flusher daemons piggyback on the
//! foreground clock: components call [`MetricsSampler::poll`] with the
//! current virtual time at the top of every timed store operation, and
//! whenever the clock has crossed a fixed virtual interval boundary the
//! sampler reads every registered gauge probe once and appends one point
//! per series. Sampling reads state but never advances any clock or takes
//! a grant, so it is timing-neutral by construction; with the sampler
//! disabled (the default) `poll` is a single branch.
//!
//! Determinism: `poll` runs under the engine baton (one process at a time
//! in `(virtual clock, id)` order), so for a fixed seed the same process
//! crosses each interval boundary first on every run and the sampled
//! values are bit-identical. Probes return `Option<u64>`; `None` means
//! "unavailable right now" (e.g. a `try_borrow_mut` miss, impossible
//! while no borrow spans a poll, but handled for safety) and re-reports
//! the series' last value.
//!
//! Cadence rule: one point per *crossed boundary*, not per elapsed
//! interval — if the foreground clock jumps several intervals between two
//! polls (idle ranks), the sampler emits a single point at the latest
//! boundary rather than inventing intermediate samples it never observed.

use simcore::VTime;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A gauge probe: reads one instantaneous value at virtual time `t`.
/// Probes must not borrow state that stays borrowed where polls fire (a
/// mount's state does; push it into cells instead), and must capture only
/// `Rc`s that do not (transitively) contain the sampler itself.
pub type GaugeProbe = Box<dyn Fn(VTime) -> Option<u64>>;

/// One exported series: a gauge name plus `(t_ns, value)` points at
/// interval boundaries (plus one forced end-of-run point).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeSeries {
    pub name: String,
    pub points: Vec<(u64, u64)>,
}

struct SamplerState {
    names: Vec<String>,
    probes: Vec<GaugeProbe>,
    last: Vec<Option<u64>>,
    series: Vec<Vec<(u64, u64)>>,
}

struct SamplerInner {
    interval_ns: u64,
    /// Next boundary at which a sample is due. `u64::MAX` once poisoned.
    next_at_ns: Cell<u64>,
    state: RefCell<SamplerState>,
}

/// Shared-handle virtual-time gauge sampler. Cheap to clone; a disabled
/// sampler (`MetricsSampler::disabled`) is inert and free to poll.
#[derive(Clone, Default)]
pub struct MetricsSampler {
    inner: Option<Rc<SamplerInner>>,
}

impl MetricsSampler {
    /// An inert sampler: `poll` is a no-op, `series` is empty.
    pub fn disabled() -> Self {
        MetricsSampler { inner: None }
    }

    /// An active sampler taking one sample per `interval` of virtual time
    /// (boundaries at multiples of the interval, first at `interval`).
    pub fn enabled(interval: VTime) -> Self {
        let interval_ns = interval.as_nanos().max(1);
        MetricsSampler {
            inner: Some(Rc::new(SamplerInner {
                interval_ns,
                next_at_ns: Cell::new(interval_ns),
                state: RefCell::new(SamplerState {
                    names: Vec::new(),
                    probes: Vec::new(),
                    last: Vec::new(),
                    series: Vec::new(),
                }),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register a named gauge. No-op on a disabled sampler. Names should
    /// be stable dotted identifiers (see DESIGN.md §9 catalogue).
    pub fn register(&self, name: &str, probe: GaugeProbe) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.borrow_mut();
        st.names.push(name.to_string());
        st.probes.push(probe);
        st.last.push(None);
        st.series.push(Vec::new());
    }

    /// Sample if `t` has crossed the next interval boundary. Called at
    /// the top of every timed store operation; the fast path (no boundary
    /// crossed, or sampler disabled) is one comparison.
    pub fn poll(&self, t: VTime) {
        let Some(inner) = &self.inner else { return };
        let t_ns = t.as_nanos();
        if t_ns < inner.next_at_ns.get() {
            return;
        }
        // One point per crossing: sample at the latest boundary <= t.
        let tick = (t_ns / inner.interval_ns) * inner.interval_ns;
        self.sample_at(inner, tick);
        inner.next_at_ns.set(tick + inner.interval_ns);
    }

    /// Force a final sample at `t` (end of run / makespan), regardless of
    /// boundary alignment, so every series covers the whole window.
    pub fn sample_now(&self, t: VTime) {
        let Some(inner) = &self.inner else { return };
        self.sample_at(inner, t.as_nanos());
    }

    fn sample_at(&self, inner: &SamplerInner, t_ns: u64) {
        let mut st = inner.state.borrow_mut();
        let st = &mut *st;
        for i in 0..st.probes.len() {
            let v = match (st.probes[i])(VTime::from_nanos(t_ns)) {
                Some(v) => {
                    st.last[i] = Some(v);
                    v
                }
                // Probe unavailable: repeat the last observation, or skip
                // the point entirely if the gauge has never produced one.
                None => match st.last[i] {
                    Some(v) => v,
                    None => continue,
                },
            };
            let series = &mut st.series[i];
            // A forced end-of-run sample may land on an already-sampled
            // boundary; keep points strictly increasing in time.
            if series.last().is_some_and(|&(pt, _)| pt >= t_ns) {
                continue;
            }
            series.push((t_ns, v));
        }
    }

    /// Snapshot every non-empty series, in registration order.
    pub fn series(&self) -> Vec<GaugeSeries> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let st = inner.state.borrow();
        st.names
            .iter()
            .zip(&st.series)
            .filter(|(_, pts)| !pts.is_empty())
            .map(|(name, pts)| GaugeSeries {
                name: name.clone(),
                points: pts.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sampler_is_inert() {
        let s = MetricsSampler::disabled();
        s.register("g", Box::new(|_| Some(1)));
        s.poll(VTime::from_nanos(1_000_000));
        s.sample_now(VTime::from_nanos(2_000_000));
        assert!(!s.is_enabled());
        assert!(s.series().is_empty());
    }

    #[test]
    fn samples_once_per_crossed_boundary() {
        let s = MetricsSampler::enabled(VTime::from_nanos(100));
        let src = Rc::new(Cell::new(7));
        let src2 = src.clone();
        s.register("g", Box::new(move |_| Some(src2.get())));
        s.poll(VTime::from_nanos(50)); // before first boundary
        s.poll(VTime::from_nanos(100)); // boundary 100
        src.set(9);
        s.poll(VTime::from_nanos(120)); // same interval, no sample
        s.poll(VTime::from_nanos(350)); // jumped two boundaries: one point at 300
        let series = s.series();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].name, "g");
        assert_eq!(series[0].points, vec![(100, 7), (300, 9)]);
    }

    #[test]
    fn sample_now_appends_final_point_without_duplicating() {
        let s = MetricsSampler::enabled(VTime::from_nanos(100));
        s.register("g", Box::new(|t| Some(t.as_nanos())));
        s.poll(VTime::from_nanos(100));
        s.sample_now(VTime::from_nanos(100)); // same instant: no duplicate
        s.sample_now(VTime::from_nanos(142));
        assert_eq!(s.series()[0].points, vec![(100, 100), (142, 142)]);
    }

    #[test]
    fn none_probe_repeats_last_or_skips() {
        let s = MetricsSampler::enabled(VTime::from_nanos(10));
        let on = Rc::new(Cell::new(0));
        let on2 = on.clone();
        s.register(
            "g",
            Box::new(move |_| if on2.get() == 1 { Some(5) } else { None }),
        );
        s.poll(VTime::from_nanos(10)); // None, never observed: skipped
        on.set(1);
        s.poll(VTime::from_nanos(20)); // Some(5)
        on.set(0);
        s.poll(VTime::from_nanos(30)); // None: repeats 5
        assert_eq!(s.series()[0].points, vec![(20, 5), (30, 5)]);
    }
}
