//! # obs — deterministic observability for the NVMalloc stack
//!
//! The paper's evaluation is an accounting exercise: Table IV/VII compare
//! byte volumes seen at the application vs. FUSE vs. SSD-store layers.
//! Flat counters (`simcore::stats`) answer *how much*; this crate answers
//! *where the virtual time went*:
//!
//! * [`TraceRecorder`] — parent/child spans in engine virtual time across
//!   the full request path (nvmalloc → fusemm → chunkstore → netsim →
//!   devices), attached next to the `StatsRegistry` and zero-cost when
//!   disabled;
//! * [`chrome`] — Chrome-trace-event JSON export, loadable in Perfetto,
//!   with balanced B/E pairs even for async spans (write-back, read-ahead)
//!   that outlive their parents;
//! * [`footer`] — the per-bench "obs footer": per-layer virtual-time
//!   breakdown, top-N slowest spans, histogram percentiles, counter
//!   deltas;
//! * [`json`] — a dependency-free JSON value/parser used by the trace
//!   validator (the workspace deliberately carries no serde).
//!
//! Everything here is deterministic: spans are recorded under the engine
//! baton (one process runs at a time, in `(virtual clock, id)` order), so
//! identical seed + config produce byte-identical exports.

pub mod causal;
pub mod chrome;
pub mod critpath;
pub mod footer;
pub mod json;
pub mod sampler;
pub mod trace;

pub use causal::{CausalCtx, DEV_LANE_BASE, SHARD_LANE_BASE};
pub use chrome::{validate_chrome_trace, ValidationError};
pub use critpath::{critical_path, CritPath};
pub use footer::{HistLine, LayerBreakdown, ObsFooter, TopSpan};
pub use sampler::{GaugeProbe, GaugeSeries, MetricsSampler};
pub use trace::{InstantRecord, Layer, SpanGuard, SpanRecord, TraceRecorder};
