//! Causal cross-rank trace edges (DESIGN.md §14).
//!
//! The recorder derives span parentage from lexical call nesting in one
//! engine process, which is exactly right for the synchronous client data
//! path (mount → store → net → device) but would collapse *remote* work
//! onto the client's lane: the shard-manager CPU occupancy a client RPC
//! queues behind, and the benefactor-side SSD service a fetch triggers,
//! are conceptually other ranks' time. The recorder therefore takes such
//! work as *detached* spans pinned to dedicated lanes, each carrying a
//! causal `link` back to the client span that enqueued it. The Chrome exporter turns every link
//! into a flow-event pair (`ph:"s"` in the source slice, `ph:"f"` with
//! `bp:"e"` in the destination slice), so Perfetto draws the cross-lane
//! arrows; the critical-path analyzer ([`crate::critpath`]) treats links
//! and lexical children uniformly as dependency edges.
//!
//! Lane numbering: engine ranks occupy `0..`, the driver `1_000_000`; the
//! causal lanes below are spaced far above both so the ranges can never
//! collide. Labels are registered with
//! [`crate::TraceRecorder::label_lane`] at cluster build.

/// Lane of placement shard `k`'s metadata CPU: `SHARD_LANE_BASE + k`.
pub const SHARD_LANE_BASE: u32 = 2_000_000;

/// Lane of the benefactor SSD on node `n`: `DEV_LANE_BASE + n`.
pub const DEV_LANE_BASE: u32 = 3_000_000;

/// A copyable causal context: the span (if any) on whose behalf remote
/// work is being recorded. Obtained from [`crate::TraceRecorder::ctx`]
/// (the innermost open span in the calling engine process) and passed to
/// [`crate::TraceRecorder::causal_span`], which stores it as the new
/// span's `link`. Empty when the recorder is disabled or no span is open
/// — linking is always best-effort and never affects timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CausalCtx(pub(crate) Option<u32>);

impl CausalCtx {
    /// Does this context name a source span?
    pub fn is_linked(&self) -> bool {
        self.0.is_some()
    }
}
