//! The SSD device model.
//!
//! An [`Ssd`] is a FIFO-served device: each request occupies the device for
//! its access latency plus the transfer time at the profile's read or write
//! bandwidth. Requests smaller than the access granularity (a 4 KiB flash
//! page) still transfer a whole page internally — this is exactly the
//! granularity mismatch the paper's §III-D ("Bridging the Granularity
//! Gap") exists to hide.
//!
//! Writes additionally feed a wear model: flash blocks endure a limited
//! number of program/erase cycles, and the paper lists *"optimize the
//! total write volume"* as a design goal (§III-A). With ideal wear
//! leveling, mean P/E count is `bytes_written / capacity`; the model
//! reports that and the projected lifetime fraction consumed.

use crate::profiles::DeviceProfile;
use obs::{Layer, TraceRecorder};
use simcore::{Counter, Grant, Resource, StatsRegistry, VTime};

/// Wear summary for one flash device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WearReport {
    pub bytes_written: u64,
    pub erase_ops: u64,
    /// Mean program/erase cycles per block under ideal wear leveling.
    pub mean_pe_cycles: f64,
    /// Fraction of the device's endurance consumed (0.0 = new).
    pub life_consumed: f64,
}

/// A single simulated SSD (or any Table I device used as block storage).
#[derive(Clone, Debug)]
pub struct Ssd {
    profile: DeviceProfile,
    resource: Resource,
    read_bytes: Counter,
    written_bytes: Counter,
    reads: Counter,
    writes: Counter,
    trace: TraceRecorder,
    /// When set, device accesses are recorded as *detached* spans on this
    /// lane (the benefactor node's SSD lane), causally linked to the client
    /// span that triggered them, instead of nesting inside the client's
    /// lane.
    causal_lane: Option<u32>,
}

impl Ssd {
    /// Create a device; counters are registered under `name.*` so
    /// experiments can snapshot per-device traffic.
    pub fn new(name: &str, profile: DeviceProfile, stats: &StatsRegistry) -> Self {
        Ssd {
            profile,
            resource: Resource::new(name.to_string()),
            read_bytes: stats.counter(&format!("{name}.read_bytes")),
            written_bytes: stats.counter(&format!("{name}.written_bytes")),
            reads: stats.counter(&format!("{name}.reads")),
            writes: stats.counter(&format!("{name}.writes")),
            trace: TraceRecorder::disabled(),
            causal_lane: None,
        }
    }

    /// Attach a trace recorder (builder style; clones share it). Every
    /// device access becomes a `dev.read`/`dev.write` span covering queue
    /// wait plus service.
    pub fn with_tracer(mut self, trace: TraceRecorder) -> Self {
        self.trace = trace;
        self
    }

    /// Pin this device's spans to a dedicated causal lane (builder
    /// style); without one they nest in the caller's lane.
    pub fn with_causal_lane(mut self, lane: u32) -> Self {
        self.causal_lane = Some(lane);
        self
    }

    /// Open the span for one device access: detached on the device's
    /// causal lane (linked to the innermost client span) when it has one,
    /// lexically nested otherwise.
    fn dev_span(&self, name: &'static str, t: VTime) -> obs::SpanGuard {
        match self.causal_lane {
            Some(lane) => self
                .trace
                .causal_span(Layer::Dev, name, t, lane, self.trace.ctx()),
            None => self.trace.span(Layer::Dev, name, t),
        }
    }

    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    pub fn resource(&self) -> &Resource {
        &self.resource
    }

    /// Round a request size up to the device's internal access granularity.
    pub fn granular(&self, bytes: u64) -> u64 {
        let g = self.profile.access_granularity.max(1);
        bytes.div_ceil(g) * g
    }

    /// Serve a read of `bytes` requested at `t`.
    pub fn read_at(&self, t: VTime, bytes: u64) -> Grant {
        let moved = self.granular(bytes);
        self.read_bytes.add(moved);
        self.reads.inc();
        let sp = self.dev_span("dev.read", t);
        sp.arg("bytes", moved);
        let g = self
            .resource
            .transfer_at(t, moved, self.profile.read_bw, self.profile.latency);
        sp.finish(g.end);
        g
    }

    /// Serve a write of `bytes` requested at `t`.
    pub fn write_at(&self, t: VTime, bytes: u64) -> Grant {
        let moved = self.granular(bytes);
        self.written_bytes.add(moved);
        self.writes.inc();
        let sp = self.dev_span("dev.write", t);
        sp.arg("bytes", moved);
        let g = self
            .resource
            .transfer_at(t, moved, self.profile.write_bw, self.profile.latency);
        sp.finish(g.end);
        g
    }

    pub fn bytes_read(&self) -> u64 {
        self.read_bytes.get()
    }

    pub fn bytes_written(&self) -> u64 {
        self.written_bytes.get()
    }

    /// Wear accounting from total write volume.
    pub fn wear(&self) -> WearReport {
        let written = self.written_bytes.get();
        let erase_ops = if self.profile.erase_block == 0 {
            0
        } else {
            written.div_ceil(self.profile.erase_block)
        };
        let mean_pe = written as f64 / self.profile.capacity as f64;
        let limit = self.profile.kind.pe_cycle_limit();
        let life = if limit == u64::MAX {
            0.0
        } else {
            mean_pe / limit as f64
        };
        WearReport {
            bytes_written: written,
            erase_ops,
            mean_pe_cycles: mean_pe,
            life_consumed: life,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{DDR3_1600, INTEL_X25E};
    use simcore::Bandwidth;

    fn x25e() -> Ssd {
        Ssd::new("ssd0", INTEL_X25E, &StatsRegistry::new())
    }

    #[test]
    fn read_charges_latency_plus_transfer() {
        let d = x25e();
        let g = d.read_at(VTime::ZERO, 256 * 1024);
        let expect = VTime::from_micros(75) + Bandwidth::mb_per_sec(250.0).time_for(256 * 1024);
        assert_eq!(g.end, expect);
    }

    #[test]
    fn write_uses_write_bandwidth() {
        let d = x25e();
        let g = d.write_at(VTime::ZERO, 1_700_000);
        // 1.7e6 B at 170 MB/s = 10 ms (plus latency, 4 KiB-rounded size).
        let rounded = d.granular(1_700_000);
        let expect = VTime::from_micros(75) + Bandwidth::mb_per_sec(170.0).time_for(rounded);
        assert_eq!(g.end, expect);
    }

    #[test]
    fn sub_page_access_moves_a_whole_page() {
        let d = x25e();
        d.read_at(VTime::ZERO, 1);
        assert_eq!(d.bytes_read(), 4096);
        d.write_at(VTime::ZERO, 4097);
        assert_eq!(d.bytes_written(), 8192);
    }

    #[test]
    fn requests_queue_fifo() {
        let d = x25e();
        let g1 = d.read_at(VTime::ZERO, 4096);
        let g2 = d.read_at(VTime::ZERO, 4096);
        assert_eq!(g2.start, g1.end);
    }

    #[test]
    fn wear_report_scales_with_writes() {
        let d = x25e();
        assert_eq!(d.wear().life_consumed, 0.0);
        // Write one full device capacity: mean P/E = 1.
        d.write_at(VTime::ZERO, INTEL_X25E.capacity);
        let w = d.wear();
        assert!((w.mean_pe_cycles - 1.0).abs() < 1e-9);
        assert!((w.life_consumed - 1.0 / 100_000.0).abs() < 1e-12);
        assert_eq!(w.erase_ops, INTEL_X25E.capacity / INTEL_X25E.erase_block);
    }

    #[test]
    fn dram_profile_has_no_wear() {
        let d = Ssd::new("dram", DDR3_1600, &StatsRegistry::new());
        d.write_at(VTime::ZERO, 1 << 30);
        let w = d.wear();
        assert_eq!(w.erase_ops, 0);
        assert_eq!(w.life_consumed, 0.0);
    }

    #[test]
    fn causal_lane_detaches_dev_spans_without_timing_change() {
        let stats = StatsRegistry::new();
        let rec = TraceRecorder::enabled(&stats);
        let d = Ssd::new("ssd0", INTEL_X25E, &stats)
            .with_tracer(rec.clone())
            .with_causal_lane(obs::DEV_LANE_BASE + 4);
        let client = rec.span(Layer::Store, "store.chunk_fetch", VTime::ZERO);
        let g = d.read_at(VTime::from_micros(1), 4096);
        client.finish(g.end);
        let spans = rec.spans();
        assert_eq!(spans[1].name, "dev.read");
        assert_eq!(spans[1].lane, obs::DEV_LANE_BASE + 4);
        assert_eq!(spans[1].link, Some(0));
        assert_eq!(spans[1].parent, None);
        // Same access without a lane: identical grant, nested span.
        let stats2 = StatsRegistry::new();
        let rec2 = TraceRecorder::enabled(&stats2);
        let d2 = Ssd::new("ssd0", INTEL_X25E, &stats2).with_tracer(rec2.clone());
        let client2 = rec2.span(Layer::Store, "store.chunk_fetch", VTime::ZERO);
        let g2 = d2.read_at(VTime::from_micros(1), 4096);
        client2.finish(g2.end);
        assert_eq!(g2, g, "causal lane must not perturb timing");
        assert_eq!(rec2.spans()[1].link, None);
        assert_eq!(rec2.spans()[1].parent, Some(0));
    }

    #[test]
    fn counters_visible_in_registry() {
        let stats = StatsRegistry::new();
        let d = Ssd::new("ssdX", INTEL_X25E, &stats);
        d.read_at(VTime::ZERO, 100);
        assert_eq!(stats.get("ssdX.read_bytes"), 4096);
        assert_eq!(stats.get("ssdX.reads"), 1);
    }
}
