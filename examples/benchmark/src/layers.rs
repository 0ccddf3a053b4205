//! What the traced pass yields: the virtual-clock end-to-end metrics that
//! need span durations, and the per-layer numbers, all read from public
//! counters and accessors, the obs footer and the critical path.

use crate::drives::UnitCosts;
use crate::report::Results;
use crate::workloads::{Outcome, Workload};
use chunkstore::BenefactorId;
use cluster::Cluster;
use obs::{critical_path, Layer, SpanRecord};
use simcore::VTime;
use std::collections::HashMap;

const MIB: f64 = 1024.0 * 1024.0;

/// `a / b`, 0 when the denominator is 0 (the metric's layer sat idle).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Span durations in nanoseconds, sorted, by span name.
pub struct Durations(HashMap<&'static str, Vec<u64>>);

impl Durations {
    pub fn of(spans: &[SpanRecord]) -> Self {
        let mut by_name: HashMap<&'static str, Vec<u64>> = HashMap::new();
        for s in spans {
            by_name.entry(s.name).or_default().push(s.dur().as_nanos());
        }
        for v in by_name.values_mut() {
            v.sort_unstable();
        }
        Durations(by_name)
    }

    pub fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }

    /// Exact order statistic in microseconds: the `ceil(q n)`-th smallest
    /// duration over the named spans (the convention of
    /// `simcore::Histogram::quantile`, without its bucketing); 0 if none.
    pub fn quantile_us(&self, names: &[&str], q: f64) -> f64 {
        let mut all: Vec<u64> = names
            .iter()
            .filter_map(|n| self.0.get(n))
            .flatten()
            .copied()
            .collect();
        if all.is_empty() {
            return 0.0;
        }
        all.sort_unstable();
        let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
        all[rank - 1] as f64 / 1e3
    }
}

/// The end-to-end metrics of the virtual clock. `traced` is the cluster
/// of the traced pass; `o` its outcome, already held equal to the
/// untraced repetitions'.
pub fn end_to_end(res: &mut Results, traced: &Cluster, durations: &Durations, o: &Outcome) {
    res.set("vt_makespan_s", o.makespan.as_secs_f64());
    for (op, span) in [("read", "nvm.read"), ("write", "nvm.write")] {
        res.set(
            &format!("vt_{op}_p50_us"),
            durations.quantile_us(&[span], 0.50),
        );
        res.set(
            &format!("vt_{op}_p99_us"),
            durations.quantile_us(&[span], 0.99),
        );
    }
    res.set(
        "ssd_write_amp",
        ratio(
            traced.total_ssd_bytes_written() as f64,
            traced.stats.get("nvm.app_write_bytes") as f64,
        ),
    );
    res.set(
        "op_ok_share",
        1.0 - ratio(res.failed as f64, res.attempted as f64),
    );
}

/// Host-clock facts of the untraced repetitions the per-layer shares
/// are computed against.
pub struct HostSide {
    pub wall_s: f64,
    pub traced_wall_s: f64,
    pub sys_share: f64,
}

pub fn per_layer(
    res: &mut Results,
    w: &Workload,
    traced: &Cluster,
    durations: &Durations,
    o: &Outcome,
    host: &HostSide,
    unit: &UnitCosts,
) {
    let c = |name: &str| traced.stats.get(name) as f64;
    let footer = traced.trace.footer(0);
    assert_eq!(
        footer.spans_dropped, 0,
        "the traced pass outgrew the recorder"
    );
    let job_end = o
        .job_end()
        .unwrap_or(VTime::from_nanos(footer.window_ns.1))
        .as_nanos() as f64;
    let layer_of = |l: Layer| footer.layers.iter().find(|b| b.layer == l);
    let self_ms = |l: Layer| layer_of(l).map_or(0.0, |b| b.self_ns as f64 / 1e6);
    let (app_read, app_write) = (c("nvm.app_read_bytes"), c("nvm.app_write_bytes"));

    res.set(
        "nvmalloc.ops",
        layer_of(Layer::Nvm).map_or(0, |b| b.spans) as f64,
    );
    res.set("nvmalloc.app_read_mib", app_read / MIB);
    res.set("nvmalloc.app_write_mib", app_write / MIB);
    res.set("nvmalloc.vt_self_ms", self_ms(Layer::Nvm));
    res.set(
        "nvmalloc.flush_p99_us",
        durations.quantile_us(&["nvm.flush"], 0.99),
    );
    res.set(
        "nvmalloc.ckpt_p50_us",
        durations.quantile_us(&["nvm.checkpoint"], 0.50),
    );
    res.set("nvmalloc.host_us_per_op", unit.nvm_us_per_op);

    let (hits, misses) = (c("fuse.hits"), c("fuse.misses"));
    res.set("fusemm.hit_ratio", ratio(hits, hits + misses));
    res.set("fusemm.evictions", c("fuse.evictions"));
    res.set(
        "fusemm.clean_evict_share",
        ratio(c("fuse.clean_evictions"), c("fuse.evictions")),
    );
    res.set(
        "fusemm.read_amp",
        ratio(c("store.bytes_to_clients"), app_read),
    );
    res.set(
        "fusemm.writeback_amp",
        ratio(c("fuse.writeback_bytes"), app_write),
    );
    res.set("fusemm.readahead_fetches", c("fuse.readahead_fetches"));
    res.set(
        "fusemm.bg_flush_share",
        ratio(c("fuse.bg_writeback_bytes"), c("fuse.writeback_bytes")),
    );
    res.set("fusemm.throttled_writes", c("fuse.throttled_writes"));
    res.set(
        "fusemm.miss_fill_p99_us",
        durations.quantile_us(&["fuse.miss_fill"], 0.99),
    );
    res.set("fusemm.vt_self_ms", self_ms(Layer::Fuse));
    res.set("fusemm.host_us_per_hit", unit.fuse_us_per_hit);
    res.set("fusemm.host_us_per_miss", unit.fuse_us_per_miss);

    let write_calls = durations.count("store.write_pages") as f64;
    let from_clients = c("store.bytes_from_clients");
    res.set("chunkstore.chunk_fetches", c("store.chunk_fetches"));
    res.set("chunkstore.write_calls", write_calls);
    res.set("chunkstore.mgr_rpcs", c("store.mgr_rpcs"));
    res.set(
        "chunkstore.mgr_rpc_p99_us",
        durations.quantile_us(&["store.mgr_rpc"], 0.99),
    );
    let queued: u64 = traced
        .store
        .shard_cpu_stats()
        .iter()
        .map(|(q, _)| q.as_nanos())
        .sum();
    res.set("chunkstore.mgr_queue_ms", queued as f64 / 1e6);
    let loc_hits = c("store.loc_cache_hits");
    res.set(
        "chunkstore.loc_cache_hit_ratio",
        ratio(loc_hits, loc_hits + c("store.loc_cache_misses")),
    );
    res.set(
        "chunkstore.parity_amp",
        ratio(c("store.parity_bytes"), from_clients),
    );
    res.set("chunkstore.space_amp", space_amp(w, traced));
    res.set("chunkstore.failovers", c("store.failovers"));
    res.set(
        "chunkstore.degraded_reconstructs",
        c("store.degraded_reconstructs"),
    );
    res.set("chunkstore.crc_mismatches", c("store.crc_mismatches"));
    res.set("chunkstore.journal_records", c("store.journal_records"));
    res.set("chunkstore.cow_clones", c("store.cow_clones"));
    res.set("chunkstore.vt_self_ms", self_ms(Layer::Store));
    res.set("chunkstore.host_us_per_fetch", unit.store_us_per_fetch);
    res.set(
        "chunkstore.host_us_per_chunk_write",
        unit.store_us_per_chunk_write,
    );
    res.set(
        "chunkstore.host_us_per_page_write",
        unit.store_us_per_page_write,
    );
    res.set("chunkstore.crc_mib_s", unit.crc_mib_s);
    res.set("chunkstore.rs_encode_mib_s", unit.rs_encode_mib_s);
    res.set("chunkstore.alloc_ns_per_chunk", unit.alloc_ns_per_chunk);
    res.set(
        "chunkstore.journal_ns_per_record",
        unit.journal_ns_per_record,
    );

    let nic_busy = (0..traced.spec.nodes)
        .map(|n| traced.net.nic_busy(n))
        .map(|(tx, rx)| tx.max(rx).as_nanos())
        .max()
        .unwrap_or(0);
    res.set("netsim.messages", c("net.messages"));
    res.set("netsim.mib", c("net.bytes") / MIB);
    res.set("netsim.nic_busy_max_share", nic_busy as f64 / job_end);
    res.set(
        "netsim.transfer_p99_us",
        durations.quantile_us(&["net.transfer"], 0.99),
    );
    res.set("netsim.vt_self_ms", self_ms(Layer::Net));
    res.set("netsim.host_ns_per_transfer", unit.net_ns_per_transfer);

    let snap = traced.stats.snapshot();
    let ssd = |suffix: &str| -> f64 {
        let suffix = format!(".ssd.{suffix}");
        snap.values
            .iter()
            .filter(|(k, _)| k.ends_with(&suffix))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let ssd_busy = {
        let mgr = traced.store.manager();
        (0..mgr.benefactor_count())
            .map(|b| {
                mgr.benefactor(BenefactorId(b))
                    .ssd()
                    .resource()
                    .busy_total()
            })
            .max()
            .unwrap_or(VTime::ZERO)
    };
    res.set("devices.ssd_ios", ssd("reads") + ssd("writes"));
    res.set("devices.ssd_read_mib", ssd("read_bytes") / MIB);
    res.set("devices.ssd_written_mib", ssd("written_bytes") / MIB);
    res.set(
        "devices.ssd_busy_max_share",
        ssd_busy.as_nanos() as f64 / job_end,
    );
    res.set(
        "devices.io_p99_us",
        durations.quantile_us(&["dev.read", "dev.write"], 0.99),
    );
    res.set("devices.vt_self_ms", self_ms(Layer::Dev));
    res.set("devices.host_ns_per_io", unit.dev_ns_per_io);

    res.set("simcore.ranks", w.job.ranks() as f64);
    res.set("simcore.sys_share", host.sys_share);
    res.set("simcore.handoff_us", unit.handoff_us);
    // n/a (printed as 0) where the body's driver hides the EngineReport.
    let handoffs = o.handoffs.unwrap_or(0) as f64;
    res.set("simcore.handoffs", handoffs);
    res.set(
        "cluster.collective_vt_ms",
        o.collective.as_nanos() as f64 / 1e6,
    );

    res.set("obs.spans", footer.spans_recorded as f64);
    res.set(
        "obs.trace_overhead_pct",
        100.0 * (host.traced_wall_s / host.wall_s - 1.0),
    );
    res.set("obs.host_ns_per_span", unit.obs_ns_per_span);
    let cp = critical_path(&traced.trace, o.job_end()).expect("the traced pass records spans");
    res.set(
        "obs.untraced_permille",
        cp.share_permille("untraced") as f64,
    );
    for cat in ["nvm", "fuse", "store", "mgr_cpu", "net", "dev"] {
        res.set(
            &format!("critpath.{cat}_permille"),
            cp.share_permille(cat) as f64,
        );
    }
    let faults = traced
        .trace
        .instants()
        .iter()
        .filter(|i| i.layer == Layer::Fault)
        .count();
    res.set("faults.events_applied", faults as f64);

    // Exclusive host shares: each rung's unit cost minus the rung below.
    let wall_us = host.wall_s * 1e6;
    let own_miss = (unit.fuse_us_per_miss - unit.store_us_per_fetch).max(0.0);
    let fuse = (hits * unit.fuse_us_per_hit + misses * own_miss) / wall_us;
    // A write call costs a page write plus a per-byte slope up to the
    // whole-chunk cost.
    let chunk = w.store.chunk_size as f64;
    let page = w.store.page_size as f64;
    let per_byte =
        (unit.store_us_per_chunk_write - unit.store_us_per_page_write).max(0.0) / (chunk - page);
    let writes = write_calls * unit.store_us_per_page_write
        + (from_clients - write_calls * page).max(0.0) * per_byte;
    let store = (c("store.chunk_fetches") * unit.store_us_per_fetch + writes) / wall_us;
    let engine = handoffs * unit.handoff_us / wall_us;
    res.set("fusemm.host_est_share", fuse);
    res.set("chunkstore.host_est_share", store);
    res.set("simcore.host_est_share", engine);
    res.set("host_unattributed_share", 1.0 - fuse - store - engine);
}

/// Peak physical chunk slots (reserved or materialised, from the
/// `store.free_slots` gauge series) over the bytes of user variables
/// the workload holds at its peak.
fn space_amp(w: &Workload, traced: &Cluster) -> f64 {
    let chunk = traced.store.config().chunk_size;
    let total = traced.store.manager().space().0 / chunk;
    let min_free = traced
        .sampler
        .series()
        .iter()
        .find(|s| s.name == "store.free_slots")
        .and_then(|s| s.points.iter().map(|&(_, v)| v).min())
        .unwrap_or(total);
    ratio(((total - min_free) * chunk) as f64, w.logical_bytes as f64)
}
