//! # bench — the paper-reproduction harness
//!
//! One `harness = false` bench target per table and figure of the paper's
//! evaluation (run them all with `cargo bench`), plus the host-speed
//! workload of the stack itself (`--bench micro`). The matrix-multiply
//! figures (Figs. 3–6, Table IV) share one target, `mm_paper`, over the
//! run table of [`mm`].
//!
//! Common policy: every experiment runs on the HAL cluster preset scaled
//! by [`SCALE`] (capacities ÷ 64, bandwidths/latencies unchanged) with the
//! FUSE cache scaled identically, and charges full-scale compute time via
//! the per-experiment multiplier — see DESIGN.md §2 for why this
//! preserves the paper's shapes. Numbers are printed next to the paper's
//! reported values (where the text gives them) and recorded in
//! EXPERIMENTS.md.

use cluster::{Cluster, ClusterSpec, JobConfig};
use fusemm::FuseConfig;
use obs::{CritPath, GaugeSeries, ObsFooter};
use simcore::VTime;
use std::cell::Cell;
use std::collections::BTreeMap;

pub mod mm;

/// Capacity divisor for all experiments (except the sort, which needs a
/// deeper scale to fit 200 GB of list data in host memory).
pub const SCALE: u64 = 64;

/// Sort-experiment divisor.
pub const SORT_SCALE: u64 = 1024;

/// The FUSE cache, scaled like every other capacity (64 MiB at scale 1).
pub fn scaled_fuse(scale: u64) -> FuseConfig {
    FuseConfig {
        cache_bytes: (64 * 1024 * 1024 / scale).max(512 * 1024),
        ..FuseConfig::default()
    }
}

/// FUSE cache for multi-stream experiments: the scaled capacity, floored
/// at 4 chunks per concurrent stream. The paper's unscaled 64 MiB cache
/// holds 32 chunks per STREAM thread; naive capacity scaling would leave
/// less than one chunk per thread and thrash in a way the real system
/// cannot.
pub fn stream_fuse(scale: u64, streams: usize) -> FuseConfig {
    let chunk = 256 * 1024u64;
    FuseConfig {
        cache_bytes: (64 * 1024 * 1024 / scale).max(streams as u64 * 4 * chunk),
        ..FuseConfig::default()
    }
}

/// Build the HAL cluster for a job configuration at the default scale.
pub fn hal_cluster(cfg: &JobConfig) -> Cluster {
    hal_cluster_scaled(cfg, SCALE)
}

pub fn hal_cluster_scaled(cfg: &JobConfig, scale: u64) -> Cluster {
    Cluster::with_configs(
        ClusterSpec::hal().scaled(scale),
        &cfg.benefactor_nodes(),
        scaled_fuse(scale),
        store_for(cfg),
    )
}

/// The store configuration a job configuration implies: default knobs,
/// plus the sharded placement manager when the job asks for it
/// (`run_job` asserts the cluster's shard count matches the job's).
pub fn store_for(cfg: &JobConfig) -> chunkstore::StoreConfig {
    chunkstore::StoreConfig {
        manager_shards: cfg.manager_shards,
        ..chunkstore::StoreConfig::default()
    }
}

/// Print the standard experiment header (testbed + experiment id).
pub fn header(experiment: &str, paper_ref: &str) {
    let _ = process_epoch(); // pin the host-speed epoch before any work
    println!("{}", "=".repeat(74));
    println!("{experiment}  —  reproduces {paper_ref}");
    println!("{}", "-".repeat(74));
    println!("{}", ClusterSpec::hal().scaled(SCALE).table2());
    println!("{}", "-".repeat(74));
}

/// Format a virtual time in seconds with 3 decimals.
pub fn secs(t: VTime) -> String {
    format!("{:.3}", t.as_secs_f64())
}

/// Every counter of the health report, one row per printed line; row by
/// row, the key order of the JSON `health` object. Only counters the run
/// registered are reported: the first two rows exist in every store, the
/// others are registered lazily with their feature (integrity, parity,
/// manager HA), so knobs-off reports carry no extra keys.
const HEALTH_COUNTERS: [&[&str]; 5] = [
    &[
        "store.benefactor_crashes",
        "store.benefactor_recoveries",
        "store.failovers",
        "store.degraded_reads",
        "store.repairs_chunks",
        "store.repairs_bytes",
    ],
    &[
        "store.mgr_rpcs",
        "store.mgr_rpc_fetch",
        "store.mgr_rpc_write",
        "store.mgr_rpc_place",
    ],
    &[
        "store.crc_mismatches",
        "store.scrub_passes",
        "store.scrub_repairs",
        "store.quarantined",
    ],
    &[
        "store.parity_encodes",
        "store.parity_bytes",
        "store.degraded_reconstructs",
        "store.parity_repairs",
    ],
    &[
        "store.journal_records",
        "store.journal_replays",
        "store.mgr_failovers",
        "store.mgr_failover_us",
    ],
];

/// First key of the shard row, which follows the counter rows whenever a
/// shard set is installed.
const SHARD_ROW: &str = "manager_shards";

/// The health report of a finished run: SSD wear (total + worst
/// benefactor), then every registered counter of [`HEALTH_COUNTERS`]. The
/// integrity row ends with how many benefactors sit in quarantine. With
/// shards installed, a last row tells whether the metadata tier absorbs
/// the fan-in: per-shard CPU queueing and the location-cache hit ratio —
/// a high ratio with short shard queues is the design working, long
/// queues with a low ratio is fan-in the cache failed to absorb.
fn health(cluster: &Cluster) -> Vec<(String, Json)> {
    let wear = cluster.store.wear_reports();
    let total: u64 = wear.iter().map(|(_, w)| w.bytes_written).sum();
    let worst: u64 = wear.iter().map(|(_, w)| w.bytes_written).max().unwrap_or(0);
    let mut h = vec![
        ("wear_total_bytes".to_string(), Json::UInt(total)),
        ("wear_worst_bytes".to_string(), Json::UInt(worst)),
    ];
    let snap = cluster.stats.snapshot().values;
    for &key in HEALTH_COUNTERS.into_iter().flatten() {
        let Some(&v) = snap.get(key) else { continue };
        h.push((key.to_string(), Json::UInt(v)));
        if key == "store.quarantined" {
            let quarantined = cluster.store.manager().quarantined_count();
            h.push(("quarantined_benefactors".to_string(), quarantined.into()));
        }
    }
    let shards = cluster.store.shards_installed();
    if shards > 0 {
        h.push((SHARD_ROW.to_string(), shards.into()));
        // Per-shard CPU queueing + the location-cache hit ratio
        // (permille, so the row stays integer-only).
        let mut queues = Vec::new();
        for (k, (queued, grants)) in cluster.store.shard_cpu_stats().iter().enumerate() {
            let mut sj = Json::obj();
            sj.set("shard", k);
            sj.set("rpcs", *grants);
            sj.set("queued_ns_total", queued.as_nanos());
            sj.set(
                "mean_queue_ns",
                queued.as_nanos().checked_div(*grants).unwrap_or(0),
            );
            queues.push(sj);
        }
        h.push(("shard_queues".to_string(), Json::Arr(queues)));
        let hits = cluster.stats.get("store.loc_cache_hits");
        let lookups = hits + cluster.stats.get("store.loc_cache_misses");
        let permille = (hits * 1000).checked_div(lookups).unwrap_or(0);
        h.push(("loc_cache_hit_permille".to_string(), permille.into()));
    }
    h
}

/// One value of the health report as footer text: byte counts humanised,
/// nested values (the per-shard queue rows) as `[{key=value ...} ...]`.
fn health_text(key: &str, value: &Json) -> String {
    match value {
        Json::UInt(v) if key.ends_with("_bytes") => simcore::bytes::human(*v),
        Json::Arr(items) => {
            let items: Vec<String> = items.iter().map(|v| health_text("", v)).collect();
            format!("[{}]", items.join(" "))
        }
        Json::Obj(fields) => {
            let fields: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{k}={}", health_text(k, v)))
                .collect();
            format!("{{{}}}", fields.join(" "))
        }
        scalar => scalar.render().trim_end().to_string(),
    }
}

/// Print the `[health <label>]` footer of a finished run: the [`health`]
/// report, one line per row of [`HEALTH_COUNTERS`] plus the shard row.
/// Every bench target that touches the NVM store prints this so
/// failovers, repairs and wear imbalance are visible next to the numbers
/// they influenced.
pub fn store_health(label: &str, cluster: &Cluster) {
    if cluster.store.wear_reports().is_empty() {
        return; // DRAM-only configuration: no store to report on
    }
    print_health(label, &health(cluster));
}

fn print_health(label: &str, health: &[(String, Json)]) {
    let mut line = String::new();
    for (key, value) in health {
        if key == SHARD_ROW || HEALTH_COUNTERS.iter().skip(1).any(|row| row[0] == key) {
            println!("  [health {label}]{line}");
            line.clear();
        }
        let name = key.strip_prefix("store.").unwrap_or(key);
        line.push_str(&format!(" {name}={}", health_text(name, value)));
    }
    println!("  [health {label}]{line}");
}

/// What a report reads of a finished cluster: its counters and its
/// [`health`] report, taken when the run ends so the cluster itself can go.
pub struct Finished {
    counters: BTreeMap<String, u64>,
    health: Vec<(String, Json)>,
    has_store: bool,
}

impl Finished {
    pub fn of(cluster: &Cluster) -> Self {
        Finished {
            counters: cluster.stats.snapshot().values,
            health: health(cluster),
            has_store: !cluster.store.wear_reports().is_empty(),
        }
    }

    /// The network payload the run moved, for a report's host footer.
    pub fn net_bytes(&self) -> u64 {
        self.counters.get("net.bytes").copied().unwrap_or(0)
    }

    /// [`store_health`] of the cluster this was taken from.
    pub fn print_health(&self, label: &str) {
        if self.has_store {
            print_health(label, &self.health);
        }
    }
}

/// Simple fixed-width table printer.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    pub fn new(columns: &[(&str, usize)]) -> Self {
        let mut head = String::new();
        for (name, w) in columns {
            head.push_str(&format!("{name:>w$}  ", w = *w));
        }
        println!("{head}");
        println!("{}", "-".repeat(head.len().min(74)));
        Table {
            widths: columns.iter().map(|(_, w)| *w).collect(),
        }
    }

    pub fn row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.widths.len());
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{cell:>w$}  ", w = *w));
        }
        println!("{line}");
    }
}

/// GiB with 3 decimals for the volume tables.
pub fn gib(bytes: u64) -> String {
    format!("{:.3}", bytes as f64 / (1u64 << 30) as f64)
}

pub fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1u64 << 20) as f64)
}

/// A shape assertion: prints PASS/FAIL without aborting the harness, so a
/// full `cargo bench` always produces every table.
pub fn check(name: &str, ok: bool) {
    println!(
        "  [{}] {}",
        if ok { "SHAPE-OK " } else { "SHAPE-FAIL" },
        name
    );
}

// ----- machine-readable reports (BENCH_<name>.json) --------------------------

/// A JSON value with insertion-ordered objects, so emitted reports are
/// byte-stable across runs (the ledger diff in scripts/ledger.sh relies
/// on that). Hand-rolled: the workspace deliberately has no serde.
#[derive(Clone, Debug)]
pub enum Json {
    Null,
    Bool(bool),
    UInt(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert/replace a key of an object (panics on non-objects).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        let Json::Obj(fields) = self else {
            panic!("Json::set on a non-object");
        };
        let value = value.into();
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => fields.push((key.to_string(), value)),
        }
        self
    }

    /// `s` as a quoted JSON string literal (the one escaper: `obs::json`).
    fn quote(s: &str, out: &mut String) {
        out.push('"');
        obs::json::escape_into(out, s);
        out.push('"');
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad1 = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => out.push_str(&n.to_string()),
            // Fixed decimals: shortest-roundtrip float printing is stable
            // per build but uglier to diff; 6 decimals is plenty for
            // virtual times (micro precision at second scale).
            Json::Num(x) => out.push_str(&format!("{x:.6}")),
            Json::Str(s) => Json::quote(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad1);
                    item.render_into(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad1);
                    Json::quote(k, out);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<VTime> for Json {
    fn from(v: VTime) -> Json {
        Json::Num(v.as_secs_f64())
    }
}

/// Wall-clock throughput instrumentation (ISSUE 7): how many simulated
/// bytes and events the simulator itself pushes per *host* second. Every
/// [`JsonReport`] takes one at `emit()`, over the wall clock since the
/// process's previous report (or its start), so each
/// `BENCH_<name>.json` gets a `host` footer; `bench micro` runs a
/// dedicated workload over a known simulated volume and check.sh gates
/// its rates against committed floors.
///
/// A report's simulated bytes are what its clusters moved: network
/// payload plus every SSD's read and written bytes, accounted once per
/// cluster a target ran ([`JsonReport::ran`]), so a node-local run, which
/// never touches the network, still reports its volume.
///
/// Host wall-clock is inherently nondeterministic, so the footer is
/// emitted as a self-contained block that scripts/ledger.sh strips
/// (`strip_host.awk`) before comparing.
pub struct HostSpeed {
    started: std::time::Instant,
    sim_bytes: u64,
    sim_events: u64,
}

/// The process-wide wall-clock epoch, pinned the first time anything asks
/// (the [`header`] call at the top of every bench target). Reports built
/// after their workload ran still get a truthful host_seconds this way.
fn process_epoch() -> std::time::Instant {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(std::time::Instant::now)
}

thread_local! {
    /// When this process last emitted a [`JsonReport`].
    static LAST_REPORT: Cell<Option<std::time::Instant>> = const { Cell::new(None) };
}

impl HostSpeed {
    /// Measure from this call (scoped workloads, e.g. `micro`).
    pub fn start() -> Self {
        HostSpeed {
            started: std::time::Instant::now(),
            sim_bytes: 0,
            sim_events: 0,
        }
    }

    /// Measure from where this process emitted its previous report, or
    /// from the process epoch for its first: a target that emits several
    /// reports gives each the wall clock of its own work.
    fn since_last_report() -> Self {
        HostSpeed {
            started: LAST_REPORT.get().unwrap_or_else(process_epoch),
            sim_bytes: 0,
            sim_events: 0,
        }
    }

    /// Account simulated payload bytes moved.
    pub fn add_bytes(&mut self, bytes: u64) {
        self.sim_bytes += bytes;
    }

    /// Account simulated scheduler events (context switches etc.).
    pub fn add_events(&mut self, n: u64) {
        self.sim_events += n;
    }

    /// Host seconds elapsed since construction.
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The flat `host` footer block. Rates are integers so shell gates
    /// can compare them without floating-point parsing.
    pub fn footer(&self) -> Json {
        let secs = self.elapsed_seconds().max(1e-9);
        let mut h = Json::obj();
        h.set("host_seconds", secs);
        h.set("sim_bytes", self.sim_bytes);
        h.set("sim_events", self.sim_events);
        h.set(
            "bytes_per_host_second",
            (self.sim_bytes as f64 / secs) as u64,
        );
        h.set(
            "events_per_host_second",
            (self.sim_events as f64 / secs) as u64,
        );
        h
    }
}

/// The simulated bytes a cluster moved, for the host footer: its network
/// payload plus every SSD's (`*.ssd` device's) read and written bytes — a
/// node-local run moves its bytes without touching the network.
fn sim_bytes_of(cluster: &Cluster) -> u64 {
    let snap = cluster.stats.snapshot().values;
    let ssd = snap
        .iter()
        .filter(|(k, _)| k.ends_with(".ssd.read_bytes") || k.ends_with(".ssd.written_bytes"))
        .map(|(_, v)| v);
    snap.get("net.bytes").copied().unwrap_or(0) + ssd.sum::<u64>()
}

/// The standard machine-readable report every bench target emits next to
/// its printed tables: experiment name, configuration, virtual times,
/// counters of interest, shape-check verdicts, and the store-health
/// footer.
pub struct JsonReport {
    name: String,
    /// Simulated volume for the `host` footer; its wall-clock window is
    /// taken at [`Self::emit`].
    sim_bytes: u64,
    sim_events: u64,
    config: Json,
    times: Json,
    counters: Json,
    checks: Json,
    health: Json,
    obs: Json,
    critpath: Json,
    series: Json,
}

impl JsonReport {
    pub fn new(name: &str) -> Self {
        JsonReport {
            name: name.to_string(),
            sim_bytes: 0,
            sim_events: 0,
            config: Json::obj(),
            times: Json::obj(),
            counters: Json::obj(),
            checks: Json::obj(),
            health: Json::Null,
            obs: Json::Null,
            critpath: Json::Null,
            series: Json::Null,
        }
    }

    /// Account simulated bytes toward the host-speed footer (for targets
    /// that run no [`Cluster`]).
    pub fn host_bytes(&mut self, bytes: u64) -> &mut Self {
        self.sim_bytes += bytes;
        self
    }

    /// Account simulated events toward the host-speed footer.
    pub fn host_events(&mut self, n: u64) -> &mut Self {
        self.sim_events += n;
        self
    }

    /// Record a configuration fact (scale, sizes, flags, …).
    pub fn config(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        self.config.set(key, value);
        self
    }

    /// Record a virtual time (seconds, 6 decimals).
    pub fn time(&mut self, key: &str, t: VTime) -> &mut Self {
        self.times.set(key, t);
        self
    }

    /// Record an arbitrary numeric result under `times` (rates, speedups).
    pub fn value(&mut self, key: &str, v: impl Into<Json>) -> &mut Self {
        self.times.set(key, v);
        self
    }

    /// Record one counter value.
    pub fn counter(&mut self, key: &str, v: u64) -> &mut Self {
        self.counters.set(key, v);
        self
    }

    /// Record every counter currently in the cluster's registry.
    pub fn counters_from(&mut self, cluster: &Cluster) -> &mut Self {
        self.counters_of(&cluster.stats.snapshot().values)
    }

    fn counters_of(&mut self, values: &BTreeMap<String, u64>) -> &mut Self {
        for (k, v) in values {
            self.counters.set(k, *v);
        }
        self
    }

    /// The counters and the health footer of a cluster that is already
    /// gone. Like [`Self::health_from`] it accounts no simulated bytes:
    /// the run may have been simulated inside another report's window.
    pub fn finished(&mut self, run: &Finished) -> &mut Self {
        self.health = Json::Obj(run.health.clone());
        self.counters_of(&run.counters)
    }

    /// A shape assertion: printed like [`check`] AND recorded in the
    /// report.
    pub fn check(&mut self, name: &str, ok: bool) -> &mut Self {
        check(name, ok);
        self.checks.set(name, ok);
        self
    }

    /// Account one run toward the host footer: the payload `cluster`'s
    /// network and SSDs moved. A target calls it once for every cluster
    /// it ran, whichever one its health footer shows.
    pub fn ran(&mut self, cluster: &Cluster) -> &mut Self {
        self.sim_bytes += sim_bytes_of(cluster);
        self
    }

    /// The health footer: the [`health`] report of `cluster`. It accounts
    /// no simulated bytes; [`Self::ran`] does.
    pub fn health_from(&mut self, cluster: &Cluster) -> &mut Self {
        self.health = Json::Obj(health(cluster));
        self
    }

    /// The observability footer: per-layer virtual-time breakdown, top-N
    /// slowest spans, latency-histogram percentiles and counter deltas
    /// from a traced run (see `obs::ObsFooter`). Also prints the per-layer
    /// percentages. No-op on a footer from a disabled recorder.
    pub fn obs_from(&mut self, footer: &ObsFooter) -> &mut Self {
        if footer.spans_recorded == 0 {
            return self;
        }
        println!(
            "  [obs] {} spans over {:.3} ms of virtual time",
            footer.spans_recorded,
            (footer.window_ns.1 - footer.window_ns.0) as f64 / 1e6
        );
        let mut o = Json::obj();
        o.set(
            "window_ns",
            Json::Arr(vec![
                Json::UInt(footer.window_ns.0),
                Json::UInt(footer.window_ns.1),
            ]),
        );
        o.set("spans_recorded", footer.spans_recorded);
        o.set("spans_dropped", footer.spans_dropped);
        o.set("instants", footer.instants);
        let mut layers = Vec::new();
        for l in &footer.layers {
            let pct = footer.layer_pct(l.layer);
            println!(
                "  [obs]   {:<5} {:>8} spans  self {:>7.3} ms  ({:>5.1}% of self time)",
                l.layer.as_str(),
                l.spans,
                l.self_ns as f64 / 1e6,
                pct
            );
            let mut lj = Json::obj();
            lj.set("layer", l.layer.as_str());
            lj.set("spans", l.spans);
            lj.set("inclusive_ns", l.inclusive_ns);
            lj.set("self_ns", l.self_ns);
            lj.set("self_pct", pct);
            layers.push(lj);
        }
        o.set("layers", Json::Arr(layers));
        let mut tops = Vec::new();
        for s in &footer.top_spans {
            let mut sj = Json::obj();
            sj.set("name", s.name);
            sj.set("layer", s.layer.as_str());
            sj.set("lane", s.lane);
            sj.set("start_ns", s.start_ns);
            sj.set("dur_ns", s.dur_ns);
            tops.push(sj);
        }
        o.set("top_spans", Json::Arr(tops));
        let mut hists = Vec::new();
        for h in &footer.hists {
            let mut hj = Json::obj();
            hj.set("name", h.name.as_str());
            hj.set("count", h.count);
            hj.set("p50_ns", h.p50_ns);
            hj.set("p95_ns", h.p95_ns);
            hj.set("p99_ns", h.p99_ns);
            hj.set("max_ns", h.max_ns);
            hists.push(hj);
        }
        o.set("histograms", Json::Arr(hists));
        let mut counters = Json::obj();
        for (k, v) in &footer.counters.values {
            counters.set(k, *v);
        }
        o.set("counter_deltas", counters);
        self.obs = o;
        self
    }

    /// The critical-path footer from a causal-mode run (DESIGN.md §14):
    /// per-category virtual time along the dependency chain that ends the
    /// run, in integer nanoseconds so the section is byte-stable and the
    /// CI smoke diff can compare it against a committed expectation.
    /// Prints the per-category shares next to the tables.
    pub fn critical_path_from(&mut self, cp: &CritPath) -> &mut Self {
        for line in cp.render_text().lines() {
            println!("  [critpath] {line}");
        }
        let mut o = Json::obj();
        o.set(
            "window_ns",
            Json::Arr(vec![Json::UInt(cp.window_ns.0), Json::UInt(cp.window_ns.1)]),
        );
        o.set("path_ns", cp.path_ns);
        o.set("segments", cp.segments);
        let mut cats = Vec::new();
        for (cat, ns) in &cp.by_category {
            let mut cj = Json::obj();
            cj.set("category", cat.as_str());
            cj.set("ns", *ns);
            cj.set("permille", cp.share_permille(cat));
            cats.push(cj);
        }
        o.set("by_category", Json::Arr(cats));
        let mut tops = Vec::new();
        for (name, ns) in &cp.top_spans {
            let mut tj = Json::obj();
            tj.set("name", name.as_str());
            tj.set("ns", *ns);
            tops.push(tj);
        }
        o.set("top_spans", Json::Arr(tops));
        self.critpath = o;
        self
    }

    /// The gauge-series footer from a causal-mode run: every series the
    /// virtual-time sampler recorded, as `[t_ns, value]` pairs. Integer
    /// virtual timestamps — deterministic across hosts.
    pub fn series_from(&mut self, series: &[GaugeSeries]) -> &mut Self {
        if series.is_empty() {
            return self;
        }
        let mut arr = Vec::new();
        for s in series {
            let mut sj = Json::obj();
            sj.set("name", s.name.as_str());
            sj.set(
                "points",
                Json::Arr(
                    s.points
                        .iter()
                        .map(|&(t, v)| Json::Arr(vec![Json::UInt(t), Json::UInt(v)]))
                        .collect(),
                ),
            );
            arr.push(sj);
        }
        self.series = Json::Arr(arr);
        self
    }

    /// Write `BENCH_<name>.json` and print where it went.
    pub fn emit(&self) {
        let mut root = Json::obj();
        root.set("experiment", self.name.as_str());
        // Host wall-clock footer right after the experiment key, as a
        // flat block, so the ledger diff can strip exactly these lines
        // (scripts/strip_host.awk).
        let mut host = HostSpeed::since_last_report();
        host.add_bytes(self.sim_bytes);
        host.add_events(self.sim_events);
        root.set("host", host.footer());
        root.set("config", self.config.clone());
        root.set("times", self.times.clone());
        root.set("counters", self.counters.clone());
        root.set("checks", self.checks.clone());
        root.set("health", self.health.clone());
        for (key, footer) in [
            ("obs", &self.obs),
            ("critical_path", &self.critpath),
            ("series", &self.series),
        ] {
            if !matches!(footer, Json::Null) {
                root.set(key, footer.clone());
            }
        }
        emit_json(&self.name, &root);
        LAST_REPORT.set(Some(std::time::Instant::now()));
    }
}

/// Value of a `--flag value` pair on the bench binary's command line
/// (e.g. `--trace out.json` on a trace-capable target), if present.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_string());
        }
    }
    None
}

/// Write `BENCH_<name>.json` into `$BENCH_JSON_DIR` (default
/// `target/bench-json`, relative to the invocation directory — for
/// `cargo bench` that is the workspace root).
pub fn emit_json(name: &str, report: &Json) {
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| "target/bench-json".to_string());
    let dir = std::path::PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("  [json] cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, report.render()) {
        Ok(()) => println!("  [json] wrote {}", path.display()),
        Err(e) => eprintln!("  [json] cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chunkstore::{PlacementPolicy, StoreConfig, StripeSpec};

    fn health_keys(store_cfg: StoreConfig, stripe: StripeSpec) -> Vec<String> {
        let cfg = JobConfig::local(1, 4, 4);
        let cluster = Cluster::with_configs(
            ClusterSpec::hal().scaled(SCALE),
            &cfg.benefactor_nodes(),
            scaled_fuse(SCALE),
            store_cfg,
        );
        let store = &cluster.store;
        let (t, f) = store.create_file(VTime::ZERO, 0, "/health").unwrap();
        store
            .fallocate(t, 0, f, 1 << 20, stripe, PlacementPolicy::RoundRobin)
            .unwrap();
        health(&cluster).into_iter().map(|(k, _)| k).collect()
    }

    /// The committed ledger pins the health values; this pins the rule that
    /// orders them: wear, the ten counters every store registers, then each
    /// lazily registered section only where its feature ran, its derived
    /// entries last.
    #[test]
    fn health_keys_follow_the_registered_sections_in_order() {
        let always: Vec<&str> = "\
            wear_total_bytes wear_worst_bytes \
            store.benefactor_crashes store.benefactor_recoveries store.failovers \
            store.degraded_reads store.repairs_chunks store.repairs_bytes \
            store.mgr_rpcs store.mgr_rpc_fetch store.mgr_rpc_write store.mgr_rpc_place"
            .split(' ')
            .collect();
        assert_eq!(
            health_keys(StoreConfig::default(), StripeSpec::all()),
            always
        );

        let knobs_on = StoreConfig {
            verify_reads: true,
            ha_standby: true,
            manager_shards: 2,
            ..StoreConfig::default()
        };
        let sections: Vec<&str> = "\
            store.crc_mismatches store.scrub_passes store.scrub_repairs store.quarantined \
            quarantined_benefactors \
            store.parity_encodes store.parity_bytes store.degraded_reconstructs \
            store.parity_repairs \
            store.journal_records store.journal_replays store.mgr_failovers store.mgr_failover_us \
            manager_shards shard_queues loc_cache_hit_permille"
            .split(' ')
            .collect();
        assert_eq!(
            health_keys(knobs_on, StripeSpec::all().with_parity(2, 1)),
            [always, sections].concat()
        );
    }

    /// A node-local run: one small write and one fetch, through the
    /// node's own SSD only.
    fn local_run() -> Cluster {
        let cfg = JobConfig::local(1, 1, 1);
        let cluster = Cluster::with_configs(
            ClusterSpec::hal().scaled(SCALE),
            &cfg.benefactor_nodes(),
            scaled_fuse(SCALE),
            StoreConfig::default(),
        );
        let store = &cluster.store;
        let chunk = store.config().chunk_size;
        let (t, f) = store.create_file(VTime::ZERO, 0, "/local").unwrap();
        let rr = PlacementPolicy::RoundRobin;
        let t = store
            .fallocate(t, 0, f, chunk, StripeSpec::all(), rr)
            .unwrap();
        let page = vec![7u8; 4096];
        let t = store.write_pages(t, 0, f, 0, &[(0, &page)]).unwrap();
        store.fetch_chunk(t, 0, f, 0).unwrap();
        cluster
    }

    /// A node-local run moves its bytes through the node's own SSD and
    /// none over the network; the host footer still counts them.
    #[test]
    fn a_node_local_run_reports_its_simulated_bytes() {
        let cluster = local_run();
        assert_eq!(cluster.stats.get("net.bytes"), 0, "the run is node-local");
        let mut report = JsonReport::new("local");
        report.ran(&cluster).health_from(&cluster);
        let bytes = report.sim_bytes;
        let chunk = cluster.store.config().chunk_size;
        assert!(bytes >= 4096 + chunk, "{bytes} simulated bytes");
    }

    /// A target that runs two clusters accounts both, once each — not
    /// only the one its health footer shows.
    #[test]
    fn a_report_fed_two_clusters_counts_both() {
        let (a, b) = (local_run(), local_run());
        let one = sim_bytes_of(&a);
        assert!(one > 0 && sim_bytes_of(&b) == one);
        let mut report = JsonReport::new("two");
        report.ran(&a).ran(&b).health_from(&b);
        assert_eq!(report.sim_bytes, 2 * one);
    }
}
