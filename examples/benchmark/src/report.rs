//! The metric catalogue (names, units, clocks, directions, bounds), the
//! result file, and the comparison behind `--compare`/`--check-repeat`.

use obs::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// The modelled machine: deterministic, compared exactly.
    Virtual,
    /// The simulator: noisy, compared within the metric's bound.
    Host,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the reference by which the metric may get worse;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> Def {
    Def {
        name,
        unit,
        clock,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> Def {
    Def {
        name,
        unit,
        clock,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Virtual};

/// What a user of the system sees. Units `sim_s`/`sim_us` are seconds
/// and microseconds of *virtual* time; `s` and `MiB` are the host's.
///
/// The bounds are `BENCHMARK.json`'s. At one seed the virtual metrics
/// repeat exactly and `--compare` holds them to equality; the driver
/// compares medians over seeds, so there their bounds clear the
/// seed-to-seed spread, and the host bounds clear the sandbox's noise
/// (README.md, "Bounds").
pub const END_TO_END: [Def; 10] = [
    e2e("vt_makespan_s", "sim_s", Virtual, Lower, 0.02),
    e2e("vt_read_p50_us", "sim_us", Virtual, Lower, 0.25),
    e2e("vt_read_p99_us", "sim_us", Virtual, Lower, 0.25),
    e2e("vt_write_p50_us", "sim_us", Virtual, Lower, 0.25),
    e2e("vt_write_p99_us", "sim_us", Virtual, Lower, 0.25),
    e2e("ssd_write_amp", "ratio", Virtual, Lower, 0.03),
    e2e("op_ok_share", "ratio", Virtual, Higher, 0.0001),
    e2e("host_wall_s", "s", Host, Lower, 0.25),
    e2e("host_peak_rss_mib", "MiB", Host, Lower, 0.10),
    e2e("setup_s", "s", Host, Lower, 0.25),
];

/// Single-layer numbers of the traced pass and the layer drives.
pub const PER_LAYER: [Def; 73] = [
    layer("nvmalloc.ops", "count", Virtual, Lower),
    layer("nvmalloc.app_read_mib", "MiB", Virtual, Lower),
    layer("nvmalloc.app_write_mib", "MiB", Virtual, Lower),
    layer("nvmalloc.vt_self_ms", "sim_ms", Virtual, Lower),
    layer("nvmalloc.flush_p99_us", "sim_us", Virtual, Lower),
    layer("nvmalloc.ckpt_p50_us", "sim_us", Virtual, Lower),
    layer("nvmalloc.host_us_per_op", "us", Host, Lower),
    layer("fusemm.hit_ratio", "ratio", Virtual, Higher),
    layer("fusemm.evictions", "count", Virtual, Lower),
    layer("fusemm.clean_evict_share", "ratio", Virtual, Higher),
    layer("fusemm.read_amp", "ratio", Virtual, Lower),
    layer("fusemm.writeback_amp", "ratio", Virtual, Lower),
    layer("fusemm.readahead_fetches", "count", Virtual, Higher),
    layer("fusemm.bg_flush_share", "ratio", Virtual, Higher),
    layer("fusemm.throttled_writes", "count", Virtual, Lower),
    layer("fusemm.miss_fill_p99_us", "sim_us", Virtual, Lower),
    layer("fusemm.vt_self_ms", "sim_ms", Virtual, Lower),
    layer("fusemm.host_us_per_hit", "us", Host, Lower),
    layer("fusemm.host_us_per_miss", "us", Host, Lower),
    layer("fusemm.host_est_share", "ratio", Host, Lower),
    layer("chunkstore.chunk_fetches", "count", Virtual, Lower),
    layer("chunkstore.write_calls", "count", Virtual, Lower),
    layer("chunkstore.mgr_rpcs", "count", Virtual, Lower),
    layer("chunkstore.mgr_rpc_p99_us", "sim_us", Virtual, Lower),
    layer("chunkstore.mgr_queue_ms", "sim_ms", Virtual, Lower),
    layer("chunkstore.loc_cache_hit_ratio", "ratio", Virtual, Higher),
    layer("chunkstore.parity_amp", "ratio", Virtual, Lower),
    layer("chunkstore.space_amp", "ratio", Virtual, Lower),
    layer("chunkstore.failovers", "count", Virtual, Lower),
    layer("chunkstore.degraded_reconstructs", "count", Virtual, Lower),
    layer("chunkstore.crc_mismatches", "count", Virtual, Lower),
    layer("chunkstore.journal_records", "count", Virtual, Lower),
    layer("chunkstore.cow_clones", "count", Virtual, Lower),
    layer("chunkstore.vt_self_ms", "sim_ms", Virtual, Lower),
    layer("chunkstore.host_us_per_fetch", "us", Host, Lower),
    layer("chunkstore.host_us_per_chunk_write", "us", Host, Lower),
    layer("chunkstore.host_us_per_page_write", "us", Host, Lower),
    layer("chunkstore.crc_mib_s", "MiB/s", Host, Higher),
    layer("chunkstore.rs_encode_mib_s", "MiB/s", Host, Higher),
    layer("chunkstore.alloc_ns_per_chunk", "ns", Host, Lower),
    layer("chunkstore.journal_ns_per_record", "ns", Host, Lower),
    layer("chunkstore.host_est_share", "ratio", Host, Lower),
    layer("netsim.messages", "count", Virtual, Lower),
    layer("netsim.mib", "MiB", Virtual, Lower),
    layer("netsim.nic_busy_max_share", "ratio", Virtual, Lower),
    layer("netsim.transfer_p99_us", "sim_us", Virtual, Lower),
    layer("netsim.vt_self_ms", "sim_ms", Virtual, Lower),
    layer("netsim.host_ns_per_transfer", "ns", Host, Lower),
    layer("devices.ssd_ios", "count", Virtual, Lower),
    layer("devices.ssd_read_mib", "MiB", Virtual, Lower),
    layer("devices.ssd_written_mib", "MiB", Virtual, Lower),
    layer("devices.ssd_busy_max_share", "ratio", Virtual, Lower),
    layer("devices.io_p99_us", "sim_us", Virtual, Lower),
    layer("devices.vt_self_ms", "sim_ms", Virtual, Lower),
    layer("devices.host_ns_per_io", "ns", Host, Lower),
    layer("simcore.ranks", "count", Virtual, Lower),
    layer("simcore.sys_share", "ratio", Host, Lower),
    layer("simcore.handoff_us", "us", Host, Lower),
    layer("simcore.handoffs", "count", Virtual, Lower),
    layer("simcore.host_est_share", "ratio", Host, Lower),
    layer("cluster.collective_vt_ms", "sim_ms", Virtual, Lower),
    layer("obs.spans", "count", Virtual, Lower),
    layer("obs.trace_overhead_pct", "%", Host, Lower),
    layer("obs.host_ns_per_span", "ns", Host, Lower),
    layer("obs.untraced_permille", "permille", Virtual, Lower),
    layer("critpath.nvm_permille", "permille", Virtual, Lower),
    layer("critpath.fuse_permille", "permille", Virtual, Lower),
    layer("critpath.store_permille", "permille", Virtual, Lower),
    layer("critpath.mgr_cpu_permille", "permille", Virtual, Lower),
    layer("critpath.net_permille", "permille", Virtual, Lower),
    layer("critpath.dev_permille", "permille", Virtual, Lower),
    layer("faults.events_applied", "count", Virtual, Lower),
    layer("host_unattributed_share", "ratio", Host, Lower),
];

pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// One measured value; a host median carries the samples behind it.
#[derive(Clone, Debug)]
pub struct Measured {
    pub value: f64,
    /// Ascending; empty for a value that is not a median.
    pub samples: Vec<f64>,
}

impl From<f64> for Measured {
    fn from(value: f64) -> Self {
        Measured {
            value,
            samples: Vec::new(),
        }
    }
}

/// Linear-interpolated quantile of ascending `sorted`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median_of(samples: &[f64]) -> Measured {
    let mut samples = samples.to_vec();
    samples.sort_by(f64::total_cmp);
    Measured {
        value: quantile(&samples, 0.5),
        samples,
    }
}

impl Measured {
    /// First quartile, third quartile and sample count of a median.
    fn quartiles(&self) -> Option<(f64, f64, usize)> {
        (!self.samples.is_empty()).then(|| {
            (
                quantile(&self.samples, 0.25),
                quantile(&self.samples, 0.75),
                self.samples.len(),
            )
        })
    }
}

/// Everything one run of one workload produced.
pub struct Results {
    pub workload: String,
    pub seed: u64,
    pub smoke: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub metrics: BTreeMap<&'static str, Measured>,
}

impl Results {
    pub fn set(&mut self, name: &str, m: impl Into<Measured>) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        let m = m.into();
        assert!(m.value.is_finite(), "metric {name} is not a finite number");
        self.metrics.insert(d.name, m);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics[name].value
    }

    /// The human-readable block: every metric by name, with its unit.
    pub fn render_text(&self, defs: &[Def]) -> String {
        let mut out = String::new();
        for d in defs {
            let Some(m) = self.metrics.get(d.name) else {
                continue;
            };
            let clock = if d.clock == Virtual {
                "virtual"
            } else {
                "host"
            };
            let _ = write!(
                out,
                "  {:<36} {:>16} {:<9} {clock}",
                d.name, m.value, d.unit
            );
            if let Some((q1, q3, n)) = m.quartiles() {
                let _ = write!(out, "  q1 {q1} q3 {q3} n {n}");
            }
            out.push('\n');
        }
        out
    }

    /// The contract's result line: the `defs` metrics only.
    pub fn render_line(&self, defs: &[Def]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                self.get(d.name),
                d.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The result file: self-describing, so `--compare` needs nothing else.
    pub fn render_file(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": \"{}\",", self.workload);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"smoke\": {},", self.smoke);
        let _ = writeln!(out, "  \"correct\": {},", self.correct);
        let _ = writeln!(out, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(out, "  \"failed\": {},", self.failed);
        let mut err = String::new();
        json::escape_into(&mut err, self.first_error.as_deref().unwrap_or(""));
        let _ = writeln!(out, "  \"first_error\": \"{err}\",");
        out.push_str("  \"metrics\": {\n");
        let n = self.metrics.len();
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let d = def(name).expect("catalogued");
            let _ = write!(
                out,
                "    \"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"clock\": \"{}\", \"better\": \"{}\"",
                m.value,
                d.unit,
                if d.clock == Virtual { "virtual" } else { "host" },
                if d.better == Lower { "lower" } else { "higher" },
            );
            if let Some(b) = d.bound {
                let _ = write!(out, ", \"bound\": {b}");
            }
            if let Some((q1, q3, n)) = m.quartiles() {
                let _ = write!(
                    out,
                    ", \"q1\": {q1}, \"q3\": {q3}, \"n\": {n}, \"samples\": {:?}",
                    m.samples
                );
            }
            out.push_str(if i + 1 == n { "}\n" } else { "},\n" });
        }
        out.push_str("  }\n}\n");
        out
    }
}

// ----- comparison -----------------------------------------------------------

/// Result files under `path`: the file itself, or every `*.json` of a
/// directory, keyed by workload name.
fn load(path: &Path) -> Result<BTreeMap<String, Value>, String> {
    let files: Vec<PathBuf> = if path.is_dir() {
        let mut v: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        v.sort();
        v
    } else {
        vec![path.to_path_buf()]
    };
    let mut out = BTreeMap::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let name = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: no \"workload\" key", f.display()))?
            .to_string();
        out.insert(name, doc);
    }
    if out.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    Ok(out)
}

/// Compare result set `b` against reference `a`: one row per metric x
/// workload, exact equality on the virtual clock, the metric's bound on
/// the host clock (unbounded host numbers are shown, never judged).
/// Returns the report and whether `b` passed.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut out = String::new();
    let mut pass = true;
    let _ = writeln!(
        out,
        "{:<15} {:<36} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "reference", "candidate", "change"
    );
    for (workload, ra) in &a {
        let Some(rb) = b.get(workload) else {
            let _ = writeln!(out, "{workload:<15} MISSING from the candidate set");
            pass = false;
            continue;
        };
        for key in ["seed", "smoke"] {
            if ra.get(key) != rb.get(key) {
                return Err(format!("{workload}: the two sets differ in \"{key}\""));
            }
        }
        for key in ["correct", "attempted", "failed"] {
            if ra.get(key) != rb.get(key) {
                let _ = writeln!(
                    out,
                    "{workload:<15} {key:<36} {:>16?} {:>16?} {:>9}  MOVED (must be identical)",
                    ra.get(key),
                    rb.get(key),
                    ""
                );
                pass = false;
            }
        }
        let (Some(Value::Obj(ma)), Some(Value::Obj(mb))) = (ra.get("metrics"), rb.get("metrics"))
        else {
            return Err(format!("{workload}: no \"metrics\" object"));
        };
        for (name, ea) in ma {
            let num = |e: &Value, k: &str| e.get(k).and_then(Value::as_num);
            let Some(eb) = mb.get(name) else {
                let _ = writeln!(out, "{workload:<15} {name:<36} MISSING from the candidate");
                pass = false;
                continue;
            };
            let (Some(va), Some(vb)) = (num(ea, "value"), num(eb, "value")) else {
                return Err(format!("{workload}: {name} has no numeric value"));
            };
            let change = if va == vb {
                0.0
            } else {
                (vb - va) / va.abs().max(f64::MIN_POSITIVE)
            };
            let worse = match ea.get("better").and_then(Value::as_str) {
                Some("higher") => -change,
                _ => change,
            };
            let verdict = if ea.get("clock").and_then(Value::as_str) == Some("virtual") {
                if va == vb {
                    "same".to_string()
                } else {
                    pass = false;
                    "MOVED (virtual clock: must be identical)".to_string()
                }
            } else {
                match num(ea, "bound") {
                    Some(bound) if worse > bound => {
                        pass = false;
                        format!("WORSE by more than {:.0} %", bound * 100.0)
                    }
                    Some(bound) => format!("within {:.0} %", bound * 100.0),
                    None => "shown, not judged".to_string(),
                }
            };
            let _ = writeln!(
                out,
                "{workload:<15} {name:<36} {va:>16} {vb:>16} {:>+8.2}%  {verdict}",
                change * 100.0
            );
        }
        for name in mb.keys().filter(|k| !ma.contains_key(*k)) {
            let _ = writeln!(out, "{workload:<15} {name:<36} NEW in the candidate");
        }
    }
    let _ = writeln!(out, "{}", if pass { "PASS" } else { "FAIL" });
    Ok((out, pass))
}

// ----- BENCHMARK.json -------------------------------------------------------

/// Hold `BENCHMARK.json` (when the working directory has one) to this
/// catalogue and `workloads`, so the two cannot drift apart unnoticed.
pub fn check_spec(path: &Path, workloads: &[&str]) -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(());
    };
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<&[Value], String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{}: no \"{key}\" list", path.display()))
    };
    let names: Vec<&str> = list("workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    if names != workloads {
        return Err(format!(
            "{}: workloads {names:?}, the benchmark runs {workloads:?}",
            path.display()
        ));
    }
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = list(key)?;
        if listed.len() != defs.len() {
            return Err(format!(
                "{}: {} {key} metrics, the catalogue has {}",
                path.display(),
                listed.len(),
                defs.len()
            ));
        }
        for (entry, d) in listed.iter().zip(defs) {
            let text = |k: &str| entry.get(k).and_then(Value::as_str);
            let better = if d.better == Lower { "lower" } else { "higher" };
            let same = text("name") == Some(d.name)
                && text("unit") == Some(d.unit)
                && text("better") == Some(better)
                && entry.get("bound").and_then(Value::as_num) == d.bound;
            if !same {
                return Err(format!(
                    "{}: {key} entry {entry:?} disagrees with the catalogue's {}",
                    path.display(),
                    d.name
                ));
            }
        }
    }
    Ok(())
}
