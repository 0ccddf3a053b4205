//! Two-clock benchmark of the NVMalloc reproduction. README.md has the
//! run protocol, the workloads, the metrics and their predictions.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S | --reps N] [--trace 0|1]
//!           [--trace-out FILE] [--smoke] [--out DIR]
//! benchmark --all | --smoke | --check-repeat   [--seed N] [--seconds S]
//! benchmark --compare <A.json|dir> <B.json|dir>
//! ```

mod drives;
mod host;
mod layers;
mod report;
mod workloads;

use report::{median_of, Results, END_TO_END, PER_LAYER};
use simcore::Snapshot;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Outcome, Workload, NAMES};

/// Default seed; README.md names the held-out one.
const DEFAULT_SEED: u64 = 2012;
/// Default length of the timed phase: `--all` then fits two minutes.
/// The driver passes BENCHMARK.json's longer `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;
const DEFAULT_OUT: &str = "target/benchmark";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
    out: PathBuf,
    all: bool,
    check_repeat: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        reps: None,
        trace: false,
        trace_out: None,
        smoke: false,
        out: PathBuf::from(DEFAULT_OUT),
        all: false,
        check_repeat: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if a.seconds.is_nan() || a.seconds < 0.0 {
                    return Err("--seconds must not be negative".into());
                }
            }
            "--reps" => a.reps = Some(value().and_then(|v| v.parse().map_err(|_| bad(&v)))?),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--trace-out" => a.trace_out = Some(value()?.into()),
            "--out" => a.out = value()?.into(),
            "--smoke" => a.smoke = true,
            "--all" => a.all = true,
            "--check-repeat" => a.check_repeat = true,
            "--compare" => a.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.reps == Some(0) {
        return Err("--reps must be at least 1".into());
    }
    Ok(a)
}

/// Everything a finished repetition says on the virtual clock: its
/// outcome, every counter of the stack, and the SSDs' wear.
#[derive(PartialEq)]
struct Pass {
    outcome: Outcome,
    counters: Snapshot,
    ssd_written: u64,
}

/// One repetition on a fresh cluster; returns its host seconds too.
fn repetition(w: &Workload, traced: bool, verify: bool) -> (f64, Pass, cluster::Cluster) {
    let t0 = Instant::now();
    let cluster = w.cluster(traced);
    let outcome = w.run(&cluster, verify);
    let secs = t0.elapsed().as_secs_f64();
    let pass = Pass {
        outcome,
        counters: cluster.stats.snapshot(),
        ssd_written: cluster.total_ssd_bytes_written(),
    };
    (secs, pass, cluster)
}

/// Name what differs between two passes that should be identical.
fn divergence(a: &Pass, b: &Pass) -> String {
    if a.outcome != b.outcome {
        return format!("{:?} vs {:?}", a.outcome, b.outcome);
    }
    if a.ssd_written != b.ssd_written {
        return format!("SSD bytes written {} vs {}", a.ssd_written, b.ssd_written);
    }
    let keys = a.counters.values.keys().chain(b.counters.values.keys());
    keys.filter(|k| a.counters.get(k) != b.counters.get(k))
        .map(|k| format!("{k} {} vs {}", a.counters.get(k), b.counters.get(k)))
        .collect::<Vec<_>>()
        .join(", ")
}

fn run_workload(a: &Args, name: &str, process_start: Instant) -> Result<Results, String> {
    match host::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to CPU {cpu}"),
        None => println!("could not pin to one CPU; host time may be bimodal"),
    }

    // Set-up, several times over: inputs and oracle, cluster build, one
    // untimed warm-up repetition. The first includes process start.
    let mut setup = Vec::new();
    let mut last = None;
    for i in 0..if a.smoke { 1 } else { SETUPS } {
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        // One set of inputs alive at a time: the peak RSS is a run's, not
        // two overlapping set-ups'.
        drop(last.take());
        let w = Workload::new(name, a.seed, a.smoke)
            .ok_or_else(|| format!("unknown workload {name}; one of {NAMES:?}"))?;
        let (_, pass, _) = repetition(&w, false, true);
        setup.push(t0.elapsed().as_secs_f64());
        last = Some((w, pass));
    }
    let (w, reference) = last.expect("at least one set-up");

    // Timed repetitions, tracing off, each on a fresh cluster; one of
    // them at smoke size.
    let reps = a.reps.or(a.smoke.then_some(1));
    let cpu0 = host::cpu_ticks();
    let phase = Instant::now();
    let mut walls = Vec::new();
    loop {
        let (secs, pass, cluster) = repetition(&w, false, false);
        walls.push(secs);
        drop(cluster);
        if pass != reference {
            return Err(format!(
                "virtual metrics differ between repetitions: {}",
                divergence(&reference, &pass)
            ));
        }
        let done = match reps {
            Some(n) => walls.len() >= n,
            None => walls.len() >= MIN_REPS && phase.elapsed().as_secs_f64() >= a.seconds,
        };
        if done {
            break;
        }
    }
    let cpu1 = host::cpu_ticks();
    let rss = host::peak_rss_mib();

    // The traced pass: only now, so nothing on the host clock above has
    // seen a recorder. The virtual clock must not notice it.
    let (traced_wall, traced_pass, traced) = repetition(&w, true, true);
    if traced_pass != reference {
        return Err(format!(
            "tracing moved virtual metrics: {}",
            divergence(&reference, &traced_pass)
        ));
    }
    let durations = layers::Durations::of(&traced.trace.spans());
    if let Some(path) = &a.trace_out {
        let doc = traced
            .trace
            .chrome_trace_with_series(&traced.sampler.series());
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let o = &reference.outcome;
    let mut res = Results {
        workload: name.to_string(),
        seed: a.seed,
        smoke: a.smoke,
        correct: o.wrong == 0,
        // `workloads::*` bodies do not count their calls; their spans do.
        attempted: if o.attempted > 0 {
            o.attempted
        } else {
            ["nvm.read", "nvm.write", "nvm.flush", "nvm.malloc"]
                .iter()
                .map(|n| durations.count(n) as u64)
                .sum()
        },
        failed: o.failed,
        first_error: o.first_error.clone(),
        metrics: Default::default(),
    };
    layers::end_to_end(&mut res, &traced, &durations, o);
    res.set("host_wall_s", median_of(&walls));
    res.set(
        "host_peak_rss_mib",
        rss.ok_or("cannot read VmHWM from /proc/self/status")?,
    );
    res.set("setup_s", median_of(&setup));

    if a.trace {
        let sys_share = match (cpu0, cpu1) {
            (Some((u0, s0)), Some((u1, s1))) if u1 + s1 > u0 + s0 => {
                (s1 - s0) as f64 / (u1 + s1 - u0 - s0) as f64
            }
            _ => return Err("cannot read CPU time from /proc/self/stat".into()),
        };
        let host = layers::HostSide {
            wall_s: res.get("host_wall_s"),
            traced_wall_s: traced_wall,
            sys_share,
        };
        let unit = drives::run(&w);
        layers::per_layer(&mut res, &w, &traced, &durations, o, &host, &unit);
    }
    Ok(res)
}

/// Re-execute this binary once per workload, sequentially: one process
/// per workload keeps `host_peak_rss_mib` per workload.
fn run_set(a: &Args, trace: bool, out: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for name in NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--trace", if trace { "1" } else { "0" }])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .arg("--out")
            .arg(out);
        if let Some(n) = a.reps {
            cmd.args(["--reps", &n.to_string()]);
        }
        if a.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!("workload {name} failed: {status}"));
        }
    }
    Ok(())
}

fn run(a: &Args, process_start: Instant) -> Result<bool, String> {
    if let Some((ref_set, candidate)) = &a.compare {
        let (text, pass) = report::compare(ref_set, candidate)?;
        print!("{text}");
        return Ok(pass);
    }
    if a.check_repeat {
        let (first, second) = (a.out.join("repeat-a"), a.out.join("repeat-b"));
        run_set(a, false, &first)?;
        run_set(a, false, &second)?;
        let (text, pass) = report::compare(&first, &second)?;
        print!("{text}");
        return Ok(pass);
    }
    let Some(name) = &a.workload else {
        if a.all || a.smoke {
            report::check_spec(Path::new("BENCHMARK.json"), &NAMES)?;
            // The smoke set skips the layer drives (seconds each); every
            // check of a run is in the plain form too.
            run_set(a, !a.smoke, &a.out)?;
            return Ok(true);
        }
        return Err(
            "nothing to do: --workload, --all, --smoke, --check-repeat or --compare".into(),
        );
    };

    let res = run_workload(a, name, process_start)?;
    println!(
        "{name}  seed {}{}",
        a.seed,
        if a.smoke { "  (smoke size)" } else { "" }
    );
    print!("{}", res.render_text(&END_TO_END));
    if a.trace {
        print!("{}", res.render_text(&PER_LAYER));
    }
    if let Some(e) = &res.first_error {
        println!("first declared error: {e}");
    }
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let file = a.out.join(format!("{name}.json"));
    std::fs::write(&file, res.render_file()).map_err(|e| format!("{}: {e}", file.display()))?;
    println!(
        "{}",
        res.render_line(if a.trace { &PER_LAYER } else { &END_TO_END })
    );
    Ok(res.correct)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match parse_args().and_then(|a| run(&a, process_start)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
