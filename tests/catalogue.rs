//! The DESIGN.md §9 catalogue covers every name a run emits.
//!
//! One traced full-knobs run — the hardened `datapath_golden` job
//! (pipelined mount, segmented cache + write-back daemon, 2 manager shards
//! over RS(2,1) with verified reads) plus a standby manager, the scrub
//! daemon and a fault plan with every `FaultEvent` kind — and every span
//! name, instant prefix (the name up to its first space), counter name and
//! gauge series name it emits must appear in §9. Per-shard and per-device
//! names match the catalogue's `<k>` / `<X>` patterns, and every
//! `lat.<span>` histogram must follow a catalogued span. The other
//! direction is checked for the `fault.*` instants: every one §9 lists is
//! emitted by this run.

use chunkstore::{ScrubConfig, StoreConfig};
use cluster::{run_job, Calibration, Cluster, ClusterSpec, JobConfig};
use faults::FaultPlanBuilder;
use fusemm::FuseConfig;
use nvmalloc::NvmVec;
use simcore::rng::child_seed;
use simcore::VTime;
use std::collections::BTreeSet;

const CHUNK: usize = 256 * 1024;
const SHARED_LEN: usize = 8 * CHUNK;
const PRIVATE_LEN: usize = 4 * CHUNK;

/// Every backticked name in DESIGN.md §9. A name starting with `.` is a
/// suffix of the previous full name (`n<X>.ssd.reads` / `.writes`).
fn catalogue() -> Vec<String> {
    let design = include_str!("../DESIGN.md");
    let start = design.find("\n## 9.").expect("DESIGN.md has a §9");
    let end = design[start..].find("\n## 10.").expect("§9 ends at §10") + start;
    let mut names = Vec::new();
    let mut last_full = String::new();
    for (i, piece) in design[start..end].split('`').enumerate() {
        if i % 2 == 0 || piece.contains(' ') {
            continue;
        }
        if let Some(suffix) = piece.strip_prefix('.') {
            let base = last_full.rsplit_once('.').map_or("", |(b, _)| b);
            names.push(format!("{base}.{suffix}"));
        } else {
            last_full = piece.to_string();
            names.push(last_full.clone());
        }
    }
    names
}

/// `name` matches `pattern`, where each `<…>` placeholder stands for one
/// or more decimal digits.
fn matches(pattern: &str, name: &str) -> bool {
    match pattern.find('<') {
        None => pattern == name,
        Some(open) => {
            let close = pattern[open..].find('>').expect("closed placeholder") + open;
            let Some(rest) = name.strip_prefix(&pattern[..open]) else {
                return false;
            };
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            digits > 0 && matches(&pattern[close + 1..], &rest[digits..])
        }
    }
}

fn byte(rank: usize, op: u64) -> u8 {
    (op.wrapping_mul(31) ^ (rank as u64) << 5) as u8
}

/// Names emitted by the run, by kind: spans, instant prefixes, counters,
/// histograms, gauge series.
fn full_knobs_run() -> [BTreeSet<String>; 5] {
    let fuse = FuseConfig {
        cache_bytes: 3 * CHUNK as u64,
        read_ahead_chunks: 2,
        pipelined_io: true,
        ..FuseConfig::default()
    }
    .with_writeback(0.34, 0.67)
    .with_seg_cache();
    let store = StoreConfig {
        verify_reads: true,
        manager_shards: 2,
        ha_standby: true,
        // Outlasts the standby's 25 ms takeover window.
        fetch_retries: 12,
        ..StoreConfig::default()
    };
    let job = JobConfig::remote(2, 2, 3)
        .with_parity(2, 1)
        .with_manager_shards(2);
    let mut spec = ClusterSpec::hal().scaled(256);
    spec.nodes = job.nodes_needed();
    let cluster = Cluster::with_obs_causal(spec, &job.benefactor_nodes(), fuse, store);
    cluster.attach_faults(
        FaultPlanBuilder::new(9)
            .corruption_rate(VTime::from_millis(10), 0, 100)
            .torn_write(VTime::from_millis(15), 1)
            .bit_rot(VTime::from_millis(20), 1, 5_000)
            .mgr_crash(VTime::from_millis(60), 0)
            .crash(VTime::from_millis(120), 2)
            .mgr_recover(VTime::from_millis(130), 0)
            .recover(VTime::from_millis(140), 2)
            .build(),
    );
    cluster.store.attach_scrub(
        ScrubConfig {
            interval: VTime::from_millis(5),
            chunks_per_pass: 8,
        },
        VTime::ZERO,
    );
    // A read may meet two losses in one RS(2,1) group (the crash and the
    // rot): it then returns a declared error, which this test does not
    // judge — only the names the run emits.
    let pfs = &cluster.pfs;
    run_job(&cluster, &job, Calibration::default(), |ctx, env| {
        let shared: NvmVec<u8> = env
            .client
            .ssdmalloc_shared(ctx, "catalogue", SHARED_LEN)
            .expect("shared alloc");
        let private: NvmVec<u8> = env.client.ssdmalloc(ctx, PRIVATE_LEN).expect("alloc");
        let mut rng = child_seed(0xCA7A_1060, env.rank as u64);
        let mut draw = |bound: usize| {
            rng = child_seed(rng, 1);
            (rng % bound as u64) as usize
        };
        for op in 0..24u64 {
            let _ = match draw(4) {
                0 => {
                    let len = 1 + draw(2 * CHUNK);
                    let start = draw(PRIVATE_LEN - len);
                    private.write_slice(ctx, start, &vec![byte(env.rank, op); len])
                }
                1 => {
                    let len = 1 + draw(2 * CHUNK);
                    let mut out = vec![0u8; len];
                    private.read_slice(ctx, draw(PRIVATE_LEN - len), &mut out)
                }
                2 => {
                    let mut out = vec![0u8; 48 * 512];
                    let start = draw(PRIVATE_LEN - 48 * 8192);
                    private.read_strided(ctx, start, 512, 8192, 48, &mut out)
                }
                _ => {
                    let start = draw(SHARED_LEN - 8192);
                    shared.write_slice(ctx, start, &[byte(env.rank, op); 8192])
                }
            };
        }
        let _ = private.flush(ctx);
        let _ = shared.flush(ctx);
        env.comm.barrier(ctx, env.rank);
        if let Ok(ckpt) =
            env.client
                .ssdcheckpoint(ctx, "catalogue", &[byte(env.rank, 99); CHUNK], &[&private])
        {
            let _ = env.client.restore_dram(ctx, &ckpt);
            let _ = env.client.restore_var::<u8>(ctx, &ckpt, 0);
            let _ = env.client.drain_checkpoint_to_pfs(ctx, &ckpt, pfs, false);
        }
        true
    });
    let spans = cluster
        .trace
        .spans()
        .iter()
        .map(|s| s.name.to_string())
        .collect();
    let instants = cluster
        .trace
        .instants()
        .iter()
        .map(|i| i.name.split(' ').next().unwrap_or_default().to_string())
        .collect();
    let counters = cluster.stats.snapshot().values.into_keys().collect();
    let hists = cluster
        .stats
        .histograms()
        .iter()
        .map(|h| h.name().to_string())
        .collect();
    let series = cluster
        .sampler
        .series()
        .into_iter()
        .map(|s| s.name)
        .collect();
    [spans, instants, counters, hists, series]
}

#[test]
fn every_emitted_name_is_catalogued() {
    let catalogue = catalogue();
    let listed = |name: &str| catalogue.iter().any(|p| matches(p, name));
    let [spans, instants, counters, hists, series] = full_knobs_run();

    // The fault and HA paths this run exists for actually fired.
    for (set, name) in [
        (&spans, "shardmgr.cpu"),
        (&spans, "store.scrub"),
        (&instants, "fault.benefactor_crash"),
        (&instants, "fault.bit_rot"),
        (&instants, "fault.mgr_crash"),
        (&instants, "store.mgr_failover"),
    ] {
        assert!(set.contains(name), "the run emitted no {name}");
    }

    // Reverse direction for the fault plan: every catalogued `fault.*`
    // instant is one this run emits, so a fault kind nothing can schedule
    // shows up here instead of lingering in §9.
    let unemitted: Vec<&String> = catalogue
        .iter()
        .filter(|n| n.starts_with("fault.") && !instants.contains(*n))
        .collect();
    assert!(
        unemitted.is_empty(),
        "catalogued in DESIGN.md §9 but not emitted: {unemitted:?}"
    );

    let mut missing: Vec<String> = Vec::new();
    for (kind, set) in [
        ("span", &spans),
        ("instant", &instants),
        ("counter", &counters),
        ("gauge", &series),
    ] {
        missing.extend(
            set.iter()
                .filter(|n| !listed(n))
                .map(|n| format!("{kind} {n}")),
        );
    }
    for h in &hists {
        match h.strip_prefix("lat.") {
            Some(span) if listed(span) => {}
            _ => missing.push(format!("histogram {h}")),
        }
    }
    assert!(
        missing.is_empty(),
        "emitted but not in DESIGN.md §9:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn placeholders_match_digits_only() {
    assert!(matches("store.shard_rpcs.s<k>", "store.shard_rpcs.s12"));
    assert!(matches("n<X>.ssd.reads", "n3.ssd.reads"));
    assert!(!matches("n<X>.ssd.reads", "n.ssd.reads"));
    assert!(!matches("n<X>.ssd.reads", "nx.ssd.reads"));
    assert!(!matches("store.mgr_rpc", "store.mgr_rpcs"));
}
