//! §III-E / §IV-B-5 — seamless checkpointing of DRAM + NVM variables.
//!
//! The paper's checkpointing subsection is truncated in the available
//! text; the *mechanism* (§III-E) is fully specified, so this bench
//! reports our own measurements of it, flagged as reconstructed:
//!
//! * chunk **linking** makes the NVM-variable part of a checkpoint free
//!   (no data copied, no extra NVM wear) vs a naive full copy;
//! * **copy-on-write** preserves the frozen image across later writes;
//! * **incremental** checkpoints pay only for chunks dirtied since the
//!   previous one;
//! * **concurrent restart**: four ranks on four nodes restoring at once
//!   overlap on the store instead of queueing end to end — the restart
//!   path runs in data-path windows with an engine yield per step
//!   (DESIGN.md §4b), on the paper path and on a pipelined mount.

use bench::{header, mib, scaled_fuse, JsonReport, Table, SCALE};
use cluster::{run_job, Calibration, Cluster, ClusterSpec, JobConfig};
use fusemm::FuseConfig;
use simcore::VTime;

/// One cell of the concurrent-restart block.
struct RestartCell {
    /// Slowest `restore_var` call.
    restore: VTime,
    /// Payload bytes between clients and benefactors during the restores.
    store_bytes: u64,
    /// Manager RPCs during the restores.
    mgr_rpcs: u64,
}

/// R-SSD(4:1:8): every rank checkpoints an 8 MiB variable; after a barrier
/// the first `restorers` ranks `restore_var` theirs at the same instant.
fn restart_cell(pipelined: bool, restorers: usize) -> RestartCell {
    const VAR_BYTES: usize = 8 << 20;
    let cfg = JobConfig::remote(4, 1, 8);
    let cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(SCALE),
        &cfg.benefactor_nodes(),
        FuseConfig {
            pipelined_io: pipelined,
            ..scaled_fuse(SCALE)
        },
    );
    let restart_counters = || {
        let moved = ["store.bytes_to_clients", "store.bytes_from_clients"];
        (
            moved.iter().map(|c| cluster.stats.get(c)).sum::<u64>(),
            cluster.stats.get("store.mgr_rpcs"),
        )
    };
    let result = run_job(&cluster, &cfg, Calibration::default(), |ctx, env| {
        let v = env.client.ssdmalloc::<u8>(ctx, VAR_BYTES).unwrap();
        v.write_slice(ctx, 0, &vec![0x40 + env.rank as u8; VAR_BYTES])
            .unwrap();
        let ck = env
            .client
            .ssdcheckpoint(ctx, "restart", &[7], &[&v])
            .unwrap();
        env.comm.barrier(ctx, env.rank);
        // Everything before the barrier has been counted by now.
        let before = restart_counters();
        let t0 = ctx.now();
        if env.rank < restorers {
            let r = env.client.restore_var::<u8>(ctx, &ck, 0).unwrap();
            assert_eq!(r.len(), VAR_BYTES);
        }
        (ctx.now() - t0, before)
    });
    let before = result.outputs[0].1;
    let after = restart_counters();
    RestartCell {
        restore: result.outputs.iter().map(|o| o.0).max().unwrap(),
        store_bytes: after.0 - before.0,
        mgr_rpcs: after.1 - before.1,
    }
}

fn main() {
    header(
        "Checkpoint linking vs copy (reconstructed; §III-E mechanism)",
        "§IV-B-5 (text truncated)",
    );
    let cfg = JobConfig::local(1, 4, 4);
    let cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(SCALE),
        &cfg.benefactor_nodes(),
        scaled_fuse(SCALE),
    );
    let var_bytes = (32u64) << 20; // a 2 GiB variable at scale 1/64
    let dram_bytes = (4u64) << 20; // plus a 256 MiB DRAM image

    let result = run_job(&cluster, &cfg, Calibration::default(), |ctx, env| {
        if env.rank != 0 {
            env.comm.barrier(ctx, env.rank);
            return Vec::new();
        }
        let mut out: Vec<(String, f64, u64, u64)> = Vec::new();
        let store = env.client.mount().store().clone();
        let wear = |c: &cluster::Cluster| -> u64 { c.total_ssd_bytes_written() };
        let _ = wear;

        let v = env.client.ssdmalloc::<u8>(ctx, var_bytes as usize).unwrap();
        let data = vec![0x5Au8; var_bytes as usize];
        v.write_slice(ctx, 0, &data).unwrap();
        v.flush(ctx).unwrap();
        let dram_state = vec![1u8; dram_bytes as usize];

        // (a) Linked checkpoint.
        let physical_before = store.manager().physical_bytes();
        let t0 = ctx.now();
        let ck1 = env
            .client
            .ssdcheckpoint(ctx, "bench", &dram_state, &[&v])
            .unwrap();
        let linked_time = (ctx.now() - t0).as_secs_f64();
        let linked_extra = store.manager().physical_bytes() - physical_before;
        out.push((
            "linked ckpt #1".into(),
            linked_time,
            linked_extra,
            dram_bytes,
        ));

        // (b) Naive full copy (what linking avoids): stream the variable
        // into a fresh file.
        let t0 = ctx.now();
        let copy = env.client.ssdmalloc::<u8>(ctx, var_bytes as usize).unwrap();
        let mut buf = vec![0u8; var_bytes as usize];
        v.read_slice(ctx, 0, &mut buf).unwrap();
        copy.write_slice(ctx, 0, &buf).unwrap();
        copy.flush(ctx).unwrap();
        let copy_time = (ctx.now() - t0).as_secs_f64();
        out.push(("naive full copy".into(), copy_time, var_bytes, dram_bytes));
        env.client.ssdfree(ctx, copy).unwrap();

        // (c) Dirty 10% of the variable, take an incremental checkpoint.
        let tenth = (var_bytes / 10) as usize;
        v.write_slice(ctx, 0, &vec![0xA5u8; tenth]).unwrap();
        v.flush(ctx).unwrap(); // COW clones ~10% of the chunks
        let physical_mid = store.manager().physical_bytes();
        let t0 = ctx.now();
        let _ck2 = env
            .client
            .ssdcheckpoint(ctx, "bench", &dram_state, &[&v])
            .unwrap();
        let incr_time = (ctx.now() - t0).as_secs_f64();
        let incr_extra = store.manager().physical_bytes() - physical_mid;
        out.push((
            "incremental ckpt #2".into(),
            incr_time,
            incr_extra,
            dram_bytes,
        ));

        // Restores still see the frozen images.
        let r1 = env.client.restore_var::<u8>(ctx, &ck1, 0).unwrap();
        let ok = r1.get(ctx, 0).unwrap() == 0x5A && v.get(ctx, 0).unwrap() == 0xA5;
        out.push(("cow isolation ok".into(), ok as u64 as f64, 0, 0));

        env.comm.barrier(ctx, env.rank);
        out
    });

    let rows = &result.outputs[0];
    let t = Table::new(&[
        ("Operation", 20),
        ("Time (s)", 9),
        ("Extra NVM (MiB)", 16),
        ("DRAM img (MiB)", 15),
    ]);
    for (name, time, extra, dram) in rows.iter().take(3) {
        t.row(&[name.clone(), format!("{time:.3}"), mib(*extra), mib(*dram)]);
    }
    println!();
    bench::store_health("ckpt", &cluster);
    let linked = &rows[0];
    let copy = &rows[1];
    let incr = &rows[2];
    let mut report = JsonReport::new("ckpt_linking");

    // Concurrent restart, R-SSD(4:1:8): {paper, pipelined} x {1 rank
    // alone, 4 ranks together}. Recorded ahead of the older entries so the
    // committed file only gains lines.
    println!();
    println!("Concurrent restart, R-SSD(4:1:8), 8 MiB restore_var per rank");
    let t = Table::new(&[
        ("Data path", 10),
        ("Ranks", 6),
        ("restore_var (s)", 16),
        ("Store (MiB)", 12),
        ("Mgr RPCs", 9),
    ]);
    let mut overlapped = true;
    for (path, pipelined) in [("paper", false), ("pipelined", true)] {
        let alone = restart_cell(pipelined, 1);
        let together = restart_cell(pipelined, 4);
        overlapped &= together.restore.as_nanos() * 2 <= alone.restore.as_nanos() * 5;
        for (ranks, cell) in [(1, &alone), (4, &together)] {
            t.row(&[
                path.into(),
                ranks.to_string(),
                format!("{:.3}", cell.restore.as_secs_f64()),
                mib(cell.store_bytes),
                cell.mgr_rpcs.to_string(),
            ]);
            let key = format!("restart_{path}_{ranks}rank");
            report
                .time(&format!("{key}_restore_var_s"), cell.restore)
                .counter(&format!("{key}_store_bytes"), cell.store_bytes)
                .counter(&format!("{key}_mgr_rpcs"), cell.mgr_rpcs);
        }
    }
    report.check(
        "four concurrent restores finish within 2.5x of one alone",
        overlapped,
    );

    report
        .config("scale", SCALE)
        .config("config", cfg.label())
        .config("var_bytes", var_bytes)
        .config("dram_bytes", dram_bytes);
    report
        .value("linked_ckpt_s", linked.1)
        .value("naive_copy_s", copy.1)
        .value("incremental_ckpt_s", incr.1)
        .counter("linked_extra_nvm_bytes", linked.2)
        .counter("incremental_extra_nvm_bytes", incr.2);
    // Extra physical bytes must be the DRAM image alone, chunk-rounded.
    let chunk = 256 * 1024u64;
    report.check(
        "linking adds zero NVM bytes for the variable (only the DRAM image)",
        linked.2 == linked.3.div_ceil(chunk) * chunk,
    );
    report.check(
        "linked checkpoint is much faster than a full copy",
        linked.1 * 3.0 < copy.1,
    );
    report.check(
        "incremental checkpoint adds no new chunks beyond the DRAM image",
        incr.2 <= linked.2,
    );
    report.check(
        "copy-on-write keeps the frozen image intact",
        rows[3].1 == 1.0,
    );
    report.counters_from(&cluster).health_from(&cluster).emit();
}
