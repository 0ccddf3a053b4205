//! Ablation — chunk placement policy: the manager's rotated round-robin
//! striping vs a seeded random permutation per file.
//!
//! Round-robin keeps concurrent writers of equally-striped files
//! de-phased deterministically; random placement achieves the same in
//! expectation with occasional hot spots. The paper uses round-robin.

use bench::{header, scaled_fuse, JsonReport, Table, SCALE};
use chunkstore::{PlacementPolicy, StripeSpec};
use cluster::{run_job, Calibration, Cluster, ClusterSpec, JobConfig};
use nvmalloc::AllocOptions;

fn main() {
    header(
        "Ablation: striping policy (round-robin vs random)",
        "§II manager design",
    );
    let cfg = JobConfig::local(8, 16, 16);
    let t = Table::new(&[
        ("Policy", 14),
        ("Write+flush s", 14),
        ("Max SSD busy s", 15),
        ("Mean SSD busy s", 16),
    ]);
    let mut report = JsonReport::new("ablate_striping");
    report.config("scale", SCALE).config("config", cfg.label());
    let mut times = Vec::new();
    let mut skews = Vec::new();
    let mut last_cluster = None;
    for (policy, name) in [
        (PlacementPolicy::RoundRobin, "round-robin"),
        (PlacementPolicy::RandomPermutation { seed: 9 }, "random"),
    ] {
        let cluster = Cluster::with_fuse(
            ClusterSpec::hal().scaled(SCALE),
            &cfg.benefactor_nodes(),
            scaled_fuse(SCALE),
        );
        // Every rank writes a 4 MiB variable striped with `policy`.
        let result = run_job(&cluster, &cfg, Calibration::default(), |ctx, env| {
            let opts = AllocOptions {
                stripe: StripeSpec::all(),
                placement: policy,
            };
            let v = env
                .client
                .ssdmalloc_opts::<u8>(ctx, 4 << 20, &opts)
                .unwrap();
            env.comm.barrier(ctx, env.rank);
            let t0 = ctx.now();
            v.write_slice(ctx, 0, &vec![7u8; 4 << 20]).unwrap();
            v.flush(ctx).unwrap();
            env.comm.barrier(ctx, env.rank);
            (ctx.now() - t0).as_secs_f64()
        });
        let time = result.outputs.iter().cloned().fold(0.0f64, f64::max);
        let (max_busy, mean_busy) = {
            let mgr = cluster.store.manager();
            let busy: Vec<f64> = (0..mgr.benefactor_count())
                .map(|i| {
                    mgr.benefactor(chunkstore::BenefactorId(i))
                        .ssd()
                        .resource()
                        .busy_total()
                        .as_secs_f64()
                })
                .collect();
            (
                busy.iter().cloned().fold(0.0f64, f64::max),
                busy.iter().sum::<f64>() / busy.len() as f64,
            )
        };
        t.row(&[
            name.to_string(),
            format!("{time:.3}"),
            format!("{max_busy:.3}"),
            format!("{mean_busy:.3}"),
        ]);
        times.push(time);
        skews.push(max_busy / mean_busy);
        report
            .value(&format!("write_flush_s_{name}"), time)
            .value(&format!("ssd_busy_skew_{name}"), max_busy / mean_busy);
        bench::store_health(name, &cluster);
        report.ran(&cluster);
        last_cluster = Some(cluster);
    }
    println!();
    report.check(
        "both policies land within 25% of each other (balanced in expectation)",
        (times[0] / times[1] - 1.0).abs() < 0.25 || (times[1] / times[0] - 1.0).abs() < 0.25,
    );
    report.check(
        "round-robin keeps the SSD fleet balanced (max/mean < 1.2)",
        skews[0] < 1.2,
    );
    report.check(
        "random placement is no better balanced than round-robin",
        skews[1] >= skews[0] * 0.95,
    );
    let cluster = last_cluster.expect("sweep ran");
    report.counters_from(&cluster).health_from(&cluster).emit();
}
