//! Trace determinism: observability must be a pure function of the run.
//!
//! The engine's baton scheduling makes every simulated run deterministic;
//! the span recorder rides on that (spans append under the baton, in
//! `(virtual clock, ProcId)` order). Two identical runs must therefore
//! produce **byte-identical** Chrome-trace exports and identical latency
//! percentiles — and tracing must not perturb virtual time at all: the
//! traced makespan equals the untraced one exactly. A traced run carries
//! flow links, detached shard/device lanes and the virtual-time metrics
//! sampler, and all of it only *observes* computed times.

use chunkstore::StoreConfig;
use cluster::{run_job, Calibration, Cluster, ClusterSpec, JobConfig};
use fusemm::FuseConfig;
use nvmalloc::NvmVec;
use obs::validate_chrome_trace;
use proptest::prelude::*;
use simcore::VTime;

const LEN: usize = 1 << 20; // 1 MiB shared variable (4 chunks)

fn build(pipelined: bool, traced: bool) -> (Cluster, JobConfig) {
    let cfg = JobConfig::local(1, 2, 2);
    let fuse = FuseConfig {
        cache_bytes: 768 * 1024, // 3 chunks: eviction and write-back fire
        pipelined_io: pipelined,
        ..FuseConfig::default()
    };
    let spec = ClusterSpec::hal().scaled(256);
    let make = if traced {
        Cluster::with_obs_causal
    } else {
        Cluster::with_configs
    };
    let cluster = make(spec, &cfg.benefactor_nodes(), fuse, StoreConfig::default());
    (cluster, cfg)
}

/// Run the op schedule; return the Chrome-trace export (with gauge
/// counter tracks when the sampler ran), the percentile lines of every
/// latency histogram, and the job makespan.
fn run_once(ops: &[(usize, usize)], pipelined: bool, traced: bool) -> (String, Vec<String>, VTime) {
    let (cluster, cfg) = build(pipelined, traced);
    let ops2 = ops.to_vec();
    let result = run_job(&cluster, &cfg, Calibration::default(), move |ctx, env| {
        let v: NvmVec<u8> = env.client.ssdmalloc_shared(ctx, "t", LEN).expect("alloc");
        if env.rank == 0 {
            for &(start, len) in &ops2 {
                let data = vec![0xAB; len];
                v.write_slice(ctx, start, &data).expect("write");
            }
            v.flush(ctx).expect("flush");
        }
        env.comm.barrier(ctx, env.rank);
        for &(start, len) in &ops2 {
            let mut out = vec![0u8; len];
            v.read_slice(ctx, start, &mut out).expect("read");
        }
        true
    });
    let hists: Vec<String> = cluster
        .trace
        .footer(8)
        .hists
        .iter()
        .map(|h| {
            format!(
                "{} n={} p50={} p95={} p99={} max={}",
                h.name, h.count, h.p50_ns, h.p95_ns, h.p99_ns, h.max_ns
            )
        })
        .collect();
    let series = cluster.sampler.series();
    let text = cluster.trace.chrome_trace_with_series(&series);
    (text, hists, result.makespan())
}

fn op_strategy() -> impl Strategy<Value = (usize, usize)> {
    (0usize..LEN, 1usize..200_000).prop_map(|(start, len)| {
        let start = start.min(LEN - 1);
        (start, len.min(LEN - start))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Same seed + same config → byte-identical trace export, identical
    /// percentiles, and a makespan bit-identical to the untraced run; the
    /// export is schema-valid and carries flow links and sampler counter
    /// tracks.
    #[test]
    fn traces_are_deterministic_and_timing_neutral(
        ops in proptest::collection::vec(op_strategy(), 1..8),
        pipelined in any::<bool>(),
    ) {
        let (trace_a, hists_a, span_a) = run_once(&ops, pipelined, true);
        let (trace_b, hists_b, span_b) = run_once(&ops, pipelined, true);
        prop_assert!(trace_a == trace_b, "chrome exports differ between identical runs");
        prop_assert_eq!(&hists_a, &hists_b, "latency percentiles differ between identical runs");
        prop_assert_eq!(span_a, span_b);
        prop_assert!(!hists_a.is_empty(), "traced run recorded no latency histograms");
        let summary =
            validate_chrome_trace(&trace_a).expect("export must satisfy the trace-event schema");
        prop_assert!(summary.flows > 0, "traced run recorded no flow links");
        prop_assert!(
            summary.counter_samples > 0,
            "metrics sampler recorded no counter samples"
        );

        // Tracing off: virtual time must be bit-identical to the traced run.
        let (empty, no_hists, span_off) = run_once(&ops, pipelined, false);
        prop_assert_eq!(span_off, span_a, "tracing perturbed virtual time");
        prop_assert!(no_hists.is_empty());
        validate_chrome_trace(&empty).expect("disabled recorder exports an empty valid trace");
    }
}
