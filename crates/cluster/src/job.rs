//! Job launch: the `(x:y:z)` configurations of the paper's evaluation.
//!
//! A configuration string like `L-SSD(8:16:16)` means 8 processes per
//! node, 16 compute nodes, 16 SSD benefactors, with benefactors local
//! (`L`) or remote (`R`) to the compute nodes. [`JobConfig`] captures the
//! process placement; benefactor placement is fixed when the [`Cluster`]
//! is built (see [`JobConfig::benefactor_nodes`] helpers).

use crate::calib::Calibration;
use crate::cluster::Cluster;
use crate::comm::Comm;
use devices::DramExhausted;
use nvmalloc::{AllocOptions, NvmClient};
use simcore::{Engine, EngineReport, ProcCtx, VTime};
use std::cell::RefCell;

/// Where a configuration's benefactors sit relative to its compute nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SsdPlacement {
    /// No NVM store: the DRAM-only baseline.
    None,
    /// Benefactors on the compute nodes themselves (`L-SSD`).
    Local,
    /// Benefactors on a disjoint set of nodes (`R-SSD`).
    Remote,
}

/// An `(x:y:z)` job configuration.
///
/// ```
/// use cluster::JobConfig;
/// let cfg = JobConfig::remote(8, 8, 4);
/// assert_eq!(cfg.label(), "R-SSD(8:8:4)");
/// assert_eq!(cfg.ranks(), 64);
/// assert_eq!(cfg.benefactor_nodes(), vec![8, 9, 10, 11]);
/// ```
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// x: processes per compute node.
    pub procs_per_node: usize,
    /// y: number of compute nodes (nodes `0..y`).
    pub compute_nodes: usize,
    /// z: number of SSD benefactors.
    pub benefactors: usize,
    pub placement: SsdPlacement,
    /// Replica degree for every allocation the job makes (1 = unreplicated,
    /// the paper's baseline; 2 survives a single benefactor failure).
    pub replicas: usize,
    /// Erasure coding for every allocation the job makes: `Some((k, m))`
    /// stripes RS(k, m) parity groups (DESIGN.md §15) — m benefactor
    /// losses survived at (k + m)/k× storage instead of replication's
    /// (m + 1)×. Mutually exclusive with `replicas > 1`.
    pub parity: Option<(usize, usize)>,
    /// Placement-manager shard ranks (DESIGN.md §12). `0` — the default —
    /// is the serial single-manager store; the cluster must be built with
    /// a matching `StoreConfig::manager_shards`.
    pub manager_shards: usize,
}

impl JobConfig {
    pub fn dram_only(x: usize, y: usize) -> Self {
        JobConfig {
            procs_per_node: x,
            compute_nodes: y,
            benefactors: 0,
            placement: SsdPlacement::None,
            replicas: 1,
            parity: None,
            manager_shards: 0,
        }
    }

    /// `L-SSD(x:y:z)`: benefactors on compute nodes `0..z` (z ≤ y).
    pub fn local(x: usize, y: usize, z: usize) -> Self {
        assert!(z <= y, "local benefactors must sit on compute nodes");
        JobConfig {
            procs_per_node: x,
            compute_nodes: y,
            benefactors: z,
            placement: SsdPlacement::Local,
            replicas: 1,
            parity: None,
            manager_shards: 0,
        }
    }

    /// `R-SSD(x:y:z)`: benefactors on nodes `y..y+z`, disjoint from the
    /// compute nodes.
    pub fn remote(x: usize, y: usize, z: usize) -> Self {
        JobConfig {
            procs_per_node: x,
            compute_nodes: y,
            benefactors: z,
            placement: SsdPlacement::Remote,
            replicas: 1,
            parity: None,
            manager_shards: 0,
        }
    }

    /// Run every allocation with `k` replicas per chunk.
    pub fn with_replicas(mut self, k: usize) -> Self {
        assert!(k >= 1, "at least one copy");
        self.replicas = k;
        self
    }

    /// Run every allocation as RS(k, m) parity groups (DESIGN.md §15).
    /// The cluster needs at least `k + m` benefactors so every group's
    /// members land on distinct benefactors.
    pub fn with_parity(mut self, k: usize, m: usize) -> Self {
        assert!(k >= 1, "at least one data member per group");
        assert!(
            self.replicas == 1 || m == 0,
            "replication and erasure coding are mutually exclusive"
        );
        self.parity = Some((k, m));
        self
    }

    /// Run the placement manager sharded `n` ways (DESIGN.md §12). The
    /// cluster this job runs on must be built with the same
    /// `StoreConfig::manager_shards` so the shard ranks exist.
    pub fn with_manager_shards(mut self, n: usize) -> Self {
        self.manager_shards = n;
        self
    }

    /// Total MPI ranks.
    pub fn ranks(&self) -> usize {
        self.procs_per_node * self.compute_nodes
    }

    /// Node hosting a rank (block placement, as `mpirun -bynode` off).
    pub fn node_of_rank(&self, rank: usize) -> usize {
        rank / self.procs_per_node
    }

    /// The nodes that must run benefactors for this configuration.
    pub fn benefactor_nodes(&self) -> Vec<usize> {
        match self.placement {
            SsdPlacement::None => Vec::new(),
            SsdPlacement::Local => (0..self.benefactors).collect(),
            SsdPlacement::Remote => {
                (self.compute_nodes..self.compute_nodes + self.benefactors).collect()
            }
        }
    }

    /// Total nodes the cluster needs for this configuration.
    pub fn nodes_needed(&self) -> usize {
        match self.placement {
            SsdPlacement::Remote => self.compute_nodes + self.benefactors,
            _ => self.compute_nodes,
        }
    }

    /// The paper's label, e.g. `L-SSD(8:16:16)` or `DRAM(2:16:0)`.
    /// Replicated configurations get an `xK` suffix (`L-SSD(8:16:16)x2`),
    /// erasure-coded ones an `+rs(k,m)` suffix; the paper's unreplicated
    /// labels print unchanged.
    pub fn label(&self) -> String {
        let base = match self.placement {
            SsdPlacement::None => {
                format!("DRAM({}:{}:0)", self.procs_per_node, self.compute_nodes)
            }
            SsdPlacement::Local => format!(
                "L-SSD({}:{}:{})",
                self.procs_per_node, self.compute_nodes, self.benefactors
            ),
            SsdPlacement::Remote => format!(
                "R-SSD({}:{}:{})",
                self.procs_per_node, self.compute_nodes, self.benefactors
            ),
        };
        let base = if self.replicas > 1 {
            format!("{base}x{}", self.replicas)
        } else {
            base
        };
        let base = match self.parity {
            Some((k, m)) if m > 0 => format!("{base}+rs({k},{m})"),
            _ => base,
        };
        if self.manager_shards > 0 {
            format!("{base}/s{}", self.manager_shards)
        } else {
            base
        }
    }
}

/// Everything a rank's body can touch.
pub struct JobEnv {
    pub rank: usize,
    pub size: usize,
    pub node: usize,
    pub comm: Comm,
    pub client: NvmClient,
    pub calib: Calibration,
    dram: devices::Dram,
    pfs: devices::Pfs,
    net: netsim::Network,
}

impl JobEnv {
    /// Charge `flops` of computation on this rank's core.
    pub fn compute(&self, ctx: &mut ProcCtx, flops: f64) {
        ctx.advance(self.calib.compute_time(flops));
    }

    /// Move `bytes` over this node's shared DRAM bus (contends with the
    /// node's other ranks — the STREAM effect).
    pub fn dram_io(&self, ctx: &mut ProcCtx, bytes: u64) {
        ctx.yield_until_min();
        let g = self.dram.access_at(ctx.now(), bytes);
        ctx.advance_to(g.end);
    }

    /// Read `bytes` from the PFS (input files). Charges the PFS server
    /// and this node's receive NIC.
    pub fn pfs_read(&self, ctx: &mut ProcCtx, bytes: u64) {
        ctx.yield_until_min();
        let g = self.pfs.read_at(ctx.now(), bytes);
        let rx = self.net.rx_at(g.start, self.node, bytes);
        ctx.advance_to(g.end.max(rx.end));
    }

    /// Write `bytes` to the PFS (output files). Charges the transmit NIC
    /// and the PFS server.
    pub fn pfs_write(&self, ctx: &mut ProcCtx, bytes: u64) {
        ctx.yield_until_min();
        let tx = self.net.tx_at(ctx.now(), self.node, bytes);
        let g = self.pfs.write_at(ctx.now(), bytes);
        ctx.advance_to(g.end.max(tx.end));
    }

    /// Reserve DRAM for an application allocation; fails when the node is
    /// out of physical memory (the paper's 2-processes-per-node limit for
    /// the DRAM-only matrix multiply comes from exactly this failure).
    pub fn reserve_dram(&self, bytes: u64) -> Result<(), DramExhausted> {
        self.dram.reserve(bytes)
    }

    pub fn release_dram(&self, bytes: u64) {
        self.dram.release(bytes)
    }
}

/// Result of a job run.
#[derive(Debug)]
pub struct JobResult<R> {
    pub outputs: Vec<R>,
    pub report: EngineReport,
}

impl<R> JobResult<R> {
    pub fn makespan(&self) -> VTime {
        self.report.makespan
    }
}

/// Run `body` as an SPMD job on the cluster.
///
/// Panics if the cluster was not built with the benefactor placement the
/// configuration requires (see [`JobConfig::benefactor_nodes`]).
pub fn run_job<R, F>(
    cluster: &Cluster,
    cfg: &JobConfig,
    calib: Calibration,
    body: F,
) -> JobResult<R>
where
    F: Fn(&mut ProcCtx, &JobEnv) -> R,
{
    assert!(
        cfg.nodes_needed() <= cluster.spec.nodes,
        "configuration {} needs {} nodes, cluster has {}",
        cfg.label(),
        cfg.nodes_needed(),
        cluster.spec.nodes
    );
    assert_eq!(
        cfg.benefactor_nodes(),
        cluster.benefactor_nodes,
        "cluster benefactor placement does not match the job configuration"
    );
    assert!(
        cfg.procs_per_node <= cluster.spec.cores_per_node,
        "more processes per node than cores"
    );
    assert_eq!(
        cluster.store.shards_installed(),
        cfg.manager_shards,
        "cluster manager sharding does not match the job configuration"
    );

    let n = cfg.ranks();
    let node_of_rank: Vec<usize> = (0..n).map(|r| cfg.node_of_rank(r)).collect();
    let comm = Comm::new(cluster.net.clone(), node_of_rank.clone(), calib);
    let outputs: RefCell<Vec<Option<R>>> = RefCell::new((0..n).map(|_| None).collect());

    let body = &body;
    let outputs_ref = &outputs;
    // Rank r draws on trace lane r, its engine process id.
    if cluster.trace.is_enabled() {
        for rank in 0..n {
            let lane = rank as u32;
            cluster.trace.label_lane(lane, format!("rank {rank}"));
        }
    }
    let report = Engine::run(
        (0..n)
            .map(|rank| {
                let node = node_of_rank[rank];
                let comm = comm.clone();
                let env = JobEnv {
                    rank,
                    size: n,
                    node,
                    comm,
                    client: NvmClient::new(
                        cluster.mount(node).clone(),
                        rank as u64,
                        AllocOptions {
                            stripe: match cfg.parity {
                                Some((k, m)) => chunkstore::StripeSpec::all().with_parity(k, m),
                                None => chunkstore::StripeSpec::all().with_replicas(cfg.replicas),
                            },
                            ..AllocOptions::default()
                        },
                        &cluster.stats,
                    ),
                    calib,
                    dram: cluster.dram(node).clone(),
                    pfs: cluster.pfs.clone(),
                    net: cluster.net.clone(),
                };
                move |ctx: &mut ProcCtx| {
                    let out = body(ctx, &env);
                    outputs_ref.borrow_mut()[rank] = Some(out);
                }
            })
            .collect(),
    );
    // Close out every gauge series at the makespan: the sampler only
    // fires when virtual time crosses an interval boundary, so without
    // this the series would end at the last crossing, not at the end of
    // the run.
    cluster.sampler.sample_now(report.makespan);

    JobResult {
        outputs: outputs
            .into_inner()
            .into_iter()
            .map(|o| o.expect("rank produced no output"))
            .collect(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterSpec;
    use simcore::time::bytes::mib;

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(JobConfig::dram_only(2, 16).label(), "DRAM(2:16:0)");
        assert_eq!(JobConfig::local(8, 16, 16).label(), "L-SSD(8:16:16)");
        assert_eq!(JobConfig::remote(8, 8, 4).label(), "R-SSD(8:8:4)");
        assert_eq!(
            JobConfig::local(8, 16, 16).with_manager_shards(4).label(),
            "L-SSD(8:16:16)/s4"
        );
        assert_eq!(
            JobConfig::local(8, 16, 16).with_parity(4, 2).label(),
            "L-SSD(8:16:16)+rs(4,2)"
        );
        assert_eq!(
            JobConfig::local(8, 16, 16).with_parity(4, 0).label(),
            "L-SSD(8:16:16)",
            "m = 0 is plain striping and keeps the paper's label"
        );
    }

    #[test]
    fn rank_placement_is_blocked() {
        let cfg = JobConfig::local(8, 16, 16);
        assert_eq!(cfg.ranks(), 128);
        assert_eq!(cfg.node_of_rank(0), 0);
        assert_eq!(cfg.node_of_rank(7), 0);
        assert_eq!(cfg.node_of_rank(8), 1);
        assert_eq!(cfg.node_of_rank(127), 15);
    }

    #[test]
    fn benefactor_layouts() {
        assert!(JobConfig::dram_only(8, 16).benefactor_nodes().is_empty());
        assert_eq!(
            JobConfig::local(8, 8, 4).benefactor_nodes(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(JobConfig::remote(8, 8, 2).benefactor_nodes(), vec![8, 9]);
        assert_eq!(JobConfig::remote(8, 8, 8).nodes_needed(), 16);
    }

    #[test]
    fn simple_job_runs_all_ranks() {
        let cfg = JobConfig::local(2, 2, 2);
        let cluster = Cluster::new(ClusterSpec::hal().scaled(256), &cfg.benefactor_nodes());
        let result = run_job(&cluster, &cfg, Calibration::default(), |ctx, env| {
            env.compute(ctx, 2.4e9); // 1 virtual second
            env.comm.barrier(ctx, env.rank);
            (env.rank, env.node, ctx.now())
        });
        assert_eq!(result.outputs.len(), 4);
        for (rank, node, t) in &result.outputs {
            assert_eq!(*node, rank / 2);
            assert!(*t >= VTime::from_secs(1));
        }
        assert!(result.makespan() >= VTime::from_secs(1));
    }

    #[test]
    fn job_can_use_nvmalloc() {
        let cfg = JobConfig::local(2, 2, 2);
        let cluster = Cluster::new(ClusterSpec::hal().scaled(256), &cfg.benefactor_nodes());
        let result = run_job(&cluster, &cfg, Calibration::default(), |ctx, env| {
            // Rank 0 creates a shared variable, everyone reads it.
            let v = if env.rank == 0 {
                let v = env.client.ssdmalloc_shared::<u64>(ctx, "t", 1024).unwrap();
                v.set(ctx, 0, 77).unwrap();
                v.flush(ctx).unwrap();
                v
            } else {
                env.client.ssdmalloc_shared::<u64>(ctx, "t", 1024).unwrap()
            };
            env.comm.barrier(ctx, env.rank);
            v.get(ctx, 0).unwrap()
        });
        assert!(result.outputs.iter().all(|&v| v == 77));
    }

    #[test]
    fn dram_reservation_limits_processes() {
        let cfg = JobConfig::dram_only(8, 1);
        let cluster = Cluster::new(ClusterSpec::hal().scaled(64), &[]);
        // 8 ranks × 2 GiB/64 each cannot fit in 8 GiB/64 of node DRAM:
        // at most 4 reservations succeed (the paper could fit only 2 MM
        // processes because each needed ~3 matrices).
        let result = run_job(&cluster, &cfg, Calibration::default(), |ctx, env| {
            env.comm.barrier(ctx, env.rank); // deterministic order…
            let got = env.reserve_dram(mib(32)).is_ok();
            env.comm.barrier(ctx, env.rank);
            got
        });
        let ok = result.outputs.iter().filter(|&&b| b).count();
        assert_eq!(ok, 4);
    }

    #[test]
    fn replicated_job_survives_benefactor_crash() {
        // The acceptance scenario: a job on a replicated store keeps
        // producing the exact same results when a benefactor dies mid-run,
        // and the store records the failovers. The same virtual-time fault
        // plan also reproduces identical numbers across invocations.
        let run = |faulted: bool| {
            let cfg = JobConfig::local(2, 2, 2).with_replicas(2);
            // One-chunk cache so alternating reads always reach the store.
            let fuse = fusemm::FuseConfig {
                cache_bytes: 256 * 1024,
                read_ahead_chunks: 0,
                ..fusemm::FuseConfig::default()
            };
            let cluster = Cluster::with_fuse(
                ClusterSpec::hal().scaled(256),
                &cfg.benefactor_nodes(),
                fuse,
            );
            if faulted {
                cluster.attach_faults(
                    faults::FaultPlanBuilder::new(11)
                        .crash(VTime::from_millis(500), 0)
                        .build(),
                );
            }
            let result = run_job(&cluster, &cfg, Calibration::default(), |ctx, env| {
                let v = env.client.ssdmalloc_shared::<u64>(ctx, "v", 4096).unwrap();
                let w = env.client.ssdmalloc_shared::<u64>(ctx, "w", 4096).unwrap();
                if env.rank == 0 {
                    for i in 0..64 {
                        v.set(ctx, i, 3 * i as u64).unwrap();
                        w.set(ctx, i, 7 * i as u64).unwrap();
                    }
                    v.flush(ctx).unwrap();
                    w.flush(ctx).unwrap();
                }
                env.comm.barrier(ctx, env.rank);
                // Phase 1: read everything before the scheduled crash.
                let mut sum = 0u64;
                for i in 0..64 {
                    sum += v.get(ctx, i).unwrap() + w.get(ctx, i).unwrap();
                }
                // Advance well past the crash time (~1 virtual second).
                env.compute(ctx, 2.4e9);
                // Phase 2: the same reads now run against the degraded
                // store and must return the same bytes via failover.
                for i in 0..64 {
                    sum += v.get(ctx, i).unwrap() + w.get(ctx, i).unwrap();
                }
                sum
            });
            let failovers = cluster.stats.get("store.failovers");
            let crashes = cluster.stats.get("store.benefactor_crashes");
            (
                result.outputs.clone(),
                result.makespan(),
                failovers,
                crashes,
            )
        };

        let (clean, _, f0, c0) = run(false);
        let (faulted, span1, f1, c1) = run(true);
        assert_eq!(clean, faulted, "failover must not change any result");
        assert_eq!((f0, c0), (0, 0));
        assert_eq!(c1, 1);
        assert!(f1 > 0, "degraded phase must have failed over");
        // Seed-stable: an identical faulted run reproduces identical
        // virtual-time numbers.
        let (outputs2, span2, f2, _) = run(true);
        assert_eq!(outputs2, faulted);
        assert_eq!(span1, span2);
        assert_eq!(f1, f2);
    }

    #[test]
    fn erasure_coded_job_survives_benefactor_crash() {
        // The RS analogue of the replicated acceptance scenario: the same
        // job on an RS(2, 1) store keeps producing identical results when
        // a benefactor dies mid-run — degraded reads *reconstruct* the
        // lost members from survivors instead of switching to a replica.
        let run = |faulted: bool| {
            let cfg = JobConfig::local(2, 3, 3).with_parity(2, 1);
            let fuse = fusemm::FuseConfig {
                cache_bytes: 256 * 1024,
                read_ahead_chunks: 0,
                ..fusemm::FuseConfig::default()
            };
            let cluster = Cluster::with_fuse(
                ClusterSpec::hal().scaled(256),
                &cfg.benefactor_nodes(),
                fuse,
            );
            if faulted {
                cluster.attach_faults(
                    faults::FaultPlanBuilder::new(13)
                        .crash(VTime::from_millis(500), 0)
                        .build(),
                );
            }
            let result = run_job(&cluster, &cfg, Calibration::default(), |ctx, env| {
                let v = env.client.ssdmalloc_shared::<u64>(ctx, "v", 4096).unwrap();
                let w = env.client.ssdmalloc_shared::<u64>(ctx, "w", 4096).unwrap();
                if env.rank == 0 {
                    for i in 0..64 {
                        v.set(ctx, i, 3 * i as u64).unwrap();
                        w.set(ctx, i, 7 * i as u64).unwrap();
                    }
                    v.flush(ctx).unwrap();
                    w.flush(ctx).unwrap();
                }
                env.comm.barrier(ctx, env.rank);
                let mut sum = 0u64;
                for i in 0..64 {
                    sum += v.get(ctx, i).unwrap() + w.get(ctx, i).unwrap();
                }
                env.compute(ctx, 2.4e9); // ride past the scheduled crash
                for i in 0..64 {
                    sum += v.get(ctx, i).unwrap() + w.get(ctx, i).unwrap();
                }
                sum
            });
            let reconstructs = cluster.stats.get("store.degraded_reconstructs");
            let crashes = cluster.stats.get("store.benefactor_crashes");
            (result.outputs.clone(), reconstructs, crashes)
        };

        let (clean, r0, c0) = run(false);
        let (faulted, r1, c1) = run(true);
        assert_eq!(clean, faulted, "reconstruction must not change results");
        assert_eq!((r0, c0), (0, 0));
        assert_eq!(c1, 1);
        assert!(r1 > 0, "degraded phase must have reconstructed");
    }

    #[test]
    fn writeback_daemon_job_plumbs_through_and_stays_deterministic() {
        // The write-back knobs (DESIGN.md §10) flow from `Cluster::with_fuse`
        // into every node's mount: a job whose writer outruns the flusher
        // sees background flushes and throttle stalls on the cluster-wide
        // counters, and two invocations reproduce identical virtual-time
        // numbers.
        let run = || {
            let cfg = JobConfig::remote(2, 2, 2);
            let fuse = fusemm::FuseConfig {
                cache_bytes: 4 * 256 * 1024, // four chunks
                read_ahead_chunks: 0,
                ..fusemm::FuseConfig::default()
            }
            .with_writeback(0.25, 0.5)
            .with_seg_cache();
            let cluster = Cluster::with_fuse(
                ClusterSpec::hal().scaled(256),
                &cfg.benefactor_nodes(),
                fuse,
            );
            const CHUNK_ELEMS: usize = 32 * 1024; // 256 KiB of u64
            let result = run_job(&cluster, &cfg, Calibration::default(), |ctx, env| {
                let v = env
                    .client
                    .ssdmalloc_shared::<u64>(ctx, "v", 8 * CHUNK_ELEMS)
                    .unwrap();
                if env.rank == 0 {
                    // Dirty 8 chunks through the 4-chunk cache faster than
                    // the flusher drains them.
                    let data: Vec<u64> = (0..CHUNK_ELEMS as u64).collect();
                    for c in 0..8 {
                        v.write_slice(ctx, c * CHUNK_ELEMS, &data).unwrap();
                    }
                    v.flush(ctx).unwrap();
                }
                env.comm.barrier(ctx, env.rank);
                let mut sum = 0u64;
                for i in (0..8 * CHUNK_ELEMS).step_by(4096) {
                    sum += v.get(ctx, i).unwrap();
                }
                sum
            });
            (
                result.outputs.clone(),
                result.makespan(),
                cluster.stats.get("fuse.bg_flushes"),
                cluster.stats.get("fuse.throttled_writes"),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "daemon-enabled job reproduces exactly");
        let (outputs, _, bg, throttled) = a;
        assert!(bg >= 1, "background flusher ran during the job");
        assert!(throttled >= 1, "writer outran the flusher and stalled");
        assert!(
            outputs.windows(2).all(|w| w[0] == w[1]),
            "every rank read the same bytes"
        );
    }

    #[test]
    fn sharded_job_plumbs_through_and_stays_deterministic() {
        // The sharding knobs flow from `JobConfig::with_manager_shards`
        // through `StoreConfig` into the cluster build: a shared-variable
        // job on a 2-shard store produces the same bytes as the serial
        // manager, routes RPCs to shard 0, and two invocations reproduce
        // identical virtual-time numbers.
        let run = |shards: usize| {
            let cfg = JobConfig::local(2, 2, 2).with_manager_shards(shards);
            let store_cfg = chunkstore::StoreConfig {
                manager_shards: shards,
                ..chunkstore::StoreConfig::default()
            };
            let cluster = Cluster::with_configs(
                ClusterSpec::hal().scaled(256),
                &cfg.benefactor_nodes(),
                fusemm::FuseConfig::default(),
                store_cfg,
            );
            let result = run_job(&cluster, &cfg, Calibration::default(), |ctx, env| {
                let v = env.client.ssdmalloc_shared::<u64>(ctx, "v", 4096).unwrap();
                if env.rank == 0 {
                    for i in 0..64 {
                        v.set(ctx, i, 5 * i as u64).unwrap();
                    }
                    v.flush(ctx).unwrap();
                }
                env.comm.barrier(ctx, env.rank);
                let mut sum = 0u64;
                for i in 0..64 {
                    sum += v.get(ctx, i).unwrap();
                }
                sum
            });
            (
                result.outputs.clone(),
                result.makespan(),
                cluster.stats.get("store.shard_rpcs.s0"),
            )
        };
        let (serial, _, s0) = run(0);
        assert_eq!(s0, 0, "no shard set, no shard RPCs");
        let a = run(2);
        let b = run(2);
        assert_eq!(a, b, "sharded job reproduces exactly");
        let (sharded, _, s0) = a;
        assert_eq!(serial, sharded, "sharding must not change any result");
        assert!(s0 > 0, "shard 0 served RPCs");
    }

    #[test]
    #[should_panic(expected = "benefactor placement")]
    fn mismatched_cluster_rejected() {
        let cfg = JobConfig::remote(2, 2, 2);
        let cluster = Cluster::new(ClusterSpec::hal().scaled(256), &[0, 1]);
        run_job(&cluster, &cfg, Calibration::default(), |_, _| ());
    }
}
