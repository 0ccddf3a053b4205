//! MPI dense matrix multiplication (§IV-B-2): `C = A × B` with loop
//! tiling, BLOCK row distribution of A and C, and B fully replicated —
//! in DRAM, in per-node *shared* NVM mmap files, or in per-process
//! *individual* NVM files.
//!
//! Execution follows the paper's five timed stages:
//!   (i) master reads A from the PFS and scatters row blocks;
//!  (ii) master reads B from the PFS;
//! (iii) B is broadcast (and, in NVM modes, stored into the mapped files);
//!  (iv) every process computes its C rows with loop tiling;
//!   (v) master gathers C and writes it to the PFS.

use cluster::{run_job, Calibration, Cluster, Comm, JobConfig, JobEnv};
use nvmalloc::NvmVec;
use simcore::{ProcCtx, Snapshot, VTime};
use std::sync::Arc;

/// Where matrix B lives during the computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BPlacement {
    /// Fully replicated in every process's DRAM (the baseline).
    Dram,
    /// One NVM mmap file per *node*, shared by its processes (`-SSD-S`).
    NvmShared,
    /// One NVM mmap file per *process* (`-SSD-I`).
    NvmIndividual,
}

/// Traversal order over B in the inner loops (Fig. 5, Table V).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOrder {
    RowMajor,
    ColMajor,
}

/// Problem + algorithm parameters.
#[derive(Clone, Copy, Debug)]
pub struct MmConfig {
    /// Scaled matrix dimension (elements per side).
    pub n: usize,
    /// Paper-scale dimension this run stands for (16384 for the 2 GB
    /// matrices); sets the compute-time multiplier `full_n / n` that
    /// restores the paper's compute-to-I/O ratio (see DESIGN.md).
    pub full_n: usize,
    /// Tile size in *scaled* rows/columns.
    pub tile: usize,
    pub order: AccessOrder,
    pub b_place: BPlacement,
    /// Verify C against a reference product (only for small `n`).
    pub verify: bool,
    pub seed: u64,
}

impl MmConfig {
    /// A scaled stand-in for the paper's 2 GB/matrix problem.
    pub fn paper_2gb(n: usize) -> Self {
        MmConfig {
            n,
            full_n: 16384, // 16384² × 8 B = 2 GiB
            tile: (128 * n / 16384).max(1),
            order: AccessOrder::RowMajor,
            b_place: BPlacement::NvmShared,
            verify: false,
            seed: 42,
        }
    }

    /// A scaled stand-in for the 8 GB/matrix problem (Fig. 6).
    pub fn paper_8gb(n: usize) -> Self {
        MmConfig {
            full_n: 32768, // 32768² × 8 B = 8 GiB
            tile: (128 * n / 32768).max(1),
            ..Self::paper_2gb(n)
        }
    }

    pub fn matrix_bytes(&self) -> u64 {
        (self.n * self.n * 8) as u64
    }

    pub fn multiplier(&self) -> f64 {
        self.full_n as f64 / self.n as f64
    }
}

/// Durations of the five stages (the Fig. 3 stacked bars).
#[derive(Clone, Copy, Debug, Default)]
pub struct MmStages {
    pub input_split_a: VTime,
    pub input_b: VTime,
    pub broadcast_b: VTime,
    pub computing: VTime,
    pub collect_output_c: VTime,
}

impl MmStages {
    pub fn total(&self) -> VTime {
        self.input_split_a
            + self.input_b
            + self.broadcast_b
            + self.computing
            + self.collect_output_c
    }
}

/// Traffic observed during the computing stage (Table IV).
#[derive(Clone, Copy, Debug, Default)]
pub struct ComputeTraffic {
    /// Application-level bytes read from B (aggregated accesses).
    pub app_b_bytes: u64,
    /// Page-granular request bytes reaching the FUSE layer.
    pub fuse_req_bytes: u64,
    /// Chunk bytes requested from the SSD store.
    pub ssd_req_bytes: u64,
}

/// Result of one matrix-multiply run.
#[derive(Clone, Debug)]
pub struct MmReport {
    pub label: String,
    pub stages: MmStages,
    pub traffic: ComputeTraffic,
    pub verified: Option<bool>,
    /// Engine baton hand-offs of the run (host-side cost, not a result).
    pub handoffs: u64,
}

/// Run failure: the configuration does not fit in node DRAM (this is the
/// paper's reason the DRAM-only baseline runs only 2 processes per node).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MmInfeasible {
    pub per_node_needed: u64,
    pub per_node_available: u64,
}

impl std::fmt::Display for MmInfeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MM configuration needs {} of DRAM per node, only {} installed",
            simcore::bytes::human(self.per_node_needed),
            simcore::bytes::human(self.per_node_available)
        )
    }
}

#[allow(clippy::large_enum_variant)]
enum BSource {
    Dram(Arc<Vec<f64>>),
    Nvm(NvmVec<f64>),
}

impl BSource {
    /// Read `rows` full rows of B starting at row `k0` into `out`.
    fn read_rows(
        &self,
        ctx: &mut ProcCtx,
        env: &JobEnv,
        n: usize,
        k0: usize,
        rows: usize,
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), rows * n);
        match self {
            BSource::Dram(b) => {
                env.dram_io(ctx, (rows * n * 8) as u64);
                out.copy_from_slice(&b[k0 * n..(k0 + rows) * n]);
            }
            BSource::Nvm(v) => v.read_slice(ctx, k0 * n, out).expect("B row read"),
        }
    }

    /// Read the tile `B[k0..k0+rows][j0..j0+cols]` (strided) into `out`.
    #[allow(clippy::too_many_arguments)]
    fn read_tile(
        &self,
        ctx: &mut ProcCtx,
        env: &JobEnv,
        n: usize,
        k0: usize,
        rows: usize,
        j0: usize,
        cols: usize,
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), rows * cols);
        match self {
            BSource::Dram(b) => {
                // Strided traversal defeats the hardware prefetcher; charge
                // an effective-bandwidth penalty (×3) for the short runs.
                env.dram_io(ctx, (rows * cols * 8 * 3) as u64);
                for (r, chunk) in out.chunks_exact_mut(cols).enumerate() {
                    let row = k0 + r;
                    chunk.copy_from_slice(&b[row * n + j0..row * n + j0 + cols]);
                }
            }
            BSource::Nvm(v) => v
                .read_strided(ctx, k0 * n + j0, cols, n, rows, out)
                .expect("B tile read"),
        }
    }
}

fn gen_matrix(seed: u64, which: u64, n: usize) -> Arc<Vec<f64>> {
    use rand::Rng;
    let mut rng = simcore::rng::stream_rng(seed, which);
    Arc::new((0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect())
}

/// Run the matrix multiplication on `cluster` under job configuration
/// `cfg`. Fails fast when the placement does not fit in DRAM.
pub fn run_mm(cluster: &Cluster, cfg: &JobConfig, mm: &MmConfig) -> Result<MmReport, MmInfeasible> {
    let p = cfg.ranks();
    let n = mm.n;
    assert!(
        n.is_multiple_of(p),
        "matrix rows must divide over {p} ranks"
    );
    let rows_local = n / p;

    // Feasibility: A_local + C_local everywhere, plus B when DRAM-placed.
    let per_rank = (2 * rows_local * n * 8) as u64
        + if mm.b_place == BPlacement::Dram {
            mm.matrix_bytes()
        } else {
            0
        };
    let per_node = per_rank * cfg.procs_per_node as u64;
    if per_node > cluster.spec.dram_per_node {
        return Err(MmInfeasible {
            per_node_needed: per_node,
            per_node_available: cluster.spec.dram_per_node,
        });
    }

    let calib = Calibration::default().with_multiplier(mm.multiplier());
    // Sub-communicator of node leaders for the shared-B distribution.
    let leader_nodes: Vec<usize> = (0..cfg.compute_nodes).collect();
    let leader_comm = Comm::new(cluster.net.clone(), leader_nodes, calib);

    let result = run_job(cluster, cfg, calib, |ctx, env| {
        run_rank(ctx, env, cluster, cfg, mm, &leader_comm, rows_local)
    });

    // Rank 0 carries the stage times and traffic snapshot deltas.
    let (stages, traffic, verified) = result.outputs.into_iter().next().expect("rank 0");
    Ok(MmReport {
        label: cfg.label(),
        stages,
        traffic,
        verified,
        handoffs: result.report.context_switches,
    })
}

#[allow(clippy::too_many_arguments)]
fn run_rank(
    ctx: &mut ProcCtx,
    env: &JobEnv,
    cluster: &Cluster,
    cfg: &JobConfig,
    mm: &MmConfig,
    leader_comm: &Comm,
    rows_local: usize,
) -> (MmStages, ComputeTraffic, Option<bool>) {
    let n = mm.n;
    let p = env.size;
    let rank = env.rank;
    let master = rank == 0;
    let is_leader = rank.is_multiple_of(cfg.procs_per_node);
    let leader_index = rank / cfg.procs_per_node;

    env.reserve_dram((2 * rows_local * n * 8) as u64)
        .expect("pre-checked");
    if mm.b_place == BPlacement::Dram {
        env.reserve_dram(mm.matrix_bytes()).expect("pre-checked");
    }

    let mut stages = MmStages::default();
    let mut stamp = ctx.now();
    let mut mark = |ctx: &mut ProcCtx, env: &JobEnv, slot: &mut VTime| {
        env.comm.barrier(ctx, rank);
        *slot = ctx.now() - stamp;
        stamp = ctx.now();
    };

    // ---- (i) Input & split A -------------------------------------------------
    let a_full = master.then(|| gen_matrix(mm.seed, 0, n));
    if master {
        env.pfs_read(ctx, mm.matrix_bytes());
    }
    let parts = a_full.as_ref().map(|a| {
        (0..p)
            .map(|r| a[r * rows_local * n..(r + 1) * rows_local * n].to_vec())
            .collect::<Vec<_>>()
    });
    let a_local: Vec<f64> = env.comm.scatter(ctx, rank, 0, parts);
    mark(ctx, env, &mut stages.input_split_a);

    // ---- (ii) Input B --------------------------------------------------------
    let b_full = master.then(|| {
        env.pfs_read(ctx, mm.matrix_bytes());
        gen_matrix(mm.seed, 1, n)
    });
    mark(ctx, env, &mut stages.input_b);

    // ---- (iii) Broadcast B ---------------------------------------------------
    let b_source: BSource = match mm.b_place {
        BPlacement::Dram => {
            let b: Arc<Vec<f64>> = env.comm.bcast(ctx, rank, 0, b_full.clone());
            BSource::Dram(b)
        }
        BPlacement::NvmShared => {
            // Leaders receive B over the wire and store it into the
            // node-shared mmap file; other ranks just map it.
            let key = format!("mm.B.node{}", env.node);
            let v = env
                .client
                .ssdmalloc_shared::<f64>(ctx, &key, n * n)
                .expect("ssdmalloc B");
            if is_leader {
                let b: Arc<Vec<f64>> = leader_comm.bcast(ctx, leader_index, 0, b_full.clone());
                v.write_slice(ctx, 0, &b).expect("store B");
                v.flush(ctx).expect("flush B");
            }
            BSource::Nvm(v)
        }
        BPlacement::NvmIndividual => {
            let b: Arc<Vec<f64>> = env.comm.bcast(ctx, rank, 0, b_full.clone());
            let v = env
                .client
                .ssdmalloc::<f64>(ctx, n * n)
                .expect("ssdmalloc B");
            v.write_slice(ctx, 0, &b).expect("store B");
            v.flush(ctx).expect("flush B");
            BSource::Nvm(v)
        }
    };
    mark(ctx, env, &mut stages.broadcast_b);

    // ---- (iv) Computing --------------------------------------------------
    let snap_before = master.then(|| cluster.stats.snapshot());
    let mut c_local = vec![0f64; rows_local * n];
    compute_tiles(ctx, env, mm, &a_local, &b_source, &mut c_local, rows_local);
    mark(ctx, env, &mut stages.computing);
    let traffic = match (master, snap_before) {
        (true, Some(before)) => {
            let after = cluster.stats.snapshot();
            traffic_delta(&after, &before, cluster.store.config().chunk_size)
        }
        _ => ComputeTraffic::default(),
    };

    // ---- (v) Collect & output C ------------------------------------------
    let gathered = env.comm.gather(ctx, rank, 0, c_local);
    if master {
        env.pfs_write(ctx, mm.matrix_bytes());
    }
    mark(ctx, env, &mut stages.collect_output_c);

    // Verification (master only, small n).
    let verified = if mm.verify && master {
        let a = a_full.expect("master has A");
        let b = b_full.expect("master has B");
        let c: Vec<f64> = gathered.expect("master gathers").concat();
        Some(verify_product(&a, &b, &c, n))
    } else {
        None
    };

    // Teardown.
    match b_source {
        BSource::Dram(b) => {
            env.release_dram((b.len() * 8) as u64);
        }
        BSource::Nvm(v) => {
            let shared = v.is_shared();
            let key = format!("mm.B.node{}", env.node);
            env.client.ssdfree(ctx, v).expect("free B");
            if shared && is_leader {
                env.client.unlink_shared(ctx, &key).expect("unlink B");
            }
        }
    }
    env.release_dram((2 * rows_local * n * 8) as u64);
    env.comm.barrier(ctx, rank);

    (stages, traffic, verified)
}

fn traffic_delta(after: &Snapshot, before: &Snapshot, chunk_size: u64) -> ComputeTraffic {
    let d = after.delta_since(before);
    ComputeTraffic {
        app_b_bytes: d.get("nvm.app_read_bytes"),
        fuse_req_bytes: d.get("fuse.read_req_bytes"),
        ssd_req_bytes: d.get("store.bytes_to_clients") + d.get("store.zero_fills") * chunk_size,
    }
}

/// The tiled kernel. Row-major order streams whole row blocks of B;
/// column-major order walks B in `tile`-wide column strips of strided
/// tiles, touching every chunk of B once per strip — the locality
/// difference behind Fig. 5 and Table V.
fn compute_tiles(
    ctx: &mut ProcCtx,
    env: &JobEnv,
    mm: &MmConfig,
    a_local: &[f64],
    b: &BSource,
    c_local: &mut [f64],
    rows_local: usize,
) {
    let n = mm.n;
    let tile = mm.tile.clamp(1, n);
    let itile = tile.min(rows_local);

    match mm.order {
        AccessOrder::RowMajor => {
            let mut bbuf = vec![0f64; tile * n];
            for i0 in (0..rows_local).step_by(itile) {
                let ilen = itile.min(rows_local - i0);
                for k0 in (0..n).step_by(tile) {
                    let klen = tile.min(n - k0);
                    b.read_rows(ctx, env, n, k0, klen, &mut bbuf[..klen * n]);
                    // A block in, C block in+out over the DRAM bus.
                    env.dram_io(ctx, ((ilen * klen + 2 * ilen * n) * 8) as u64);
                    env.compute(ctx, 2.0 * (ilen * klen * n) as f64);
                    for i in 0..ilen {
                        let arow = &a_local[(i0 + i) * n..];
                        let crow = &mut c_local[(i0 + i) * n..(i0 + i + 1) * n];
                        for (k, brow) in bbuf[..klen * n].chunks_exact(n).enumerate() {
                            let aik = arow[k0 + k];
                            for (cj, bj) in crow.iter_mut().zip(brow) {
                                *cj += aik * bj;
                            }
                        }
                    }
                }
            }
        }
        AccessOrder::ColMajor => {
            // Coarse k-blocking bounds the number of timed operations; the
            // strip count n/tile is what drives chunk re-fetch traffic.
            let kblk = 256.min(n);
            let mut bbuf = vec![0f64; kblk * tile];
            for i0 in (0..rows_local).step_by(itile) {
                let ilen = itile.min(rows_local - i0);
                for j0 in (0..n).step_by(tile) {
                    let jlen = tile.min(n - j0);
                    for k0 in (0..n).step_by(kblk) {
                        let klen = kblk.min(n - k0);
                        b.read_tile(ctx, env, n, k0, klen, j0, jlen, &mut bbuf[..klen * jlen]);
                        env.dram_io(ctx, ((ilen * klen + 2 * ilen * jlen) * 8) as u64);
                        env.compute(ctx, 2.0 * (ilen * klen * jlen) as f64);
                        for i in 0..ilen {
                            let arow = &a_local[(i0 + i) * n..];
                            let crow = &mut c_local[(i0 + i) * n + j0..(i0 + i) * n + j0 + jlen];
                            for (k, btile_row) in bbuf[..klen * jlen].chunks_exact(jlen).enumerate()
                            {
                                let aik = arow[k0 + k];
                                for (cj, bj) in crow.iter_mut().zip(btile_row) {
                                    *cj += aik * bj;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

fn verify_product(a: &[f64], b: &[f64], c: &[f64], n: usize) -> bool {
    // Reference product with identical summation order (k-outer), so the
    // floating-point results match bit for bit.
    let mut reference = vec![0f64; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            let (rrow, brow) = (&mut reference[i * n..(i + 1) * n], &b[k * n..(k + 1) * n]);
            for (r, bv) in rrow.iter_mut().zip(brow) {
                *r += aik * bv;
            }
        }
    }
    c.iter()
        .zip(&reference)
        .all(|(x, y)| (x - y).abs() <= 1e-9 * y.abs().max(1.0))
}
