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

use crate::Input;
use cluster::{run_job, Calibration, Cluster, Comm, JobConfig, JobEnv};
use nvmalloc::NvmVec;
use simcore::{ProcCtx, Snapshot, VTime};
use std::rc::Rc;

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
    Dram(Rc<Vec<f64>>),
    Nvm(NvmVec<f64>),
}

impl BSource {
    /// Read `rows` full rows of B starting at row `k0`, in place: the DRAM
    /// copy borrowed, the NVM variable viewed.
    fn read_rows(
        &self,
        ctx: &mut ProcCtx,
        env: &JobEnv,
        n: usize,
        k0: usize,
        rows: usize,
    ) -> Input<'_> {
        match self {
            BSource::Dram(b) => {
                env.dram_io(ctx, (rows * n * 8) as u64);
                Input::Dram(&b[k0 * n..(k0 + rows) * n])
            }
            BSource::Nvm(v) => Input::Nvm(v.view(ctx, k0 * n, rows * n).expect("B row read")),
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

fn gen_matrix(seed: u64, which: u64, n: usize) -> Rc<Vec<f64>> {
    use rand::Rng;
    let mut rng = simcore::rng::stream_rng(seed, which);
    Rc::new((0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect())
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
            let b: Rc<Vec<f64>> = env.comm.bcast(ctx, rank, 0, b_full.clone());
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
                let b: Rc<Vec<f64>> = leader_comm.bcast(ctx, leader_index, 0, b_full.clone());
                v.write_slice(ctx, 0, &b).expect("store B");
                v.flush(ctx).expect("flush B");
            }
            BSource::Nvm(v)
        }
        BPlacement::NvmIndividual => {
            let b: Rc<Vec<f64>> = env.comm.bcast(ctx, rank, 0, b_full.clone());
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
                    let rows = b.read_rows(ctx, env, n, k0, klen);
                    // A block in, C block in+out over the DRAM bus.
                    env.dram_io(ctx, ((ilen * klen + 2 * ilen * n) * 8) as u64);
                    env.compute(ctx, 2.0 * (ilen * klen * n) as f64);
                    // In place where the pieces cut every row at the same
                    // columns (n a multiple or a divisor of a page's 512
                    // elements); staged into `bbuf` where they do not.
                    let blocks = column_blocks(rows.pieces(), n, klen).unwrap_or_else(|| {
                        let staged = &mut bbuf[..klen * n];
                        let mut at = 0;
                        for piece in rows.pieces() {
                            staged[at..at + piece.len()].copy_from_slice(piece);
                            at += piece.len();
                        }
                        vec![(0, staged.chunks_exact(n).collect())]
                    });
                    for (j0, brows) in &blocks {
                        let w = brows[0].len();
                        for i in 0..ilen {
                            let row = (i0 + i) * n;
                            tile_rows(
                                &mut c_local[row + j0..row + j0 + w],
                                &a_local[row + k0..row + k0 + klen],
                                brows,
                            );
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
                        let brows: Vec<&[f64]> = bbuf[..klen * jlen].chunks_exact(jlen).collect();
                        for i in 0..ilen {
                            let row = (i0 + i) * n;
                            tile_rows(
                                &mut c_local[row + j0..row + j0 + jlen],
                                &a_local[row + k0..row + k0 + klen],
                                &brows,
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Column blocks of a tile of B: per block, its first column and one
/// slice per row.
type ColumnBlocks<'a> = Vec<(usize, Vec<&'a [f64]>)>;

/// `rows` rows of `n` elements, handed over as `pieces`, cut into column
/// blocks when the pieces cut every row at the same columns; `None` when
/// they do not.
fn column_blocks<'a>(
    pieces: impl Iterator<Item = &'a [f64]>,
    n: usize,
    rows: usize,
) -> Option<ColumnBlocks<'a>> {
    let mut blocks = ColumnBlocks::new();
    let (mut row, mut col, mut block) = (0, 0, 0);
    for mut piece in pieces {
        while !piece.is_empty() {
            let (cut, rest) = piece.split_at(piece.len().min(n - col));
            if row == 0 {
                let mut first = Vec::with_capacity(rows);
                first.push(cut);
                blocks.push((col, first));
            } else {
                match blocks.get_mut(block) {
                    Some((at, cuts)) if *at == col && cuts[0].len() == cut.len() => cuts.push(cut),
                    _ => return None,
                }
            }
            (piece, col, block) = (rest, col + cut.len(), block + 1);
            if col == n {
                (row, col, block) = (row + 1, 0, 0);
            }
        }
    }
    Some(blocks)
}

fn verify_product(a: &[f64], b: &[f64], c: &[f64], n: usize) -> bool {
    // The plain i-k-j loop, independent of `tile_rows`: the same
    // summation order (k ascending, one rounding per multiply and per
    // add), so the product must match bit for bit.
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
    c.len() == reference.len()
        && c.iter()
            .zip(&reference)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The tile product: `crow[j] += arow[k] · brows[k][j]` for every row `k`
/// of `brows` (each `crow.len()` wide, wherever it sits), k ascending. B
/// rows go in four at a time, `c = (((c + a0·b0) + a1·b1) + a2·b2) +
/// a3·b3`: the rounding sequence of one row at a time, with a quarter of
/// the loads and stores of `crow`. No fused multiply-add (it rounds once
/// where this rounds twice) and no reordering, so every product is
/// bit-identical to the plain i-k-j loop, and a C row cut into column
/// blocks sums each element exactly as the whole row does. Runs the AVX
/// build of the body where the CPU has it.
pub fn tile_rows(crow: &mut [f64], arow: &[f64], brows: &[&[f64]]) {
    assert!(
        brows.len() == arow.len() && brows.iter().all(|b| b.len() == crow.len()),
        "tile product needs one B row of C's width per A element"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX was detected just above; the body is safe Rust.
        return unsafe { tile_rows_avx(crow, arow, brows) };
    }
    tile_rows_portable(crow, arow, brows)
}

/// Name of the tile-product build this machine runs.
pub fn mm_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        return "avx";
    }
    "portable"
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn tile_rows_avx(crow: &mut [f64], arow: &[f64], brows: &[&[f64]]) {
    tile_rows_body(crow, arow, brows)
}

fn tile_rows_portable(crow: &mut [f64], arow: &[f64], brows: &[&[f64]]) {
    tile_rows_body(crow, arow, brows)
}

/// One body for both builds; `tile_rows` checked the lengths.
#[inline(always)]
fn tile_rows_body(crow: &mut [f64], arow: &[f64], brows: &[&[f64]]) {
    let w = crow.len();
    for (a, b) in arow.chunks_exact(4).zip(brows.chunks_exact(4)) {
        let (b0, b1, b2, b3) = (&b[0][..w], &b[1][..w], &b[2][..w], &b[3][..w]);
        for ((((c, x0), x1), x2), x3) in crow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *c = (((*c + a[0] * x0) + a[1] * x1) + a[2] * x2) + a[3] * x3;
        }
    }
    let done = arow.len() & !3;
    for (a, b) in arow[done..].iter().zip(&brows[done..]) {
        for (c, x) in crow.iter_mut().zip(&b[..w]) {
            *c += a * x;
        }
    }
}

#[cfg(test)]
mod kernel_tests {
    use super::*;
    use rand::Rng;

    /// The naive i-k-j loop over one C row: the oracle.
    fn naive(crow: &mut [f64], arow: &[f64], brows: &[f64]) {
        let w = crow.len();
        for (k, a) in arow.iter().enumerate() {
            for (j, c) in crow.iter_mut().enumerate() {
                *c += a * brows[k * w + j];
            }
        }
    }

    /// Signed values spread over ~2^±30: a sum taken in any other order,
    /// or with a fused multiply-add, rounds differently somewhere.
    fn mixed(rng: &mut impl Rng, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| rng.gen_range(-1.0..1.0) * 2f64.powi(rng.gen_range(-30..30)))
            .collect()
    }

    fn same_bits(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    #[test]
    fn tile_rows_matches_the_naive_loop_bit_for_bit() {
        type Kernel = fn(&mut [f64], &[f64], &[&[f64]]);
        let kernels: [(&str, Kernel); 2] =
            [("portable", tile_rows_portable), (mm_kernel(), tile_rows)];
        let mut rng = simcore::rng::stream_rng(2013, 37);
        let (mut reorder_differs, mut fma_differs) = (false, false);
        for klen in 1..=9 {
            for width in (1..=37).chain([512, 1024]) {
                let c0 = mixed(&mut rng, width);
                let a = mixed(&mut rng, klen);
                let b = mixed(&mut rng, klen * width);
                let mut want = c0.clone();
                naive(&mut want, &a, &b);
                let rows: Vec<&[f64]> = b.chunks_exact(width).collect();
                for (name, kernel) in kernels {
                    let mut got = c0.clone();
                    kernel(&mut got, &a, &rows);
                    assert!(same_bits(&got, &want), "{name}: klen {klen}, width {width}");
                    // Cut into two column blocks, as the page grid cuts a
                    // row of 1 024 read in place: the same bits.
                    let mut got = c0.clone();
                    let half = width / 2;
                    let (left, right) = got.split_at_mut(half);
                    let cut = |r: std::ops::Range<usize>| -> Vec<&[f64]> {
                        rows.iter().map(|row| &row[r.clone()]).collect()
                    };
                    kernel(left, &a, &cut(0..half));
                    kernel(right, &a, &cut(half..width));
                    assert!(
                        same_bits(&got, &want),
                        "{name} in two blocks: width {width}"
                    );
                }
                // The inputs have teeth: k descending, or the multiply
                // fused into the add, moves bits on them.
                let (mut reversed, mut fused) = (c0.clone(), c0.clone());
                for (k, a) in a.iter().enumerate() {
                    for (j, c) in fused.iter_mut().enumerate() {
                        *c = a.mul_add(b[k * width + j], *c);
                    }
                }
                for (k, a) in a.iter().enumerate().rev() {
                    for (j, c) in reversed.iter_mut().enumerate() {
                        *c += a * b[k * width + j];
                    }
                }
                reorder_differs |= !same_bits(&reversed, &want);
                fma_differs |= !same_bits(&fused, &want);
            }
        }
        assert!(reorder_differs, "no input told a reordered sum apart");
        assert!(fma_differs, "no input told a fused product apart");
    }

    #[test]
    fn column_blocks_serve_rows_the_page_grid_cuts_alike() {
        let b: Vec<f64> = (0..8 * 1024).map(f64::from).collect();
        // `len` elements from `from`, cut as a view cuts them: on pages.
        let pages = |from: usize, len: usize| {
            let cuts = (from / 512 + 1) * 512..from + len;
            let starts = std::iter::once(from).chain(cuts.step_by(512));
            let starts: Vec<usize> = starts.chain([from + len]).collect();
            let pieces: Vec<&[f64]> = starts.windows(2).map(|w| &b[w[0]..w[1]]).collect();
            pieces.into_iter()
        };
        // n = 1 024: two blocks of 512 columns, four rows each, in place.
        let blocks = column_blocks(pages(2048, 4 * 1024), 1024, 4).expect("in place");
        assert_eq!(blocks.iter().map(|(j, _)| *j).collect::<Vec<_>>(), [0, 512]);
        for (j0, rows) in &blocks {
            assert_eq!(rows.len(), 4);
            for (k, row) in rows.iter().enumerate() {
                assert_eq!(row[0], (2048 + k * 1024 + j0) as f64);
                assert_eq!(row.len(), 512);
            }
        }
        // n = 128: four rows to a page, one block of whole rows.
        let blocks = column_blocks(pages(384, 8 * 128), 128, 8).expect("in place");
        assert_eq!((blocks.len(), blocks[0].0, blocks[0].1.len()), (1, 0, 8));
        // n = 96: the grid cuts the sixth row, not the others — staged.
        assert!(column_blocks(pages(0, 8 * 96), 96, 8).is_none());
        // One row is cut alike with itself, wherever it is cut.
        let blocks = column_blocks(pages(480, 96), 96, 1).expect("one row");
        assert_eq!(blocks.iter().map(|(j, _)| *j).collect::<Vec<_>>(), [0, 32]);
    }

    #[test]
    fn tile_rows_of_an_empty_row_or_no_b_rows_is_a_no_op() {
        tile_rows(&mut [], &[1.0, 2.0], &[&[], &[]]);
        let mut c = [1.5, -2.5];
        tile_rows(&mut c, &[], &[]);
        assert_eq!(c, [1.5, -2.5]);
    }
}
