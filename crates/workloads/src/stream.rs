//! STREAM (§IV-B-1): sustained-bandwidth vector kernels with configurable
//! array placement — any subset of the three arrays can live on the NVM
//! store instead of DRAM (Fig. 2), and a raw-mmap baseline without the
//! NVMalloc cache layer reproduces Table III.
//!
//! The paper's TRIAD kernel is `A[i] = B[i] + 3*C[i]`, run with 8 threads
//! on one node over 2 GB arrays for 10 iterations.

use crate::Input;
use cluster::{run_job, Calibration, Cluster, JobConfig};
use devices::Ssd;
use nvmalloc::NvmVec;
use simcore::{ProcCtx, VTime};

/// Where one STREAM array lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrayPlace {
    Dram,
    Nvm,
}

/// Which kernel to run (Table III covers all four).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKernel {
    /// `A[i] = C[i]`
    Copy,
    /// `A[i] = 3*C[i]`
    Scale,
    /// `A[i] = B[i] + C[i]`
    Add,
    /// `A[i] = B[i] + 3*C[i]`
    Triad,
}

impl StreamKernel {
    pub fn name(self) -> &'static str {
        match self {
            StreamKernel::Copy => "COPY",
            StreamKernel::Scale => "SCALE",
            StreamKernel::Add => "ADD",
            StreamKernel::Triad => "TRIAD",
        }
    }

    /// Arrays moved per element: (uses B?, flops per element).
    fn shape(self) -> (bool, f64) {
        match self {
            StreamKernel::Copy => (false, 0.0),
            StreamKernel::Scale => (false, 1.0),
            StreamKernel::Add => (true, 1.0),
            StreamKernel::Triad => (true, 2.0),
        }
    }

    /// Bytes moved per element (for the bandwidth figure).
    pub fn bytes_per_elem(self) -> u64 {
        let (uses_b, _) = self.shape();
        if uses_b {
            24
        } else {
            16
        }
    }

    fn expected(self, b: f64, c: f64) -> f64 {
        match self {
            StreamKernel::Copy => c,
            StreamKernel::Scale => 3.0 * c,
            StreamKernel::Add => b + c,
            StreamKernel::Triad => b + 3.0 * c,
        }
    }
}

/// STREAM configuration.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Elements per array (each element is one f64).
    pub elems: usize,
    /// Kernel repetitions (the paper uses 10).
    pub iters: usize,
    /// Placement of arrays A, B, C.
    pub placement: [ArrayPlace; 3],
    /// Access granularity in elements (one FUSE/DRAM request per block).
    pub block_elems: usize,
}

impl StreamConfig {
    pub fn new(elems: usize) -> Self {
        StreamConfig {
            elems,
            iters: 10,
            placement: [ArrayPlace::Dram; 3],
            block_elems: 32 * 1024 / 8, // 32 KiB requests
        }
    }

    pub fn place(mut self, a: ArrayPlace, b: ArrayPlace, c: ArrayPlace) -> Self {
        self.placement = [a, b, c];
        self
    }

    /// The Fig. 2 x-axis label for this placement ("None", "A", "B&C"…).
    pub fn placement_label(&self) -> String {
        let names = ["A", "B", "C"];
        let on: Vec<&str> = self
            .placement
            .iter()
            .zip(names)
            .filter(|(p, _)| **p == ArrayPlace::Nvm)
            .map(|(_, n)| n)
            .collect();
        if on.is_empty() {
            "None".to_string()
        } else {
            on.join("&")
        }
    }
}

/// Measured result.
#[derive(Clone, Debug)]
pub struct StreamReport {
    pub kernel: StreamKernel,
    pub time: VTime,
    /// Sustained bandwidth in MB/s (10^6), STREAM's native unit.
    pub bandwidth_mb_s: f64,
    pub verified: bool,
    /// Engine baton hand-offs of the run (host-side cost, not a result).
    pub handoffs: u64,
}

/// One array as seen by one thread: either a DRAM-resident slice (host
/// data + DRAM-bus charging) or a slice window of a shared NVM variable.
#[allow(clippy::large_enum_variant)]
enum StreamArray {
    Dram(Vec<f64>),
    Nvm(NvmVec<f64>),
}

fn init_value(which: usize, i: usize) -> f64 {
    // Deterministic per-array contents so the kernel can be verified.
    match which {
        1 => i as f64 * 0.5,          // B
        2 => (i % 1024) as f64 + 1.0, // C
        _ => 0.0,                     // A
    }
}

/// Run one STREAM kernel on the cluster under `cfg` (expected: x threads
/// on 1 compute node, benefactors per the placement being studied).
pub fn run_stream(
    cluster: &Cluster,
    cfg: &JobConfig,
    calib: Calibration,
    scfg: &StreamConfig,
    kernel: StreamKernel,
) -> StreamReport {
    let threads = cfg.ranks();
    assert_eq!(
        scfg.elems % threads,
        0,
        "array length must divide across threads"
    );
    let result = run_job(cluster, cfg, calib, |ctx, env| {
        let my = scfg.elems / threads;
        let base = env.rank * my;
        let (uses_b, flops_per_elem) = kernel.shape();

        // Allocate and initialize the three arrays (thread-local slices of
        // the logical arrays; NVM arrays are shared files).
        let mut arrays: Vec<StreamArray> = Vec::with_capacity(3);
        for (which, place) in scfg.placement.iter().enumerate() {
            let name = ["A", "B", "C"][which];
            match place {
                ArrayPlace::Dram => {
                    env.reserve_dram(8 * my as u64)
                        .expect("DRAM exhausted for STREAM array");
                    let data: Vec<f64> = (0..my).map(|i| init_value(which, base + i)).collect();
                    arrays.push(StreamArray::Dram(data));
                }
                ArrayPlace::Nvm => {
                    let v = env
                        .client
                        .ssdmalloc_shared::<f64>(ctx, &format!("stream.{name}"), scfg.elems)
                        .expect("ssdmalloc failed for STREAM array");
                    // Each thread initializes its own slice.
                    let init: Vec<f64> = (0..my).map(|i| init_value(which, base + i)).collect();
                    v.write_slice(ctx, base, &init).expect("init write");
                    v.flush(ctx).expect("init flush");
                    arrays.push(StreamArray::Nvm(v));
                }
            }
        }
        env.comm.barrier(ctx, env.rank);
        let t0 = ctx.now();

        let mut a_block = vec![0f64; scfg.block_elems];
        // What COPY and SCALE, which read no B, pass the kernel for it.
        let no_b = vec![0f64; scfg.block_elems];
        let (out, inputs) = arrays.split_first_mut().expect("three arrays");
        for _ in 0..scfg.iters {
            let mut off = 0usize;
            while off < my {
                let len = scfg.block_elems.min(my - off);
                // Load inputs: read in place, where they sit.
                let b = if uses_b {
                    load(ctx, env, &inputs[0], base, off, len)
                } else {
                    Input::Dram(&no_b[..len])
                };
                let c = load(ctx, env, &inputs[1], base, off, len);
                // Compute.
                if flops_per_elem > 0.0 {
                    env.compute(ctx, flops_per_elem * len as f64);
                }
                lockstep(b.pieces(), c.pieces(), &mut a_block[..len], |b, c| {
                    kernel.expected(b, c)
                });
                // Store output.
                match out {
                    StreamArray::Dram(v) => {
                        env.dram_io(ctx, 8 * len as u64);
                        v[off..off + len].copy_from_slice(&a_block[..len]);
                    }
                    StreamArray::Nvm(v) => {
                        v.write_slice(ctx, base + off, &a_block[..len])
                            .expect("stream write");
                    }
                }
                off += len;
            }
        }

        env.comm.barrier(ctx, env.rank);
        let elapsed = ctx.now() - t0;

        // Verify a sample of A.
        let mut ok = true;
        for probe in [0usize, my / 2, my - 1] {
            let got = match &arrays[0] {
                StreamArray::Dram(v) => v[probe],
                StreamArray::Nvm(v) => v.get(ctx, base + probe).expect("verify read"),
            };
            let want = kernel.expected(init_value(1, base + probe), init_value(2, base + probe));
            ok &= got == want;
        }

        // Tear down NVM arrays (shared: rank 0 unlinks after the barrier).
        env.comm.barrier(ctx, env.rank);
        for (which, arr) in arrays.into_iter().enumerate() {
            match arr {
                StreamArray::Dram(v) => env.release_dram(8 * v.len() as u64),
                StreamArray::Nvm(v) => {
                    env.client.ssdfree(ctx, v).expect("free");
                    if env.rank == 0 {
                        let name = ["A", "B", "C"][which];
                        env.client
                            .unlink_shared(ctx, &format!("stream.{name}"))
                            .expect("unlink");
                    }
                }
            }
        }
        (elapsed, ok)
    });

    let time = result.outputs.iter().map(|(t, _)| *t).max().expect("ranks");
    let verified = result.outputs.iter().all(|(_, ok)| *ok);
    let total_bytes = kernel.bytes_per_elem() * scfg.elems as u64 * scfg.iters as u64;
    StreamReport {
        kernel,
        time,
        bandwidth_mb_s: total_bytes as f64 / time.as_secs_f64() / 1e6,
        verified,
        handoffs: result.report.context_switches,
    }
}

/// `len` elements of a thread's slice of `arr` from `off`, charged as
/// read and left where they sit: a DRAM array borrowed, an NVM one viewed.
fn load<'a>(
    ctx: &mut ProcCtx,
    env: &cluster::JobEnv,
    arr: &'a StreamArray,
    base: usize,
    off: usize,
    len: usize,
) -> Input<'a> {
    match arr {
        StreamArray::Dram(v) => {
            env.dram_io(ctx, 8 * len as u64);
            Input::Dram(&v[off..off + len])
        }
        StreamArray::Nvm(v) => Input::Nvm(v.view(ctx, base + off, len).expect("stream read")),
    }
}

/// `out[i] = f(b[i], c[i])` over two inputs cut into pieces at different
/// places: walk both in lock-step, a run at a time up to the nearer cut.
pub(crate) fn lockstep<'a>(
    mut b: impl Iterator<Item = &'a [f64]>,
    mut c: impl Iterator<Item = &'a [f64]>,
    out: &mut [f64],
    f: impl Fn(f64, f64) -> f64,
) {
    let (mut bp, mut cp): (&[f64], &[f64]) = (&[], &[]);
    let mut at = 0;
    while at < out.len() {
        if bp.is_empty() {
            bp = b.next().expect("B covers the block");
        } else if cp.is_empty() {
            cp = c.next().expect("C covers the block");
        } else {
            let run = bp.len().min(cp.len());
            let (x, y) = (&bp[..run], &cp[..run]);
            for ((o, x), y) in out[at..at + run].iter_mut().zip(x).zip(y) {
                *o = f(*x, *y);
            }
            (bp, cp, at) = (&bp[run..], &cp[run..], at + run);
        }
    }
}

/// The kernel readahead window of Table III's raw-mmap baseline
/// (Linux-era default: 128 KiB).
pub const RAW_READAHEAD_BYTES: u64 = 128 * 1024;

/// STREAM with array C on a raw local SSD (no NVMalloc): C is accessed
/// through plain `mmap` with the kernel's readahead but *without*
/// NVMalloc's chunk cache, so every [`RAW_READAHEAD_BYTES`] window of
/// sequential faults costs one device access (Table III's baseline).
pub fn run_stream_raw_ssd(
    cluster: &Cluster,
    cfg: &JobConfig,
    calib: Calibration,
    scfg: &StreamConfig,
    kernel: StreamKernel,
) -> StreamReport {
    let threads = cfg.ranks();
    assert_eq!(scfg.elems % threads, 0);
    // One raw device per compute node, shared by its threads.
    let raw_ssds: Vec<Ssd> = (0..cfg.compute_nodes)
        .map(|n| {
            Ssd::new(
                &format!("raw.n{n}.ssd"),
                cluster.spec.ssd_profile,
                &cluster.stats,
            )
        })
        .collect();
    let raw_ssds = &raw_ssds;

    let result = run_job(cluster, cfg, calib, move |ctx, env| {
        let my = scfg.elems / threads;
        let base = env.rank * my;
        let (uses_b, flops_per_elem) = kernel.shape();
        let ssd = &raw_ssds[env.node];

        let b: Vec<f64> = (0..my).map(|i| init_value(1, base + i)).collect();
        let c: Vec<f64> = (0..my).map(|i| init_value(2, base + i)).collect();
        let mut a = vec![0f64; my];

        env.comm.barrier(ctx, env.rank);
        let t0 = ctx.now();
        for _ in 0..scfg.iters {
            let mut off = 0usize;
            while off < my {
                let len = scfg.block_elems.min(my - off);
                let bytes = 8 * len as u64;
                if uses_b {
                    env.dram_io(ctx, bytes); // B stays in DRAM
                }
                // C: sequential mmap faults against the raw SSD, one
                // device access per readahead window.
                let windows = bytes.div_ceil(RAW_READAHEAD_BYTES);
                ctx.yield_until_min();
                let mut t = ctx.now();
                for _ in 0..windows {
                    let g = ssd.read_at(t, RAW_READAHEAD_BYTES.min(bytes));
                    t = g.end;
                }
                ctx.advance_to(t);
                if flops_per_elem > 0.0 {
                    env.compute(ctx, flops_per_elem * len as f64);
                }
                for i in 0..len {
                    a[off + i] = kernel.expected(b[off + i], c[off + i]);
                }
                env.dram_io(ctx, bytes); // store A in DRAM
                off += len;
            }
        }
        env.comm.barrier(ctx, env.rank);
        let elapsed = ctx.now() - t0;
        let ok = (0..my)
            .step_by((my / 3).max(1))
            .all(|i| a[i] == kernel.expected(init_value(1, base + i), init_value(2, base + i)));
        (elapsed, ok)
    });

    let time = result.outputs.iter().map(|(t, _)| *t).max().expect("ranks");
    let verified = result.outputs.iter().all(|(_, ok)| *ok);
    let total_bytes = kernel.bytes_per_elem() * scfg.elems as u64 * scfg.iters as u64;
    StreamReport {
        kernel,
        time,
        bandwidth_mb_s: total_bytes as f64 / time.as_secs_f64() / 1e6,
        verified,
        handoffs: result.report.context_switches,
    }
}
