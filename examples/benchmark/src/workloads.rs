//! The five closed-loop workloads: seeded inputs, the flat in-memory
//! oracle, and the per-rank bodies. Every rank issues its next `nvmalloc`
//! call when the previous one returns; client count = rank count.
//!
//! README.md says why each workload exists and what it leaves idle.

use chunkstore::{StoreConfig, StripeSpec};
use cluster::{run_job, Calibration, Cluster, ClusterSpec, JobConfig, JobEnv};
use faults::{FaultPlan, FaultPlanBuilder};
use fusemm::FuseConfig;
use nvmalloc::Checkpoint;
use simcore::rng::child_seed;
use simcore::time::bytes::{kib, mib};
use simcore::{ProcCtx, VTime};
use std::collections::HashMap;
use workloads::{run_mm, run_stream, ArrayPlace, MmConfig, StreamConfig, StreamKernel};

pub const NAMES: [&str; 5] = [
    "seq_stream",
    "rand_page_rw",
    "mm_fanout",
    "meta_fan_in",
    "ckpt_resilient",
];

/// Capacity divisor of the HAL preset, as in every bench target.
const SCALE: u64 = 64;
/// u64 elements per 256 KiB chunk.
const CHUNK_ELEMS: usize = 32 * 1024;
/// u64 elements per 64 KiB slice (`ckpt_resilient` update and read-back unit).
const SLICE_ELEMS: usize = 8 * 1024;

/// Counter-based generator over `child_seed`: the i-th draw of a stream
/// is a pure function of `(seed, stream, i)`.
struct Draws {
    key: u64,
    i: u64,
}

impl Draws {
    fn new(seed: u64, stream: u64) -> Self {
        Draws {
            key: child_seed(seed, stream),
            i: 0,
        }
    }

    fn next(&mut self) -> u64 {
        self.i += 1;
        child_seed(self.key, self.i)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What one repetition reports on the virtual clock. Two repetitions of
/// the same workload and seed must compare equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Virtual time of the job as its driver reports it.
    pub makespan: VTime,
    /// `nvmalloc` calls the benchmark-owned bodies issued (0 where
    /// `workloads::*` owns the body; the traced pass counts spans there).
    pub attempted: u64,
    /// Calls that returned `Err` plus calls whose bytes differed.
    pub failed: u64,
    /// Calls whose bytes differed from the oracle: fails the run.
    pub wrong: u64,
    pub first_error: Option<String>,
    /// Engine baton hand-offs; `None` where the body's driver hides the
    /// `EngineReport`.
    pub handoffs: Option<u64>,
    /// Virtual time inside collectives (mean over ranks for barrier waits).
    pub collective: VTime,
}

impl Outcome {
    /// When the last rank finished: the makespan where `run_job` reported
    /// it (the same bodies whose `EngineReport` is visible), else unknown.
    pub fn job_end(&self) -> Option<VTime> {
        self.handoffs.map(|_| self.makespan)
    }
}

/// Per-rank tally of the benchmark-owned bodies.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    first_error: Option<String>,
    barrier: VTime,
}

impl Tally {
    /// Count one `nvmalloc` call; a declared error is counted, not fatal.
    fn op<T>(&mut self, call: &str, r: chunkstore::Result<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error
                    .get_or_insert_with(|| format!("{call}: {e}"));
                None
            }
        }
    }

    /// The bytes of the last successful call, against the oracle.
    fn check(&mut self, equal: bool) {
        if !equal {
            self.wrong += 1;
            self.failed += 1;
        }
    }

    fn barrier(&mut self, ctx: &mut ProcCtx, env: &JobEnv) {
        let t0 = ctx.now();
        env.comm.barrier(ctx, env.rank);
        self.barrier += ctx.now() - t0;
    }
}

fn fold(makespan: VTime, handoffs: u64, ranks: Vec<Tally>) -> Outcome {
    let n = ranks.len() as u64;
    Outcome {
        makespan,
        attempted: ranks.iter().map(|t| t.attempted).sum(),
        failed: ranks.iter().map(|t| t.failed).sum(),
        wrong: ranks.iter().map(|t| t.wrong).sum(),
        first_error: ranks.iter().find_map(|t| t.first_error.clone()),
        handoffs: Some(handoffs),
        collective: VTime::from_nanos(ranks.iter().map(|t| t.barrier.as_nanos()).sum::<u64>() / n),
    }
}

// ----- rand_page_rw ---------------------------------------------------------

struct RandInputs {
    /// Pre-fill contents; also the oracle for never-overwritten elements.
    base: Vec<u64>,
    /// `(element, Some(value))` = set, `(element, None)` = get.
    ops: Vec<(usize, Option<u64>)>,
}

fn rand_inputs(seed: u64, smoke: bool) -> RandInputs {
    let (elems, ops) = if smoke {
        (mib(16) as usize / 8, 4 * 1024)
    } else {
        (mib(128) as usize / 8, 32 * 1024)
    };
    let key = child_seed(seed, 0);
    let base = (0..elems as u64).map(|i| child_seed(key, i)).collect();
    let mut d = Draws::new(seed, 1);
    let ops = (0..ops)
        .map(|_| {
            let i = d.below(elems);
            let v = d.next();
            (i, (v & 1 == 0).then_some(v))
        })
        .collect();
    RandInputs { base, ops }
}

fn rand_body(ctx: &mut ProcCtx, env: &JobEnv, inp: &RandInputs) -> Tally {
    let mut t = Tally::default();
    let Some(v) = t.op(
        "ssdmalloc",
        env.client.ssdmalloc::<u64>(ctx, inp.base.len()),
    ) else {
        return t;
    };
    // One pre-fill call, so the write percentiles describe the 8-byte sets.
    t.op("write_slice", v.write_slice(ctx, 0, &inp.base));
    t.op("flush", v.flush(ctx));
    let mut written: HashMap<usize, u64> = HashMap::new();
    for &(i, set) in &inp.ops {
        match set {
            Some(value) => {
                if t.op("set", v.set(ctx, i, value)).is_some() {
                    written.insert(i, value);
                }
            }
            None => {
                if let Some(got) = t.op("get", v.get(ctx, i)) {
                    t.check(got == *written.get(&i).unwrap_or(&inp.base[i]));
                }
            }
        }
    }
    t.op("ssdfree", env.client.ssdfree(ctx, v));
    t
}

// ----- meta_fan_in ----------------------------------------------------------

/// Chunks each rank writes and re-reads (the `fan_in` bench's shape).
const FAN_CHUNKS: usize = 8;

struct FanInputs {
    /// Per rank, per chunk: the element it sets and the value. Chunks
    /// are visited in order: which shard owns a rank's n-th chunk is
    /// what shapes the queues, and a seeded order would make every
    /// latency tail a different experiment.
    ranks: Vec<Vec<(usize, u64)>>,
}

fn fan_inputs(seed: u64, ranks: usize) -> FanInputs {
    let ranks = (0..ranks)
        .map(|r| {
            let mut d = Draws::new(seed, r as u64);
            (0..FAN_CHUNKS)
                // The set lands in the chunk's first half; the second read
                // pass probes the never-written second half.
                .map(|_| (d.below(CHUNK_ELEMS / 2), d.next() | 1))
                .collect()
        })
        .collect();
    FanInputs { ranks }
}

fn fan_body(ctx: &mut ProcCtx, env: &JobEnv, inp: &FanInputs) -> Tally {
    let mut t = Tally::default();
    let mine = &inp.ranks[env.rank];
    // Stagger the namespace ops (root-shard traffic by design): the fan-in
    // under test is slot-addressed placement traffic, as in `bench fan_in`.
    ctx.advance(VTime::from_micros(200 * env.rank as u64));
    let var = t.op(
        "ssdmalloc_shared",
        env.client.ssdmalloc_shared::<u64>(
            ctx,
            &format!("r{}", env.rank),
            FAN_CHUNKS * CHUNK_ELEMS,
        ),
    );
    t.barrier(ctx, env);
    if let Some(v) = &var {
        // One manager write RPC per flushed chunk, all ranks at once.
        for (c, &(off, value)) in mine.iter().enumerate() {
            t.op("set", v.set(ctx, c * CHUNK_ELEMS + off, value));
            t.op("flush", v.flush(ctx));
        }
    }
    t.barrier(ctx, env);
    if let Some(v) = &var {
        // Pass 0 resolves placement through the shards, pass 1 rides the
        // leased LocationCache (the 2-chunk mount cache evicts in between).
        for pass in 0..2 {
            for (c, &(off, value)) in mine.iter().enumerate() {
                let (at, want) = if pass == 0 {
                    (off, value)
                } else {
                    (CHUNK_ELEMS / 2 + off, 0)
                };
                if let Some(got) = t.op("get", v.get(ctx, c * CHUNK_ELEMS + at)) {
                    t.check(got == want);
                }
            }
        }
    }
    // The compute tail of `bench fan_in` (~0.5 virtual s): the job is
    // compute-tailed, so queueing shows in latency tails, not makespan.
    env.compute(ctx, 1.2e9);
    t
}

// ----- ckpt_resilient -------------------------------------------------------

/// The benefactor crash: pinned past the write phase (RS degraded
/// *writes* are undefined, ROADMAP item 4), so every repetition of every
/// seed crashes in the read-only phase. `ckpt_body` refuses to run on if
/// the write phase ever outgrows it.
const CKPT_CRASH_AT: VTime = VTime::from_secs(4);
const CKPT_CRASH_AT_SMOKE: VTime = VTime::from_secs(1);
/// Ranks resume this long after the crash.
const CKPT_RESUME_AFTER: VTime = VTime::from_millis(1);
/// The benefactor that crashes, and another whose media rots at the same
/// instant: a parity group then loses at most 2 = m members. Pinned, not
/// seeded: whose NIC the reconstructs queue on moves the read tail 12 %.
const CKPT_VICTIM: usize = 5;
const CKPT_ROTTEN: usize = 2;
/// Basis points of the rotten benefactor's chunks that flip a byte.
const ROT_RATE_BP: u32 = 1000;

/// u64 elements of each rank's variable: 8 MiB.
const CKPT_VAR_ELEMS: usize = 1024 * 1024;

struct CkptInputs {
    crash_at: VTime,
    /// Per rank, per round: the 64 KiB slices to rewrite (~10 %).
    updates: Vec<Vec<Vec<usize>>>,
    /// Per rank: the final image, which restored and live copy must equal.
    mirrors: Vec<Vec<u64>>,
    seed: u64,
}

/// Word `i` of `(rank, slice)` as written in `round` (0 = initial fill):
/// every version of every slice differs, so a stale read shows.
fn slice_word(seed: u64, rank: usize, slice: usize, round: usize, i: usize) -> u64 {
    let version = (rank as u64) << 40 | (round as u64) << 20 | slice as u64;
    (child_seed(seed, version) ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn ckpt_inputs(seed: u64, ranks: usize, smoke: bool) -> CkptInputs {
    let slices = CKPT_VAR_ELEMS / SLICE_ELEMS;
    let (rounds, crash_at) = if smoke {
        (3, CKPT_CRASH_AT_SMOKE)
    } else {
        (24, CKPT_CRASH_AT)
    };
    let per_round = slices / 10 + 1;
    let mut updates = Vec::new();
    let mut mirrors = Vec::new();
    for r in 0..ranks {
        let mut d = Draws::new(seed, 100 + r as u64);
        let mut last_round = vec![0usize; slices];
        let mut rank_updates = Vec::new();
        for round in 1..=rounds {
            let mut picked: Vec<usize> = Vec::new();
            while picked.len() < per_round {
                let s = d.below(slices);
                if !picked.contains(&s) {
                    picked.push(s);
                    last_round[s] = round;
                }
            }
            rank_updates.push(picked);
        }
        updates.push(rank_updates);
        mirrors.push(
            (0..CKPT_VAR_ELEMS)
                .map(|e| {
                    let s = e / SLICE_ELEMS;
                    slice_word(seed, r, s, last_round[s], e % SLICE_ELEMS)
                })
                .collect(),
        );
    }
    CkptInputs {
        crash_at,
        updates,
        mirrors,
        seed,
    }
}

/// Rot and crash land together, after the last write: bit rot under a
/// later partial overwrite is laundered into the recorded CRC (README.md,
/// "What building the benchmark found").
fn ckpt_faults(inp: &CkptInputs) -> FaultPlan {
    FaultPlanBuilder::new(inp.seed)
        .bit_rot(inp.crash_at, CKPT_ROTTEN, ROT_RATE_BP)
        .crash(inp.crash_at, CKPT_VICTIM)
        .build()
}

fn ckpt_body(ctx: &mut ProcCtx, env: &JobEnv, inp: &CkptInputs) -> Tally {
    let mut t = Tally::default();
    let rank = env.rank;
    let slices = CKPT_VAR_ELEMS / SLICE_ELEMS;
    let Some(live) = t.op(
        "ssdmalloc",
        env.client.ssdmalloc::<u64>(ctx, CKPT_VAR_ELEMS),
    ) else {
        return t;
    };
    let fill: Vec<u64> = (0..CKPT_VAR_ELEMS)
        .map(|e| slice_word(inp.seed, rank, e / SLICE_ELEMS, 0, e % SLICE_ELEMS))
        .collect();
    t.op("write_slice", live.write_slice(ctx, 0, &fill));
    t.op("flush", live.flush(ctx));
    drop(fill);

    // Every checkpoint is kept until the read-back is over, and its DRAM
    // image is written but never restored: deleting a checkpoint, or
    // reconstructing a DRAM image, trips the stack (README.md, same
    // section), and no call of this workload may fail.
    let mut kept: Vec<Checkpoint> = Vec::new();
    let mut buf = vec![0u64; SLICE_ELEMS];
    for (round, picked) in inp.updates[rank].iter().enumerate() {
        for &s in picked {
            for (i, w) in buf.iter_mut().enumerate() {
                *w = slice_word(inp.seed, rank, s, round + 1, i);
            }
            t.op("write_slice", live.write_slice(ctx, s * SLICE_ELEMS, &buf));
        }
        t.op("flush", live.flush(ctx));
        let dram = (round as u64).to_le_bytes();
        if let Some(ck) = t.op(
            "ssdcheckpoint",
            env.client.ssdcheckpoint(ctx, "bench", &dram, &[&live]),
        ) {
            kept.push(ck);
        }
    }
    t.barrier(ctx, env);
    assert!(
        ctx.now() < inp.crash_at,
        "ckpt_resilient: the write phase ended at {}, past the pinned crash at {}; \
         re-pin CKPT_CRASH_AT",
        ctx.now(),
        inp.crash_at
    );
    ctx.advance_to(inp.crash_at + CKPT_RESUME_AFTER);

    // Restart path on the degraded store: restore the last checkpoint,
    // then read the restored and the live copy back against the oracle.
    let mirror = &inp.mirrors[rank];
    let restored = kept
        .last()
        .and_then(|ck| t.op("restore_var", env.client.restore_var::<u64>(ctx, ck, 0)));
    for var in restored.iter().chain(std::iter::once(&live)) {
        for s in 0..slices {
            let at = s * SLICE_ELEMS;
            if t.op("read_slice", var.read_slice(ctx, at, &mut buf))
                .is_some()
            {
                t.check(buf[..] == mirror[at..at + SLICE_ELEMS]);
            }
        }
    }
    for ck in &kept {
        t.op("delete_checkpoint", env.client.delete_checkpoint(ctx, ck));
    }
    if let Some(v) = restored {
        t.op("ssdfree", env.client.ssdfree(ctx, v));
    }
    t.op("ssdfree", env.client.ssdfree(ctx, live));
    t
}

// ----- the workload table ---------------------------------------------------

enum Body {
    SeqStream(StreamConfig),
    RandPageRw(RandInputs),
    MmFanout(MmConfig),
    MetaFanIn(FanInputs),
    CkptResilient(CkptInputs),
}

/// One workload: its machine, its knobs and its seeded inputs.
pub struct Workload {
    pub job: JobConfig,
    pub spec: ClusterSpec,
    pub fuse: FuseConfig,
    pub store: StoreConfig,
    /// Bytes of user variables the workload holds at its peak.
    pub logical_bytes: u64,
    body: Body,
}

impl Workload {
    /// Generate the inputs and the oracle for `name` from `seed`.
    /// `smoke` shrinks every workload to about an eighth.
    pub fn new(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        let spec = ClusterSpec::hal().scaled(SCALE);
        let scaled_cache = FuseConfig {
            cache_bytes: mib(64) / SCALE,
            ..FuseConfig::default()
        };
        let w = match name {
            "seq_stream" => {
                // TRIAD, A, B and C on NVM: 3 x 32 MiB against a 16 MiB
                // cache, 512 KiB requests; 16 iterations = 2048 reads and
                // 1024 writes.
                let scfg = StreamConfig {
                    iters: if smoke { 2 } else { 16 },
                    block_elems: kib(512) as usize / 8,
                    ..StreamConfig::new(mib(32) as usize / 8)
                }
                .place(ArrayPlace::Nvm, ArrayPlace::Nvm, ArrayPlace::Nvm);
                Workload {
                    job: JobConfig::remote(1, 1, 4),
                    spec,
                    fuse: FuseConfig {
                        cache_bytes: mib(16),
                        ..FuseConfig::default()
                    },
                    store: StoreConfig::default(),
                    logical_bytes: 3 * mib(32),
                    body: Body::SeqStream(scfg),
                }
            }
            "rand_page_rw" => {
                let inputs = rand_inputs(seed, smoke);
                Workload {
                    job: JobConfig::local(1, 1, 1),
                    spec,
                    fuse: scaled_cache,
                    store: StoreConfig::default(),
                    logical_bytes: 8 * inputs.base.len() as u64,
                    body: Body::RandPageRw(inputs),
                }
            }
            "mm_fanout" => {
                let n = if smoke { 256 } else { 512 };
                Workload {
                    job: JobConfig::local(2, 8, 8),
                    spec,
                    fuse: scaled_cache,
                    store: StoreConfig::default(),
                    // One shared B per node.
                    logical_bytes: 8 * (n * n * 8) as u64,
                    body: Body::MmFanout(MmConfig {
                        seed,
                        ..MmConfig::paper_2gb(n)
                    }),
                }
            }
            "meta_fan_in" => {
                let job = if smoke {
                    JobConfig::local(8, 2, 2)
                } else {
                    JobConfig::local(8, 16, 16)
                }
                .with_manager_shards(4);
                Workload {
                    spec,
                    // `bench fan_in`'s mount: a 2-chunk cache the per-rank
                    // working sets thrash, on the pipelined (lease-aware)
                    // data path.
                    fuse: FuseConfig {
                        cache_bytes: 2 * kib(256),
                        read_ahead_chunks: 0,
                        pipelined_io: true,
                        ..FuseConfig::default()
                    },
                    store: StoreConfig {
                        mgr_cpu: VTime::from_micros(50),
                        manager_shards: job.manager_shards,
                        ..StoreConfig::default()
                    },
                    logical_bytes: (job.ranks() * FAN_CHUNKS) as u64 * kib(256),
                    body: Body::MetaFanIn(fan_inputs(seed, job.ranks())),
                    job,
                }
            }
            "ckpt_resilient" => {
                let job = JobConfig::remote(4, 1, 8)
                    .with_parity(4, 2)
                    .with_manager_shards(2);
                Workload {
                    spec,
                    fuse: FuseConfig {
                        cache_bytes: mib(16),
                        pipelined_io: true,
                        ..FuseConfig::default()
                    }
                    .with_writeback(0.25, 0.75)
                    .with_seg_cache(),
                    store: StoreConfig {
                        verify_reads: true,
                        ha_standby: true,
                        manager_shards: job.manager_shards,
                        ..StoreConfig::default()
                    },
                    // Live and restored variable of every rank.
                    logical_bytes: (job.ranks() * 2 * CKPT_VAR_ELEMS * 8) as u64,
                    body: Body::CkptResilient(ckpt_inputs(seed, job.ranks(), smoke)),
                    job,
                }
            }
            _ => return None,
        };
        Some(w)
    }

    /// A fresh cluster with the workload's fault schedule attached:
    /// modelled caches start empty in every repetition.
    pub fn cluster(&self, traced: bool) -> Cluster {
        let cluster = self.build(traced);
        if let Body::CkptResilient(inp) = &self.body {
            cluster.attach_faults(ckpt_faults(inp));
        }
        cluster
    }

    /// The same machine, untraced and fault-free, for the layer drives.
    pub fn bare_cluster(&self) -> Cluster {
        self.build(false)
    }

    fn build(&self, traced: bool) -> Cluster {
        let build = if traced {
            Cluster::with_obs_causal
        } else {
            Cluster::with_configs
        };
        build(
            self.spec.clone(),
            &self.job.benefactor_nodes(),
            self.fuse,
            self.store,
        )
    }

    /// The stripe `run_job` gives this job's allocations.
    pub fn stripe(&self) -> StripeSpec {
        match self.job.parity {
            Some((k, m)) => StripeSpec::all().with_parity(k, m),
            None => StripeSpec::all().with_replicas(self.job.replicas),
        }
    }

    /// Run one repetition. `verify` also checks `mm_fanout`'s product
    /// (an n^3 host-side reference the timed repetitions leave out).
    pub fn run(&self, cluster: &Cluster, verify: bool) -> Outcome {
        let calib = Calibration::default();
        match &self.body {
            Body::SeqStream(scfg) => {
                let r = run_stream(cluster, &self.job, calib, scfg, StreamKernel::Triad);
                library_outcome(r.time, VTime::ZERO, r.verified)
            }
            Body::MmFanout(mm) => {
                let mm = MmConfig { verify, ..*mm };
                let r = run_mm(cluster, &self.job, &mm).expect("mm_fanout fits its nodes' DRAM");
                library_outcome(
                    r.stages.total(),
                    r.stages.broadcast_b + r.stages.collect_output_c,
                    r.verified.unwrap_or(true),
                )
            }
            Body::RandPageRw(inp) => self.owned(cluster, |ctx, env| rand_body(ctx, env, inp)),
            Body::MetaFanIn(inp) => self.owned(cluster, |ctx, env| fan_body(ctx, env, inp)),
            Body::CkptResilient(inp) => self.owned(cluster, |ctx, env| ckpt_body(ctx, env, inp)),
        }
    }

    fn owned(
        &self,
        cluster: &Cluster,
        body: impl Fn(&mut ProcCtx, &JobEnv) -> Tally + Send + Sync,
    ) -> Outcome {
        let r = run_job(cluster, &self.job, Calibration::default(), body);
        fold(r.makespan(), r.report.context_switches, r.outputs)
    }
}

/// `run_stream`/`run_mm` panic on a store error, so a repetition that
/// returns had no failed call; their sampled verification is the oracle.
fn library_outcome(makespan: VTime, collective: VTime, verified: bool) -> Outcome {
    Outcome {
        makespan,
        attempted: 0,
        failed: 0,
        wrong: u64::from(!verified),
        first_error: None,
        handoffs: None,
        collective,
    }
}
