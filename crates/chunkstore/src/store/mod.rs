//! The timed facade over the manager + benefactor fleet: every operation
//! takes the client's node and current virtual time, charges manager-RPC,
//! network and SSD costs, and returns the completion time.
//!
//! This is the interface the FUSE-like client layer (`fusemm`) talks to —
//! the simulated equivalent of the RPC protocol between a compute node and
//! the aggregate store.
//!
//! One `impl AggregateStore`, split by concern (DESIGN.md "store module
//! map"): this file holds configuration, construction and the control
//! plane; `meta` the metadata RPC, shards, leases and manager HA;
//! `faults` fault injection; `read` and `write` the data plane;
//! `chain` the per-benefactor chain drain both directions share;
//! `repair` the scrub daemon and the two repair sweeps. Every decision
//! about a stored *copy* — which one may be trusted, what happens to a bad
//! one, where a new one goes, how one is moved, rebuilt or written — is
//! made once, in `copies`.

mod chain;
mod copies;
mod faults;
mod meta;
mod read;
mod repair;
mod write;

use crate::benefactor::Benefactor;
use crate::error::{Result, StoreError};
use crate::ids::{BenefactorId, FileId};
use crate::manager::{Manager, PlacementPolicy, StripeSpec};
use crate::payload::{zero_chunk, ChunkBuf, PageRun};
use crate::shardmgr::{ShardSet, DEFAULT_RING_SEED, DEFAULT_VNODES};
use ::faults::FaultPlan;
use devices::WearReport;
use meta::MgrHa;
use netsim::Network;
use obs::{MetricsSampler, TraceRecorder};
use parking_lot::{Mutex, MutexGuard};
use repair::ScrubState;
use simcore::{Counter, StatsRegistry, VTime};
use std::sync::Arc;

/// Aggregate store configuration.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Striping unit; the paper uses 256 KiB.
    pub chunk_size: u64,
    /// Dirty-tracking granularity: always [`PAGE_BYTES`], the paper's
    /// 4 KiB OS page ([`AggregateStore::new`] refuses any other value).
    /// Not a knob — the page is a model constant — but still a field
    /// because the frozen `examples/benchmark` reads it (DESIGN.md §13).
    pub page_size: u64,
    /// Cluster node hosting the manager process.
    pub manager_node: usize,
    /// Manager CPU time per metadata operation.
    pub mgr_cpu: VTime,
    /// Failover attempts per chunk read after every listed replica looks
    /// dead: each retry waits `RETRY_BACKOFF` (5 ms) of virtual time, re-polls
    /// the fault plan (a scheduled recovery may land in between) and
    /// rescans the replica list.
    pub fetch_retries: u32,
    /// Verify every fetched chunk against its manager-recorded CRC64 and
    /// fail over / repair on mismatch (DESIGN.md §11). Off by default:
    /// with this unset, read timing and counters are bit-identical to a
    /// build without the integrity subsystem.
    pub verify_reads: bool,
    /// Number of placement-manager shard ranks (DESIGN.md §12). `0` (the
    /// default) keeps the serial single-manager path untouched; cluster
    /// builds consume this knob and call
    /// [`AggregateStore::install_shards`] with one rank per shard.
    pub manager_shards: usize,
    /// Manager high availability (DESIGN.md §16): journal every metadata
    /// mutation to the rank's crash-consistent log and keep a standby
    /// rank per shard that replays the journal and takes over on
    /// `faults::FaultEvent::ManagerCrash`. Off by default: with this
    /// unset nothing is journaled, no HA counters register, and every
    /// run is bit-identical to a build without the subsystem.
    pub ha_standby: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            chunk_size: 256 * 1024,
            page_size: PAGE_BYTES,
            manager_node: 0,
            mgr_cpu: VTime::from_micros(10),
            fetch_retries: 2,
            verify_reads: false,
            manager_shards: 0,
            ha_standby: false,
        }
    }
}

// Model constants rather than `StoreConfig` fields: no configuration in the
// workspace needs a second value for any of them.

/// The page: the unit a client's dirty bitmap counts in, a payload is
/// copied in and a digest is composed from (one leaf of a
/// [`ChunkBuf`]).
pub const PAGE_BYTES: u64 = 4096;
/// Size of a manager-RPC (and benefactor request) message.
pub(crate) const RPC_BYTES: u64 = 256;
/// Virtual-time backoff between failover retries.
pub(crate) const RETRY_BACKOFF: VTime = VTime::from_millis(5);
/// TTL of a client's placement-delegation lease in shard mode.
pub(crate) const LEASE_TTL: VTime = VTime::from_secs(5);
/// Crash-detection window: how long after a manager crash the standby
/// waits before starting takeover (models failure detection plus fencing
/// of the dead rank).
pub(crate) const FAILOVER_TIMEOUT: VTime = VTime::from_millis(25);
/// CPU charged per journal record replayed during takeover, so
/// time-to-failover scales with the metadata mutation history.
pub(crate) const REPLAY_RECORD_CPU: VTime = VTime::from_micros(1);

/// Background scrub daemon configuration (DESIGN.md §11). The daemon only
/// runs once [`AggregateStore::attach_scrub`] installs it; like PR 4's
/// write-back flusher it is paced in virtual time off the foreground
/// clock — a pass is kicked by the first fault poll at or after `next_at`
/// and charges only benefactor-side SSD time plus repair traffic.
#[derive(Clone, Copy, Debug)]
pub struct ScrubConfig {
    /// Virtual time between scrub passes.
    pub interval: VTime,
    /// Chunk ids verified per pass; the walk cursor persists across
    /// passes and wraps, so every chunk is eventually visited.
    pub chunks_per_pass: usize,
    /// Quarantine a benefactor once its observed corruption rate
    /// (bad copies / copies scrubbed there) exceeds this fraction…
    pub quarantine_rate: f64,
    /// …with at least this many copies scrubbed as evidence.
    pub quarantine_min_samples: u64,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            interval: VTime::from_millis(50),
            // ~8 SSD chunk reads per pass (~10 ms): a low duty cycle, so
            // scrubbing steals little bandwidth from foreground I/O.
            chunks_per_pass: 8,
            quarantine_rate: 0.5,
            quarantine_min_samples: 8,
        }
    }
}

/// One chunk's worth of dirty-page runs: an entry of a write-back (see
/// [`AggregateStore::write_pages_batch`]).
#[derive(Clone, Copy, Debug)]
pub struct BatchWrite<'a> {
    pub file: FileId,
    pub idx: usize,
    /// `(offset_within_chunk, bytes)` runs, cut into leaves on the page
    /// grid (the one copy they get).
    pub updates: &'a [(u64, &'a [u8])],
}

/// [`BatchWrite`] with the runs already cut into leaves (see
/// [`AggregateStore::write_runs_batch`]): what a client cache, which holds
/// its chunks as leaves, builds and hands over.
#[derive(Clone, Debug)]
pub struct BatchRuns<'a> {
    pub file: FileId,
    pub idx: usize,
    /// `(offset_within_chunk, leaves)` runs: disjoint, each piece inside
    /// one page.
    pub updates: Vec<PageRun<'a>>,
}

/// What a chunk fetch returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChunkPayload {
    /// The chunk was never written: the client materializes zeros locally
    /// (a file-hole read — no data crosses the network).
    Zeros,
    /// Chunk bytes shipped from its benefactor: a snapshot sharing the
    /// stored leaves (see [`ChunkBuf`]).
    Data(ChunkBuf),
}

impl ChunkPayload {
    /// The chunk's bytes, a hole being the store's shared zero chunk.
    pub fn into_buf(self, cfg: &StoreConfig) -> ChunkBuf {
        match self {
            ChunkPayload::Zeros => zero_chunk(cfg.chunk_size),
            ChunkPayload::Data(d) => d,
        }
    }
}

/// Outcome of one repair sweep (see `repair_under_replicated`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Chunks whose replica degree was restored.
    pub chunks_repaired: u64,
    /// Bytes copied between benefactors to do it.
    pub bytes_copied: u64,
    /// Chunks still below target (no live donor or no space anywhere).
    pub chunks_unrepairable: u64,
}

/// The aggregate NVM store, shared by every client on the cluster.
#[derive(Clone)]
pub struct AggregateStore {
    mgr: Arc<Mutex<Manager>>,
    net: Network,
    cfg: StoreConfig,
    faults: Arc<Mutex<Option<FaultPlan>>>,
    mgr_rpcs: Counter,
    mgr_rpc_fetch: Counter,
    mgr_rpc_write: Counter,
    mgr_rpc_place: Counter,
    chunk_fetches: Counter,
    zero_fills: Counter,
    bytes_to_clients: Counter,
    bytes_from_clients: Counter,
    cow_clones: Counter,
    failovers: Counter,
    degraded_reads: Counter,
    repairs_chunks: Counter,
    repairs_bytes: Counter,
    benefactor_crashes: Counter,
    benefactor_recoveries: Counter,
    batched_fetches: Counter,
    batched_writes: Counter,
    /// Integrity counters (`store.crc_mismatches` etc.) are registered
    /// through here only once verification or scrubbing is switched on,
    /// so knobs-off stat snapshots stay byte-identical.
    stats: StatsRegistry,
    scrub: Arc<Mutex<Option<ScrubState>>>,
    /// The sharded placement manager (DESIGN.md §12); `None` until
    /// [`AggregateStore::install_shards`] runs. Like scrub, entirely
    /// opt-in: with no shard set every path below uses the serial
    /// manager RPC.
    shards: Arc<Mutex<Option<ShardSet>>>,
    /// Manager-HA rank table (DESIGN.md §16). Empty until a
    /// `ManagerCrash` fault actually fires, so the fault-free fast path
    /// is one len-check.
    ha: Arc<Mutex<MgrHa>>,
    trace: TraceRecorder,
    /// Virtual-time gauge sampler (DESIGN.md §14.3), polled at the top of
    /// every timed store operation. Disabled (a single branch) unless the
    /// cluster attaches an enabled one.
    sampler: MetricsSampler,
}

/// The lazily registered counter sets. Registered counters appear in every
/// stats snapshot (even at zero) and committed knobs-off bench
/// expectations must not grow keys, so each set is registered only when
/// its feature switches on: integrity with `verify_reads` or
/// `attach_scrub`, parity with the first `fallocate` of an encoded file
/// (DESIGN.md §15), HA with `ha_standby` (DESIGN.md §16).
const INTEGRITY_COUNTERS: &[&str] = &[
    "store.crc_mismatches",
    "store.scrub_passes",
    "store.scrub_repairs",
    "store.quarantined",
];
const PARITY_COUNTERS: &[&str] = &[
    "store.parity_encodes",
    "store.parity_bytes",
    "store.degraded_reconstructs",
    "store.parity_repairs",
];
const HA_COUNTERS: &[&str] = &[
    "store.journal_records",
    "store.journal_replays",
    "store.mgr_failovers",
    "store.mgr_failover_us",
];

impl AggregateStore {
    pub fn new(cfg: StoreConfig, net: Network, stats: &StatsRegistry) -> Self {
        assert_eq!(cfg.page_size, PAGE_BYTES, "the page is a model constant");
        let store = AggregateStore {
            mgr: Arc::new(Mutex::new(Manager::new(cfg.chunk_size))),
            net,
            cfg,
            faults: Arc::new(Mutex::new(None)),
            mgr_rpcs: stats.counter("store.mgr_rpcs"),
            mgr_rpc_fetch: stats.counter("store.mgr_rpc_fetch"),
            mgr_rpc_write: stats.counter("store.mgr_rpc_write"),
            mgr_rpc_place: stats.counter("store.mgr_rpc_place"),
            chunk_fetches: stats.counter("store.chunk_fetches"),
            zero_fills: stats.counter("store.zero_fills"),
            bytes_to_clients: stats.counter("store.bytes_to_clients"),
            bytes_from_clients: stats.counter("store.bytes_from_clients"),
            cow_clones: stats.counter("store.cow_clones"),
            failovers: stats.counter("store.failovers"),
            degraded_reads: stats.counter("store.degraded_reads"),
            repairs_chunks: stats.counter("store.repairs_chunks"),
            repairs_bytes: stats.counter("store.repairs_bytes"),
            benefactor_crashes: stats.counter("store.benefactor_crashes"),
            benefactor_recoveries: stats.counter("store.benefactor_recoveries"),
            batched_fetches: stats.counter("store.batched_fetches"),
            batched_writes: stats.counter("store.batched_writes"),
            stats: stats.clone(),
            scrub: Arc::new(Mutex::new(None)),
            shards: Arc::new(Mutex::new(None)),
            ha: Arc::new(Mutex::new(MgrHa::default())),
            trace: TraceRecorder::disabled(),
            sampler: MetricsSampler::disabled(),
        };
        if store.cfg.verify_reads {
            store.register_counters(INTEGRITY_COUNTERS);
        }
        if store.cfg.ha_standby {
            store.register_counters(HA_COUNTERS);
            store.mgr.lock().enable_journal(
                store.cfg.manager_shards.max(1),
                DEFAULT_VNODES,
                DEFAULT_RING_SEED,
                store.stats.counter("store.journal_records"),
            );
        }
        store
    }

    fn register_counters(&self, set: &[&str]) {
        for name in set {
            self.stats.counter(name);
        }
    }

    /// Attach a trace recorder (builder style; clones share it). Manager
    /// RPCs, chunk fetches, write-backs and repair sweeps become spans;
    /// applied fault events become instants.
    pub fn with_tracer(mut self, trace: TraceRecorder) -> Self {
        self.trace = trace;
        self
    }

    /// Attach a metrics sampler (builder style; clones share it) and
    /// register the store-side gauges on it: benefactor free slots, lease
    /// hit ratio, per-shard CPU backlog. The sampler is then polled at
    /// the top of every timed store operation.
    pub fn with_sampler(mut self, sampler: MetricsSampler) -> Self {
        self.sampler = sampler;
        self.register_gauges();
        self
    }

    fn register_gauges(&self) {
        if !self.sampler.is_enabled() {
            return;
        }
        // Benefactor free space, in chunk slots. The manager mutex is
        // never held across an engine yield, so under the baton model
        // try_lock always succeeds; the fallback keeps a (hypothetical)
        // contended read from deadlocking a probe fired inside a store op.
        let mgr = Arc::clone(&self.mgr);
        let chunk = self.cfg.chunk_size.max(1);
        self.sampler.register(
            "store.free_slots",
            Box::new(move |_| mgr.try_lock().map(|m| m.space().1 / chunk)),
        );
        // Location-cache (lease-delegated placement) hit ratio, permille.
        // No sample until the first lookup happens.
        let stats = self.stats.clone();
        self.sampler.register(
            "store.lease_hit_permille",
            Box::new(move |_| {
                let hits = stats.get("store.loc_cache_hits");
                let total = hits + stats.get("store.loc_cache_misses");
                (total > 0).then(|| hits * 1000 / total)
            }),
        );
    }

    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Direct manager access for registration, administration and tests.
    pub fn manager(&self) -> MutexGuard<'_, Manager> {
        self.mgr.lock()
    }

    /// Register a benefactor contributing `capacity` bytes of `node`'s SSD.
    pub fn add_benefactor(&self, b: Benefactor) -> BenefactorId {
        self.mgr.lock().register_benefactor(b)
    }

    // ----- control plane ---------------------------------------------------

    pub fn create_file(&self, t: VTime, client_node: usize, name: &str) -> Result<(VTime, FileId)> {
        self.poll_faults(t);
        let t = self.namespace_rpc(t, client_node)?;
        let id = self.mgr.lock().create_file(name)?;
        Ok((t, id))
    }

    pub fn fallocate(
        &self,
        t: VTime,
        client_node: usize,
        file: FileId,
        size: u64,
        spec: StripeSpec,
        placement: PlacementPolicy,
    ) -> Result<VTime> {
        self.poll_faults(t);
        if spec.parity > 0 {
            // First erasure-coded file switches the parity counter set on.
            self.register_counters(PARITY_COUNTERS);
        }
        let t = self.namespace_rpc(t, client_node)?;
        self.mgr.lock().fallocate(file, size, spec, placement)?;
        Ok(t)
    }

    pub fn open(
        &self,
        t: VTime,
        client_node: usize,
        name: &str,
    ) -> Result<(VTime, Option<FileId>)> {
        self.poll_faults(t);
        let t = self.namespace_rpc(t, client_node)?;
        Ok((t, self.mgr.lock().lookup(name)))
    }

    pub fn delete(&self, t: VTime, client_node: usize, file: FileId) -> Result<VTime> {
        self.poll_faults(t);
        let t = self.namespace_rpc(t, client_node)?;
        self.mgr.lock().delete_file(file)?;
        Ok(t)
    }

    /// Zero-copy checkpoint linking: append `src`'s chunks to `dst`.
    pub fn link_file(
        &self,
        t: VTime,
        client_node: usize,
        dst: FileId,
        src: FileId,
    ) -> Result<VTime> {
        self.poll_faults(t);
        let t = self.namespace_rpc(t, client_node)?;
        self.mgr.lock().link_file(dst, src)?;
        Ok(t)
    }

    /// Untimed metadata peek (clients cache sizes at open/malloc time).
    pub fn file_size(&self, file: FileId) -> Result<u64> {
        Ok(self.mgr.lock().file(file)?.size)
    }

    pub fn chunk_count(&self, file: FileId) -> Result<usize> {
        Ok(self.mgr.lock().file(file)?.slots.len())
    }

    /// Chunks in one stripe row of `file`, rounded up to whole parity
    /// groups: the widest window of consecutive chunks whose per-benefactor
    /// chains are each one chunk long and whose parity groups are complete
    /// — what a batched client sizes a bulk step by. A file with no stripe
    /// of its own (a checkpoint that only links) counts the fleet.
    pub fn stripe_row(&self, file: FileId) -> Result<usize> {
        let mgr = self.mgr.lock();
        let meta = mgr.file(file)?;
        let width = match meta.stripe.len() {
            0 => mgr.benefactor_count().max(1),
            n => n,
        };
        Ok(match meta.parity {
            0 => width,
            _ => width.next_multiple_of(meta.group_data),
        })
    }

    /// `OutOfBounds` unless `[offset, offset + len)` lies inside `file`.
    pub fn check_range(&self, file: FileId, offset: u64, len: u64) -> Result<()> {
        let size = self.file_size(file)?;
        if offset + len > size {
            return Err(StoreError::OutOfBounds {
                file,
                offset,
                len,
                size,
            });
        }
        Ok(())
    }

    /// Per-benefactor SSD wear, for the lifetime-optimization analyses.
    pub fn wear_reports(&self) -> Vec<(usize, WearReport)> {
        let mgr = self.mgr.lock();
        (0..mgr.benefactor_count())
            .map(|i| {
                let b = mgr.benefactor(BenefactorId(i));
                (b.node, b.ssd().wear())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests;
