//! The mount point: `/mnt/aggregatenvm` as seen by one compute node.
//!
//! Implements the paper's §III-D data path:
//!
//! * **reads** resolve to chunk fetches; a miss pulls the whole 256 KiB
//!   chunk from its benefactor into the node's LRU cache, so subsequent
//!   byte accesses in the chunk are hits (this *is* the read-ahead effect
//!   Table III credits NVMalloc with); sequential streams additionally
//!   prefetch ahead asynchronously;
//! * **writes** fetch the target chunk on a miss (read-modify-write),
//!   update it in cache and mark 4 KiB pages dirty;
//! * **eviction** (LRU) ships only the dirty pages to the owning
//!   benefactor — the write optimization of Table VII — or the whole
//!   chunk when `dirty_page_writeback` is disabled for the ablation.
//!
//! There is **one** data path. Every access runs the same span loop,
//! `ensure`, `make_room`, `read_ahead` and `flush_keys`, and reaches the
//! store through one call per direction — `fetch_chunks` /
//! `write_runs_batch`, of as many entries as the step's window holds. The
//! paper's serial path and the overlapped path of DESIGN.md §8 are two
//! settings of the private `DataPath` policy, derived once from
//! `FuseConfig::pipelined_io` and consulted only at these leaves:
//!
//! | policy leaf | paper (§III-D) | pipelined (§8) |
//! |---|---|---|
//! | window of one step | one segment / one dirty chunk / one chunk of a bulk transfer: every store call is the batch of one, a manager resolution per chunk | every segment whose chunks fit the cache / every dirty chunk / one stripe row of a bulk transfer: one resolution per call, per-benefactor chains overlapped |
//! | location cache | none: every fetch asks the manager | the mount holds a `LocationCache` |
//! | dirty eviction victims | written synchronously on the caller's clock | one write the caller never waits for |
//! | read-ahead | fixed `read_ahead_chunks`, never evicts a dirty chunk | depth ramps 1→`read_ahead_chunks` with the stream's streak |
//!
//! Bulk transfers that have no use for the cache — the restart path of
//! `nvmalloc`: a checkpoint's DRAM image, a restore, a drain — go past it
//! through [`Mount::fetch_direct`] / [`Mount::write_direct`], a window of
//! [`Mount::bulk_window`] chunks at a time, on the same two store calls.
//!
//! Requests reaching this layer are counted at OS-page granularity, the
//! same units the paper's Table IV/VII report for "requests to FUSE":
//! mmap faults and page-cache write-backs arrive page-sized.

use crate::cache::{CacheEntry, ChunkCache, ChunkKey};
use chunkstore::{
    segments, AggregateStore, BatchRuns, ChunkBuf, ChunkPayload, FileId, LocationCache,
    PlacementPolicy, Result, Segment, StripeSpec, PAGE_BYTES,
};
use obs::{Layer, TraceRecorder};
use parking_lot::Mutex;
use simcore::{Counter, StatsRegistry, VTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Push-updated gauge cells for the metrics sampler (DESIGN.md §14.3).
///
/// Sampler probes must not take the mount's state lock — mount operations
/// hold it across store calls, and store calls are exactly where sampling
/// fires. Instead the mount *pushes* fresh values into these shared
/// atomics at the end of every data-path operation, and cluster-wide
/// probes aggregate the cells lock-free.
#[derive(Clone, Debug, Default)]
pub struct MountGauges {
    /// Dirty cached chunks, in permille of cache capacity.
    pub dirty_permille: Arc<AtomicU64>,
    /// Chunks in the segmented cache's protected segment (0 when the
    /// plain LRU is in use).
    pub protected_chunks: Arc<AtomicU64>,
}

/// Mount configuration (per compute node).
#[derive(Clone, Copy, Debug)]
pub struct FuseConfig {
    /// Client cache size in bytes; the paper's evaluation uses 64 MiB.
    pub cache_bytes: u64,
    /// Chunks to prefetch ahead of a detected sequential read stream.
    pub read_ahead_chunks: usize,
    /// Ship only dirty pages at eviction (true = the paper's optimization;
    /// false = whole-chunk write-back, the Table VII baseline).
    pub dirty_page_writeback: bool,
    /// User/kernel crossing cost charged per FUSE operation.
    pub op_overhead: VTime,
    /// Overlapped data path (DESIGN.md §8): multi-chunk spans fetch and
    /// flush through the store's batched APIs (one manager RPC per batch,
    /// per-benefactor chains overlapped, chunk-location cache), dirty
    /// eviction becomes asynchronous, and read-ahead depth ramps
    /// 1→`read_ahead_chunks` on a sustained stream. Off by default so the
    /// paper-fidelity benches keep the serial §III-D data path.
    pub pipelined_io: bool,
    /// Write-back daemon (DESIGN.md §10): when the dirty-chunk ratio of
    /// the cache exceeds this, a background flusher batch starts cleaning
    /// the oldest dirty chunks without charging the foreground clock.
    /// `1.0` (the default) disables the daemon — dirty chunks are only
    /// written back at eviction, today's demand path.
    pub dirty_background_ratio: f64,
    /// When the dirty-chunk ratio would exceed this, foreground writers
    /// stall behind the flusher until it drains (the Linux
    /// `balance_dirty_pages` analogue). `1.0` (the default) never
    /// throttles. Must be >= `dirty_background_ratio`.
    pub dirty_hard_ratio: f64,
    /// Segmented (probation/protected) scan-resistant cache with
    /// clean-first victim selection (DESIGN.md §10). Off by default: the
    /// plain LRU keeps the paper-fidelity expectations bit-identical.
    pub seg_cache: bool,
}

impl Default for FuseConfig {
    fn default() -> Self {
        FuseConfig {
            cache_bytes: 64 * 1024 * 1024,
            read_ahead_chunks: 1,
            dirty_page_writeback: true,
            op_overhead: VTime::from_micros(4),
            pipelined_io: false,
            dirty_background_ratio: 1.0,
            dirty_hard_ratio: 1.0,
            seg_cache: false,
        }
    }
}

impl FuseConfig {
    /// Enable the write-back daemon: background flushing past
    /// `background` dirty ratio, writer throttling past `hard`.
    pub fn with_writeback(mut self, background: f64, hard: f64) -> Self {
        self.dirty_background_ratio = background;
        self.dirty_hard_ratio = hard;
        self
    }

    /// Enable the segmented scan-resistant cache.
    pub fn with_seg_cache(mut self) -> Self {
        self.seg_cache = true;
        self
    }
}

/// How many concurrent sequential streams per file the read-ahead
/// detector tracks (one mmap'd file is commonly streamed by every process
/// on the node at different offsets).
const SEQ_CURSORS: usize = 16;

struct MountState {
    cache: ChunkCache,
    /// Per-file `(expected next offset, streak length)` of detected
    /// streams (read-ahead detector); newest cursor last. The streak
    /// counts consecutive continuations and drives the adaptive
    /// read-ahead ramp in pipelined mode.
    seq: HashMap<FileId, Vec<(u64, u32)>>,
    /// When the background flusher's in-flight batch completes; the
    /// daemon is idle (can take a new batch) at any `t >=` this.
    flusher_busy_until: VTime,
}

impl MountState {
    /// Record a read `[offset, end)`; returns the stream's streak length:
    /// 0 for a fresh cursor, `n ≥ 1` after `n` consecutive continuations.
    fn note_read(&mut self, file: FileId, offset: u64, end: u64) -> u32 {
        let cursors = self.seq.entry(file).or_default();
        if let Some(pos) = cursors.iter().position(|&(c, _)| c == offset) {
            let (_, streak) = cursors.remove(pos);
            let streak = streak.saturating_add(1);
            cursors.push((end, streak));
            streak
        } else {
            if cursors.len() >= SEQ_CURSORS {
                cursors.remove(0);
            }
            cursors.push((end, 0));
            0
        }
    }
}

/// The data-path policy: the leaves at which the paper's serial §III-D
/// path and the overlapped path (DESIGN.md §8) differ (the fourth, the
/// location cache, is `Mount::loc_cache` being there or not). Everything
/// else — the span loop, `ensure`, `make_room`, `read_ahead`,
/// `flush_keys`, the write-back builder, the two store calls — is shared.
#[derive(Clone, Copy, Debug)]
struct DataPath {
    /// How much one step covers — segments of an ensure, dirty chunks of a
    /// flush, chunks of a prefetch (cache capacity bounds it further),
    /// chunks of a bulk transfer (the file's stripe row bounds it) — and
    /// so how many entries one store call carries.
    /// The paper path's `1` is one *segment*, not one chunk: N strided
    /// runs inside one cached chunk are N lookups, N hits.
    window: usize,
    /// Dirty eviction victims go out as one write-back the caller never
    /// waits for; otherwise each is written synchronously on the caller's
    /// clock — which is why read-ahead then refuses to evict a dirty chunk.
    async_evict: bool,
    /// Read-ahead depth ramps 1→`read_ahead_chunks` with the stream's
    /// streak (a one-off continuation prefetches one chunk, a sustained
    /// stream earns the full depth); otherwise the depth is fixed.
    ramped_read_ahead: bool,
}

impl DataPath {
    fn new(pipelined: bool) -> Self {
        DataPath {
            window: if pipelined { usize::MAX } else { 1 },
            async_evict: pipelined,
            ramped_read_ahead: pipelined,
        }
    }
}

/// Direction of a span: fill the caller's buffer from cache, or apply the
/// caller's data to cache (marking dirty pages).
enum SpanIo<'a> {
    Read(&'a mut [u8]),
    Write(&'a [u8]),
}

/// What a set of cached chunks ships at write-back: per chunk, its
/// `(offset within chunk, leaves)` runs, borrowed from the cache entry —
/// the store hands those leaves to the benefactors, so the dirty bytes
/// move from cache to media without being copied.
struct Writeback<'a> {
    entries: Vec<BatchRuns<'a>>,
    bytes: u64,
}

/// A node's view of the aggregate store. Shared by all processes on the
/// node — that sharing is what makes the paper's "shared mmap file"
/// optimization effective.
#[derive(Clone)]
pub struct Mount {
    store: AggregateStore,
    node: usize,
    cfg: FuseConfig,
    path: DataPath,
    /// Cache capacity in chunks.
    capacity: usize,
    state: Arc<Mutex<MountState>>,
    /// Client-side chunk-location cache: fetches may reuse a resolution
    /// while it holds one. `None` on the paper path — every fetch asks the
    /// manager.
    loc_cache: Option<LocationCache>,
    trace: TraceRecorder,
    read_req_bytes: Counter,
    write_req_bytes: Counter,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    writeback_bytes: Counter,
    readahead_fetches: Counter,
    async_writebacks: Counter,
    bg_flushes: Counter,
    bg_writeback_bytes: Counter,
    throttled_writes: Counter,
    clean_evictions: Counter,
    scan_protected_hits: Counter,
    gauges: Option<MountGauges>,
}

impl Mount {
    pub fn new(store: AggregateStore, node: usize, cfg: FuseConfig, stats: &StatsRegistry) -> Self {
        let chunk = store.config().chunk_size;
        let capacity = (cfg.cache_bytes / chunk).max(1) as usize;
        assert!(
            cfg.dirty_background_ratio > 0.0 && cfg.dirty_background_ratio <= 1.0,
            "dirty_background_ratio out of (0, 1]"
        );
        assert!(
            cfg.dirty_hard_ratio >= cfg.dirty_background_ratio && cfg.dirty_hard_ratio <= 1.0,
            "dirty_hard_ratio must be within [dirty_background_ratio, 1]"
        );
        let pages = (chunk / PAGE_BYTES) as usize;
        let cache = if cfg.seg_cache {
            ChunkCache::new_segmented(capacity, pages)
        } else {
            ChunkCache::new(capacity, pages)
        };
        Mount {
            store,
            node,
            cfg,
            path: DataPath::new(cfg.pipelined_io),
            capacity,
            state: Arc::new(Mutex::new(MountState {
                cache,
                seq: HashMap::new(),
                flusher_busy_until: VTime::ZERO,
            })),
            // Built either way: its counters are part of every mount's
            // stats snapshot, at zero where no resolution is ever cached.
            loc_cache: Some(LocationCache::new(stats)).filter(|_| cfg.pipelined_io),
            trace: TraceRecorder::disabled(),
            read_req_bytes: stats.counter("fuse.read_req_bytes"),
            write_req_bytes: stats.counter("fuse.write_req_bytes"),
            hits: stats.counter("fuse.hits"),
            misses: stats.counter("fuse.misses"),
            evictions: stats.counter("fuse.evictions"),
            writeback_bytes: stats.counter("fuse.writeback_bytes"),
            readahead_fetches: stats.counter("fuse.readahead_fetches"),
            async_writebacks: stats.counter("fuse.async_writebacks"),
            bg_flushes: stats.counter("fuse.bg_flushes"),
            bg_writeback_bytes: stats.counter("fuse.bg_writeback_bytes"),
            throttled_writes: stats.counter("fuse.throttled_writes"),
            clean_evictions: stats.counter("fuse.clean_evictions"),
            scan_protected_hits: stats.counter("fuse.scan_protected_hits"),
            gauges: None,
        }
    }

    /// Attach a trace recorder (builder style; clones share it). FUSE-layer
    /// operations become `fuse.*` spans with store/net/device children.
    pub fn with_tracer(mut self, trace: TraceRecorder) -> Self {
        self.trace = trace;
        self
    }

    /// The mount's trace recorder (disabled unless attached); `nvmalloc`
    /// borrows it so client-layer spans parent the FUSE spans.
    pub fn tracer(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Attach gauge cells (builder style); the mount pushes dirty-ratio
    /// and protected-segment occupancy into them after every data-path
    /// operation, for the cluster's metrics sampler to read lock-free.
    pub fn with_gauges(mut self, gauges: MountGauges) -> Self {
        self.gauges = Some(gauges);
        self
    }

    /// Refresh the push-gauge cells from current cache state (no-op when
    /// no gauges are attached).
    fn push_gauges(&self) {
        let Some(g) = &self.gauges else { return };
        let st = self.state.lock();
        let cap = st.cache.capacity().max(1) as u64;
        g.dirty_permille.store(
            st.cache.dirty_chunks() as u64 * 1000 / cap,
            Ordering::Relaxed,
        );
        g.protected_chunks
            .store(st.cache.protected_len() as u64, Ordering::Relaxed);
    }

    pub fn node(&self) -> usize {
        self.node
    }

    pub fn store(&self) -> &AggregateStore {
        &self.store
    }

    pub fn config(&self) -> &FuseConfig {
        &self.cfg
    }

    fn chunk_size(&self) -> u64 {
        self.store.config().chunk_size
    }

    /// Bytes rounded to whole OS pages (how requests arrive at FUSE).
    fn page_rounded(&self, offset: u64, len: u64) -> u64 {
        let ps = PAGE_BYTES;
        let first = offset / ps;
        let last = (offset + len - 1) / ps;
        (last - first + 1) * ps
    }

    // ----- namespace operations ---------------------------------------------

    /// Create + fallocate a file (the backing object of an `ssdmalloc`).
    pub fn create(
        &self,
        t: VTime,
        name: &str,
        size: u64,
        stripe: StripeSpec,
        placement: PlacementPolicy,
    ) -> Result<(VTime, FileId)> {
        let (t, id) = self.store.create_file(t, self.node, name)?;
        let t = self
            .store
            .fallocate(t, self.node, id, size, stripe, placement)?;
        Ok((t, id))
    }

    /// Open an existing file by name (O_RDWR semantics: writes through any
    /// mount are immediately visible to reads through any other). The
    /// lookup is a namespace RPC — routed through the placement ring's
    /// root shard when the sharded manager is on — so it can fail with
    /// [`chunkstore::StoreError::ShardDown`] like any other metadata op.
    pub fn open(&self, t: VTime, name: &str) -> Result<(VTime, Option<FileId>)> {
        self.store.open(t, self.node, name)
    }

    /// Drop a file: discard cached chunks (no write-back — the file is
    /// going away) and delete it from the store.
    pub fn delete(&self, t: VTime, file: FileId) -> Result<VTime> {
        {
            let mut st = self.state.lock();
            for key in st.cache.keys_of_file(file) {
                st.cache.remove(&key);
            }
            st.seq.remove(&file);
        }
        self.store.delete(t, self.node, file)
    }

    pub fn file_size(&self, file: FileId) -> Result<u64> {
        self.store.file_size(file)
    }

    /// A handle on the cached payload of chunk `idx`, if resident.
    #[cfg(test)]
    pub(crate) fn cached(&self, file: FileId, idx: usize) -> Option<chunkstore::ChunkBuf> {
        let st = self.state.lock();
        st.cache.peek(&(file, idx)).map(|e| e.data.clone())
    }

    // ----- data path ---------------------------------------------------------

    /// Byte-granular read: `buf` is filled from `file[offset..]`.
    pub fn read(&self, mut t: VTime, file: FileId, offset: u64, buf: &mut [u8]) -> Result<VTime> {
        if buf.is_empty() {
            return Ok(t);
        }
        let len = buf.len() as u64;
        self.store.check_range(file, offset, len)?;
        self.read_req_bytes.add(self.page_rounded(offset, len));
        let sp = self.trace.span(Layer::Fuse, "fuse.read", t);
        sp.arg("file", file.0).arg("bytes", len);
        t += self.cfg.op_overhead;

        // Foreground reads give the flusher a chance to clean concurrently
        // (the daemon is driven from mount operations, like fault polling).
        if self.writeback_daemon_on() {
            let mut st = self.state.lock();
            self.kick_bg_flush(&mut st, t);
        }

        let segs = segments(offset, len, self.chunk_size());
        t = self.span_io(t, file, segs, SpanIo::Read(buf))?;

        // Sequential stream detection → asynchronous read-ahead.
        let streak = self.state.lock().note_read(file, offset, offset + len);
        if streak > 0 && self.cfg.read_ahead_chunks > 0 {
            let depth = if self.path.ramped_read_ahead {
                (streak as usize).min(self.cfg.read_ahead_chunks)
            } else {
                self.cfg.read_ahead_chunks
            };
            self.read_ahead(t, file, offset + len, depth)?;
        }
        self.push_gauges();
        sp.finish(t);
        Ok(t)
    }

    /// Strided read: `count` runs of `run_len` bytes, the i-th starting at
    /// `offset + i*stride`, concatenated into `out`.
    ///
    /// This is how a column-major traversal of a row-major matrix reaches
    /// the mmap layer: many short runs at a large stride. One call charges
    /// the whole burst (each run costs page-rounded request traffic and a
    /// chunk fetch on a miss) without per-run scheduler overhead.
    #[allow(clippy::too_many_arguments)]
    pub fn read_strided(
        &self,
        mut t: VTime,
        file: FileId,
        offset: u64,
        run_len: u64,
        stride: u64,
        count: u64,
        out: &mut [u8],
    ) -> Result<VTime> {
        assert!(run_len > 0 && count > 0, "empty strided read");
        assert!(stride >= run_len, "overlapping strided runs");
        assert_eq!(out.len() as u64, run_len * count, "output size mismatch");
        let last_end = offset + (count - 1) * stride + run_len;
        self.store.check_range(file, offset, last_end - offset)?;
        let sp = self.trace.span(Layer::Fuse, "fuse.read_strided", t);
        sp.arg("file", file.0)
            .arg("runs", count)
            .arg("bytes", run_len * count);
        t += self.cfg.op_overhead;

        for r in 0..count {
            self.read_req_bytes
                .add(self.page_rounded(offset + r * stride, run_len));
        }
        let cs = self.chunk_size();
        let segs = (0..count).flat_map(move |r| {
            segments(offset + r * stride, run_len, cs).map(move |s| Segment {
                pos: s.pos + (r * run_len) as usize,
                ..s
            })
        });
        t = self.span_io(t, file, segs, SpanIo::Read(out))?;
        // A strided burst is not a sequential stream — but it must only
        // disturb streams it actually collided with: drop the cursors whose
        // expected next offset falls inside the strided range, and leave
        // unrelated streams (other regions of the file) intact.
        {
            let mut st = self.state.lock();
            if let Some(cursors) = st.seq.get_mut(&file) {
                cursors.retain(|&(c, _)| c < offset || c >= last_end);
                if cursors.is_empty() {
                    st.seq.remove(&file);
                }
            }
        }
        self.push_gauges();
        sp.finish(t);
        Ok(t)
    }

    /// Byte-granular write from `data` into `file[offset..]`.
    pub fn write(&self, mut t: VTime, file: FileId, offset: u64, data: &[u8]) -> Result<VTime> {
        if data.is_empty() {
            return Ok(t);
        }
        let len = data.len() as u64;
        self.store.check_range(file, offset, len)?;
        self.write_req_bytes.add(self.page_rounded(offset, len));
        let sp = self.trace.span(Layer::Fuse, "fuse.write", t);
        sp.arg("file", file.0).arg("bytes", len);
        t += self.cfg.op_overhead;

        // Read-modify-write: a miss pulls the chunk first (§III-D).
        let segs = segments(offset, len, self.chunk_size());
        t = self.span_io(t, file, segs, SpanIo::Write(data))?;
        self.push_gauges();
        sp.finish(t);
        Ok(t)
    }

    /// The largest span one `read`/`write` call should carry. On the
    /// paper path callers split at chunk boundaries and yield to the
    /// engine per piece, so concurrent processes' requests reach shared
    /// resources in virtual-time order; a batched mount takes the whole
    /// span at once (`u64::MAX`) and overlaps it below.
    pub fn span_granule(&self) -> u64 {
        (self.path.window as u64).saturating_mul(self.chunk_size())
    }

    /// Write back every dirty page of `file`, keeping chunks cached clean.
    /// Used by `ssdcheckpoint()` before chunk linking and by close paths.
    pub fn flush_file(&self, t: VTime, file: FileId) -> Result<VTime> {
        let keys = { self.state.lock().cache.keys_of_file(file) };
        self.flush(t, Some(file), &keys)
    }

    /// The dirty cached chunk indices of `file` (for callers that flush
    /// incrementally, yielding to a scheduler between chunks).
    pub fn dirty_chunks_of(&self, file: FileId) -> Vec<usize> {
        let st = self.state.lock();
        st.cache
            .keys_of_file(file)
            .into_iter()
            .filter(|k| st.cache.peek(k).map(|e| e.dirty.any()).unwrap_or(false))
            .map(|(_, idx)| idx)
            .collect()
    }

    /// The steps an incremental flush of `file` takes, one engine yield
    /// each: `Some(idx)` is a [`Self::flush_chunk`] — one per dirty chunk
    /// on the paper path, so concurrent flushers interleave correctly —
    /// and `None` a whole-file [`Self::flush_file`], the single step of a
    /// batched mount (overlapped per-benefactor chains under one yield).
    pub fn flush_steps(&self, file: FileId) -> Vec<Option<usize>> {
        match self.path.window {
            1 => self.dirty_chunks_of(file).into_iter().map(Some).collect(),
            _ => vec![None],
        }
    }

    /// Write back one chunk's dirty pages.
    pub fn flush_chunk(&self, t: VTime, file: FileId, idx: usize) -> Result<VTime> {
        self.flush_keys(t, &[(file, idx)])
    }

    /// Write back every dirty chunk of every file on this mount.
    pub fn flush_all(&self, t: VTime) -> Result<VTime> {
        let keys = { self.state.lock().cache.dirty_keys() };
        self.flush(t, None, &keys)
    }

    fn flush(&self, t: VTime, file: Option<FileId>, keys: &[ChunkKey]) -> Result<VTime> {
        let sp = self.trace.span(Layer::Fuse, "fuse.flush", t);
        if let Some(file) = file {
            sp.arg("file", file.0);
        }
        sp.arg("chunks", keys.len() as u64);
        let end = self.flush_keys(t, keys)?;
        self.push_gauges();
        sp.finish(end);
        Ok(end)
    }

    /// Write back the dirty chunks among `keys`, a window at a time: each
    /// window is one `fuse.writeback` shipped by [`Self::ship`] from the
    /// previous window's completion — per chunk on the paper path, the
    /// whole set as one store call (one manager RPC, per-benefactor write
    /// chains overlapped) when pipelined. Slices are borrowed from the
    /// cache entries under the state lock; the dirty bits are cleared only
    /// after the store accepts the write, so a failed flush leaves the
    /// pages dirty for a retry. Returns the last completion (the flush
    /// barrier).
    fn flush_keys(&self, mut t: VTime, keys: &[ChunkKey]) -> Result<VTime> {
        let dirty: Vec<ChunkKey> = {
            let st = self.state.lock();
            let is_dirty = |k: &ChunkKey| st.cache.peek(k).is_some_and(|e| e.dirty.any());
            keys.iter().copied().filter(is_dirty).collect()
        };
        for window in dirty.chunks(self.path.window) {
            {
                let mut st = self.state.lock();
                let wb = self.writeback(window.iter().map(|k| {
                    let e = st.cache.peek(k).expect("collected above");
                    (*k, e)
                }));
                self.writeback_bytes.add(wb.bytes);
                let sp = self.trace.span(Layer::Fuse, "fuse.writeback", t);
                sp.arg("bytes", wb.bytes).arg("chunks", window.len() as u64);
                t = self.ship(t, &wb.entries)?;
                sp.finish(t);
                for key in window {
                    st.cache.clear_dirty(key);
                }
            }
            self.push_gauges();
        }
        Ok(t)
    }

    /// The one write-back builder: what `entries` ship — each chunk's
    /// dirty-page runs (the write optimization of Table VII), or the
    /// whole chunk when `dirty_page_writeback` is off (the ablation
    /// baseline). Eviction, flush and the background flusher all ship
    /// what this returns.
    fn writeback<'a>(
        &self,
        entries: impl Iterator<Item = (ChunkKey, &'a CacheEntry)>,
    ) -> Writeback<'a> {
        let mut bytes = 0;
        let entries = entries
            .map(|((file, idx), e)| {
                let runs = if self.cfg.dirty_page_writeback {
                    e.dirty.runs(PAGE_BYTES)
                } else {
                    vec![(0, e.data.len() as u64)]
                };
                bytes += runs.iter().map(|(_, len)| len).sum::<u64>();
                let runs = runs
                    .into_iter()
                    .map(|(off, len)| (off, e.data.leaves_of(off, len)));
                let updates = runs.collect();
                BatchRuns { file, idx, updates }
            })
            .collect();
        Writeback { entries, bytes }
    }

    /// Hand `entries` to the store from `t` as one `write_runs_batch` — one
    /// manager RPC, per-benefactor chains overlapped; the paper path's
    /// windows make it the batch of one. Returns when its slowest entry
    /// has completed.
    fn ship(&self, t: VTime, entries: &[BatchRuns<'_>]) -> Result<VTime> {
        let times = self.store.write_runs_batch(t, self.node, entries)?;
        Ok(times.into_iter().fold(t, VTime::max))
    }

    // ----- bulk transfers past the cache (the restart path) ------------------

    /// How many chunks of `file` one bulk step ([`Self::fetch_direct`],
    /// [`Self::write_direct`]) carries. One on the paper path: the caller
    /// yields to the engine per chunk, so concurrent processes' transfers
    /// interleave in virtual-time order. One stripe row of the file, in
    /// whole parity groups, on a batched mount: every per-benefactor chain
    /// of the window is one chunk long and each parity group ships once,
    /// and a wider window would only book shared resources further ahead
    /// of the other ranks.
    pub fn bulk_window(&self, file: FileId) -> Result<usize> {
        Ok(self.path.window.min(self.store.stripe_row(file)?))
    }

    /// Fetch chunks `[first, first + n)` of `file` straight from the store
    /// at `t`, past the cache (nothing is looked up, inserted or evicted),
    /// a policy window per store call, each from the one before. Returns
    /// `(in hand at, payload)` per chunk, in order. For files this mount
    /// holds no dirty pages of — a checkpoint's restart file.
    pub fn fetch_direct(
        &self,
        t: VTime,
        file: FileId,
        first: usize,
        n: usize,
    ) -> Result<Vec<(VTime, ChunkPayload)>> {
        let targets: Vec<ChunkKey> = (first..first + n).map(|idx| (file, idx)).collect();
        let (mut fetched, mut from) = (Vec::with_capacity(n), t);
        for window in targets.chunks(self.path.window) {
            let got = self.fetch(from, window)?;
            from = got.iter().fold(from, |t, &(at, _)| t.max(at));
            fetched.extend(got);
        }
        Ok(fetched)
    }

    /// Write `chunks` — `(chunk index, payload)`, each payload landing at
    /// the start of its chunk with its leaves handed over — straight to
    /// the store at `t`, past the cache, a policy window per store call;
    /// returns the completion time. For files this mount has cached no
    /// chunk of: a fresh restart file, a variable being restored.
    pub fn write_direct(
        &self,
        t: VTime,
        file: FileId,
        chunks: &[(usize, ChunkBuf)],
    ) -> Result<VTime> {
        debug_assert!(
            self.state.lock().cache.keys_of_file(file).is_empty(),
            "direct write under cached chunks"
        );
        let whole: Vec<BatchRuns<'_>> = chunks
            .iter()
            .map(|&(idx, ref data)| BatchRuns {
                file,
                idx,
                updates: vec![(0, data.leaves())],
            })
            .collect();
        let mut windows = whole.chunks(self.path.window);
        windows.try_fold(t, |t, window| self.ship(t, window))
    }

    // ----- write-back daemon (DESIGN.md §10) ---------------------------------

    fn writeback_daemon_on(&self) -> bool {
        self.cfg.dirty_background_ratio < 1.0
    }

    /// Dirty chunks strictly above this wake the background flusher; the
    /// flusher drains back down to it (the low watermark).
    fn bg_threshold(&self, capacity: usize) -> usize {
        (capacity as f64 * self.cfg.dirty_background_ratio) as usize
    }

    /// The most dirty chunks a writer may ever create; `>= 1` so a writer
    /// can always make progress.
    fn hard_limit(&self, capacity: usize) -> usize {
        ((capacity as f64 * self.cfg.dirty_hard_ratio) as usize).max(1)
    }

    /// Observed high-water dirty ratio (dirty chunks / capacity) — the
    /// throttle-invariant probe: with the daemon on this never exceeds
    /// `dirty_hard_ratio` at any virtual instant.
    pub fn max_dirty_ratio(&self) -> f64 {
        let st = self.state.lock();
        st.cache.max_dirty_chunks() as f64 / st.cache.capacity() as f64
    }

    /// Dirty chunks currently cached (all files).
    pub fn dirty_chunk_count(&self) -> usize {
        self.state.lock().cache.dirty_chunks()
    }

    /// One background flusher batch, issued at `start`: take the oldest
    /// dirty chunks (enough to drain back to the background threshold, at
    /// least one), coalesce them into a single store write whatever the
    /// policy's window — one manager RPC, per-benefactor chains overlapped
    /// — and mark them clean. The batch's virtual time is paced by
    /// `flusher_busy_until`, never by the foreground clock. Dirty bits
    /// clear only after the store accepts the batch, so a failed flush
    /// (benefactor down) leaves the pages dirty for a later retry.
    fn bg_flush_batch(&self, st: &mut MountState, start: VTime) -> Result<VTime> {
        let cap = st.cache.capacity();
        let low = self.bg_threshold(cap).min(self.hard_limit(cap) - 1);
        let dirty = st.cache.dirty_keys();
        if dirty.is_empty() {
            return Ok(start);
        }
        let take = dirty.len().saturating_sub(low).max(1).min(dirty.len());
        let batch = &dirty[..take];
        let wb = self.writeback(batch.iter().map(|key| {
            let e = st.cache.peek(key).expect("dirty key cached");
            (*key, e)
        }));
        // A dirty chunk may itself still be in flight (prefetched, then
        // written): the flush can only start once its data has arrived.
        let start = batch.iter().fold(start, |s, key| {
            s.max(st.cache.peek(key).expect("dirty key cached").ready_at)
        });
        let bytes = wb.bytes;
        let sp = self.trace.span(Layer::Fuse, "fuse.bg_flush", start);
        sp.arg("chunks", batch.len() as u64).arg("bytes", bytes);
        let end = self.ship(start, &wb.entries)?;
        for key in batch {
            st.cache.clear_dirty(key);
        }
        self.bg_flushes.inc();
        self.bg_writeback_bytes.add(bytes);
        self.writeback_bytes.add(bytes);
        sp.finish(end);
        Ok(end)
    }

    /// Wake the background flusher if it is idle at `t` and the dirty
    /// ratio is past the background threshold. The foreground clock is
    /// untouched; a flush failure leaves the dirty bits set (the next
    /// wake retries).
    fn kick_bg_flush(&self, st: &mut MountState, t: VTime) {
        if !self.writeback_daemon_on() || t < st.flusher_busy_until {
            return;
        }
        let cap = st.cache.capacity();
        if st.cache.dirty_chunks() <= self.bg_threshold(cap) {
            return;
        }
        if let Ok(end) = self.bg_flush_batch(st, t) {
            st.flusher_busy_until = end;
        }
    }

    /// The per-write dirty bookkeeping of the span loop: throttle the
    /// writer while one more dirty chunk would break the hard limit (each
    /// stall runs a flusher batch and advances the writer's clock to its
    /// completion — `balance_dirty_pages`), then mark the pages dirty,
    /// then wake the background flusher. Returns the possibly-throttled
    /// clock.
    fn note_write(
        &self,
        st: &mut MountState,
        mut t: VTime,
        key: ChunkKey,
        start: u64,
        end: u64,
    ) -> Result<VTime> {
        let ps = PAGE_BYTES;
        if !self.writeback_daemon_on() && self.cfg.dirty_hard_ratio >= 1.0 {
            st.cache.mark_dirty_range(&key, start, end, ps);
            return Ok(t);
        }
        let transitions = st.cache.peek(&key).map(|e| !e.dirty.any()).unwrap_or(false);
        if transitions && self.cfg.dirty_hard_ratio < 1.0 {
            let hard = self.hard_limit(st.cache.capacity());
            while st.cache.dirty_chunks() + 1 > hard && st.cache.dirty_chunks() > 0 {
                let at = t.max(st.flusher_busy_until);
                let done = self.bg_flush_batch(st, at)?;
                st.flusher_busy_until = done;
                t = t.max(done);
                self.throttled_writes.inc();
            }
        }
        st.cache.mark_dirty_range(&key, start, end, ps);
        self.kick_bg_flush(st, t);
        Ok(t)
    }

    // ----- internals ----------------------------------------------------------

    /// Run a chunk-segmented span through the cache, a window at a time:
    /// make the window's chunks resident, then copy every segment of the
    /// window under a single lock. A window grows while its segment count
    /// fits the policy and its unique chunk count fits the cache, so
    /// arbitrarily large spans still fit. Returns the time the last chunk
    /// of the span is usable.
    fn span_io(
        &self,
        mut t: VTime,
        file: FileId,
        segs: impl Iterator<Item = Segment> + Clone,
        mut io: SpanIo<'_>,
    ) -> Result<VTime> {
        let mut segs = segs.peekable();
        while segs.peek().is_some() {
            // Segment chunk indices are non-decreasing (byte positions only
            // move forward), so counting index changes counts unique chunks.
            let window = segs.clone();
            let (mut n, mut chunks, mut last) = (0usize, 0usize, None);
            while let Some(s) = segs.next_if(|s| {
                n < self.path.window && (last == Some(s.idx) || chunks < self.capacity)
            }) {
                if last != Some(s.idx) {
                    chunks += 1;
                    last = Some(s.idx);
                }
                n += 1;
            }
            let window = window.take(n);
            t = self.ensure(t, file, window.clone().map(|s| s.idx))?;
            let mut st = self.state.lock();
            for s in window {
                let entry = st.cache.peek_mut(&(file, s.idx)).expect("just ensured");
                match &mut io {
                    SpanIo::Read(buf) => entry.data.read(s.within, &mut buf[s.pos..s.pos + s.take]),
                    SpanIo::Write(data) => {
                        entry.data.write(s.within, &data[s.pos..s.pos + s.take]);
                        let (from, to) = (s.within as u64, (s.within + s.take) as u64);
                        t = self.note_write(&mut st, t, (file, s.idx), from, to)?;
                    }
                }
            }
        }
        Ok(t)
    }

    /// Make every chunk of `idxs` (non-decreasing; repeats are one lookup)
    /// resident with one [`Self::fetch`] for the misses; returns the time
    /// all of them are usable. Hits that are still in flight (prefetched)
    /// contribute their `ready_at`; the working set (`idxs`) is protected
    /// from eviction while room is made.
    fn ensure(
        &self,
        t: VTime,
        file: FileId,
        idxs: impl Iterator<Item = usize> + Clone,
    ) -> Result<VTime> {
        let mut ready = t;
        let mut missing: Vec<ChunkKey> = Vec::new();
        {
            let mut st = self.state.lock();
            let mut last = None;
            for idx in idxs.clone().filter(|&i| last.replace(i) != Some(i)) {
                if st.cache.is_protected(&(file, idx)) {
                    self.scan_protected_hits.inc();
                }
                if let Some(entry) = st.cache.get_mut(&(file, idx)) {
                    self.hits.inc();
                    ready = ready.max(entry.ready_at);
                } else {
                    missing.push((file, idx));
                }
            }
        }
        if missing.is_empty() {
            return Ok(ready);
        }
        self.misses.add(missing.len() as u64);
        let sp = self.trace.span(Layer::Fuse, "fuse.miss_fill", t);
        sp.arg("file", file.0).arg("chunks", missing.len() as u64);
        let t = self.make_room(t, missing.len(), |k| {
            k.0 == file && idxs.clone().any(|i| i == k.1)
        })?;
        let fetched = self.fetch(t, &missing)?;
        let mut st = self.state.lock();
        for ((ready_at, payload), &key) in fetched.into_iter().zip(&missing) {
            let data = payload.into_buf(self.store.config());
            st.cache.insert(key, data, ready_at);
            ready = ready.max(ready_at);
        }
        drop(st);
        sp.finish(ready);
        Ok(ready)
    }

    /// Pull `targets` from the store at `t` as one `fetch_chunks`, through
    /// the location cache if the mount holds one; the paper path's windows
    /// make it the batch of one. Returns `(usable at, payload)` in input
    /// order.
    fn fetch(&self, t: VTime, targets: &[ChunkKey]) -> Result<Vec<(VTime, ChunkPayload)>> {
        self.store
            .fetch_chunks(t, self.node, targets, self.loc_cache.as_ref())
    }

    /// The eviction victim under the configured policy: plain LRU, or —
    /// with the segmented cache — the coldest *clean* entry first, so
    /// eviction almost never pays a synchronous write-back.
    fn pick_victim(
        &self,
        cache: &mut ChunkCache,
        exclude: impl FnMut(&ChunkKey) -> bool,
    ) -> Option<ChunkKey> {
        if self.cfg.seg_cache {
            cache.victim_clean_first(exclude)
        } else {
            cache.lru_key_excluding(exclude)
        }
    }

    /// Evict until `need` slots are free, never touching the working set
    /// `protect` matches, and write back the dirty victims' pages (or
    /// whole chunks when the optimization is off) as one store call — at
    /// most `need` of them, so one on the paper path. Synchronously, the
    /// write starts at `t` and the returned time is its completion.
    /// Asynchronously, it is charged from the time the victims' own data
    /// is available but the caller's clock is NOT advanced: the
    /// write-back proceeds in the background while the incoming fetch
    /// (whose own completion time covers any queueing behind the write on
    /// shared resources) overlaps it, and the reader never blocks on
    /// eviction.
    fn make_room(
        &self,
        t: VTime,
        need: usize,
        protect: impl Fn(&ChunkKey) -> bool,
    ) -> Result<VTime> {
        let mut dirty: Vec<(ChunkKey, CacheEntry)> = Vec::new();
        {
            let mut st = self.state.lock();
            while st.cache.capacity() - st.cache.len() < need {
                let victim = self
                    .pick_victim(&mut st.cache, &protect)
                    .expect("window sized within cache capacity");
                let entry = st.cache.remove(&victim).expect("victim is cached");
                self.evictions.inc();
                if entry.dirty.any() {
                    dirty.push((victim, entry));
                } else {
                    self.clean_evictions.inc();
                }
            }
        }
        if dirty.is_empty() {
            return Ok(t);
        }
        let wb = self.writeback(dirty.iter().map(|(key, e)| (*key, e)));
        self.writeback_bytes.add(wb.bytes);
        if !self.path.async_evict {
            let sp = self.trace.span(Layer::Fuse, "fuse.evict", t);
            sp.arg("bytes", wb.bytes);
            let end = self.ship(t, &wb.entries)?;
            sp.finish(end);
            return Ok(end);
        }
        // The write-back can only start once the victims' own data has
        // arrived (a dirty chunk may itself still be in flight).
        let start = dirty.iter().fold(t, |s, (_, e)| s.max(e.ready_at));
        self.async_writebacks.add(dirty.len() as u64);
        let sp = self.trace.span(Layer::Fuse, "fuse.async_writeback", start);
        sp.arg("bytes", wb.bytes).arg("chunks", dirty.len() as u64);
        // The completion time is dropped (asynchronous write-back); the
        // span still records when the background writes land.
        let done = self.ship(start, &wb.entries)?;
        sp.finish(done);
        Ok(t)
    }

    /// Asynchronous prefetch of up to `depth` chunks following
    /// `from_offset`, a window of uncached chunks at a time. Charges the
    /// store-side resources but not the caller's clock; a later hit waits
    /// on `ready_at` if the data has not "arrived" yet.
    fn read_ahead(&self, t: VTime, file: FileId, from_offset: u64, depth: usize) -> Result<()> {
        let cs = self.chunk_size();
        let n_chunks = self.store.chunk_count(file)?;
        let mut next = (from_offset / cs) as usize + usize::from(!from_offset.is_multiple_of(cs));
        let last = (next + depth).min(n_chunks);
        while next < last {
            let mut missing: Vec<ChunkKey> = Vec::new();
            {
                let mut st = self.state.lock();
                while next < last && missing.len() < self.path.window.min(self.capacity) {
                    if !st.cache.contains(&(file, next)) {
                        missing.push((file, next));
                    }
                    next += 1;
                }
                if missing.is_empty() {
                    return Ok(());
                }
                // Only prefetch into free-or-clean space: prefetching must
                // never force synchronous dirty write-back.
                if !self.path.async_evict && st.cache.is_full() {
                    let victim = self.pick_victim(&mut st.cache, |_| false).expect("full");
                    if st.cache.peek(&victim).is_some_and(|e| e.dirty.any()) {
                        return Ok(());
                    }
                }
            }
            let sp = self.trace.span(Layer::Fuse, "fuse.read_ahead", t);
            sp.arg("file", file.0).arg("chunks", missing.len() as u64);
            let t0 = self.make_room(t, missing.len(), |k| missing.contains(k))?;
            debug_assert_eq!(t0, t); // clean or asynchronous eviction: caller clock untouched
            let fetched = self.fetch(t, &missing)?;
            self.readahead_fetches.add(missing.len() as u64);
            let mut done = t;
            let mut st = self.state.lock();
            for ((ready, payload), &key) in fetched.into_iter().zip(&missing) {
                done = done.max(ready);
                st.cache
                    .insert(key, payload.into_buf(self.store.config()), ready);
            }
            drop(st);
            sp.finish(done);
        }
        Ok(())
    }
}
