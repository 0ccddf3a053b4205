//! `NvmClient` — the per-process NVMalloc entry point.
//!
//! Provides the paper's service suite (§III):
//!
//! * [`NvmClient::ssdmalloc`] — allocate a typed variable from the
//!   aggregate store: creates an internally-named backing file,
//!   `posix_fallocate`s its size over a benefactor stripe, and returns the
//!   mapped [`NvmVec`];
//! * [`NvmClient::ssdmalloc_shared`] — the "special flag" variant that
//!   maps a *shared* file so all processes on a node (or across nodes)
//!   back a common read-mostly structure (matrix B in the evaluation)
//!   with one set of chunks;
//! * [`NvmClient::ssdfree`] — unmap and delete the backing file;
//! * [`NvmClient::ssdcheckpoint`] — snapshot DRAM state *and* NVM
//!   variables into one logical restart file, copying only the DRAM bytes
//!   and *linking* the variables' chunks (§III-E);
//! * restart helpers that rebuild state from a checkpoint.
//!
//! # What yields where
//!
//! Namespace calls (`ssdmalloc`, `ssdfree`, `open_var`, `delete_checkpoint`)
//! are one store call under one [`ProcCtx::yield_until_min`]. The bulk
//! calls — the DRAM image of [`NvmClient::ssdcheckpoint`],
//! [`NvmClient::restore_dram`], [`NvmClient::restore_var`] and
//! [`NvmClient::drain_checkpoint_to_pfs`] — ride the mount's data path
//! past its cache, a window of [`Mount::bulk_window`] chunks at a time
//! (one chunk on the paper path, one stripe row of the file on a pipelined
//! mount), and every window is a step of the private [`Steps`]: yield
//! until this process holds the minimum clock, run the store calls, advance
//! the clock to their completion. Concurrent ranks' restarts therefore
//! reach the shared manager CPUs, NICs and SSDs in virtual-time order and
//! overlap, instead of the first caller booking every resource for its
//! whole transfer before the second may ask (DESIGN.md §4b). The one
//! exception is a *background* drain, which by definition runs ahead of
//! its caller's clock.

use crate::pod::Pod;
use crate::vec::{NvmVariable, NvmVec};
use chunkstore::{ChunkBuf, ChunkPayload, FileId, PlacementPolicy, Result, StoreError, StripeSpec};
use fusemm::Mount;
use obs::Layer;
use simcore::{Counter, ProcCtx, StatsRegistry, VTime};
use std::sync::atomic::{AtomicU64, Ordering};

/// Placement options for an allocation.
#[derive(Clone, Debug)]
pub struct AllocOptions {
    pub stripe: StripeSpec,
    pub placement: PlacementPolicy,
}

impl Default for AllocOptions {
    fn default() -> Self {
        AllocOptions {
            stripe: StripeSpec::all(),
            placement: PlacementPolicy::RoundRobin,
        }
    }
}

/// One variable's region inside a checkpoint file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarRecord {
    pub name: String,
    pub byte_len: u64,
    /// Byte offset of the variable's first (chunk-aligned) byte within the
    /// checkpoint file.
    pub offset: u64,
}

/// A completed checkpoint: enough metadata to restart from it.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    pub name: String,
    pub file: FileId,
    pub timestep: u64,
    pub dram_len: u64,
    pub vars: Vec<VarRecord>,
}

/// The bulk calls' stepper: `yield_until_min` → step → `advance_to`, the
/// shape of `NvmVec::for_each_segment` and `NvmVec::flush`, for a chain of
/// store calls whose next link starts where the previous one completed.
struct Steps<'a> {
    ctx: &'a mut ProcCtx,
    /// Where the chain stands: the caller's clock, or ahead of it when the
    /// caller does not wait.
    t: VTime,
    /// Advance the caller's clock with the chain. Off for a background
    /// drain only: it books its resources from the caller's present and
    /// later yields change nothing, the daemon convention of DESIGN.md §4b.
    wait: bool,
    /// Steps taken (a span argument).
    taken: u64,
}

impl<'a> Steps<'a> {
    fn new(ctx: &'a mut ProcCtx, wait: bool) -> Self {
        let t = ctx.now();
        Steps {
            ctx,
            t,
            wait,
            taken: 0,
        }
    }

    /// Run `step` from where the chain stands, once this process holds the
    /// minimum clock; `step` returns its completion time and a result.
    fn step<R>(&mut self, step: impl FnOnce(VTime) -> Result<(VTime, R)>) -> Result<R> {
        self.ctx.yield_until_min();
        self.taken += 1;
        self.then(step)
    }

    /// Continue the step just taken with `more`, without yielding again: a
    /// short metadata call rides with the transfer next to it.
    fn then<R>(&mut self, more: impl FnOnce(VTime) -> Result<(VTime, R)>) -> Result<R> {
        let (t, out) = more(self.t)?;
        self.t = t;
        if self.wait {
            self.ctx.advance_to(t);
        }
        Ok(out)
    }
}

/// `[0, n)` in windows of `window`: `(first, count)` each.
fn windows(n: usize, window: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n)
        .step_by(window)
        .map(move |at| (at, window.min(n - at)))
}

/// When the slowest of `fetched` is in hand (`t` if there are none).
fn in_hand(t: VTime, fetched: &[(VTime, ChunkPayload)]) -> VTime {
    fetched.iter().fold(t, |t, (ready, _)| t.max(*ready))
}

/// The per-process NVMalloc handle.
pub struct NvmClient {
    mount: Mount,
    client_id: u64,
    next_alloc: AtomicU64,
    next_ckpt: AtomicU64,
    opts: AllocOptions,
    app_read_bytes: Counter,
    app_write_bytes: Counter,
    mallocs: Counter,
    frees: Counter,
    checkpoints: Counter,
}

impl NvmClient {
    /// `client_id` must be unique across processes (use the MPI rank).
    pub fn new(mount: Mount, client_id: u64, opts: AllocOptions, stats: &StatsRegistry) -> Self {
        NvmClient {
            mount,
            client_id,
            next_alloc: AtomicU64::new(0),
            next_ckpt: AtomicU64::new(0),
            opts,
            app_read_bytes: stats.counter("nvm.app_read_bytes"),
            app_write_bytes: stats.counter("nvm.app_write_bytes"),
            mallocs: stats.counter("nvm.mallocs"),
            frees: stats.counter("nvm.frees"),
            checkpoints: stats.counter("nvm.checkpoints"),
        }
    }

    pub fn mount(&self) -> &Mount {
        &self.mount
    }

    fn auto_name(&self) -> String {
        let n = self.next_alloc.fetch_add(1, Ordering::Relaxed);
        format!("/nvmalloc/c{}/v{}", self.client_id, n)
    }

    /// Allocate `len` elements of `T` from the NVM store (default stripe).
    pub fn ssdmalloc<T: Pod>(&self, ctx: &mut ProcCtx, len: usize) -> Result<NvmVec<T>> {
        let opts = self.opts.clone();
        self.ssdmalloc_opts(ctx, len, &opts)
    }

    /// Allocate with explicit placement options.
    pub fn ssdmalloc_opts<T: Pod>(
        &self,
        ctx: &mut ProcCtx,
        len: usize,
        opts: &AllocOptions,
    ) -> Result<NvmVec<T>> {
        let name = self.auto_name();
        let bytes = len as u64 * std::mem::size_of::<T>() as u64;
        ctx.yield_until_min();
        let sp = self
            .mount
            .tracer()
            .span(Layer::Nvm, "nvm.malloc", ctx.now());
        sp.arg("bytes", bytes);
        let (t, file) =
            self.mount
                .create(ctx.now(), &name, bytes, opts.stripe.clone(), opts.placement)?;
        ctx.advance_to(t);
        sp.finish(t);
        self.mallocs.inc();
        Ok(NvmVec::new(
            self.mount.clone(),
            file,
            name,
            len,
            false,
            self.app_read_bytes.clone(),
            self.app_write_bytes.clone(),
        ))
    }

    /// Map a *shared* variable: the first caller creates the backing file
    /// under `/shared/<key>`, later callers map the same file. This is
    /// the option behind the paper's shared-mmap-file mode for matrix B.
    pub fn ssdmalloc_shared<T: Pod>(
        &self,
        ctx: &mut ProcCtx,
        key: &str,
        len: usize,
    ) -> Result<NvmVec<T>> {
        let opts = self.opts.clone();
        self.ssdmalloc_shared_opts(ctx, key, len, &opts)
    }

    pub fn ssdmalloc_shared_opts<T: Pod>(
        &self,
        ctx: &mut ProcCtx,
        key: &str,
        len: usize,
        opts: &AllocOptions,
    ) -> Result<NvmVec<T>> {
        let name = format!("/shared/{key}");
        let bytes = len as u64 * std::mem::size_of::<T>() as u64;
        ctx.yield_until_min();
        let file =
            match self
                .mount
                .create(ctx.now(), &name, bytes, opts.stripe.clone(), opts.placement)
            {
                Ok((t, file)) => {
                    ctx.advance_to(t);
                    self.mallocs.inc();
                    file
                }
                Err(StoreError::FileExists(_)) => {
                    let (t, found) = self.mount.open(ctx.now(), &name)?;
                    ctx.advance_to(t);
                    let file = found.ok_or(StoreError::NoSuchFile)?;
                    let existing = self.mount.file_size(file)?;
                    assert_eq!(
                        existing, bytes,
                        "shared variable {key} mapped with a different size"
                    );
                    file
                }
                Err(e) => return Err(e),
            };
        Ok(NvmVec::new(
            self.mount.clone(),
            file,
            name,
            len,
            true,
            self.app_read_bytes.clone(),
            self.app_write_bytes.clone(),
        ))
    }

    /// Unmap and release a variable. Shared mappings only drop the local
    /// handle — use [`NvmClient::unlink_shared`] (from one process) to
    /// delete the backing file.
    pub fn ssdfree<T: Pod>(&self, ctx: &mut ProcCtx, var: NvmVec<T>) -> Result<()> {
        self.frees.inc();
        if var.is_shared() {
            return Ok(()); // munmap only
        }
        ctx.yield_until_min();
        let t = self.mount.delete(ctx.now(), var.file_id())?;
        ctx.advance_to(t);
        Ok(())
    }

    /// Map an existing shared/persistent variable by key without creating
    /// it — the consumer side of the paper's §III-C workflow scenario
    /// ("data sharing between a workflow of jobs or a simulation and its
    /// in-situ analysis"): variables outlive the job that produced them
    /// because the store, not the process, owns the chunks.
    pub fn open_var<T: Pod>(&self, ctx: &mut ProcCtx, key: &str) -> Result<NvmVec<T>> {
        let name = format!("/shared/{key}");
        ctx.yield_until_min();
        let (t, found) = self.mount.open(ctx.now(), &name)?;
        ctx.advance_to(t);
        let file = found.ok_or(StoreError::NoSuchFile)?;
        let bytes = self.mount.file_size(file)?;
        let elem = std::mem::size_of::<T>() as u64;
        assert_eq!(bytes % elem, 0, "element size does not divide {key}'s size");
        Ok(NvmVec::new(
            self.mount.clone(),
            file,
            name,
            (bytes / elem) as usize,
            true,
            self.app_read_bytes.clone(),
            self.app_write_bytes.clone(),
        ))
    }

    /// Delete a shared variable's backing file (call from exactly one
    /// process after all mappers are done).
    pub fn unlink_shared(&self, ctx: &mut ProcCtx, key: &str) -> Result<()> {
        let name = format!("/shared/{key}");
        ctx.yield_until_min();
        let (t, found) = self.mount.open(ctx.now(), &name)?;
        ctx.advance_to(t);
        let file = found.ok_or(StoreError::NoSuchFile)?;
        ctx.yield_until_min();
        let t = self.mount.delete(ctx.now(), file)?;
        ctx.advance_to(t);
        Ok(())
    }

    /// Checkpoint `dram_state` plus every listed NVM variable into one
    /// logical restart file (§III-E).
    ///
    /// DRAM bytes are *copied* into fresh chunks; each variable is first
    /// flushed (so its chunks reflect the current contents) and then its
    /// chunks are *linked* into the checkpoint — no data movement, no
    /// extra NVM wear, and copy-on-write protects the frozen image from
    /// subsequent writes. Incremental checkpointing falls out for free:
    /// the next checkpoint links whatever chunks the variable then has,
    /// sharing all unmodified ones.
    ///
    /// One step per window of the DRAM image. The metadata calls ride with
    /// them: create + size with the first window, each variable's flush +
    /// link with the last — an image of one window is one step, as the
    /// whole checkpoint used to be.
    pub fn ssdcheckpoint(
        &self,
        ctx: &mut ProcCtx,
        app: &str,
        dram_state: &[u8],
        vars: &[&dyn NvmVariable],
    ) -> Result<Checkpoint> {
        let timestep = self.next_ckpt.fetch_add(1, Ordering::Relaxed);
        let name = format!("/ckpt/{app}/c{}/t{timestep}", self.client_id);
        let store = self.mount.store();
        let node = self.mount.node();
        let chunk = store.config().chunk_size;

        let sp = self
            .mount
            .tracer()
            .span(Layer::Nvm, "nvm.checkpoint", ctx.now());
        sp.arg("dram_bytes", dram_state.len() as u64)
            .arg("vars", vars.len() as u64)
            .arg("chunks", (dram_state.len() as u64).div_ceil(chunk));
        let mut steps = Steps::new(ctx, true);

        // 1. Create the restart file sized for the DRAM image.
        let ckpt_file = steps.step(|t| {
            let (t, file) = store.create_file(t, node, &name)?;
            if dram_state.is_empty() {
                return Ok((t, file));
            }
            let (stripe, placement) = (self.opts.stripe.clone(), self.opts.placement);
            let t = store.fallocate(t, node, file, dram_state.len() as u64, stripe, placement)?;
            Ok((t, file))
        })?;

        // 2. Stream the DRAM image into it, each chunk cut into leaves (the
        //    one copy its bytes get).
        let window = self.mount.bulk_window(ckpt_file)?;
        for (w, slab) in dram_state.chunks(chunk as usize * window).enumerate() {
            let image: Vec<(usize, ChunkBuf)> = (w * window..)
                .zip(slab.chunks(chunk as usize))
                .map(|(idx, bytes)| (idx, ChunkBuf::from_bytes(bytes)))
                .collect();
            let write = |t| Ok((self.mount.write_direct(t, ckpt_file, &image)?, ()));
            match w {
                0 => steps.then(write)?,
                _ => steps.step(write)?,
            }
        }

        // 3. Flush + link each variable.
        let mut offset = (dram_state.len() as u64).div_ceil(chunk) * chunk;
        let mut records = Vec::with_capacity(vars.len());
        for var in vars {
            steps.then(|t| {
                let t = var.flush_at(t)?;
                Ok((store.link_file(t, node, ckpt_file, var.file_id())?, ()))
            })?;
            records.push(VarRecord {
                name: var.var_name().to_string(),
                byte_len: var.byte_len(),
                offset,
            });
            offset += var.byte_len().div_ceil(chunk) * chunk;
        }

        sp.arg("steps", steps.taken);
        sp.finish(steps.t);
        self.checkpoints.inc();
        Ok(Checkpoint {
            name,
            file: ckpt_file,
            timestep,
            dram_len: dram_state.len() as u64,
            vars: records,
        })
    }

    /// Restart path: read the DRAM image back out of a checkpoint, a
    /// window of the restart file's chunks per step.
    pub fn restore_dram(&self, ctx: &mut ProcCtx, ckpt: &Checkpoint) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; ckpt.dram_len as usize];
        if buf.is_empty() {
            return Ok(buf);
        }
        let chunk = self.mount.store().config().chunk_size as usize;
        let sp = self
            .mount
            .tracer()
            .span(Layer::Nvm, "nvm.restore", ctx.now());
        sp.arg("bytes", ckpt.dram_len)
            .arg("chunks", buf.len().div_ceil(chunk) as u64);
        let window = self.mount.bulk_window(ckpt.file)?;
        let mut steps = Steps::new(ctx, true);
        for (w, slab) in buf.chunks_mut(chunk * window).enumerate() {
            steps.step(|t| {
                let n = slab.len().div_ceil(chunk);
                let fetched = self.mount.fetch_direct(t, ckpt.file, w * window, n)?;
                let done = in_hand(t, &fetched);
                for (piece, (_, payload)) in slab.chunks_mut(chunk).zip(fetched) {
                    // A never-written chunk of the image reads as the
                    // zeros `buf` already holds.
                    if let ChunkPayload::Data(data) = payload {
                        data.read(0, piece);
                    }
                }
                Ok((done, ()))
            })?;
        }
        sp.arg("steps", steps.taken);
        sp.finish(steps.t);
        Ok(buf)
    }

    /// Restart path: materialize checkpointed variable `index` as a fresh
    /// NVM variable. Two steps per window of the new variable's chunks:
    /// fetch the frozen chunks from the checkpoint, then write them — the
    /// fetched leaves handed on, nothing copied, memory bounded by one
    /// window. A chunk the variable never wrote stays a hole in the new
    /// file (it reads zeros either way), and a ragged last chunk is
    /// written up to `byte_len` and no further.
    pub fn restore_var<T: Pod>(
        &self,
        ctx: &mut ProcCtx,
        ckpt: &Checkpoint,
        index: usize,
    ) -> Result<NvmVec<T>> {
        let rec = &ckpt.vars[index];
        let elem = std::mem::size_of::<T>() as u64;
        assert_eq!(rec.byte_len % elem, 0, "element size mismatch on restore");
        let len = (rec.byte_len / elem) as usize;
        let var: NvmVec<T> = self.ssdmalloc(ctx, len)?;

        let chunk = self.mount.store().config().chunk_size;
        let from = (rec.offset / chunk) as usize;
        let chunks = rec.byte_len.div_ceil(chunk) as usize;
        let sp = self
            .mount
            .tracer()
            .span(Layer::Nvm, "nvm.restore", ctx.now());
        sp.arg("bytes", rec.byte_len).arg("chunks", chunks as u64);
        let window = self.mount.bulk_window(var.file_id())?;
        let mut steps = Steps::new(ctx, true);
        for (first, n) in windows(chunks, window) {
            let fetched = steps.step(|t| {
                let fetched = self.mount.fetch_direct(t, ckpt.file, from + first, n)?;
                Ok((in_hand(t, &fetched), fetched))
            })?;
            let frozen: Vec<(usize, ChunkBuf)> = (first..)
                .zip(fetched)
                .filter_map(|(idx, (_, payload))| match payload {
                    ChunkPayload::Zeros => None,
                    ChunkPayload::Data(data) => {
                        let live = (rec.byte_len - idx as u64 * chunk).min(chunk) as usize;
                        Some((idx, data.head(live)))
                    }
                })
                .collect();
            if !frozen.is_empty() {
                steps.step(|t| Ok((self.mount.write_direct(t, var.file_id(), &frozen)?, ())))?;
            }
        }
        sp.arg("steps", steps.taken);
        sp.finish(steps.t);
        Ok(var)
    }

    /// Delete a checkpoint file (releases its chunk references).
    pub fn delete_checkpoint(&self, ctx: &mut ProcCtx, ckpt: &Checkpoint) -> Result<()> {
        ctx.yield_until_min();
        let t = self
            .mount
            .store()
            .delete(ctx.now(), self.mount.node(), ckpt.file)?;
        ctx.advance_to(t);
        Ok(())
    }

    /// Drain a checkpoint from the NVM store to the parallel file system.
    ///
    /// The paper's staging model (§III-E, citing the authors' prior work):
    /// "checkpointing to such an intermediate device and draining to PFS
    /// in the background is an extremely viable alternative and can help
    /// alleviate the I/O bottleneck." The drain streams every chunk of
    /// the restart file from its benefactor to the PFS, a window of the
    /// file's chunks per step; the caller's clock follows the reads, so
    /// the next window is fetched while the PFS absorbs the last. Pass
    /// `background = true` to model an asynchronous drain: store-side and
    /// PFS resources are charged (they are busy) but the caller's clock
    /// does not wait; the returned time says when the PFS copy is safe.
    pub fn drain_checkpoint_to_pfs(
        &self,
        ctx: &mut ProcCtx,
        ckpt: &Checkpoint,
        pfs: &devices::Pfs,
        background: bool,
    ) -> Result<VTime> {
        let store = self.mount.store();
        let total = store.file_size(ckpt.file)?;
        let chunk = store.config().chunk_size;
        let chunks = total.div_ceil(chunk) as usize;
        let sp = self.mount.tracer().span(Layer::Nvm, "nvm.drain", ctx.now());
        sp.arg("bytes", total)
            .arg("background", background as u64)
            .arg("chunks", chunks as u64);
        let window = self.mount.bulk_window(ckpt.file)?;
        let mut steps = Steps::new(ctx, !background);
        let mut done = steps.t;
        for (first, n) in windows(chunks, window) {
            // Benefactor read + network, then the PFS as each chunk lands.
            done = steps.step(|t| {
                let fetched = self.mount.fetch_direct(t, ckpt.file, first, n)?;
                // The PFS serves in call order: the last end is the latest.
                let mut safe = done;
                for (idx, (ready, _)) in (first..).zip(&fetched) {
                    let take = (total - idx as u64 * chunk).min(chunk);
                    safe = pfs.write_at(*ready, take).end;
                }
                Ok((in_hand(t, &fetched), safe))
            })?;
        }
        if !background {
            steps.ctx.advance_to(done);
        }
        sp.arg("steps", steps.taken);
        sp.finish(done);
        Ok(done)
    }
}
