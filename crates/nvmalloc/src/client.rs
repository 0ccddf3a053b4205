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
//! Every store call this crate makes is a step of the private `Steps`
//! (`steps.rs`, DESIGN.md §4b): yield until this process holds the minimum
//! clock, run the store calls, advance the clock to their completion.
//! A namespace call (`ssdmalloc`, `ssdmalloc_shared`, `ssdfree`,
//! `open_var`, `delete_checkpoint`) is one step and `unlink_shared` two;
//! an element or slice access is one step per [`Mount::span_granule`]
//! piece, a strided read one step, a flush one step per entry of
//! [`Mount::flush_steps`]. The bulk calls — the DRAM image of
//! [`NvmClient::ssdcheckpoint`], [`NvmClient::restore_dram`],
//! [`NvmClient::restore_var`] and [`NvmClient::drain_checkpoint_to_pfs`] —
//! ride the mount's data path past its cache, a window of
//! [`Mount::bulk_window`] chunks per step (one chunk on the paper path,
//! one stripe row of the file on a pipelined mount), which the mount sends
//! as one store call. Concurrent ranks' restarts therefore reach the
//! shared manager CPUs, NICs and SSDs in virtual-time order and overlap,
//! instead of the first caller booking every resource for its whole
//! transfer before the second may ask. The one exception is a
//! *background* drain, which by definition runs ahead of its caller's
//! clock.

use crate::pod::Pod;
use crate::steps::Steps;
use crate::vec::{NvmVariable, NvmVec};
use chunkstore::{ChunkBuf, ChunkPayload, FileId, PlacementPolicy, Result, StoreError, StripeSpec};
use fusemm::Mount;
use obs::Layer;
use simcore::{Counter, ProcCtx, StatsRegistry, VTime};
use std::cell::Cell;

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
    next_alloc: Cell<u64>,
    next_ckpt: Cell<u64>,
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
            next_alloc: Cell::new(0),
            next_ckpt: Cell::new(0),
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
        let n = self.next_alloc.get();
        self.next_alloc.set(n + 1);
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
        let file = Steps::new(ctx, true).step(|t| {
            let sp = self.mount.tracer().span(Layer::Nvm, "nvm.malloc", t);
            sp.arg("bytes", bytes);
            let (stripe, placement) = (opts.stripe.clone(), opts.placement);
            let (t, file) = self.mount.create(t, &name, bytes, stripe, placement)?;
            sp.finish(t);
            Ok((t, file))
        })?;
        self.mallocs.inc();
        Ok(self.handle(file, name, len, false))
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
        let name = format!("/shared/{key}");
        let bytes = len as u64 * std::mem::size_of::<T>() as u64;
        let found = Steps::new(ctx, true).step(|t| {
            let (stripe, placement) = (self.opts.stripe.clone(), self.opts.placement);
            match self.mount.create(t, &name, bytes, stripe, placement) {
                Ok((t, file)) => {
                    self.mallocs.inc();
                    Ok((t, Some((file, bytes))))
                }
                Err(StoreError::FileExists(_)) => self.open_shared(t, &name),
                Err(e) => Err(e),
            }
        })?;
        let (file, existing) = found.ok_or(StoreError::NoSuchFile)?;
        assert_eq!(
            existing, bytes,
            "shared variable {key} mapped with a different size"
        );
        Ok(self.handle(file, name, len, true))
    }

    /// Unmap and release a variable. Shared mappings only drop the local
    /// handle — use [`NvmClient::unlink_shared`] (from one process) to
    /// delete the backing file.
    pub fn ssdfree<T: Pod>(&self, ctx: &mut ProcCtx, var: NvmVec<T>) -> Result<()> {
        self.frees.inc();
        if var.is_shared() {
            return Ok(()); // munmap only
        }
        Steps::new(ctx, true).step(|t| Ok((self.mount.delete(t, var.file_id())?, ())))
    }

    /// Map an existing shared/persistent variable by key without creating
    /// it — the consumer side of the paper's §III-C workflow scenario
    /// ("data sharing between a workflow of jobs or a simulation and its
    /// in-situ analysis"): variables outlive the job that produced them
    /// because the store, not the process, owns the chunks.
    pub fn open_var<T: Pod>(&self, ctx: &mut ProcCtx, key: &str) -> Result<NvmVec<T>> {
        let name = format!("/shared/{key}");
        let found = Steps::new(ctx, true).step(|t| self.open_shared(t, &name))?;
        let (file, bytes) = found.ok_or(StoreError::NoSuchFile)?;
        let elem = std::mem::size_of::<T>() as u64;
        assert_eq!(bytes % elem, 0, "element size does not divide {key}'s size");
        Ok(self.handle(file, name, (bytes / elem) as usize, true))
    }

    /// Open the shared file `name` at `t`: when the lookup completes, and
    /// the file with its byte size, if there is one.
    fn open_shared(&self, t: VTime, name: &str) -> Result<(VTime, Option<(FileId, u64)>)> {
        let (t, found) = self.mount.open(t, name)?;
        let found = found.map(|file| Ok((file, self.mount.file_size(file)?)));
        Ok((t, found.transpose()?))
    }

    /// The mapped handle of `file`, `len` elements long.
    fn handle<T: Pod>(&self, file: FileId, name: String, len: usize, shared: bool) -> NvmVec<T> {
        NvmVec::new(
            self.mount.clone(),
            file,
            name,
            len,
            shared,
            self.app_read_bytes.clone(),
            self.app_write_bytes.clone(),
        )
    }

    /// Delete a shared variable's backing file (call from exactly one
    /// process after all mappers are done).
    pub fn unlink_shared(&self, ctx: &mut ProcCtx, key: &str) -> Result<()> {
        let name = format!("/shared/{key}");
        let mut steps = Steps::new(ctx, true);
        let found = steps.step(|t| self.mount.open(t, &name))?;
        let file = found.ok_or(StoreError::NoSuchFile)?;
        steps.step(|t| Ok((self.mount.delete(t, file)?, ())))
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
        let timestep = self.next_ckpt.get();
        self.next_ckpt.set(timestep + 1);
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
        let store = self.mount.store();
        Steps::new(ctx, true).step(|t| Ok((store.delete(t, self.mount.node(), ckpt.file)?, ())))
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
        steps.then(|_| Ok((done, ())))?;
        sp.arg("steps", steps.taken);
        sp.finish(done);
        Ok(done)
    }
}
