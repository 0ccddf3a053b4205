//! `NvmVec<T>` — a typed, NVM-resident variable.
//!
//! The paper's `nvmvar = ssdmalloc(...)` hands back a memory-mapped
//! region; addresses inside it transparently become reads/writes against
//! the chunk store through the FUSE cache. This type is the safe-Rust
//! equivalent: element and slice accessors that route through the node's
//! [`fusemm::Mount`] while charging virtual time on the owning process's
//! clock.

use crate::pod::{bytes_of, bytes_of_mut, cast_slice, Pod};
use crate::steps::Steps;
use chunkstore::{segments, FileId, Result, Segment, PAGE_BYTES};
use fusemm::{Mount, ReadView};
use obs::Layer;
use simcore::{Counter, ProcCtx, VTime};
use std::cell::OnceCell;
use std::marker::PhantomData;

/// A typed variable allocated from the aggregate NVM store.
pub struct NvmVec<T: Pod> {
    mount: Mount,
    file: FileId,
    name: String,
    len: usize,
    shared: bool,
    app_read_bytes: Counter,
    app_write_bytes: Counter,
    _marker: PhantomData<T>,
}

impl<T: Pod> NvmVec<T> {
    pub(crate) fn new(
        mount: Mount,
        file: FileId,
        name: String,
        len: usize,
        shared: bool,
        app_read_bytes: Counter,
        app_write_bytes: Counter,
    ) -> Self {
        NvmVec {
            mount,
            file,
            name,
            len,
            shared,
            app_read_bytes,
            app_write_bytes,
            _marker: PhantomData,
        }
    }

    /// Number of `T` elements.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Backing file on the aggregate store (internal name, invisible to
    /// the application in the paper's design).
    pub fn file_id(&self) -> FileId {
        self.file
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this is a shared mmap file (several processes map it).
    pub fn is_shared(&self) -> bool {
        self.shared
    }

    fn elem_size() -> u64 {
        std::mem::size_of::<T>() as u64
    }

    /// Byte length of the variable.
    pub fn byte_len(&self) -> u64 {
        self.len as u64 * Self::elem_size()
    }

    /// Read element `i` (the paper's `x = nvmvar[i]`).
    pub fn get(&self, ctx: &mut ProcCtx, i: usize) -> Result<T> {
        let mut tmp = [T::zeroed()];
        self.read_slice(ctx, i, &mut tmp)?;
        Ok(tmp[0])
    }

    /// Write element `i` (the paper's `nvmvar[i] = x`).
    pub fn set(&self, ctx: &mut ProcCtx, i: usize, value: T) -> Result<()> {
        self.write_slice(ctx, i, &[value])
    }

    /// The pieces a slice access of `[byte_start, byte_start+len)` takes,
    /// one [`Steps`] step each. The mount sets the granule. On the paper
    /// path it is one chunk: large slice accesses are split at chunk
    /// boundaries so concurrent processes' requests reach shared resources
    /// in virtual-time order (one huge atomic charge would reserve
    /// far-future device slots ahead of other ranks' earlier accesses). A
    /// pipelined mount (DESIGN.md §8) takes the whole span as one batched
    /// call — a single yield, one manager RPC for the misses,
    /// per-benefactor chains overlapped below.
    fn pieces(&self, byte_start: u64, len: u64) -> impl Iterator<Item = Segment> {
        segments(byte_start, len, self.mount.span_granule())
    }

    /// Read `len` elements starting at `start` in place: a [`View`] of the
    /// cache's own pages (the paper's loads through the mapping), held
    /// for as long as the caller keeps it.
    pub fn view(&self, ctx: &mut ProcCtx, start: usize, len: usize) -> Result<View<T>> {
        let mut bytes = ReadView::default();
        if len == 0 {
            return Ok(View::new(bytes));
        }
        assert!(start + len <= self.len, "read past end of NvmVec");
        let byte_len = len as u64 * Self::elem_size();
        self.app_read_bytes.add(byte_len);
        let byte_start = start as u64 * Self::elem_size();
        let sp = self.mount.tracer().span(Layer::Nvm, "nvm.read", ctx.now());
        sp.arg("file", self.file.0).arg("bytes", byte_len);
        let mut steps = Steps::new(ctx, true);
        for s in self.pieces(byte_start, byte_len) {
            let abs = byte_start + s.pos as u64;
            bytes.append(steps.step(|t| self.mount.read_view(t, self.file, abs, s.take as u64))?);
        }
        sp.finish(steps.t);
        Ok(View::new(bytes))
    }

    /// Read `out.len()` elements starting at `start`: a [`Self::view`]
    /// copied out and dropped.
    pub fn read_slice(&self, ctx: &mut ProcCtx, start: usize, out: &mut [T]) -> Result<()> {
        self.view(ctx, start, out.len())?.copy_to(out);
        Ok(())
    }

    /// Strided read: `count` runs of `run_elems` elements, run `i`
    /// starting at element `start + i*stride_elems`, concatenated into
    /// `out` (which must hold `count * run_elems` elements). This is the
    /// access shape of a column-major traversal over row-major storage.
    pub fn read_strided(
        &self,
        ctx: &mut ProcCtx,
        start: usize,
        run_elems: usize,
        stride_elems: usize,
        count: usize,
        out: &mut [T],
    ) -> Result<()> {
        assert_eq!(out.len(), run_elems * count, "output size mismatch");
        if out.is_empty() {
            return Ok(());
        }
        let es = Self::elem_size();
        self.app_read_bytes.add(out.len() as u64 * es);
        let sp = self
            .mount
            .tracer()
            .span(Layer::Nvm, "nvm.read_strided", ctx.now());
        sp.arg("file", self.file.0)
            .arg("runs", count as u64)
            .arg("bytes", out.len() as u64 * es);
        let mut steps = Steps::new(ctx, true);
        steps.step(|t| {
            let t = self.mount.read_strided(
                t,
                self.file,
                start as u64 * es,
                run_elems as u64 * es,
                stride_elems as u64 * es,
                count as u64,
                bytes_of_mut(out),
            )?;
            Ok((t, ()))
        })?;
        sp.finish(steps.t);
        Ok(())
    }

    /// Write `data.len()` elements starting at `start`.
    pub fn write_slice(&self, ctx: &mut ProcCtx, start: usize, data: &[T]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        assert!(start + data.len() <= self.len, "write past end of NvmVec");
        self.app_write_bytes
            .add(data.len() as u64 * Self::elem_size());
        let bytes = bytes_of(data);
        let byte_start = start as u64 * Self::elem_size();
        let sp = self.mount.tracer().span(Layer::Nvm, "nvm.write", ctx.now());
        sp.arg("file", self.file.0).arg("bytes", bytes.len() as u64);
        let mut steps = Steps::new(ctx, true);
        for s in self.pieces(byte_start, bytes.len() as u64) {
            let abs = byte_start + s.pos as u64;
            let piece = &bytes[s.pos..s.pos + s.take];
            steps.step(|t| Ok((self.mount.write(t, self.file, abs, piece)?, ())))?;
        }
        sp.finish(steps.t);
        Ok(())
    }

    /// Push all dirty cached pages of this variable to the store (used by
    /// checkpointing and before hand-off to other nodes), one engine yield
    /// per step of the mount's flush plan: a chunk at a time on the paper
    /// path so concurrent flushers interleave correctly, the whole file
    /// as one batched write when pipelined.
    pub fn flush(&self, ctx: &mut ProcCtx) -> Result<()> {
        let sp = self.mount.tracer().span(Layer::Nvm, "nvm.flush", ctx.now());
        sp.arg("file", self.file.0);
        let mut steps = Steps::new(ctx, true);
        for step in self.mount.flush_steps(self.file) {
            steps.step(|t| {
                let t = match step {
                    Some(idx) => self.mount.flush_chunk(t, self.file, idx)?,
                    None => self.mount.flush_file(t, self.file)?,
                };
                Ok((t, ()))
            })?;
        }
        sp.finish(steps.t);
        Ok(())
    }
}

/// Elements of a variable read in place (`NvmVec::view`): a snapshot of
/// the cache's own 4 KiB leaves, cast to `T` where they sit. The leaves
/// are 8-aligned, so a type of alignment at most 8 whose size divides
/// the page is served in place; any other `Pod` type (`u128`, a 12-byte
/// record) gets one staged copy of the whole view. Which of the two is
/// decided when the pieces are first asked for, so a view that is only
/// copied out (`read_slice`, `get`) decides nothing.
pub struct View<T: Pod> {
    bytes: ReadView,
    /// `None`: served in place; `Some`: the staged copy.
    staged: OnceCell<Option<Vec<T>>>,
}

impl<T: Pod> View<T> {
    fn new(bytes: ReadView) -> Self {
        View {
            bytes,
            staged: OnceCell::new(),
        }
    }

    /// Number of `T` elements.
    pub fn len(&self) -> usize {
        self.bytes.len() / std::mem::size_of::<T>()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The elements in order, one piece per leaf they sit in (or one
    /// piece, the staged copy).
    pub fn pieces(&self) -> Pieces<'_, T> {
        let staged = self.staged.get_or_init(|| {
            let fits = std::mem::align_of::<T>() <= 8
                && PAGE_BYTES.is_multiple_of(std::mem::size_of::<T>() as u64);
            if fits && self.bytes.pieces().all(|p| cast_slice::<T>(p).is_some()) {
                return None;
            }
            let mut out = vec![T::zeroed(); self.len()];
            self.copy_to(&mut out);
            Some(out)
        });
        match staged {
            None => Pieces {
                leaves: self.bytes.pieces(),
                staged: None,
            },
            Some(staged) => Pieces {
                leaves: fusemm::Pieces::default(),
                staged: Some(staged),
            },
        }
    }

    /// Copy the elements into `out`, which must be [`Self::len`] long.
    pub fn copy_to(&self, out: &mut [T]) {
        self.bytes.copy_to(bytes_of_mut(out));
    }
}

/// The pieces of a [`View`] ([`View::pieces`]); the default is the
/// pieces of an empty view.
pub struct Pieces<'a, T> {
    leaves: fusemm::Pieces<'a>,
    staged: Option<&'a [T]>,
}

impl<T> Default for Pieces<'_, T> {
    fn default() -> Self {
        Pieces {
            leaves: fusemm::Pieces::default(),
            staged: None,
        }
    }
}

impl<'a, T: Pod> Iterator for Pieces<'a, T> {
    type Item = &'a [T];

    fn next(&mut self) -> Option<&'a [T]> {
        match self.leaves.next() {
            Some(leaf) => Some(cast_slice(leaf).expect("checked before the first piece")),
            None => self.staged.take(),
        }
    }
}

/// Type-erased view used by `ssdcheckpoint` to flush + link any variable.
pub trait NvmVariable {
    fn file_id(&self) -> FileId;
    fn byte_len(&self) -> u64;
    fn var_name(&self) -> &str;
    /// Untimed-time variant of flush for the checkpoint path.
    fn flush_at(&self, t: VTime) -> Result<VTime>;
}

impl<T: Pod> NvmVariable for NvmVec<T> {
    fn file_id(&self) -> FileId {
        self.file
    }
    fn byte_len(&self) -> u64 {
        NvmVec::byte_len(self)
    }
    fn var_name(&self) -> &str {
        &self.name
    }
    fn flush_at(&self, t: VTime) -> Result<VTime> {
        self.mount.flush_file(t, self.file)
    }
}
