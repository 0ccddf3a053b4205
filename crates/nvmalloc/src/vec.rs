//! `NvmVec<T>` — a typed, NVM-resident variable.
//!
//! The paper's `nvmvar = ssdmalloc(...)` hands back a memory-mapped
//! region; addresses inside it transparently become reads/writes against
//! the chunk store through the FUSE cache. This type is the safe-Rust
//! equivalent: element and slice accessors that route through the node's
//! [`fusemm::Mount`] while charging virtual time on the owning process's
//! clock.

use crate::pod::{bytes_of, bytes_of_mut, Pod};
use chunkstore::{segments, FileId, Result};
use fusemm::Mount;
use obs::Layer;
use simcore::{Counter, ProcCtx, VTime};
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

    /// Run `f(now, absolute offset, buffer position, length)` over the
    /// pieces of `[byte_start, byte_start+len)`, one engine yield each, and
    /// advance the clock to each piece's completion. The mount sets the
    /// granule. On the paper path it is one chunk: large slice accesses
    /// are split at chunk boundaries so concurrent processes' requests
    /// reach shared resources in virtual-time order (one huge atomic
    /// charge would reserve far-future device slots ahead of other ranks'
    /// earlier accesses). A pipelined mount (DESIGN.md §8) takes the whole
    /// span as one batched call — a single yield, one manager RPC for the
    /// misses, per-benefactor chains overlapped below.
    fn for_each_segment(
        &self,
        ctx: &mut ProcCtx,
        byte_start: u64,
        len: u64,
        mut f: impl FnMut(VTime, u64, usize, usize) -> Result<VTime>,
    ) -> Result<()> {
        for s in segments(byte_start, len, self.mount.span_granule()) {
            ctx.yield_until_min();
            let t = f(ctx.now(), byte_start + s.pos as u64, s.pos, s.take)?;
            ctx.advance_to(t);
        }
        Ok(())
    }

    /// Read `out.len()` elements starting at `start`.
    pub fn read_slice(&self, ctx: &mut ProcCtx, start: usize, out: &mut [T]) -> Result<()> {
        if out.is_empty() {
            return Ok(());
        }
        assert!(start + out.len() <= self.len, "read past end of NvmVec");
        self.app_read_bytes
            .add(out.len() as u64 * Self::elem_size());
        let bytes = bytes_of_mut(out);
        let byte_start = start as u64 * Self::elem_size();
        let sp = self.mount.tracer().span(Layer::Nvm, "nvm.read", ctx.now());
        sp.arg("file", self.file.0).arg("bytes", bytes.len() as u64);
        self.for_each_segment(ctx, byte_start, bytes.len() as u64, |t, abs, pos, take| {
            self.mount
                .read(t, self.file, abs, &mut bytes[pos..pos + take])
        })?;
        sp.finish(ctx.now());
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
        ctx.yield_until_min();
        let t = self.mount.read_strided(
            ctx.now(),
            self.file,
            start as u64 * es,
            run_elems as u64 * es,
            stride_elems as u64 * es,
            count as u64,
            bytes_of_mut(out),
        )?;
        ctx.advance_to(t);
        sp.finish(t);
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
        self.for_each_segment(ctx, byte_start, bytes.len() as u64, |t, abs, pos, take| {
            self.mount.write(t, self.file, abs, &bytes[pos..pos + take])
        })?;
        sp.finish(ctx.now());
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
        for step in self.mount.flush_steps(self.file) {
            ctx.yield_until_min();
            let t = match step {
                Some(idx) => self.mount.flush_chunk(ctx.now(), self.file, idx)?,
                None => self.mount.flush_file(ctx.now(), self.file)?,
            };
            ctx.advance_to(t);
        }
        sp.finish(ctx.now());
        Ok(())
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
