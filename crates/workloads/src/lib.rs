//! # workloads — the paper's evaluation kernels
//!
//! Faithful implementations of every application §IV measures:
//!
//! * [`stream`] — the STREAM bandwidth kernels with per-array placement
//!   (Fig. 2, Table III) plus the raw-mmap baseline;
//! * [`matmul`] — MPI dense matrix multiply with loop tiling, shared vs
//!   individual mmap files, row vs column-major access, and the five
//!   timed stages (Figs. 3–6, Tables IV–V);
//! * [`qsort`] — parallel sample sort: hybrid DRAM+NVM single-pass vs the
//!   DRAM-only two-pass baseline through the PFS (Table VI);
//! * [`randwrite`] — the random byte-write synthetic behind the
//!   dirty-page write optimization numbers (Table VII).
//!
//! All kernels operate on real data (results are verified) while charging
//! virtual time for the full-scale problem via the calibration rules in
//! DESIGN.md.

pub mod matmul;
pub mod qsort;
pub mod randwrite;
pub mod stream;

pub use matmul::{
    run_mm, AccessOrder, BPlacement, ComputeTraffic, MmConfig, MmInfeasible, MmReport, MmStages,
};
pub use qsort::{run_sort_dram_two_pass, run_sort_hybrid, SortConfig, SortReport};
pub use randwrite::{run_randwrite, RandWriteConfig, RandWriteReport};
pub use stream::{
    run_stream, run_stream_raw_ssd, ArrayPlace, StreamConfig, StreamKernel, StreamReport,
};

/// An input a kernel reads in place: a borrowed DRAM slice, or a view of
/// an NVM variable's cached pages.
pub(crate) enum Input<'a> {
    Dram(&'a [f64]),
    Nvm(nvmalloc::View<f64>),
}

impl Input<'_> {
    /// The elements in order, cut wherever the input is cut.
    pub(crate) fn pieces(&self) -> impl Iterator<Item = &[f64]> + '_ {
        let (dram, nvm) = match self {
            Input::Dram(s) => (Some(*s), nvmalloc::Pieces::default()),
            Input::Nvm(v) => (None, v.pieces()),
        };
        dram.into_iter().chain(nvm)
    }
}

#[cfg(test)]
mod tests;
