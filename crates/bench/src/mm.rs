//! The paper's matrix-multiply evaluation — Figs. 3–6 and Table IV — as
//! one run table (the `mm_paper` bench target prints and emits it).
//!
//! A row of the table ([`Run`]) is everything that decides a run's result: the
//! capacity scale, the job, the FUSE cache size and the MM problem. Each
//! figure names the rows it reads, and a run two figures share is one
//! row, simulated once ([`Plan::get`]): Table IV reads Fig. 5's two
//! L-SSD(8:16:16) rows.

use crate::{scaled_fuse, store_for, Finished, SCALE};
use cluster::{Cluster, ClusterSpec, JobConfig};
use fusemm::FuseConfig;
use std::cell::OnceCell;
use workloads::matmul::{run_mm, AccessOrder, BPlacement, MmConfig, MmInfeasible, MmReport};

/// Scaled side of the 2 GB matrices at [`SCALE`] (Figs. 3–5, Table IV).
pub const N: usize = 2048;

/// Fig. 6's capacity scale: deep enough that both its 2 GB reference and
/// its 8 GB problem fit the host (node DRAM scales to 32 MiB).
pub const FIG6_SCALE: u64 = 256;
/// Fig. 6's scaled sides: 8 MiB (2 GB) and 32 MiB (8 GB) matrices.
pub const FIG6_N_2GB: usize = 1024;
pub const FIG6_N_8GB: usize = 2048;

const MIB: u64 = 1024 * 1024;

/// One MM run, keyed by everything that decides its result.
#[derive(Clone, Debug)]
pub struct Run {
    pub scale: u64,
    pub job: JobConfig,
    pub cache_bytes: u64,
    pub mm: MmConfig,
}

/// A simulated row: the MM result (an infeasible placement is refused
/// before anything runs) and what the reports read of its cluster.
pub struct Done {
    pub mm: Result<MmReport, MmInfeasible>,
    pub cluster: Finished,
}

impl Done {
    /// The result of a row whose placement fits.
    pub fn report(&self) -> &MmReport {
        self.mm.as_ref().expect("feasible configuration")
    }
}

impl Run {
    fn simulate(&self) -> Done {
        let cluster = Cluster::with_configs(
            ClusterSpec::hal().scaled(self.scale),
            &self.job.benefactor_nodes(),
            FuseConfig {
                cache_bytes: self.cache_bytes,
                ..FuseConfig::default()
            },
            store_for(&self.job),
        );
        let mm = run_mm(&cluster, &self.job, &self.mm);
        Done {
            mm,
            cluster: Finished::of(&cluster),
        }
    }
}

/// The run table, each row simulated the first time a figure reads it,
/// and per figure the rows it reads in the order it reads them.
#[derive(Default)]
pub struct Plan {
    rows: Vec<Run>,
    done: Vec<OnceCell<Done>>,
    /// The eight configurations, row-major, B shared, the scaled cache.
    pub fig3: Vec<usize>,
    /// The DRAM baseline, then per configuration its individual and its
    /// shared run.
    pub fig4: Vec<usize>,
    /// Per configuration its row-major and its column-major run.
    pub fig5: Vec<usize>,
    /// Fig. 5's L-SSD(8:16:16) pair: row-major, column-major.
    pub table4: Vec<usize>,
    /// The infeasible DRAM-only 8 GB run, the 2 GB reference, then the
    /// four 8 GB configurations.
    pub fig6: Vec<usize>,
}

/// The eight configurations of Figs. 3 and 5, each with its B placement.
fn eight_configs() -> [(JobConfig, BPlacement); 8] {
    [
        (JobConfig::dram_only(2, 16), BPlacement::Dram),
        (JobConfig::local(2, 16, 16), BPlacement::NvmShared),
        (JobConfig::local(8, 16, 16), BPlacement::NvmShared),
        (JobConfig::local(8, 8, 8), BPlacement::NvmShared),
        (JobConfig::remote(8, 8, 8), BPlacement::NvmShared),
        (JobConfig::remote(8, 8, 4), BPlacement::NvmShared),
        (JobConfig::remote(8, 8, 2), BPlacement::NvmShared),
        (JobConfig::remote(8, 8, 1), BPlacement::NvmShared),
    ]
}

/// The 2 GB problem at [`N`] with B placed and walked as given.
fn mm_2gb(b_place: BPlacement, order: AccessOrder) -> MmConfig {
    MmConfig {
        order,
        b_place,
        ..MmConfig::paper_2gb(N)
    }
}

impl Plan {
    /// The paper's MM evaluation at its published scale.
    pub fn paper() -> Plan {
        use AccessOrder::{ColMajor, RowMajor};
        let mut plan = Plan::default();
        let row_major = eight_configs().map(|(job, b)| (job, mm_2gb(b, RowMajor)));
        plan.fig3 = plan.add(SCALE, scaled_fuse(SCALE).cache_bytes, row_major);

        // A per-stream cache floor (8 MiB per node, 4 chunks per
        // process): scaling the paper's 64 MiB cache by capacity would
        // leave the individual mode's 8 per-process streams under one
        // chunk each, a thrashing regime the unscaled cache (256 chunks)
        // never enters.
        let dram = (
            JobConfig::dram_only(2, 16),
            mm_2gb(BPlacement::Dram, RowMajor),
        );
        let nvm = [
            JobConfig::local(2, 16, 16),
            JobConfig::local(8, 16, 16),
            JobConfig::local(8, 8, 8),
            JobConfig::remote(8, 8, 8),
        ]
        .into_iter()
        .flat_map(|job| {
            [BPlacement::NvmIndividual, BPlacement::NvmShared]
                .map(|b| (job.clone(), mm_2gb(b, RowMajor)))
        });
        plan.fig4 = plan.add(SCALE, 8 * MIB, std::iter::once(dram).chain(nvm));

        // B (32 MiB) dwarfs the node cache (4 MiB), as 2 GiB dwarfed
        // 64 MiB on HAL, so column-major re-fetch traffic shows.
        let both_orders = eight_configs()
            .into_iter()
            .flat_map(|(job, b)| [RowMajor, ColMajor].map(|o| (job.clone(), mm_2gb(b, o))));
        plan.fig5 = plan.add(SCALE, 4 * MIB, both_orders);
        plan.table4 = (plan.fig5.iter().copied())
            .filter(|&i| plan.rows[i].job.label() == "L-SSD(8:16:16)")
            .collect();

        let infeasible = MmConfig {
            b_place: BPlacement::Dram,
            ..MmConfig::paper_8gb(FIG6_N_8GB)
        };
        let eight_gb = [
            JobConfig::local(8, 16, 16),
            JobConfig::local(8, 8, 8),
            JobConfig::remote(8, 8, 8),
            JobConfig::remote(8, 8, 4),
        ]
        .map(|job| (job, MmConfig::paper_8gb(FIG6_N_8GB)));
        let fig6 = [
            (JobConfig::dram_only(1, 16), infeasible),
            (JobConfig::local(8, 16, 16), MmConfig::paper_2gb(FIG6_N_2GB)),
        ];
        let cache = scaled_fuse(FIG6_SCALE).cache_bytes;
        plan.fig6 = plan.add(FIG6_SCALE, cache, fig6.into_iter().chain(eight_gb));
        plan
    }

    /// Append one figure's runs (one scale, one cache size) as rows.
    fn add(
        &mut self,
        scale: u64,
        cache_bytes: u64,
        runs: impl IntoIterator<Item = (JobConfig, MmConfig)>,
    ) -> Vec<usize> {
        let mut added = Vec::new();
        for (job, mm) in runs {
            added.push(self.rows.len());
            self.rows.push(Run {
                scale,
                job,
                cache_bytes,
                mm,
            });
            self.done.push(OnceCell::new());
        }
        added
    }

    /// Row `i` and its result, simulated the first time a figure reads
    /// it. Only what the reports read of a run is kept, not its cluster.
    pub fn get(&self, i: usize) -> (&Run, &Done) {
        let run = &self.rows[i];
        (run, self.done[i].get_or_init(|| run.simulate()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The run table holds each run once, every row feeds a figure, and
    /// Table IV's rows are Fig. 5's L-SSD(8:16:16) pair. Two rows are the
    /// same run when their keys print alike: every key type derives
    /// `Debug` over all its fields.
    #[test]
    fn each_run_is_one_row_and_every_row_is_read() {
        let plan = Plan::paper();
        let keys: Vec<String> = plan.rows.iter().map(|run| format!("{run:?}")).collect();
        for (i, key) in keys.iter().enumerate() {
            assert!(!keys[i + 1..].contains(key), "row {i} appears twice: {key}");
        }
        let figures = [&plan.fig3, &plan.fig4, &plan.fig5, &plan.table4, &plan.fig6];
        for (i, key) in keys.iter().enumerate() {
            let read = figures.iter().any(|rows| rows.contains(&i));
            assert!(read, "no figure reads row {i}: {key}");
        }
        let l_ssd_8_16_16: Vec<usize> = plan
            .fig5
            .iter()
            .copied()
            .filter(|&i| plan.rows[i].job.label() == "L-SSD(8:16:16)")
            .collect();
        assert_eq!(plan.table4, l_ssd_8_16_16);
        let orders: Vec<AccessOrder> = plan.table4.iter().map(|&i| plan.rows[i].mm.order).collect();
        assert_eq!(orders, [AccessOrder::RowMajor, AccessOrder::ColMajor]);
    }
}
