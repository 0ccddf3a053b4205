//! Cluster specifications — the paper's **Table II** (the HAL cluster)
//! plus the scaling machinery that lets the reproduction run laptop-sized
//! problems while preserving every capacity *ratio* of the evaluation.

use devices::{DeviceProfile, PfsConfig, DDR3_1600, INTEL_X25E};
use simcore::time::bytes::gib;

/// Hardware description of a cluster.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    pub name: &'static str,
    /// Total nodes (compute and/or storage).
    pub nodes: usize,
    pub cores_per_node: usize,
    /// Core clock in Hz (Table II: 2.4 GHz).
    pub core_hz: f64,
    /// Installed DRAM per node.
    pub dram_per_node: u64,
    pub dram_profile: DeviceProfile,
    /// Node-local SSD model (every HAL node has an Intel X25-E).
    pub ssd_profile: DeviceProfile,
    /// SSD capacity contributed by each benefactor.
    pub ssd_capacity_per_node: u64,
    pub pfs: PfsConfig,
    /// Divisor applied by [`ClusterSpec::scaled`]; 1 = full size.
    pub scale_divisor: u64,
}

impl ClusterSpec {
    /// The HAL cluster, exactly as Table II describes it:
    /// 16 nodes × 8 cores at 2.4 GHz, 8 GB DRAM/node, Intel X25-E 32 GB
    /// SATA SSD, bonded dual Gigabit Ethernet (`netsim::LINK_BW` and
    /// `netsim::LATENCY`, the same for every cluster).
    pub fn hal() -> Self {
        ClusterSpec {
            name: "HAL",
            nodes: 16,
            cores_per_node: 8,
            core_hz: 2.4e9,
            dram_per_node: gib(8),
            dram_profile: DDR3_1600,
            ssd_profile: INTEL_X25E,
            ssd_capacity_per_node: gib(32),
            pfs: PfsConfig::default(),
            scale_divisor: 1,
        }
    }

    /// Scale every *capacity* down by `divisor`, keeping all bandwidths
    /// and latencies unchanged. A problem scaled by the same divisor sees
    /// exactly the paper's capacity pressure (e.g. a 2 GB matrix vs 8 GB
    /// nodes becomes a 32 MiB matrix vs 128 MiB nodes at divisor 64),
    /// while functional data stays small enough to run on a laptop.
    ///
    /// Compute/IO ratios are restored via
    /// [`crate::calib::Calibration::compute_multiplier`], which each
    /// experiment sets from its own size scaling (see DESIGN.md).
    pub fn scaled(mut self, divisor: u64) -> Self {
        assert!(divisor >= 1, "divisor must be at least 1");
        self.dram_per_node /= divisor;
        self.ssd_capacity_per_node /= divisor;
        self.scale_divisor *= divisor;
        self
    }

    /// Total core count (128 for HAL).
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Total installed DRAM (128 GB for HAL at scale 1).
    pub fn total_dram(&self) -> u64 {
        self.nodes as u64 * self.dram_per_node
    }

    /// A human-readable Table II reproduction.
    pub fn table2(&self) -> String {
        format!(
            "Testbed: {} cluster\n\
             Compute nodes (#)    {}\n\
             Cores per node (#)   {}\n\
             Processor (GHz)      {:.1}\n\
             Memory per node      {}\n\
             SATA SSD model       {}, {}\n\
             Network              Bonded Dual Gigabit Ethernet\n\
             (capacity scale      1/{})",
            self.name,
            self.nodes,
            self.cores_per_node,
            self.core_hz / 1e9,
            simcore::bytes::human(self.dram_per_node),
            self.ssd_profile.name,
            simcore::bytes::human(self.ssd_capacity_per_node),
            self.scale_divisor,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hal_matches_table2() {
        let hal = ClusterSpec::hal();
        assert_eq!(hal.nodes, 16);
        assert_eq!(hal.cores_per_node, 8);
        assert_eq!(hal.total_cores(), 128);
        assert_eq!(hal.dram_per_node, gib(8));
        assert_eq!(hal.total_dram(), gib(128));
        assert_eq!(hal.ssd_profile.name, "Intel X25-E");
        assert_eq!(hal.core_hz, 2.4e9);
    }

    #[test]
    fn scaling_divides_capacities_only() {
        let hal = ClusterSpec::hal().scaled(64);
        assert_eq!(hal.dram_per_node, gib(8) / 64);
        assert_eq!(hal.ssd_capacity_per_node, gib(32) / 64);
        assert_eq!(hal.scale_divisor, 64);
        // Bandwidths untouched.
        assert_eq!(hal.ssd_profile.read_bw.as_bytes_per_sec(), 250e6);
        // Scaling composes.
        let hal2 = hal.scaled(2);
        assert_eq!(hal2.scale_divisor, 128);
    }

    #[test]
    fn table2_renders() {
        let s = ClusterSpec::hal().table2();
        assert!(s.contains("16"));
        assert!(s.contains("Intel X25-E"));
        assert!(s.contains("2.4"));
    }
}
