//! Assembling a simulated cluster: nodes with DRAM budgets, the
//! interconnect, the PFS, and the aggregate NVM store with benefactors
//! placed on chosen nodes.

use crate::spec::ClusterSpec;
use chunkstore::{AggregateStore, Benefactor, StoreConfig};
use devices::{Dram, Pfs, Ssd};
use fusemm::{FuseConfig, Mount, MountGauges};
use netsim::Network;
use obs::{MetricsSampler, TraceRecorder, DEV_LANE_BASE, SHARD_LANE_BASE};
use simcore::{StatsRegistry, VTime};

/// Virtual-time cadence of the metrics sampler. 50 ms of
/// virtual time keeps even second-scale runs under a few dozen points
/// per series — cheap to store, dense enough to see phase structure.
const SAMPLER_INTERVAL: VTime = VTime::from_millis(50);

/// A built cluster, ready to run jobs.
pub struct Cluster {
    pub spec: ClusterSpec,
    pub stats: StatsRegistry,
    /// Cluster-wide trace recorder: disabled unless the cluster was built
    /// via [`Cluster::with_obs_causal`], in which case every layer (mounts,
    /// store, network, SSDs) records virtual-time spans into it.
    pub trace: TraceRecorder,
    /// Virtual-time gauge sampler: disabled unless the cluster was built
    /// via [`Cluster::with_obs_causal`]. Polled from the store's fault
    /// hook (i.e. from mount-driven data-path entries), so series points
    /// land on fixed virtual-time boundaries regardless of host timing.
    pub sampler: MetricsSampler,
    pub net: Network,
    pub pfs: Pfs,
    pub store: AggregateStore,
    /// Nodes that run a benefactor process.
    pub benefactor_nodes: Vec<usize>,
    drams: Vec<Dram>,
    mounts: Vec<Mount>,
}

impl Cluster {
    /// Build a cluster per `spec`, contributing the node-local SSD of each
    /// node in `benefactor_nodes` to the aggregate store.
    pub fn new(spec: ClusterSpec, benefactor_nodes: &[usize]) -> Self {
        Self::with_fuse(spec, benefactor_nodes, FuseConfig::default())
    }

    /// Same, with a custom FUSE-layer configuration (cache sweeps etc.).
    pub fn with_fuse(spec: ClusterSpec, benefactor_nodes: &[usize], fuse: FuseConfig) -> Self {
        Self::with_configs(spec, benefactor_nodes, fuse, StoreConfig::default())
    }

    /// Fully custom build (chunk-size ablations etc.).
    pub fn with_configs(
        spec: ClusterSpec,
        benefactor_nodes: &[usize],
        fuse: FuseConfig,
        store_cfg: StoreConfig,
    ) -> Self {
        Self::build(spec, benefactor_nodes, fuse, store_cfg, false)
    }

    /// Fully custom build with tracing on: every layer records
    /// virtual-time spans into [`Cluster::trace`] and `run_job` binds each
    /// rank to its own trace lane; shard-manager CPU occupancy and
    /// benefactor SSD service record as *detached* spans on their own
    /// lanes, linked back to the client span that caused them (flow
    /// arrows in the Chrome export, dependency edges for the
    /// critical-path analyzer); and the virtual-time [`MetricsSampler`]
    /// records gauge series at a fixed 50 ms virtual cadence.
    /// Timing-neutral: makespans are bit-identical to `Cluster::new`
    /// builds — instrumentation only observes the computed times.
    pub fn with_obs_causal(
        spec: ClusterSpec,
        benefactor_nodes: &[usize],
        fuse: FuseConfig,
        store_cfg: StoreConfig,
    ) -> Self {
        Self::build(spec, benefactor_nodes, fuse, store_cfg, true)
    }

    fn build(
        spec: ClusterSpec,
        benefactor_nodes: &[usize],
        fuse: FuseConfig,
        store_cfg: StoreConfig,
        traced: bool,
    ) -> Self {
        let stats = StatsRegistry::new();
        // The recorder must exist before any layer is constructed: clones
        // (the store's network handle, each mount's store handle) share
        // whatever recorder their original carried at clone time.
        let (trace, sampler) = if traced {
            (
                TraceRecorder::enabled(&stats),
                MetricsSampler::enabled(SAMPLER_INTERVAL),
            )
        } else {
            (TraceRecorder::disabled(), MetricsSampler::disabled())
        };
        let net = Network::new(spec.nodes, &stats).with_tracer(trace.clone());
        let pfs = Pfs::new(spec.pfs, &stats);
        let store = AggregateStore::new(store_cfg, net.clone(), &stats)
            .with_tracer(trace.clone())
            .with_sampler(sampler.clone());
        for &node in benefactor_nodes {
            assert!(node < spec.nodes, "benefactor node out of range");
            let mut ssd = Ssd::new(&format!("n{node}.ssd"), spec.ssd_profile, &stats)
                .with_tracer(trace.clone());
            if traced {
                let lane = DEV_LANE_BASE + node as u32;
                ssd = ssd.with_causal_lane(lane);
                trace.label_lane(lane, format!("ssd/n{node}"));
            }
            store.add_benefactor(Benefactor::new(
                node,
                ssd,
                spec.ssd_capacity_per_node,
                store_cfg.chunk_size,
            ));
        }
        // Manager ranks live on benefactor ("fat") nodes, round-robin: the
        // paper's manager and shard 0 where the first benefactor lives, so
        // shards=1 reproduces the paper's transfers exactly; the paper's
        // manager on node 0 when the store has no benefactors. The ring
        // seed is fixed — ownership must replay bit-identically.
        let mgr_nodes: Vec<usize> = match benefactor_nodes {
            [] => vec![0],
            nodes => (0..store_cfg.manager_shards.max(1))
                .map(|k| nodes[k % nodes.len()])
                .collect(),
        };
        store.install_shards(&mgr_nodes, chunkstore::DEFAULT_RING_SEED);
        // Sharded placement manager (DESIGN.md §12).
        if store_cfg.manager_shards > 0 {
            // Manager HA (DESIGN.md §16): each shard's standby rank lives
            // on the *next* benefactor node, so a takeover always moves
            // the shard off the crashed host.
            if store_cfg.ha_standby {
                let standby_nodes: Vec<usize> = (0..store_cfg.manager_shards)
                    .map(|k| benefactor_nodes[(k + 1) % benefactor_nodes.len()])
                    .collect();
                store.set_standby_nodes(&standby_nodes);
            }
            if traced {
                for k in 0..store_cfg.manager_shards {
                    trace.label_lane(SHARD_LANE_BASE + k as u32, format!("shardmgr/{k}"));
                }
            }
        }
        let drams = (0..spec.nodes)
            .map(|n| {
                Dram::new(
                    &format!("n{n}.dram"),
                    spec.dram_profile,
                    spec.dram_per_node,
                    &stats,
                )
            })
            .collect();
        let mut mount_gauges: Vec<MountGauges> = Vec::new();
        let mounts = (0..spec.nodes)
            .map(|n| {
                let mut m = Mount::new(store.clone(), n, fuse, &stats).with_tracer(trace.clone());
                if sampler.is_enabled() {
                    let g = MountGauges::default();
                    m = m.with_gauges(g.clone());
                    mount_gauges.push(g);
                }
                m
            })
            .collect();
        if sampler.is_enabled() {
            // Mounts *push* into their gauge cells at the end of each
            // data-path op (the mount state is borrowed across store
            // calls, so a pull probe would find it taken); the cluster-wide
            // probes just fold the cells — max for the dirty ratio (the
            // node closest to its write-back wall), sum for pins.
            let cells = mount_gauges.clone();
            sampler.register(
                "fuse.dirty_permille",
                Box::new(move |_| cells.iter().map(|g| g.dirty_permille.get()).max()),
            );
            let cells = mount_gauges;
            sampler.register(
                "fuse.protected_chunks",
                Box::new(move |_| Some(cells.iter().map(|g| g.protected_chunks.get()).sum())),
            );
            // Transmit backlog at the manager's NIC, in µs of virtual
            // time already committed: the fan-in pressure signal.
            let net_probe = net.clone();
            let mgr_node = mgr_nodes[0];
            sampler.register(
                "net.mgr_tx_backlog_us",
                Box::new(move |now| {
                    Some(net_probe.nic_tx_backlog(mgr_node, now).as_nanos() / 1_000)
                }),
            );
        }
        Cluster {
            spec,
            stats,
            trace,
            sampler,
            net,
            pfs,
            store,
            benefactor_nodes: benefactor_nodes.to_vec(),
            drams,
            mounts,
        }
    }

    pub fn dram(&self, node: usize) -> &Dram {
        &self.drams[node]
    }

    pub fn mount(&self, node: usize) -> &Mount {
        &self.mounts[node]
    }

    /// Install a [`faults::FaultPlan`] on the aggregate store: benefactor
    /// and manager-rank crashes/recoveries and media corruption fire as
    /// the jobs' virtual clocks pass the scheduled times.
    pub fn attach_faults(&self, plan: faults::FaultPlan) {
        self.store.attach_faults(plan);
    }

    /// Sum of SSD wear across the store's benefactors.
    pub fn total_ssd_bytes_written(&self) -> u64 {
        self.store
            .wear_reports()
            .iter()
            .map(|(_, w)| w.bytes_written)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterSpec;

    #[test]
    fn hal_cluster_builds() {
        let c = Cluster::new(ClusterSpec::hal().scaled(64), &(0..16).collect::<Vec<_>>());
        assert_eq!(c.spec.nodes, 16);
        assert_eq!(c.benefactor_nodes.len(), 16);
        assert_eq!(c.store.manager().benefactor_count(), 16);
        let (total, free) = c.store.manager().space();
        assert_eq!(total, free);
        assert_eq!(total, 16 * c.spec.ssd_capacity_per_node);
    }

    #[test]
    fn storeless_cluster_for_dram_only_configs() {
        let c = Cluster::new(ClusterSpec::hal().scaled(64), &[]);
        assert_eq!(c.store.manager().benefactor_count(), 0);
        assert_eq!(c.dram(0).capacity(), c.spec.dram_per_node);
    }

    #[test]
    fn manager_shards_knob_installs_ranks_on_benefactor_nodes() {
        let cfg = StoreConfig {
            manager_shards: 4,
            ..StoreConfig::default()
        };
        let c = Cluster::with_configs(
            ClusterSpec::hal().scaled(64),
            &[0, 1],
            FuseConfig::default(),
            cfg,
        );
        assert_eq!(c.store.shards_installed(), 4);
        // Round-robin over the benefactor nodes; shard 0 shares the
        // serial manager's node.
        let nodes: Vec<_> = (0..4).map(|k| c.store.shard_node(k)).collect();
        assert_eq!(nodes, [Some(0), Some(1), Some(0), Some(1)]);
        // Defaults-off: a plain build installs nothing.
        let plain = Cluster::new(ClusterSpec::hal().scaled(64), &[0, 1]);
        assert_eq!(plain.store.shards_installed(), 0);
    }

    #[test]
    fn ha_standby_knob_wires_offset_standby_ranks() {
        let cfg = StoreConfig {
            manager_shards: 2,
            ha_standby: true,
            // The default 2 × 5 ms retry window cannot outlast the 25 ms
            // failover timeout.
            fetch_retries: 12,
            ..StoreConfig::default()
        };
        let c = Cluster::with_configs(
            ClusterSpec::hal().scaled(64),
            &[0, 1],
            FuseConfig::default(),
            cfg,
        );
        // Primaries round-robin 0,1; standbys are offset by one node so
        // a takeover always moves the shard off the crashed host.
        assert_eq!(c.store.shard_node(0), Some(0));
        c.store.attach_faults(
            faults::FaultPlanBuilder::new(3)
                .mgr_crash(simcore::VTime::from_millis(1), 0)
                .build(),
        );
        c.store.poll_faults(simcore::VTime::from_millis(1));
        assert!(c.store.manager_rank_down(0));
        // Probe past the failover window: standby (node 1) takes over.
        let (_, found) = c
            .store
            .open(simcore::VTime::from_millis(2), 2, "/nope")
            .unwrap();
        assert_eq!(found, None);
        assert_eq!(c.store.shard_node(0), Some(1));
    }

    #[test]
    fn remote_benefactor_placement() {
        // 8 compute + 8 storage nodes: the R-SSD(8:8:8) layout.
        let c = Cluster::new(ClusterSpec::hal().scaled(64), &(8..16).collect::<Vec<_>>());
        assert_eq!(c.benefactor_nodes, (8..16).collect::<Vec<_>>());
        assert_eq!(c.store.shard_node(0), Some(8));
    }
}
