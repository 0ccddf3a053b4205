//! Collective-timing and job-runner behaviour tests.

use cluster::{run_job, Calibration, Cluster, ClusterSpec, Comm, JobConfig, Payload};
use netsim::Network;
use simcore::{Engine, ProcCtx, StatsRegistry, VTime};
use std::rc::Rc;

fn run_ranks(nodes: Vec<usize>, body: impl Fn(&mut ProcCtx, usize, Comm)) {
    let stats = StatsRegistry::new();
    let n_nodes = nodes.iter().max().unwrap() + 1;
    let net = Network::new(n_nodes, &stats);
    let comm = Comm::new(net, nodes.clone(), Calibration::default());
    let body = &body;
    Engine::run(
        (0..nodes.len())
            .map(|r| {
                let comm = comm.clone();
                move |ctx: &mut ProcCtx| body(ctx, r, comm)
            })
            .collect(),
    );
}

#[test]
fn payload_sizes() {
    assert_eq!(vec![0u64; 4].nbytes(), 32);
    assert_eq!(vec![0u8; 7].nbytes(), 7);
    assert_eq!(().nbytes(), 0);
    assert_eq!(7u64.nbytes(), 8);
    assert_eq!("abc".to_string().nbytes(), 3);
    assert_eq!(Rc::new(vec![0f64; 3]).nbytes(), 24);
}

#[test]
fn scatter_with_uneven_parts_charges_by_size() {
    run_ranks(vec![0, 1, 2], |ctx, rank, comm| {
        let parts = (rank == 0).then(|| {
            vec![
                vec![0u8; 10],
                vec![1u8; 25_000_000],  // 0.1 s on the wire
                vec![2u8; 250_000_000], // 1 s on the wire
            ]
        });
        let t0 = ctx.now();
        let mine = comm.scatter(ctx, rank, 0, parts);
        let elapsed = ctx.now() - t0;
        match rank {
            0 => assert_eq!(mine[0], 0),
            1 => {
                assert_eq!(mine.len(), 25_000_000);
                assert!(elapsed >= VTime::from_millis(100));
                assert!(elapsed < VTime::from_millis(300));
            }
            2 => {
                assert_eq!(mine.len(), 250_000_000);
                assert!(elapsed >= VTime::from_secs(1));
            }
            _ => unreachable!(),
        }
    });
}

#[test]
fn gather_root_waits_for_slowest_sender() {
    run_ranks(vec![0, 1, 2], |ctx, rank, comm| {
        let part = vec![rank as u8; if rank == 2 { 250_000_000 } else { 8 }];
        let got = comm.gather(ctx, rank, 0, part);
        if rank == 0 {
            assert!(ctx.now() >= VTime::from_secs(1), "root at {}", ctx.now());
            assert_eq!(got.unwrap().len(), 3);
        }
    });
}

#[test]
fn all_to_all_charges_pairwise() {
    run_ranks(vec![0, 1], |ctx, rank, comm| {
        // Each rank sends 250 MB to the other: full duplex → ~1 s total.
        let parts = vec![vec![0u8; 8], vec![rank as u8; 250_000_000]];
        let parts = if rank == 0 {
            parts
        } else {
            vec![vec![rank as u8; 250_000_000], vec![0u8; 8]]
        };
        let t0 = ctx.now();
        let got = comm.all_to_all(ctx, rank, parts);
        let elapsed = ctx.now() - t0;
        assert_eq!(got[1 - rank].len(), 250_000_000);
        assert!(elapsed >= VTime::from_secs(1));
        assert!(elapsed < VTime::from_millis(1200), "full duplex: {elapsed}");
    });
}

#[test]
fn single_rank_collectives_are_trivial() {
    run_ranks(vec![0], |ctx, rank, comm| {
        comm.barrier(ctx, rank);
        let b = comm.bcast(ctx, rank, 0, Some(vec![1u8, 2]));
        assert_eq!(b, vec![1, 2]);
        let s = comm.scatter(ctx, rank, 0, Some(vec![vec![9u8]]));
        assert_eq!(s, vec![9]);
        let g = comm.gather(ctx, rank, 0, vec![3u8]).unwrap();
        assert_eq!(g, vec![vec![3]]);
        let a = comm.all_to_all(ctx, rank, vec![vec![5u8]]);
        assert_eq!(a, vec![vec![5]]);
    });
}

#[test]
fn bcast_of_an_rc_shares_the_roots_allocation_and_charges_its_contents() {
    // Three ranks on two nodes: one wire copy of B's 8 MB, one memcpy.
    let b = Rc::new(vec![0.5f64; 1_000_000]);
    let stats = StatsRegistry::new();
    let net = Network::new(2, &stats);
    let comm = Comm::new(net, vec![0, 1, 1], Calibration::default());
    let got = std::cell::RefCell::new(Vec::new());
    Engine::run(
        (0..3)
            .map(|r| {
                let (comm, b, got) = (comm.clone(), &b, &got);
                move |ctx: &mut ProcCtx| {
                    let mine = comm.bcast(ctx, r, 0, (r == 0).then(|| Rc::clone(b)));
                    got.borrow_mut().push(mine);
                }
            })
            .collect(),
    );
    let got = got.into_inner();
    assert_eq!(got.len(), 3);
    assert!(got.iter().all(|mine| Rc::ptr_eq(mine, &b)));
    assert_eq!(stats.get("net.bytes"), 8_000_000);
    assert_eq!(stats.get("net.messages"), 1);
}

#[test]
fn bcast_intra_node_copies_are_cheaper_than_wire() {
    // 4 ranks on ONE node vs 4 ranks on 4 nodes.
    let time_for = |nodes: Vec<usize>| {
        let stats = StatsRegistry::new();
        let n_nodes = nodes.iter().max().unwrap() + 1;
        let net = Network::new(n_nodes, &stats);
        let comm = Comm::new(net, nodes.clone(), Calibration::default());
        let report = Engine::run(
            (0..nodes.len())
                .map(|r| {
                    let comm = comm.clone();
                    move |ctx: &mut ProcCtx| {
                        let data = (r == 0).then(|| vec![0u8; 50_000_000]);
                        comm.bcast(ctx, r, 0, data);
                    }
                })
                .collect(),
        );
        report.makespan
    };
    let same_node = time_for(vec![0, 0, 0, 0]);
    let spread = time_for(vec![0, 1, 2, 3]);
    assert!(
        same_node < spread,
        "memcpy delivery {same_node} must beat the wire {spread}"
    );
}

#[test]
fn job_outputs_are_rank_ordered() {
    let cfg = JobConfig::local(2, 2, 2);
    let cluster = Cluster::new(ClusterSpec::hal().scaled(512), &cfg.benefactor_nodes());
    let result = run_job(&cluster, &cfg, Calibration::default(), |_, env| env.rank);
    assert_eq!(result.outputs, vec![0, 1, 2, 3]);
}

#[test]
fn pfs_io_charges_server_and_nic() {
    let cfg = JobConfig::dram_only(1, 2);
    let cluster = Cluster::new(ClusterSpec::hal().scaled(512), &[]);
    let result = run_job(&cluster, &cfg, Calibration::default(), |ctx, env| {
        let t0 = ctx.now();
        if env.rank == 0 {
            env.pfs_read(ctx, 300_000_000); // 1 s at 300 MB/s
        } else {
            env.pfs_write(ctx, 300_000_000);
        }
        ctx.now() - t0
    });
    // The PFS server is shared: 2 × 300 MB at 300 MB/s ≈ 2 s for one rank.
    let max = result.outputs.iter().max().unwrap();
    assert!(*max >= VTime::from_secs(2), "shared server: {max}");
    assert_eq!(cluster.pfs.bytes_read(), 300_000_000);
    assert_eq!(cluster.pfs.bytes_written(), 300_000_000);
}

#[test]
fn compute_respects_multiplier() {
    let cfg = JobConfig::dram_only(1, 1);
    let cluster = Cluster::new(ClusterSpec::hal().scaled(512), &[]);
    let calib = Calibration::default().with_multiplier(4.0);
    let result = run_job(&cluster, &cfg, calib, |ctx, env| {
        env.compute(ctx, 0.6e9); // 1 s at base rate → 4 s with multiplier
        ctx.now()
    });
    assert_eq!(result.outputs[0], VTime::from_secs(4));
}
