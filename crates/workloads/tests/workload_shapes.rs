//! Additional workload-level tests: determinism, edge configurations, and
//! paper-shape invariants at test-friendly sizes.

use cluster::{Calibration, Cluster, ClusterSpec, JobConfig};
use fusemm::FuseConfig;
use workloads::matmul::{run_mm, AccessOrder, BPlacement, MmConfig};
use workloads::qsort::{run_sort_dram_two_pass, run_sort_hybrid, SortConfig};
use workloads::randwrite::{run_randwrite, RandWriteConfig};
use workloads::stream::{run_stream, ArrayPlace, StreamConfig, StreamKernel};

fn cluster_for(cfg: &JobConfig, scale: u64, cache: u64) -> Cluster {
    Cluster::with_fuse(
        ClusterSpec::hal().scaled(scale),
        &cfg.benefactor_nodes(),
        FuseConfig {
            cache_bytes: cache,
            ..FuseConfig::default()
        },
    )
}

#[test]
fn mm_is_deterministic() {
    let run = || {
        let cfg = JobConfig::local(2, 2, 2);
        let cluster = cluster_for(&cfg, 1024, 1024 * 1024);
        let r = run_mm(&cluster, &cfg, &MmConfig::paper_2gb(128)).unwrap();
        (
            r.stages.total(),
            r.traffic.ssd_req_bytes,
            r.traffic.fuse_req_bytes,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn mm_seed_changes_data_not_timing_shape() {
    let run = |seed| {
        let cfg = JobConfig::local(2, 2, 2);
        let cluster = cluster_for(&cfg, 1024, 1024 * 1024);
        let mm = MmConfig {
            seed,
            verify: true,
            ..MmConfig::paper_2gb(64)
        };
        run_mm(&cluster, &cfg, &mm).unwrap()
    };
    let a = run(1);
    let b = run(2);
    assert_eq!(a.verified, Some(true));
    assert_eq!(b.verified, Some(true));
    // Same volumes regardless of data contents.
    assert_eq!(a.traffic.fuse_req_bytes, b.traffic.fuse_req_bytes);
}

#[test]
fn mm_single_rank_degenerate_case() {
    let cfg = JobConfig::local(1, 1, 1);
    let cluster = cluster_for(&cfg, 1024, 1024 * 1024);
    let mm = MmConfig {
        verify: true,
        ..MmConfig::paper_2gb(64)
    };
    let r = run_mm(&cluster, &cfg, &mm).unwrap();
    assert_eq!(r.verified, Some(true));
}

#[test]
fn mm_col_major_tile_sweep_improves() {
    let run = |tile| {
        let cfg = JobConfig::local(2, 1, 1);
        let cluster = cluster_for(&cfg, 1024, 512 * 1024);
        let mm = MmConfig {
            order: AccessOrder::ColMajor,
            tile,
            verify: true,
            ..MmConfig::paper_2gb(256)
        };
        run_mm(&cluster, &cfg, &mm).unwrap()
    };
    let small = run(4);
    let large = run(64);
    assert_eq!(small.verified, Some(true));
    assert_eq!(large.verified, Some(true));
    assert!(
        large.stages.computing < small.stages.computing,
        "bigger tiles must help col-major: {} vs {}",
        large.stages.computing,
        small.stages.computing
    );
}

#[test]
fn mm_individual_b_uses_more_store_space() {
    let cfg = JobConfig::local(2, 2, 2);
    let shared_cluster = cluster_for(&cfg, 1024, 1024 * 1024);
    let _ = run_mm(&shared_cluster, &cfg, &MmConfig::paper_2gb(64)).unwrap();

    let indiv_cluster = cluster_for(&cfg, 1024, 1024 * 1024);
    let mm = MmConfig {
        b_place: BPlacement::NvmIndividual,
        ..MmConfig::paper_2gb(64)
    };
    let _ = run_mm(&indiv_cluster, &cfg, &mm).unwrap();
    // Everything is freed afterwards in both modes.
    assert_eq!(shared_cluster.store.manager().physical_bytes(), 0);
    assert_eq!(indiv_cluster.store.manager().physical_bytes(), 0);
    // Shared mode stores one B file per *node* (2), individual one per
    // *rank* (4): twice the flash writes here.
    assert!(
        indiv_cluster.total_ssd_bytes_written() >= 2 * shared_cluster.total_ssd_bytes_written()
    );
}

#[test]
fn stream_copy_moves_fewer_bytes_than_triad() {
    assert_eq!(StreamKernel::Copy.bytes_per_elem(), 16);
    assert_eq!(StreamKernel::Triad.bytes_per_elem(), 24);
    assert_eq!(StreamKernel::Add.bytes_per_elem(), 24);
    assert_eq!(StreamKernel::Scale.bytes_per_elem(), 16);
}

#[test]
fn stream_placement_labels() {
    let c = StreamConfig::new(8);
    assert_eq!(c.placement_label(), "None");
    assert_eq!(
        c.place(ArrayPlace::Nvm, ArrayPlace::Dram, ArrayPlace::Nvm)
            .placement_label(),
        "A&C"
    );
    assert_eq!(
        c.place(ArrayPlace::Nvm, ArrayPlace::Nvm, ArrayPlace::Nvm)
            .placement_label(),
        "A&B&C"
    );
}

#[test]
fn stream_single_iteration_still_verifies() {
    let cfg = JobConfig::local(2, 1, 1);
    let cluster = cluster_for(&cfg, 1024, 2 * 1024 * 1024);
    let scfg = StreamConfig {
        iters: 1,
        ..StreamConfig::new(8192).place(ArrayPlace::Nvm, ArrayPlace::Dram, ArrayPlace::Dram)
    };
    let r = run_stream(
        &cluster,
        &cfg,
        Calibration::default(),
        &scfg,
        StreamKernel::Triad,
    );
    assert!(r.verified);
}

#[test]
fn sort_single_rank() {
    let cfg = JobConfig::local(1, 1, 1);
    let cluster = cluster_for(&cfg, 1024, 1024 * 1024);
    let r = run_sort_hybrid(&cluster, &cfg, &SortConfig::new(16 * 1024));
    assert!(r.verified);
}

#[test]
fn sort_all_dram_fraction() {
    // dram_part (1,1): the "hybrid" degenerates to an in-memory sort.
    let cfg = JobConfig::local(2, 2, 2);
    let cluster = cluster_for(&cfg, 1024, 1024 * 1024);
    let r = run_sort_hybrid(
        &cluster,
        &cfg,
        &SortConfig {
            dram_part: (1, 1),
            ..SortConfig::new(32 * 1024)
        },
    );
    assert!(r.verified);
}

#[test]
fn sort_mostly_nvm_fraction() {
    let cfg = JobConfig::local(2, 2, 2);
    let cluster = cluster_for(&cfg, 1024, 1024 * 1024);
    let r = run_sort_hybrid(
        &cluster,
        &cfg,
        &SortConfig {
            dram_part: (1, 8),
            ..SortConfig::new(64 * 1024)
        },
    );
    assert!(r.verified);
}

#[test]
fn sort_is_deterministic() {
    let run = || {
        let cfg = JobConfig::dram_only(2, 2);
        let cluster = Cluster::new(ClusterSpec::hal().scaled(1024), &[]);
        run_sort_dram_two_pass(&cluster, &cfg, &SortConfig::new(32 * 1024)).time
    };
    assert_eq!(run(), run());
}

#[test]
fn randwrite_volume_scales_with_writes() {
    let run = |writes| {
        let cfg = JobConfig::local(1, 1, 1);
        let cluster = cluster_for(&cfg, 1024, 1024 * 1024);
        run_randwrite(
            &cluster,
            &cfg,
            &RandWriteConfig {
                region_bytes: 8 << 20,
                writes,
                seed: 5,
            },
            true,
        )
    };
    let few = run(128);
    let many = run(1024);
    assert!(few.verified && many.verified);
    assert!(many.data_to_fuse > few.data_to_fuse);
    assert_eq!(many.data_to_fuse, 1024 * 4096, "one page per byte write");
}

/// The probe read-back after the timed section moves counters too (cache
/// hits, fetches, evictions), so it must not run in a hashed order: fresh
/// clusters given the same seed end with the same full counter snapshot.
#[test]
fn randwrite_counters_are_deterministic() {
    let run = || {
        let cfg = JobConfig::local(1, 1, 1);
        let cluster = cluster_for(&cfg, 1024, 1024 * 1024);
        let rw = RandWriteConfig {
            region_bytes: 8 << 20,
            writes: 256,
            seed: 5,
        };
        assert!(run_randwrite(&cluster, &cfg, &rw, true).verified);
        cluster.stats.snapshot().values
    };
    let first = run();
    for _ in 0..3 {
        assert_eq!(run(), first);
    }
}
