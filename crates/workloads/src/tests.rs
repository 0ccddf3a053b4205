//! Workload correctness tests (small problem sizes — these run in debug
//! builds; the bench harness runs the paper-scaled sizes in release).

use crate::matmul::{run_mm, AccessOrder, BPlacement, MmConfig};
use crate::qsort::{run_sort_dram_two_pass, run_sort_hybrid, SortConfig};
use crate::randwrite::{run_randwrite, RandWriteConfig};
use crate::stream::{
    run_stream, run_stream_raw_ssd, ArrayPlace, RawMmapConfig, StreamConfig, StreamKernel,
};
use cluster::{Calibration, Cluster, ClusterSpec, JobConfig};
use fusemm::FuseConfig;

fn cluster_for(cfg: &JobConfig, scale: u64) -> Cluster {
    Cluster::new(ClusterSpec::hal().scaled(scale), &cfg.benefactor_nodes())
}

fn small_fuse(scale: u64) -> FuseConfig {
    FuseConfig {
        cache_bytes: (64 * 1024 * 1024 / scale).max(512 * 1024),
        ..FuseConfig::default()
    }
}

// ---------- STREAM -----------------------------------------------------------

#[test]
fn stream_triad_dram_only() {
    let cfg = JobConfig::dram_only(4, 1);
    let cluster = cluster_for(&cfg, 256);
    let scfg =
        StreamConfig::new(64 * 1024).place(ArrayPlace::Dram, ArrayPlace::Dram, ArrayPlace::Dram);
    let r = run_stream(
        &cluster,
        &cfg,
        Calibration::default(),
        &scfg,
        StreamKernel::Triad,
    );
    assert!(r.verified);
    assert!(r.bandwidth_mb_s > 0.0);
}

#[test]
fn stream_triad_nvm_much_slower_than_dram() {
    let elems = 256 * 1024; // 2 MiB arrays
    let dram_cfg = JobConfig::dram_only(4, 1);
    let dram_cluster = cluster_for(&dram_cfg, 256);
    let scfg = StreamConfig::new(elems);
    let dram = run_stream(
        &dram_cluster,
        &dram_cfg,
        Calibration::default(),
        &scfg,
        StreamKernel::Triad,
    );

    let nvm_cfg = JobConfig::local(4, 1, 1);
    let nvm_cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(256),
        &nvm_cfg.benefactor_nodes(),
        small_fuse(256),
    );
    let all = StreamConfig::new(elems).place(ArrayPlace::Nvm, ArrayPlace::Nvm, ArrayPlace::Nvm);
    let nvm = run_stream(
        &nvm_cluster,
        &nvm_cfg,
        Calibration::default(),
        &all,
        StreamKernel::Triad,
    );

    assert!(dram.verified && nvm.verified);
    let slowdown = dram.bandwidth_mb_s / nvm.bandwidth_mb_s;
    assert!(
        slowdown > 10.0,
        "NVM placement should be an order of magnitude slower, got {slowdown:.1}x"
    );
}

#[test]
fn stream_remote_slower_than_local() {
    let elems = 128 * 1024;
    let scfg = StreamConfig::new(elems).place(ArrayPlace::Dram, ArrayPlace::Dram, ArrayPlace::Nvm);

    let local_cfg = JobConfig::local(4, 1, 1);
    let local_cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(256),
        &local_cfg.benefactor_nodes(),
        small_fuse(256),
    );
    let local = run_stream(
        &local_cluster,
        &local_cfg,
        Calibration::default(),
        &scfg,
        StreamKernel::Triad,
    );

    let remote_cfg = JobConfig::remote(4, 1, 1);
    let remote_cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(256),
        &remote_cfg.benefactor_nodes(),
        small_fuse(256),
    );
    let remote = run_stream(
        &remote_cluster,
        &remote_cfg,
        Calibration::default(),
        &scfg,
        StreamKernel::Triad,
    );

    assert!(local.verified && remote.verified);
    assert!(
        remote.time > local.time,
        "remote {} vs local {}",
        remote.time,
        local.time
    );
}

#[test]
fn stream_raw_ssd_slower_than_nvmalloc() {
    // Table III's claim: NVMalloc's chunk caching beats raw mmap for the
    // sequential STREAM access.
    let elems = 128 * 1024;
    let scfg = StreamConfig::new(elems).place(ArrayPlace::Dram, ArrayPlace::Dram, ArrayPlace::Nvm);
    let cfg = JobConfig::local(4, 1, 1);
    // Cache sized like the paper's relative to the thread count: room for
    // each thread's stream plus read-ahead.
    let cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(256),
        &cfg.benefactor_nodes(),
        FuseConfig {
            cache_bytes: 4 * 1024 * 1024,
            ..FuseConfig::default()
        },
    );
    let with_nvmalloc = run_stream(
        &cluster,
        &cfg,
        Calibration::default(),
        &scfg,
        StreamKernel::Triad,
    );

    let raw_cfg = JobConfig::dram_only(4, 1);
    let raw_cluster = cluster_for(&raw_cfg, 256);
    let raw = run_stream_raw_ssd(
        &raw_cluster,
        &raw_cfg,
        Calibration::default(),
        &scfg,
        StreamKernel::Triad,
        RawMmapConfig::default(),
    );
    assert!(with_nvmalloc.verified && raw.verified);
    assert!(
        with_nvmalloc.bandwidth_mb_s > raw.bandwidth_mb_s,
        "NVMalloc {:.1} MB/s vs raw {:.1} MB/s",
        with_nvmalloc.bandwidth_mb_s,
        raw.bandwidth_mb_s
    );
}

#[test]
fn stream_all_kernels_verify() {
    let cfg = JobConfig::local(2, 1, 1);
    let cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(256),
        &cfg.benefactor_nodes(),
        small_fuse(256),
    );
    for kernel in [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Add,
        StreamKernel::Triad,
    ] {
        let scfg = StreamConfig {
            iters: 2,
            ..StreamConfig::new(16 * 1024).place(
                ArrayPlace::Dram,
                ArrayPlace::Dram,
                ArrayPlace::Nvm,
            )
        };
        let r = run_stream(&cluster, &cfg, Calibration::default(), &scfg, kernel);
        assert!(r.verified, "{} failed verification", kernel.name());
    }
}

// ---------- Matrix multiplication ---------------------------------------------

fn mm_cfg(n: usize) -> MmConfig {
    MmConfig {
        verify: true,
        ..MmConfig::paper_2gb(n)
    }
}

#[test]
fn mm_dram_verifies() {
    let cfg = JobConfig::dram_only(2, 2);
    let cluster = cluster_for(&cfg, 1024);
    let mm = MmConfig {
        b_place: BPlacement::Dram,
        ..mm_cfg(64)
    };
    let r = run_mm(&cluster, &cfg, &mm).unwrap();
    assert_eq!(r.verified, Some(true));
    assert!(r.stages.computing > simcore::VTime::ZERO);
}

#[test]
fn mm_nvm_shared_verifies() {
    let cfg = JobConfig::local(2, 2, 2);
    let cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(1024),
        &cfg.benefactor_nodes(),
        small_fuse(1024),
    );
    let r = run_mm(&cluster, &cfg, &mm_cfg(64)).unwrap();
    assert_eq!(r.verified, Some(true));
    assert!(
        r.traffic.app_b_bytes > 0,
        "B accesses must route through NVM"
    );
}

#[test]
fn mm_nvm_individual_verifies_and_costs_more_store_traffic() {
    let scale = 1024;
    let cfg = JobConfig::local(2, 2, 2);
    let shared_cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(scale),
        &cfg.benefactor_nodes(),
        small_fuse(scale),
    );
    let shared = run_mm(&shared_cluster, &cfg, &mm_cfg(64)).unwrap();

    let indiv_cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(scale),
        &cfg.benefactor_nodes(),
        small_fuse(scale),
    );
    let mm = MmConfig {
        b_place: BPlacement::NvmIndividual,
        ..mm_cfg(64)
    };
    let indiv = run_mm(&indiv_cluster, &cfg, &mm).unwrap();

    assert_eq!(shared.verified, Some(true));
    assert_eq!(indiv.verified, Some(true));
    let shared_ssd = shared_cluster.total_ssd_bytes_written();
    let indiv_ssd = indiv_cluster.total_ssd_bytes_written();
    assert!(
        indiv_ssd > shared_ssd,
        "individual files must write more to SSD ({indiv_ssd} vs {shared_ssd})"
    );
    assert!(indiv.stages.total() >= shared.stages.total());
}

#[test]
fn mm_col_major_slower_than_row_major() {
    // B must span many chunks with a cache far smaller than B, so the
    // strip traversal's chunk re-fetches show: 8 chunks against a 2-chunk
    // cache. 64 KiB chunks get there at n=256 (512 KiB of B), an eighth of
    // the arithmetic n=512 over 256 KiB chunks costs a debug build; 32
    // strips of 8 columns still put col-major 4x behind in time and 64x
    // in store traffic.
    let scale = 1024;
    let cfg = JobConfig::local(2, 2, 2);
    let chunk_size = 64 * 1024;
    let mk = || {
        Cluster::with_configs(
            ClusterSpec::hal().scaled(scale),
            &cfg.benefactor_nodes(),
            FuseConfig {
                cache_bytes: 2 * chunk_size,
                ..FuseConfig::default()
            },
            chunkstore::StoreConfig {
                chunk_size,
                ..chunkstore::StoreConfig::default()
            },
        )
    };
    let row_mm = MmConfig {
        tile: 8,
        ..mm_cfg(256)
    };
    let row = run_mm(&mk(), &cfg, &row_mm).unwrap();
    let col_mm = MmConfig {
        order: AccessOrder::ColMajor,
        tile: 8,
        ..mm_cfg(256)
    };
    let col = run_mm(&mk(), &cfg, &col_mm).unwrap();
    assert_eq!(row.verified, Some(true));
    assert_eq!(col.verified, Some(true));
    assert!(
        col.stages.computing > row.stages.computing,
        "col-major {} must exceed row-major {}",
        col.stages.computing,
        row.stages.computing
    );
    assert!(
        col.traffic.ssd_req_bytes > row.traffic.ssd_req_bytes,
        "col-major must refetch chunks"
    );
}

#[test]
fn mm_infeasible_when_dram_too_small() {
    // 8 processes per node with B replicated in DRAM cannot fit.
    let cfg = JobConfig::dram_only(8, 2);
    let cluster = cluster_for(&cfg, 1024);
    let mm = MmConfig {
        b_place: BPlacement::Dram,
        ..mm_cfg(512)
    };
    let err = run_mm(&cluster, &cfg, &mm).unwrap_err();
    assert!(err.per_node_needed > err.per_node_available);
}

#[test]
fn mm_stage_times_are_complete() {
    let cfg = JobConfig::local(2, 2, 2);
    let cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(1024),
        &cfg.benefactor_nodes(),
        small_fuse(1024),
    );
    let r = run_mm(&cluster, &cfg, &mm_cfg(64)).unwrap();
    let s = r.stages;
    assert!(s.input_split_a > simcore::VTime::ZERO);
    assert!(s.input_b > simcore::VTime::ZERO);
    assert!(s.broadcast_b > simcore::VTime::ZERO);
    assert!(s.computing > simcore::VTime::ZERO);
    assert!(s.collect_output_c > simcore::VTime::ZERO);
    assert_eq!(
        s.total(),
        s.input_split_a + s.input_b + s.broadcast_b + s.computing + s.collect_output_c
    );
}

// ---------- Sorting ------------------------------------------------------------

#[test]
fn sort_hybrid_verifies() {
    let cfg = JobConfig::local(2, 2, 2);
    let cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(1024),
        &cfg.benefactor_nodes(),
        small_fuse(1024),
    );
    let scfg = SortConfig {
        window_elems: 8 * 1024,
        ..SortConfig::new(64 * 1024)
    };
    let r = run_sort_hybrid(&cluster, &cfg, &scfg);
    assert!(r.verified, "hybrid sort must produce a sorted permutation");
    assert_eq!(r.passes, 1);
}

#[test]
fn sort_two_pass_verifies() {
    let cfg = JobConfig::dram_only(2, 2);
    let cluster = cluster_for(&cfg, 1024);
    let scfg = SortConfig::new(64 * 1024);
    let r = run_sort_dram_two_pass(&cluster, &cfg, &scfg);
    assert!(
        r.verified,
        "two-pass sort must produce a sorted permutation"
    );
    assert_eq!(r.passes, 2);
}

#[test]
fn sort_hybrid_beats_two_pass() {
    let elems = 128 * 1024;
    let hybrid_cfg = JobConfig::local(2, 2, 2);
    let hybrid_cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(1024),
        &hybrid_cfg.benefactor_nodes(),
        small_fuse(1024),
    );
    let hybrid = run_sort_hybrid(&hybrid_cluster, &hybrid_cfg, &SortConfig::new(elems));

    let dram_cfg = JobConfig::dram_only(2, 2);
    let dram_cluster = cluster_for(&dram_cfg, 1024);
    let two_pass = run_sort_dram_two_pass(&dram_cluster, &dram_cfg, &SortConfig::new(elems));

    assert!(hybrid.verified && two_pass.verified);
    assert!(
        two_pass.time > hybrid.time,
        "two-pass {} must exceed hybrid {}",
        two_pass.time,
        hybrid.time
    );
}

// ---------- Random writes -------------------------------------------------------

#[test]
fn randwrite_optimization_cuts_ssd_volume() {
    let region = 4 * 1024 * 1024u64; // 16 chunks
    let writes = 512;
    let cfg = JobConfig::local(1, 1, 1);

    let opt_cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(1024),
        &cfg.benefactor_nodes(),
        FuseConfig {
            cache_bytes: 1024 * 1024, // 4 chunks: forces evictions
            ..FuseConfig::default()
        },
    );
    let rw = RandWriteConfig {
        region_bytes: region,
        writes,
        seed: 3,
    };
    let opt = run_randwrite(&opt_cluster, &cfg, &rw, true);

    let raw_cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(1024),
        &cfg.benefactor_nodes(),
        FuseConfig {
            cache_bytes: 1024 * 1024,
            dirty_page_writeback: false,
            ..FuseConfig::default()
        },
    );
    let unopt = run_randwrite(&raw_cluster, &cfg, &rw, false);

    assert!(opt.verified && unopt.verified);
    // To-FUSE volume is placement-independent; to-SSD volume collapses
    // with the optimization (Table VII's 19.3 GB → 504 MB effect).
    assert_eq!(opt.data_to_fuse, unopt.data_to_fuse);
    assert!(
        unopt.data_to_ssd > 10 * opt.data_to_ssd,
        "whole-chunk writeback {} must dwarf dirty-page writeback {}",
        unopt.data_to_ssd,
        opt.data_to_ssd
    );
    assert!(unopt.time > opt.time);
}
