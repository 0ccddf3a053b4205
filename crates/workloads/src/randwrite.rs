//! The random-write synthetic (§IV-B-4, Table VII): byte-sized writes to
//! uniformly random addresses inside an NVM-resident region — the worst
//! case for the write path. With NVMalloc's dirty-page optimization,
//! evicting a dirty chunk ships only its 4 KiB dirty pages; without it,
//! every eviction ships the whole 256 KiB chunk.

use cluster::{run_job, Calibration, Cluster, JobConfig};
use rand::Rng;
use simcore::VTime;

/// Configuration of the synthetic.
#[derive(Clone, Copy, Debug)]
pub struct RandWriteConfig {
    /// Region size in bytes (the paper uses 2 GB).
    pub region_bytes: u64,
    /// Number of single-byte writes (the paper uses 128 K).
    pub writes: usize,
    pub seed: u64,
}

/// Measured volumes (the two columns of Table VII).
#[derive(Clone, Copy, Debug)]
pub struct RandWriteReport {
    pub optimized: bool,
    /// Page-granular bytes the OS page cache pushed to FUSE.
    pub data_to_fuse: u64,
    /// Bytes shipped from the FUSE layer to the SSD store.
    pub data_to_ssd: u64,
    pub time: VTime,
    pub verified: bool,
}

/// Run the synthetic on a single process. The cluster's FUSE layer must
/// already be configured with the desired `dirty_page_writeback` setting;
/// `optimized` only labels the report.
pub fn run_randwrite(
    cluster: &Cluster,
    cfg: &JobConfig,
    rw: &RandWriteConfig,
    optimized: bool,
) -> RandWriteReport {
    assert_eq!(cfg.ranks(), 1, "the synthetic is single-process");
    let before = cluster.stats.snapshot();
    let result = run_job(cluster, cfg, Calibration::default(), |ctx, env| {
        let v = env
            .client
            .ssdmalloc::<u8>(ctx, rw.region_bytes as usize)
            .expect("ssdmalloc");
        let mut rng = simcore::rng::stream_rng(rw.seed, 0);
        let t0 = ctx.now();
        let mut probes: Vec<(usize, u8)> = Vec::with_capacity(16);
        for i in 0..rw.writes {
            let addr = rng.gen_range(0..rw.region_bytes) as usize;
            let value = (i % 251) as u8;
            v.set(ctx, addr, value).expect("write");
            if i >= rw.writes - 16 {
                probes.push((addr, value));
            }
        }
        v.flush(ctx).expect("final flush");
        let elapsed = ctx.now() - t0;
        // The last writes to each probed address must be readable back —
        // in address order: the probe reads move counters, so a hashed
        // order would leak host randomness into every bench that prints them.
        let mut seen = std::collections::BTreeMap::new();
        for (addr, value) in probes {
            seen.insert(addr, value); // later writes win
        }
        let ok = seen
            .iter()
            .all(|(&addr, &val)| v.get(ctx, addr).expect("read") == val);
        env.client.ssdfree(ctx, v).expect("free");
        (elapsed, ok)
    });

    let after = cluster.stats.snapshot();
    let d = after.delta_since(&before);
    let (time, verified) = result.outputs[0];
    RandWriteReport {
        optimized,
        data_to_fuse: d.get("fuse.write_req_bytes"),
        data_to_ssd: d.get("store.bytes_from_clients"),
        time,
        verified,
    }
}
