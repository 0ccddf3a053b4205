//! Layer drives: short single-threaded loops that call one layer's
//! public functions directly, under the workload's own configs, and
//! report a host unit cost. Each cost includes the layers below the one
//! driven; README.md explains the rung-to-rung subtraction. Iteration
//! counts are fixed, so two commits time the same work.

use crate::workloads::Workload;
use chunkstore::journal::{Journal, Record};
use chunkstore::{ChunkId, PlacementPolicy, RsCode};
use cluster::Cluster;
use devices::Ssd;
use nvmalloc::{AllocOptions, NvmClient};
use obs::{Layer, TraceRecorder};
use simcore::{Engine, StatsRegistry, VTime};
use std::hint::black_box;
use std::time::Instant;

/// Host unit costs of one workload's configuration.
pub struct UnitCosts {
    pub nvm_us_per_op: f64,
    pub fuse_us_per_hit: f64,
    pub fuse_us_per_miss: f64,
    pub store_us_per_fetch: f64,
    pub store_us_per_chunk_write: f64,
    pub store_us_per_page_write: f64,
    pub crc_mib_s: f64,
    pub rs_encode_mib_s: f64,
    pub alloc_ns_per_chunk: f64,
    pub journal_ns_per_record: f64,
    pub net_ns_per_transfer: f64,
    pub dev_ns_per_io: f64,
    pub handoff_us: f64,
    pub obs_ns_per_span: f64,
}

const MIB: f64 = 1024.0 * 1024.0;
/// Chunks of the files the store and mount drives work on.
const FILE_CHUNKS: usize = 64;

/// Iterations of a store or mount drive: `plain`, or `coded` under RS
/// parity with verified reads, where one call costs up to a hundred times
/// as much (whole-chunk CRC passes, parity deltas). Either way the loop
/// runs 0.2 s or more at this commit, and none runs for minutes.
fn iterations(w: &Workload, plain: usize, coded: usize) -> usize {
    if w.job.parity.is_some() {
        coded
    } else {
        plain
    }
}

/// Seconds `body` takes.
fn timed(body: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    body();
    t0.elapsed().as_secs_f64()
}

pub fn run(w: &Workload) -> UnitCosts {
    let (store_us_per_fetch, store_us_per_chunk_write, store_us_per_page_write) = store_drives(w);
    let (fuse_us_per_hit, fuse_us_per_miss) = mount_drives(w);
    UnitCosts {
        nvm_us_per_op: nvm_drive(w),
        fuse_us_per_hit,
        fuse_us_per_miss,
        store_us_per_fetch,
        store_us_per_chunk_write,
        store_us_per_page_write,
        crc_mib_s: crc_drive(w),
        rs_encode_mib_s: rs_drive(w),
        alloc_ns_per_chunk: alloc_drive(w),
        journal_ns_per_record: journal_drive(),
        net_ns_per_transfer: net_drive(w),
        dev_ns_per_io: dev_drive(w),
        handoff_us: handoff_drive(w.job.ranks()),
        obs_ns_per_span: span_drive(),
    }
}

/// A materialised `FILE_CHUNKS`-chunk file on the workload's stripe.
fn filled_file(w: &Workload, cluster: &Cluster) -> (VTime, chunkstore::FileId) {
    let store = &cluster.store;
    let cs = store.config().chunk_size;
    let (t, file) = store
        .create_file(VTime::ZERO, 0, "/drive/file")
        .expect("create");
    let mut t = store
        .fallocate(
            t,
            0,
            file,
            FILE_CHUNKS as u64 * cs,
            w.stripe(),
            PlacementPolicy::RoundRobin,
        )
        .expect("fallocate");
    let data = vec![0xA5u8; cs as usize];
    for idx in 0..FILE_CHUNKS {
        t = store
            .write_pages(t, 0, file, idx, &[(0, &data)])
            .expect("fill");
    }
    (t, file)
}

/// `fetch_chunk`, a whole-chunk `write_pages` and a one-page
/// `write_pages`, in microseconds per call.
fn store_drives(w: &Workload) -> (f64, f64, f64) {
    let cluster = w.bare_cluster();
    let store = &cluster.store;
    let cs = store.config().chunk_size as usize;
    let page = store.config().page_size as usize;
    let (mut t, file) = filled_file(w, &cluster);
    let data = vec![0x5Au8; cs];

    let fetches = iterations(w, 16_384, 2048);
    let fetch = timed(|| {
        for i in 0..fetches {
            let (t2, payload) = store
                .fetch_chunk(t, 0, file, i % FILE_CHUNKS)
                .expect("fetch");
            t = t2;
            black_box(payload);
        }
    });
    let chunk_writes = iterations(w, 2048, 256);
    let chunk_write = timed(|| {
        for i in 0..chunk_writes {
            t = store
                .write_pages(t, 0, file, i % FILE_CHUNKS, &[(0, black_box(&data[..]))])
                .expect("chunk write");
        }
    });
    let page_writes = iterations(w, 65_536, 1024);
    let page_write = timed(|| {
        for i in 0..page_writes {
            let at = (i / FILE_CHUNKS % (cs / page) * page) as u64;
            t = store
                .write_pages(
                    t,
                    0,
                    file,
                    i % FILE_CHUNKS,
                    &[(at, black_box(&data[..page]))],
                )
                .expect("page write");
        }
    });
    (
        fetch * 1e6 / fetches as f64,
        chunk_write * 1e6 / chunk_writes as f64,
        page_write * 1e6 / page_writes as f64,
    )
}

/// `Mount::read` of a resident 4 KiB, and a streaming `Mount::read`
/// over a file several times the cache, in microseconds per hit and
/// per chunk brought in.
fn mount_drives(w: &Workload) -> (f64, f64) {
    let cluster = w.bare_cluster();
    let mount = cluster.mount(0);
    let cs = cluster.store.config().chunk_size;
    let chunks = (4 * w.fuse.cache_bytes / cs).max(FILE_CHUNKS as u64);
    let (t, file) = mount
        .create(
            VTime::ZERO,
            "/drive/mount",
            chunks * cs,
            w.stripe(),
            PlacementPolicy::RoundRobin,
        )
        .expect("create");
    let data = vec![0xC3u8; cs as usize];
    let mut t = t;
    for idx in 0..chunks {
        t = mount.write(t, file, idx * cs, &data).expect("fill");
    }
    t = mount.flush_all(t).expect("flush");

    let mut buf = vec![0u8; cs as usize];
    t = mount.read(t, file, 0, &mut buf[..4096]).expect("warm");
    const HITS: usize = 1_200_000;
    let hit = timed(|| {
        for _ in 0..HITS {
            t = mount.read(t, file, 0, &mut buf[..4096]).expect("hit");
            black_box(&buf);
        }
    });

    let streamed = iterations(w, 8192, 1024) as u64;
    let fetched = |c: &Cluster| c.stats.get("fuse.misses") + c.stats.get("fuse.readahead_fetches");
    let before = fetched(&cluster);
    let miss = timed(|| {
        for i in 0..streamed {
            t = mount
                .read(t, file, (i % chunks) * cs, &mut buf)
                .expect("stream");
            black_box(&buf);
        }
    });
    let brought_in = (fetched(&cluster) - before).max(1);
    (hit * 1e6 / HITS as f64, miss * 1e6 / brought_in as f64)
}

/// `NvmVec::get` on a resident chunk in a 1-rank engine.
fn nvm_drive(w: &Workload) -> f64 {
    let cluster = w.bare_cluster();
    let client = NvmClient::new(
        cluster.mount(0).clone(),
        0,
        AllocOptions {
            stripe: w.stripe(),
            ..AllocOptions::default()
        },
        &cluster.stats,
    );
    const OPS: usize = 1_000_000;
    let mut secs = 0.0;
    let out = &mut secs;
    Engine::run(vec![move |ctx: &mut simcore::ProcCtx| {
        let v = client.ssdmalloc::<u64>(ctx, 32 * 1024).expect("ssdmalloc");
        v.set(ctx, 0, 1).expect("set");
        *out = timed(|| {
            for i in 0..OPS {
                black_box(v.get(ctx, i % 512).expect("get"));
            }
        });
    }]);
    secs * 1e6 / OPS as f64
}

fn crc_drive(w: &Workload) -> f64 {
    let chunk = vec![0x3Cu8; w.store.chunk_size as usize];
    const CHUNKS: usize = 1536;
    let secs = timed(|| {
        for _ in 0..CHUNKS {
            black_box(chunkstore::crc64(black_box(&chunk)));
        }
    });
    CHUNKS as f64 * chunk.len() as f64 / MIB / secs
}

/// RS(4, 2) full encode, in MiB of data members per second.
fn rs_drive(w: &Workload) -> f64 {
    let cs = w.store.chunk_size as usize;
    let code = RsCode::new(4, 2);
    let members: Vec<Vec<u8>> = (0..4u8).map(|j| vec![0x11 * (j + 1); cs]).collect();
    let data: Vec<&[u8]> = members.iter().map(|m| &m[..]).collect();
    let mut parity = vec![0u8; cs];
    const GROUPS: usize = 256;
    let secs = timed(|| {
        for _ in 0..GROUPS {
            for p in 0..2 {
                code.encode_parity(p, black_box(&data), &mut parity);
                black_box(&parity);
            }
        }
    });
    GROUPS as f64 * 4.0 * cs as f64 / MIB / secs
}

/// create + `fallocate` + delete, in nanoseconds per chunk slot.
fn alloc_drive(w: &Workload) -> f64 {
    let cluster = w.bare_cluster();
    let store = &cluster.store;
    let size = FILE_CHUNKS as u64 * store.config().chunk_size;
    const FILES: usize = 131_072;
    let mut t = VTime::ZERO;
    let secs = timed(|| {
        for _ in 0..FILES {
            let (t2, file) = store.create_file(t, 0, "/drive/alloc").expect("create");
            let t3 = store
                .fallocate(t2, 0, file, size, w.stripe(), PlacementPolicy::RoundRobin)
                .expect("fallocate");
            t = store.delete(t3, 0, file).expect("delete");
        }
    });
    secs * 1e9 / (FILES * FILE_CHUNKS) as f64
}

fn journal_drive() -> f64 {
    let mut journal = Journal::new();
    const RECORDS: usize = 4_000_000;
    let secs = timed(|| {
        for i in 0..RECORDS {
            journal.append(&Record::Place {
                chunk: ChunkId(i as u64),
                benefactor: i % 8,
                slot: i,
            });
        }
    });
    black_box(journal.byte_len());
    secs * 1e9 / RECORDS as f64
}

fn net_drive(w: &Workload) -> f64 {
    let cluster = w.bare_cluster();
    let bytes = w.store.chunk_size;
    const TRANSFERS: usize = 3_000_000;
    let mut t = VTime::ZERO;
    let secs = timed(|| {
        for _ in 0..TRANSFERS {
            t = cluster.net.transfer_at(t, 0, 1, black_box(bytes)).arrived;
        }
    });
    black_box(t);
    secs * 1e9 / TRANSFERS as f64
}

fn dev_drive(w: &Workload) -> f64 {
    let ssd = Ssd::new("drive.ssd", w.spec.ssd_profile, &StatsRegistry::new());
    let bytes = w.store.chunk_size;
    const IOS: usize = 6_000_000;
    let mut t = VTime::ZERO;
    let secs = timed(|| {
        for _ in 0..IOS {
            t = ssd.read_at(t, black_box(bytes)).end;
        }
    });
    black_box(t);
    secs * 1e9 / IOS as f64
}

/// A yield storm at the workload's rank count: every rank advances one
/// nanosecond and yields, so every yield hands the baton on. One rank
/// has nobody to hand to; there the storm is engine start-ups, each one
/// dispatch.
fn handoff_drive(ranks: usize) -> f64 {
    // About 0.2 s of hand-offs at each rank count this benchmark uses.
    let (runs, yields_per_rank) = match ranks {
        1 => (12_288, 1),
        2..=7 => (1, 16_384),
        8..=63 => (1, 1_024),
        _ => (1, 32),
    };
    let mut handoffs = 0;
    let secs = timed(|| {
        for _ in 0..runs {
            let bodies: Vec<_> = (0..ranks)
                .map(|_| {
                    move |ctx: &mut simcore::ProcCtx| {
                        for _ in 0..yields_per_rank {
                            ctx.advance(VTime::from_nanos(1));
                            ctx.yield_until_min();
                        }
                    }
                })
                .collect();
            handoffs += Engine::run(bodies).context_switches;
        }
    });
    secs * 1e6 / handoffs as f64
}

fn span_drive() -> f64 {
    let rec = TraceRecorder::enabled(&StatsRegistry::new());
    const SPANS: u64 = 1_000_000;
    let secs = timed(|| {
        for i in 0..SPANS {
            let sp = rec.span(Layer::Fuse, "fuse.read", VTime::from_nanos(i));
            sp.arg("bytes", 4096);
            sp.finish(VTime::from_nanos(i + 1));
        }
    });
    secs * 1e9 / SPANS as f64
}
