//! Host-side performance of the simulation substrate itself (not
//! virtual-time results): `BENCH_micro.json` is all `host` block, and
//! scripts/check.sh gates fourteen of its rates against committed floors.

use chunkstore::{AggregateStore, Benefactor, PlacementPolicy, StoreConfig, StripeSpec};
use devices::{Ssd, INTEL_X25E};
use fusemm::{FuseConfig, Mount};
use netsim::Network;
use nvmalloc::{AllocOptions, NvmClient, NvmVec};
use simcore::{Engine, ProcCtx, Rendezvous, StatsRegistry, VTime};
use std::time::Instant;

/// `procs` processes running `rounds` rounds of `yields` phased yields and
/// then, with `barrier`, one rendezvous: the engine's baton and nothing else.
fn engine_storm(procs: usize, rounds: usize, yields: u64, barrier: bool) -> simcore::EngineReport {
    let rv = Rendezvous::new(procs);
    Engine::run(
        (0..procs)
            .map(|i| {
                let rv = rv.clone();
                move |ctx: &mut ProcCtx| {
                    for _ in 0..rounds {
                        for k in 0..yields {
                            ctx.advance(VTime::from_nanos(10 + (i as u64 + k) % 7));
                            ctx.yield_until_min();
                        }
                        if barrier {
                            ctx.advance(VTime::from_nanos(7 * (i as u64 + 1)));
                            rv.barrier(ctx, i, VTime::ZERO);
                        }
                    }
                }
            })
            .collect(),
    )
}

/// A mount over `store` whose cache holds four chunks and reads nothing
/// ahead: over a file 16x that size, every access below is a miss.
fn thrashing_mount(store: &AggregateStore, stats: &StatsRegistry) -> Mount {
    let cfg = FuseConfig {
        cache_bytes: 4 * 256 * 1024,
        read_ahead_chunks: 0,
        ..FuseConfig::default()
    };
    Mount::new(store.clone(), 0, cfg, stats)
}

/// The two small-write shapes of the mount that the frozen benchmark's
/// layer drives never reach (they only *read* misses): sets per host
/// second of (a) an 8-byte write to a just-fetched chunk of the
/// materialised `file`, 16x a 4-chunk cache, so every set is a miss, a
/// copy-on-write of what it dirties and a one-page eviction write-back —
/// `rand_page_rw`'s loop; (b) an 8-byte write to a never-written chunk
/// plus `flush_file` — `meta_fan_in`'s burst.
fn mount_sets(
    store: &AggregateStore,
    stats: &StatsRegistry,
    file: chunkstore::FileId,
) -> (u64, u64) {
    const CHUNK: u64 = 256 * 1024;
    const COW_SETS: u64 = 8192;
    const FRESH_SETS: u64 = 1024;
    let mount = thrashing_mount(store, stats);
    let chunks = store.chunk_count(file).unwrap() as u64;
    let mut t = VTime::from_secs(3600);

    let started = Instant::now();
    for i in 0..COW_SETS {
        // 7 is coprime to the chunk count: no set finds its chunk cached.
        let at = (i * 7 % chunks) * CHUNK + (i % 64) * 4096 + 8;
        t = mount.write(t, file, at, &i.to_le_bytes()).unwrap();
    }
    let cow_s = started.elapsed().as_secs_f64();
    t = mount.flush_all(t).unwrap();

    let (t1, fresh) = mount
        .create(
            t,
            "/host-speed-fresh",
            FRESH_SETS * CHUNK,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
    t = t1;
    let started = Instant::now();
    for i in 0..FRESH_SETS {
        t = mount
            .write(t, fresh, i * CHUNK + 8, &i.to_le_bytes())
            .unwrap();
        t = mount.flush_file(t, fresh).unwrap();
    }
    let fresh_s = started.elapsed().as_secs_f64();
    let rate = |sets: u64, secs: f64| (sets as f64 / secs.max(1e-9)) as u64;
    (rate(COW_SETS, cow_s), rate(FRESH_SETS, fresh_s))
}

/// The two shapes a memoised page sum serves, on an RS(4, 2) file under
/// `verify_reads` (`ckpt_resilient`'s configuration): per host second,
/// (a) verified fetches of unchanged chunks through a mount whose cache is
/// 16x too small, so every 8-byte read is a miss whose arriving copy is
/// checked against the recorded digest; (b) one-page `write_pages` to a
/// materialised chunk, each of which vets its base (`copies::is_clean`)
/// before splicing the digest and encoding the parity deltas.
fn verified_rs_rates(stats: &StatsRegistry) -> (u64, u64) {
    const CHUNK: u64 = 256 * 1024;
    const CHUNKS: u64 = 64;
    const FETCHES: u64 = 8192;
    const OVERWRITES: u64 = 4096;
    let net = Network::new(7, stats);
    let cfg = StoreConfig {
        verify_reads: true,
        ..StoreConfig::default()
    };
    let store = AggregateStore::new(cfg, net, stats);
    for node in 1..=6usize {
        let ssd = Ssd::new(&format!("rs{node}.ssd"), INTEL_X25E, stats);
        store.add_benefactor(Benefactor::new(node, ssd, 1 << 30, CHUNK));
    }
    let (t, f) = store.create_file(VTime::ZERO, 0, "/host-speed-rs").unwrap();
    let spec = StripeSpec::all().with_parity(4, 2);
    let mut t = store
        .fallocate(t, 0, f, CHUNKS * CHUNK, spec, PlacementPolicy::RoundRobin)
        .unwrap();
    let body: Vec<u8> = (0..CHUNK).map(|i| (i * 31 / 8) as u8).collect();
    for idx in 0..CHUNKS as usize {
        t = store.write_pages(t, 0, f, idx, &[(0, &body)]).unwrap();
    }

    let mount = thrashing_mount(&store, stats);
    let mut word = [0u8; 8];
    let started = Instant::now();
    for i in 0..FETCHES {
        // 7 is coprime to the chunk count: no read finds its chunk cached.
        t = mount
            .read(t, f, (i * 7 % CHUNKS) * CHUNK + 8, &mut word)
            .unwrap();
    }
    let fetch_s = started.elapsed().as_secs_f64();
    std::hint::black_box(word);

    let page = vec![0xC3u8; 4096];
    let started = Instant::now();
    for i in 0..OVERWRITES {
        let (idx, off) = ((i * 7 % CHUNKS) as usize, (i % 64) * 4096);
        t = store.write_pages(t, 0, f, idx, &[(off, &page)]).unwrap();
    }
    let write_s = started.elapsed().as_secs_f64();
    let rate = |n: u64, secs: f64| (n as f64 / secs.max(1e-9)) as u64;
    (rate(FETCHES, fetch_s), rate(OVERWRITES, write_s))
}

/// Transfers per host second of 256 KiB messages between two nodes, the
/// shape of the benchmark's net drive: two NIC charges and two counter
/// bumps each — the per-charge cost every layer above the wire pays.
fn net_transfers() -> u64 {
    const TRANSFERS: u64 = 1 << 20;
    let net = Network::new(2, &StatsRegistry::new());
    let mut t = VTime::ZERO;
    let started = Instant::now();
    for _ in 0..TRANSFERS {
        t = net
            .transfer_at(t, 0, 1, std::hint::black_box(256 * 1024))
            .arrived;
    }
    let secs = started.elapsed().as_secs_f64();
    std::hint::black_box(t);
    (TRANSFERS as f64 / secs.max(1e-9)) as u64
}

/// Multiply-adds per host second of the MM tile product alone, in
/// `mm_fanout`'s shape (n = 512, tile 4): four C rows of 512, each taking
/// its four A elements against the same hot 16 KiB block of four B rows,
/// handed over as row slices the way a view of B's cached pages hands
/// them. The fastest of eight rounds: a round that shared its core with
/// something else says nothing about the kernel.
fn mm_tile_fmas() -> u64 {
    const N: usize = 512;
    const TILE: usize = 4;
    const ROUNDS: usize = 8;
    const PASSES: usize = 2048;
    let fill = |len: usize| -> Vec<f64> {
        (0..len)
            .map(|i| (i * 37 % 101) as f64 / 101.0 - 0.5)
            .collect()
    };
    let (a, b, mut c) = (fill(TILE * TILE), fill(TILE * N), fill(TILE * N));
    let brows: Vec<&[f64]> = b.chunks_exact(N).collect();
    let mut fastest = f64::INFINITY;
    for _ in 0..ROUNDS {
        let started = Instant::now();
        for _ in 0..PASSES {
            for (crow, arow) in c.chunks_exact_mut(N).zip(a.chunks_exact(TILE)) {
                workloads::matmul::tile_rows(crow, arow, std::hint::black_box(&brows));
            }
        }
        fastest = fastest.min(started.elapsed().as_secs_f64());
    }
    std::hint::black_box(&c);
    ((PASSES * TILE * TILE * N) as f64 / fastest.max(1e-9)) as u64
}

/// Bytes per host second one process reads from a resident chunk of an
/// NVM variable, the whole chunk per read, every read a cache hit, both
/// ways the application can read: (a) `NvmVec::view`, its pieces summed
/// where they sit in the cache; (b) `read_slice` into a buffer, summed
/// the same way. The sum keeps either from being optimised away, so (b)
/// minus (a) is the copy. The fastest of eight rounds each, like the
/// tile product.
fn resident_reads() -> (u64, u64) {
    const CHUNK: u64 = 256 * 1024;
    const ELEMS: usize = CHUNK as usize / 8;
    const ROUNDS: usize = 16;
    const READS: usize = 1024;
    let stats = StatsRegistry::new();
    let net = Network::new(2, &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    let ssd = Ssd::new("view.ssd", INTEL_X25E, &stats);
    store.add_benefactor(Benefactor::new(1, ssd, 1 << 30, CHUNK));
    let mount = Mount::new(store, 0, FuseConfig::default(), &stats);
    let client = NvmClient::new(mount, 0, AllocOptions::default(), &stats);
    let sum = |acc: u64, xs: &[u64]| xs.iter().fold(acc, |a, x| a.wrapping_add(*x));
    let (mut in_place_s, mut copied_s) = (f64::INFINITY, f64::INFINITY);
    Engine::run(vec![|ctx: &mut ProcCtx| {
        let v: NvmVec<u64> = client.ssdmalloc(ctx, ELEMS).unwrap();
        let data: Vec<u64> = (0..ELEMS as u64).collect();
        v.write_slice(ctx, 0, &data).unwrap();
        let (mut acc, mut buf) = (0u64, vec![0u64; ELEMS]);
        for _ in 0..ROUNDS {
            let started = Instant::now();
            for _ in 0..READS {
                let view = v.view(ctx, 0, ELEMS).unwrap();
                acc = view.pieces().fold(acc, sum);
            }
            in_place_s = in_place_s.min(started.elapsed().as_secs_f64());
            let started = Instant::now();
            for _ in 0..READS {
                v.read_slice(ctx, 0, &mut buf).unwrap();
                acc = sum(acc, &buf);
            }
            copied_s = copied_s.min(started.elapsed().as_secs_f64());
        }
        std::hint::black_box(acc);
    }]);
    let rate = |secs: f64| ((READS as u64 * CHUNK) as f64 / secs.max(1e-9)) as u64;
    (rate(in_place_s), rate(copied_s))
}

/// The committed host-speed workload (ISSUE 7): a fixed, deterministic
/// amount of simulated work — stream writes, per-page in-place updates
/// (the digest-heavy path), chunk reads, and a scheduler yield storm —
/// with the simulated byte volume read back from the store's own
/// counters, timed in host wall-clock.
fn run_host_speed() -> bench::Json {
    const CHUNK: u64 = 256 * 1024;
    const CHUNKS: usize = 64;
    const PAGE: usize = 4096;
    const STREAM_PASSES: usize = 4;
    const PAGE_PASSES: usize = 6;
    const READ_PASSES: usize = 12;

    let stats = StatsRegistry::new();
    let net = Network::new(5, &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    for node in 1..=4usize {
        let ssd = Ssd::new(&format!("b{node}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(node, ssd, 1 << 30, CHUNK));
    }
    let (t0, f) = store.create_file(VTime::ZERO, 0, "/host-speed").unwrap();
    store
        .fallocate(
            t0,
            0,
            f,
            CHUNKS as u64 * CHUNK,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();

    let host = bench::HostSpeed::start();
    let mut t = t0;

    // 1. stream writes: full-chunk spans (compose + digest + store)
    let chunk_buf = vec![0x5Au8; CHUNK as usize];
    let started = Instant::now();
    for _ in 0..STREAM_PASSES {
        for idx in 0..CHUNKS {
            t += VTime::from_micros(1);
            t = store.write_pages(t, 0, f, idx, &[(0, &chunk_buf)]).unwrap();
        }
    }
    let stream_s = started.elapsed().as_secs_f64();

    // 2. page updates: 4 KiB in-place writes, one page per call — the
    //    O(dirty bytes) digest-splice path
    let page_buf = vec![0xA5u8; PAGE];
    let started = Instant::now();
    for _ in 0..PAGE_PASSES {
        for idx in 0..CHUNKS {
            for page in 0..(CHUNK as usize / PAGE) {
                t += VTime::from_micros(1);
                let off = (page * PAGE) as u64;
                t = store
                    .write_pages(t, 0, f, idx, &[(off, &page_buf)])
                    .unwrap();
            }
        }
    }
    let page_s = started.elapsed().as_secs_f64();

    // 3. reads: whole-chunk fetches
    let started = Instant::now();
    for _ in 0..READ_PASSES {
        for idx in 0..CHUNKS {
            t += VTime::from_micros(1);
            let (tt, payload) = store.fetch_chunk(t, 0, f, idx).unwrap();
            t = tt;
            std::hint::black_box(payload);
        }
    }
    let read_s = started.elapsed().as_secs_f64();

    // 4. the two payload kernels alone, over one hot chunk: the CRC-64
    //    digest and the GF(2^8) multiply-accumulate every parity byte
    //    passes through
    let mut acc_buf = vec![0u8; CHUNK as usize];
    const KERNEL_PASSES: usize = 2048;
    let started = Instant::now();
    for _ in 0..KERNEL_PASSES {
        std::hint::black_box(chunkstore::crc64(std::hint::black_box(&chunk_buf)));
    }
    let crc_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    for _ in 0..KERNEL_PASSES {
        chunkstore::rs::gf_mul_acc(&mut acc_buf, std::hint::black_box(&chunk_buf), 0x1D);
        std::hint::black_box(&acc_buf);
    }
    let gf_s = started.elapsed().as_secs_f64();

    // 5. scheduler storms: hand-offs/host-second of the engine itself, at
    //    16 processes (yields only: the pure hand-off rate) and at the
    //    paper's 128 (yields and barriers, start-up included) — check.sh
    //    gates both
    let started = Instant::now();
    let report = engine_storm(16, 1, 500, false);
    let engine_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let report_128 = engine_storm(128, 10, 8, true);
    let engine_128_s = started.elapsed().as_secs_f64();

    // simulated volume is exact: the store's own counters
    let sim_bytes = stats.get("store.bytes_from_clients") + stats.get("store.bytes_to_clients");
    let mut host = host;
    host.add_bytes(sim_bytes);
    host.add_events(report.context_switches + report_128.context_switches);
    let total_s = host.elapsed_seconds();

    let mut footer = host.footer();
    // after the footer: the mount phases add neither bytes nor seconds to
    // the aggregate rate the first floor gates
    let (cow_sets, fresh_sets) = mount_sets(&store, &stats, f);
    let (verified_fetches, vetted_overwrites) = verified_rs_rates(&stats);
    let transfers = net_transfers();
    let (in_place_reads, copied_reads) = resident_reads();
    let mm_fmas = mm_tile_fmas();
    let mut detail = bench::Json::obj();
    detail.set("cow_sets_per_host_second", cow_sets);
    detail.set("fresh_sets_per_host_second", fresh_sets);
    detail.set("verified_fetches_per_host_second", verified_fetches);
    detail.set("vetted_overwrites_per_host_second", vetted_overwrites);
    detail.set("transfers_per_host_second", transfers);
    // the MM tile product check.sh gates where its AVX build ran
    detail.set("mm_tile_fmas_per_host_second", mm_fmas);
    detail.set("mm_kernel", workloads::matmul::mm_kernel());
    // reads of a resident chunk in place, which check.sh gates, beside
    // the copying read they replace
    detail.set("in_place_read_bytes_per_host_second", in_place_reads);
    detail.set("copied_read_bytes_per_host_second", copied_reads);
    detail.set("stream_write_s", stream_s);
    detail.set("page_update_s", page_s);
    detail.set("read_s", read_s);
    // the two payload-path floors check.sh gates: a copy per hop or a
    // one-lane digest shows up here, whatever the other phases do
    let per_second =
        |passes: usize, secs: f64| ((passes * CHUNKS) as u64 * CHUNK) as f64 / secs.max(1e-9);
    detail.set(
        "stream_write_bytes_per_host_second",
        per_second(STREAM_PASSES, stream_s) as u64,
    );
    detail.set(
        "read_bytes_per_host_second",
        per_second(READ_PASSES, read_s) as u64,
    );
    // the two kernel floors check.sh gates where the vector kernel ran
    let kernel_rate = |secs: f64| ((KERNEL_PASSES as u64 * CHUNK) as f64 / secs.max(1e-9)) as u64;
    detail.set("crc64_bytes_per_host_second", kernel_rate(crc_s));
    detail.set("gf_mul_acc_bytes_per_host_second", kernel_rate(gf_s));
    detail.set("crc_kernel", chunkstore::crc::crc_kernel());
    detail.set("gf_kernel", chunkstore::rs::gf_kernel());
    detail.set("engine_storm_s", engine_s);
    let per_host_second =
        |r: &simcore::EngineReport, secs: f64| r.context_switches as f64 / secs.max(1e-9);
    let rate_16 = per_host_second(&report, engine_s);
    let rate_128 = per_host_second(&report_128, engine_128_s);
    detail.set("engine_handoff_ns_16", (1e9 / rate_16) as u64);
    detail.set("engine_handoff_ns_128", (1e9 / rate_128) as u64);
    detail.set("engine_handoffs_per_host_second", rate_128 as u64);
    detail.set("engine_handoffs_per_host_second_16", rate_16 as u64);
    footer.set("detail", detail);
    println!(
        "  [host-speed] {sim_bytes} sim bytes in {total_s:.3}s host \
         ({:.0} MiB/host-s); {} engine events in {engine_s:.3}s ({:.0} kev/host-s) \
         at 16 processes, {} in {engine_128_s:.3}s ({:.0} kev/host-s) at 128",
        sim_bytes as f64 / total_s.max(1e-9) / (1 << 20) as f64,
        report.context_switches,
        rate_16 / 1e3,
        report_128.context_switches,
        rate_128 / 1e3
    );
    footer
}

fn main() {
    let mut json = bench::Json::obj();
    json.set("name", "micro");
    json.set("host", run_host_speed());
    bench::emit_json("micro", &json);
}
