//! Unit tests for the NVMalloc client, running under the simulation
//! engine (timed accesses need a process context).

use crate::client::{AllocOptions, NvmClient};
use crate::vec::NvmVec;
use chunkstore::{AggregateStore, Benefactor, StoreConfig, StripeSpec};
use devices::{Ssd, INTEL_X25E};
use fusemm::{FuseConfig, Mount};
use netsim::{NetConfig, Network};
use simcore::time::bytes::mib;
use simcore::{Engine, ProcCtx, StatsRegistry, VTime};

const CHUNK: u64 = 256 * 1024;

struct World {
    store: AggregateStore,
    stats: StatsRegistry,
}

fn world(benefactors: usize) -> World {
    let stats = StatsRegistry::new();
    let net = Network::new(benefactors + 1, NetConfig::default(), &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    for node in 0..benefactors {
        let ssd = Ssd::new(&format!("b{node}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(node, ssd, mib(256), CHUNK));
    }
    World { store, stats }
}

fn client(w: &World, node: usize, id: u64) -> NvmClient {
    client_with(w, node, id, false, StripeSpec::all())
}

/// A client on the paper or the pipelined data path whose variables (and
/// DRAM images) stripe as `stripe` says.
fn client_with(w: &World, node: usize, id: u64, pipelined: bool, stripe: StripeSpec) -> NvmClient {
    let fuse = FuseConfig {
        pipelined_io: pipelined,
        ..FuseConfig::default()
    };
    let mount = Mount::new(w.store.clone(), node, fuse, &w.stats);
    let opts = AllocOptions {
        stripe,
        ..AllocOptions::default()
    };
    NvmClient::new(mount, id, opts, &w.stats)
}

/// The stored bytes of chunk `idx` of `file` (on its first home), or
/// `None` while the slot is unmaterialized.
fn stored(c: &NvmClient, file: chunkstore::FileId, idx: usize) -> Option<Vec<u8>> {
    let mgr = c.mount().store().manager();
    match mgr.file(file).unwrap().slots[idx] {
        chunkstore::Slot::Chunk(chunk) => {
            let home = mgr.chunk_home(chunk).unwrap();
            Some(mgr.benefactor(home).peek_chunk(chunk).unwrap().to_vec())
        }
        _ => None,
    }
}

/// Run a single simulated process to completion.
fn run1(body: impl FnOnce(&mut ProcCtx) + Send) -> VTime {
    Engine::run(vec![body]).makespan
}

#[test]
fn ssdmalloc_roundtrip_elements() {
    let w = world(2);
    let c = client(&w, 2, 0);
    run1(move |ctx| {
        let v: NvmVec<f64> = c.ssdmalloc(ctx, 1000).unwrap();
        assert_eq!(v.len(), 1000);
        v.set(ctx, 0, 1.5).unwrap();
        v.set(ctx, 999, -2.25).unwrap();
        assert_eq!(v.get(ctx, 0).unwrap(), 1.5);
        assert_eq!(v.get(ctx, 999).unwrap(), -2.25);
        assert_eq!(v.get(ctx, 500).unwrap(), 0.0, "unwritten reads as zero");
        c.ssdfree(ctx, v).unwrap();
    });
}

#[test]
fn slice_io_roundtrip() {
    let w = world(2);
    let c = client(&w, 2, 0);
    run1(move |ctx| {
        let v: NvmVec<u32> = c.ssdmalloc(ctx, 100_000).unwrap();
        let data: Vec<u32> = (0..50_000u32).collect();
        v.write_slice(ctx, 25_000, &data).unwrap();
        let mut out = vec![0u32; 50_000];
        v.read_slice(ctx, 25_000, &mut out).unwrap();
        assert_eq!(out, data);
    });
}

#[test]
fn accesses_advance_virtual_time() {
    let w = world(1);
    let c = client(&w, 1, 0);
    let makespan = run1(move |ctx| {
        let v: NvmVec<u8> = c.ssdmalloc(ctx, (4 * CHUNK) as usize).unwrap();
        let data = vec![1u8; (4 * CHUNK) as usize];
        v.write_slice(ctx, 0, &data).unwrap();
        v.flush(ctx).unwrap();
    });
    // 1 MiB through a remote X25-E at 170 MB/s is ≥ 6 ms.
    assert!(makespan > VTime::from_millis(6), "makespan {makespan}");
}

#[test]
fn ssdfree_deletes_backing_file() {
    let w = world(1);
    let c = client(&w, 1, 0);
    let stats = w.stats.clone();
    run1(move |ctx| {
        let v: NvmVec<u64> = c.ssdmalloc(ctx, 1024).unwrap();
        v.set(ctx, 0, 7).unwrap();
        v.flush(ctx).unwrap();
        let physical = c.mount().store().manager().physical_bytes();
        assert!(physical > 0);
        c.ssdfree(ctx, v).unwrap();
        assert_eq!(c.mount().store().manager().physical_bytes(), 0);
    });
    let _ = stats;
}

#[test]
fn shared_mapping_is_one_file() {
    let w = world(2);
    let c1 = client(&w, 2, 1);
    let c2 = client(&w, 2, 2);
    run1(move |ctx| {
        let a: NvmVec<u64> = c1.ssdmalloc_shared(ctx, "matB", 4096).unwrap();
        let b: NvmVec<u64> = c2.ssdmalloc_shared(ctx, "matB", 4096).unwrap();
        assert_eq!(a.file_id(), b.file_id());
        assert!(a.is_shared());
        a.set(ctx, 17, 99).unwrap();
        a.flush(ctx).unwrap();
        assert_eq!(b.get(ctx, 17).unwrap(), 99);
        // Freeing a shared handle keeps the file.
        c1.ssdfree(ctx, a).unwrap();
        assert_eq!(b.get(ctx, 17).unwrap(), 99);
        c2.ssdfree(ctx, b).unwrap();
        c2.unlink_shared(ctx, "matB").unwrap();
        assert!(c2.unlink_shared(ctx, "matB").is_err(), "already gone");
    });
}

#[test]
#[should_panic(expected = "different size")]
fn shared_mapping_size_mismatch_panics() {
    let w = world(1);
    let c1 = client(&w, 1, 1);
    let c2 = client(&w, 1, 2);
    run1(move |ctx| {
        let _a: NvmVec<u64> = c1.ssdmalloc_shared(ctx, "x", 100).unwrap();
        let _b: NvmVec<u64> = c2.ssdmalloc_shared(ctx, "x", 200).unwrap();
    });
}

#[test]
fn checkpoint_and_restore() {
    let w = world(2);
    let c = client(&w, 2, 0);
    run1(move |ctx| {
        let v: NvmVec<u32> = c.ssdmalloc(ctx, 100_000).unwrap();
        let data: Vec<u32> = (0..100_000u32).map(|i| i * 3).collect();
        v.write_slice(ctx, 0, &data).unwrap();

        let dram_state: Vec<u8> = (0..10_000).map(|i| (i % 253) as u8).collect();
        let ckpt = c.ssdcheckpoint(ctx, "app", &dram_state, &[&v]).unwrap();
        assert_eq!(ckpt.dram_len, 10_000);
        assert_eq!(ckpt.vars.len(), 1);
        assert_eq!(ckpt.vars[0].byte_len, 400_000);

        // Mutate the variable after the checkpoint.
        v.write_slice(ctx, 0, &[u32::MAX; 64]).unwrap();
        v.flush(ctx).unwrap();

        // Restore: DRAM bytes and the frozen variable image.
        let dram = c.restore_dram(ctx, &ckpt).unwrap();
        assert_eq!(dram, dram_state);
        let restored: NvmVec<u32> = c.restore_var(ctx, &ckpt, 0).unwrap();
        let mut out = vec![0u32; 100_000];
        restored.read_slice(ctx, 0, &mut out).unwrap();
        assert_eq!(out, data, "checkpoint image is pre-mutation");
        // The live variable kept the mutation.
        assert_eq!(v.get(ctx, 0).unwrap(), u32::MAX);
    });
}

#[test]
fn restoring_a_sparse_variable_keeps_its_holes() {
    for pipelined in [false, true] {
        let w = world(4);
        let c = client_with(&w, 4, 0, pipelined, StripeSpec::all());
        run1(move |ctx| {
            let len = (8 * CHUNK) as usize;
            let v: NvmVec<u8> = c.ssdmalloc(ctx, len).unwrap();
            // Two of eight chunks are ever written.
            let mut flat = vec![0u8; len];
            for chunk in [1usize, 5] {
                let at = chunk * CHUNK as usize + 1000;
                v.write_slice(ctx, at, &[0xC3; 5000]).unwrap();
                flat[at..at + 5000].fill(0xC3);
            }
            v.flush(ctx).unwrap();
            let ckpt = c.ssdcheckpoint(ctx, "sparse", &[], &[&v]).unwrap();

            let physical = || c.mount().store().manager().physical_bytes();
            let before = physical();
            let r: NvmVec<u8> = c.restore_var(ctx, &ckpt, 0).unwrap();
            assert_eq!(
                physical() - before,
                2 * CHUNK,
                "a never-written chunk was materialized (pipelined={pipelined})"
            );
            for idx in 0..8 {
                assert_eq!(stored(&c, r.file_id(), idx).is_some(), idx == 1 || idx == 5);
            }
            let mut out = vec![0xFFu8; len];
            r.read_slice(ctx, 0, &mut out).unwrap();
            assert!(out == flat, "holes must read zeros (pipelined={pipelined})");
        });
    }
}

mod ragged {
    use super::*;
    use proptest::prelude::*;

    /// 1 byte … 3 chunks + 5 bytes, the edges drawn as often as the bulk.
    fn ragged_len() -> impl Strategy<Value = usize> {
        let c = CHUNK as usize;
        prop_oneof![
            1usize..3 * c + 6,
            (0usize..4, 0usize..6)
                .prop_map(move |(chunks, over)| (chunks * c + over).clamp(1, 3 * c + 5)),
            (1usize..4, 1usize..4097).prop_map(move |(chunks, under)| chunks * c - under),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// A variable and a DRAM image of any length restore to exactly
        /// their bytes — against a flat `Vec<u8>`, on both data paths,
        /// unreplicated and over RS(2,1) — and the restored file holds
        /// nothing past `byte_len`.
        #[test]
        fn ragged_lengths_restore_exactly(var_len in ragged_len(), dram_len in ragged_len(), tag in any::<u8>()) {
            for pipelined in [false, true] {
                for stripe in [StripeSpec::all(), StripeSpec::all().with_parity(2, 1)] {
                    let w = world(4);
                    let c = client_with(&w, 4, 0, pipelined, stripe);
                    let flat: Vec<u8> = (0..var_len).map(|i| tag ^ (i as u8) ^ ((i >> 12) as u8) | 1).collect();
                    let dram: Vec<u8> = (0..dram_len).map(|i| !tag ^ (i as u8) | 1).collect();
                    let ok = std::sync::Mutex::new(Ok(()));
                    run1(|ctx| {
                        *ok.lock().unwrap() = (|| {
                            let v: NvmVec<u8> = c.ssdmalloc(ctx, var_len).unwrap();
                            v.write_slice(ctx, 0, &flat).unwrap();
                            let ckpt = c.ssdcheckpoint(ctx, "ragged", &dram, &[&v]).unwrap();

                            // The DRAM image landed as written, zeros after it.
                            let tail = dram_len % CHUNK as usize;
                            if tail != 0 {
                                let last = stored(&c, ckpt.file, dram_len / CHUNK as usize).unwrap();
                                prop_assert!(last[..tail] == dram[dram_len - tail..]);
                                prop_assert!(last[tail..].iter().all(|&b| b == 0));
                            }
                            prop_assert!(c.restore_dram(ctx, &ckpt).unwrap() == dram);

                            let r: NvmVec<u8> = c.restore_var(ctx, &ckpt, 0).unwrap();
                            prop_assert_eq!(r.len(), var_len);
                            let tail = var_len % CHUNK as usize;
                            if tail != 0 {
                                let last = stored(&c, r.file_id(), var_len / CHUNK as usize).unwrap();
                                prop_assert!(last[..tail] == flat[var_len - tail..]);
                                prop_assert!(
                                    last[tail..].iter().all(|&b| b == 0),
                                    "bytes written past byte_len"
                                );
                            }
                            let mut out = vec![0u8; var_len];
                            r.read_slice(ctx, 0, &mut out).unwrap();
                            prop_assert!(out == flat);
                            Ok(())
                        })();
                    });
                    ok.into_inner().unwrap()?;
                }
            }
        }
    }
}

#[test]
fn checkpoint_links_rather_than_copies() {
    let w = world(2);
    let c = client(&w, 2, 0);
    let stats = w.stats.clone();
    run1(move |ctx| {
        let v: NvmVec<u8> = c.ssdmalloc(ctx, (8 * CHUNK) as usize).unwrap();
        let data = vec![0xABu8; (8 * CHUNK) as usize];
        v.write_slice(ctx, 0, &data).unwrap();
        v.flush(ctx).unwrap();

        let physical_before = c.mount().store().manager().physical_bytes();
        let from_clients_before = stats.get("store.bytes_from_clients");
        let _ckpt = c.ssdcheckpoint(ctx, "app", &[], &[&v]).unwrap();
        // Linking moved no variable data and allocated no new chunks.
        assert_eq!(
            c.mount().store().manager().physical_bytes(),
            physical_before
        );
        assert_eq!(stats.get("store.bytes_from_clients"), from_clients_before);
    });
}

#[test]
fn incremental_checkpoint_shares_unmodified_chunks() {
    let w = world(2);
    let c = client(&w, 2, 0);
    run1(move |ctx| {
        let v: NvmVec<u8> = c.ssdmalloc(ctx, (8 * CHUNK) as usize).unwrap();
        v.write_slice(ctx, 0, &vec![1u8; (8 * CHUNK) as usize])
            .unwrap();
        v.flush(ctx).unwrap();
        let base = c.mount().store().manager().physical_bytes();
        assert_eq!(base, 8 * CHUNK);

        let ck1 = c.ssdcheckpoint(ctx, "app", &[], &[&v]).unwrap();
        assert_eq!(c.mount().store().manager().physical_bytes(), base);

        // Dirty exactly one chunk between checkpoints.
        v.write_slice(ctx, 0, &[9u8; 64]).unwrap();
        v.flush(ctx).unwrap(); // COW: +1 chunk
        assert_eq!(c.mount().store().manager().physical_bytes(), base + CHUNK);

        let ck2 = c.ssdcheckpoint(ctx, "app", &[], &[&v]).unwrap();
        // Second checkpoint adds no further physical chunks.
        assert_eq!(c.mount().store().manager().physical_bytes(), base + CHUNK);

        // Both checkpoints readable and distinct.
        let r1: NvmVec<u8> = c.restore_var(ctx, &ck1, 0).unwrap();
        let r2: NvmVec<u8> = c.restore_var(ctx, &ck2, 0).unwrap();
        assert_eq!(r1.get(ctx, 0).unwrap(), 1);
        assert_eq!(r2.get(ctx, 0).unwrap(), 9);
        assert_eq!(r2.get(ctx, 64).unwrap(), 1);
    });
}

#[test]
fn checkpoint_multiple_vars_layout() {
    let w = world(2);
    let c = client(&w, 2, 0);
    run1(move |ctx| {
        let a: NvmVec<u64> = c.ssdmalloc(ctx, 1000).unwrap();
        let b: NvmVec<u64> = c.ssdmalloc(ctx, 2000).unwrap();
        a.write_slice(ctx, 0, &vec![11u64; 1000]).unwrap();
        b.write_slice(ctx, 0, &vec![22u64; 2000]).unwrap();

        let dram = vec![5u8; 1000];
        let ckpt = c.ssdcheckpoint(ctx, "app", &dram, &[&a, &b]).unwrap();
        assert_eq!(ckpt.vars.len(), 2);
        // Regions are chunk-aligned and ordered.
        assert_eq!(ckpt.vars[0].offset, CHUNK);
        assert_eq!(ckpt.vars[1].offset, CHUNK + CHUNK);

        let ra: NvmVec<u64> = c.restore_var(ctx, &ckpt, 0).unwrap();
        let rb: NvmVec<u64> = c.restore_var(ctx, &ckpt, 1).unwrap();
        assert_eq!(ra.get(ctx, 999).unwrap(), 11);
        assert_eq!(rb.get(ctx, 1999).unwrap(), 22);
        assert_eq!(c.restore_dram(ctx, &ckpt).unwrap(), dram);
    });
}

#[test]
fn delete_checkpoint_releases_chunks() {
    let w = world(1);
    let c = client(&w, 1, 0);
    run1(move |ctx| {
        let v: NvmVec<u8> = c.ssdmalloc(ctx, (2 * CHUNK) as usize).unwrap();
        v.write_slice(ctx, 0, &vec![1u8; (2 * CHUNK) as usize])
            .unwrap();
        v.flush(ctx).unwrap();
        let ckpt = c.ssdcheckpoint(ctx, "app", &[], &[&v]).unwrap();
        c.ssdfree(ctx, v).unwrap();
        // Chunks survive via the checkpoint's references.
        assert_eq!(c.mount().store().manager().physical_bytes(), 2 * CHUNK);
        c.delete_checkpoint(ctx, &ckpt).unwrap();
        assert_eq!(c.mount().store().manager().physical_bytes(), 0);
    });
}

#[test]
fn explicit_stripe_options() {
    let w = world(4);
    let c = client(&w, 4, 0);
    run1(move |ctx| {
        let opts = AllocOptions {
            stripe: StripeSpec::count(2),
            ..AllocOptions::default()
        };
        let v: NvmVec<u8> = c.ssdmalloc_opts(ctx, (4 * CHUNK) as usize, &opts).unwrap();
        let meta_stripe_len = {
            let mgr = c.mount().store().manager();
            mgr.file(v.file_id()).unwrap().stripe.len()
        };
        assert_eq!(meta_stripe_len, 2);
    });
}

#[test]
fn app_byte_counters_track_element_accesses() {
    let w = world(1);
    let c = client(&w, 1, 0);
    let stats = w.stats.clone();
    run1(move |ctx| {
        let v: NvmVec<f64> = c.ssdmalloc(ctx, 100).unwrap();
        v.set(ctx, 0, 1.0).unwrap();
        let _ = v.get(ctx, 0).unwrap();
        let _ = v.get(ctx, 1).unwrap();
    });
    assert_eq!(stats.get("nvm.app_write_bytes"), 8);
    assert_eq!(stats.get("nvm.app_read_bytes"), 16);
}

#[test]
fn two_processes_share_one_nvm_variable() {
    // Writer on rank 0, reader on rank 1 — both on the same node share the
    // mount's cache, exercising O_RDWR visibility under the engine.
    let w = world(2);
    let mount = Mount::new(w.store.clone(), 2, FuseConfig::default(), &w.stats);
    let c0 = NvmClient::new(mount.clone(), 0, AllocOptions::default(), &w.stats);
    let c1 = NvmClient::new(mount, 1, AllocOptions::default(), &w.stats);
    let barrier = simcore::Rendezvous::new(2);

    let b0 = barrier.clone();
    let b1 = barrier.clone();
    Engine::run(vec![
        Box::new(move |ctx: &mut ProcCtx| {
            let v: NvmVec<u64> = c0.ssdmalloc_shared(ctx, "v", 64).unwrap();
            v.set(ctx, 3, 42).unwrap();
            b0.barrier(ctx, 0, VTime::ZERO);
        }) as Box<dyn FnOnce(&mut ProcCtx) + Send>,
        Box::new(move |ctx: &mut ProcCtx| {
            b1.barrier(ctx, 1, VTime::ZERO);
            let v: NvmVec<u64> = c1.ssdmalloc_shared(ctx, "v", 64).unwrap();
            assert_eq!(v.get(ctx, 3).unwrap(), 42);
        }),
    ]);
}
