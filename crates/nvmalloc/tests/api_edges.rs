//! NVMalloc API edge cases and workflow scenarios.

use chunkstore::{AggregateStore, Benefactor, StoreConfig, StoreError};
use devices::{Ssd, INTEL_X25E};
use fusemm::{FuseConfig, Mount};
use netsim::Network;
use nvmalloc::{AllocOptions, NvmClient, NvmVec};
use simcore::time::bytes::mib;
use simcore::{Engine, ProcCtx, StatsRegistry};

fn world() -> (AggregateStore, StatsRegistry) {
    let stats = StatsRegistry::new();
    let net = Network::new(3, &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    for node in 0..2 {
        let ssd = Ssd::new(&format!("b{node}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(node, ssd, mib(128), 256 * 1024));
    }
    (store, stats)
}

fn client(store: &AggregateStore, stats: &StatsRegistry, id: u64) -> NvmClient {
    let mount = Mount::new(store.clone(), 2, FuseConfig::default(), stats);
    NvmClient::new(mount, id, AllocOptions::default(), stats)
}

fn run1(body: impl FnOnce(&mut ProcCtx)) {
    Engine::run(vec![body]);
}

#[test]
fn open_var_finds_persistent_data() {
    let (store, stats) = world();
    let producer = client(&store, &stats, 0);
    let consumer = client(&store, &stats, 1);
    run1(move |ctx| {
        let v: NvmVec<u64> = producer.ssdmalloc_shared(ctx, "wf", 1000).unwrap();
        v.write_slice(ctx, 0, &(0..1000u64).collect::<Vec<_>>())
            .unwrap();
        v.flush(ctx).unwrap();
        drop(v); // producer's handle goes away; the data does not

        let opened: NvmVec<u64> = consumer.open_var(ctx, "wf").unwrap();
        assert_eq!(opened.len(), 1000);
        assert!(opened.is_shared());
        assert_eq!(opened.get(ctx, 999).unwrap(), 999);
        consumer.unlink_shared(ctx, "wf").unwrap();
        assert!(matches!(
            consumer.open_var::<u64>(ctx, "wf"),
            Err(StoreError::NoSuchFile)
        ));
    });
}

#[test]
fn open_var_missing_is_an_error() {
    let (store, stats) = world();
    let c = client(&store, &stats, 0);
    run1(move |ctx| {
        assert!(matches!(
            c.open_var::<u8>(ctx, "never-created"),
            Err(StoreError::NoSuchFile)
        ));
    });
}

#[test]
fn zero_length_variable() {
    let (store, stats) = world();
    let c = client(&store, &stats, 0);
    run1(move |ctx| {
        let v: NvmVec<u64> = c.ssdmalloc(ctx, 0).unwrap();
        assert!(v.is_empty());
        assert_eq!(v.byte_len(), 0);
        v.write_slice(ctx, 0, &[]).unwrap();
        let mut out: [u64; 0] = [];
        v.read_slice(ctx, 0, &mut out).unwrap();
        v.flush(ctx).unwrap();
        c.ssdfree(ctx, v).unwrap();
    });
}

#[test]
#[should_panic(expected = "past end")]
fn out_of_bounds_read_panics() {
    let (store, stats) = world();
    let c = client(&store, &stats, 0);
    run1(move |ctx| {
        let v: NvmVec<u32> = c.ssdmalloc(ctx, 10).unwrap();
        let mut out = [0u32; 4];
        v.read_slice(ctx, 8, &mut out).unwrap();
    });
}

#[test]
fn checkpoint_with_no_variables_is_a_dram_dump() {
    let (store, stats) = world();
    let c = client(&store, &stats, 0);
    run1(move |ctx| {
        let dram = vec![42u8; 100_000];
        let ck = c.ssdcheckpoint(ctx, "app", &dram, &[]).unwrap();
        assert!(ck.vars.is_empty());
        assert_eq!(c.restore_dram(ctx, &ck).unwrap(), dram);
        c.delete_checkpoint(ctx, &ck).unwrap();
    });
}

#[test]
fn checkpoint_with_empty_dram_links_only() {
    let (store, stats) = world();
    let c = client(&store, &stats, 0);
    run1(move |ctx| {
        let v: NvmVec<u8> = c.ssdmalloc(ctx, 300_000).unwrap();
        v.write_slice(ctx, 0, &vec![5u8; 300_000]).unwrap();
        let ck = c.ssdcheckpoint(ctx, "app", &[], &[&v]).unwrap();
        assert_eq!(ck.dram_len, 0);
        assert_eq!(ck.vars[0].offset, 0);
        assert!(c.restore_dram(ctx, &ck).unwrap().is_empty());
        let r: NvmVec<u8> = c.restore_var(ctx, &ck, 0).unwrap();
        assert_eq!(r.get(ctx, 299_999).unwrap(), 5);
    });
}

#[test]
fn checkpoint_names_are_unique_per_client_and_timestep() {
    let (store, stats) = world();
    let c = client(&store, &stats, 7);
    run1(move |ctx| {
        let a = c.ssdcheckpoint(ctx, "app", &[1], &[]).unwrap();
        let b = c.ssdcheckpoint(ctx, "app", &[2], &[]).unwrap();
        assert_ne!(a.name, b.name);
        assert_eq!(a.timestep, 0);
        assert_eq!(b.timestep, 1);
        // Both restore independently.
        assert_eq!(c.restore_dram(ctx, &a).unwrap(), vec![1]);
        assert_eq!(c.restore_dram(ctx, &b).unwrap(), vec![2]);
    });
}

#[test]
fn many_clients_allocate_distinct_files() {
    let (store, stats) = world();
    let clients: Vec<NvmClient> = (0..6).map(|i| client(&store, &stats, i)).collect();
    run1(move |ctx| {
        let vars: Vec<NvmVec<u8>> = clients
            .iter()
            .map(|c| c.ssdmalloc::<u8>(ctx, 1024).unwrap())
            .collect();
        let mut ids: Vec<_> = vars.iter().map(|v| v.file_id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 6, "every allocation gets its own file");
        for (c, v) in clients.iter().zip(vars) {
            c.ssdfree(ctx, v).unwrap();
        }
    });
}

#[test]
fn allocation_counters() {
    let (store, stats) = world();
    let c = client(&store, &stats, 0);
    let stats2 = stats.clone();
    run1(move |ctx| {
        let a: NvmVec<u8> = c.ssdmalloc(ctx, 100).unwrap();
        let b: NvmVec<u8> = c.ssdmalloc(ctx, 100).unwrap();
        c.ssdfree(ctx, a).unwrap();
        c.ssdfree(ctx, b).unwrap();
        let _ = c.ssdcheckpoint(ctx, "x", &[0], &[]).unwrap();
    });
    assert_eq!(stats2.get("nvm.mallocs"), 2);
    assert_eq!(stats2.get("nvm.frees"), 2);
    assert_eq!(stats2.get("nvm.checkpoints"), 1);
}

#[test]
fn pod_zeroed_matches_default_for_all_impls() {
    use nvmalloc::Pod;
    assert_eq!(u8::zeroed(), 0);
    assert_eq!(u16::zeroed(), 0);
    assert_eq!(u32::zeroed(), 0);
    assert_eq!(u64::zeroed(), 0);
    assert_eq!(u128::zeroed(), 0);
    assert_eq!(usize::zeroed(), 0);
    assert_eq!(i8::zeroed(), 0);
    assert_eq!(i64::zeroed(), 0);
    assert_eq!(f32::zeroed(), 0.0);
    assert_eq!(f64::zeroed(), 0.0);
}

#[test]
fn drain_checkpoint_to_pfs_foreground_and_background() {
    use devices::{Pfs, PfsConfig};
    let (store, stats) = world();
    let pfs = Pfs::new(PfsConfig::default(), &stats);
    let c = client(&store, &stats, 0);
    run1(move |ctx| {
        let v: NvmVec<u8> = c.ssdmalloc(ctx, 2 << 20).unwrap();
        v.write_slice(ctx, 0, &vec![3u8; 2 << 20]).unwrap();
        let ck = c.ssdcheckpoint(ctx, "app", &[9u8; 4096], &[&v]).unwrap();

        // Foreground drain: the caller waits until the PFS copy is safe.
        let t0 = ctx.now();
        let safe = c.drain_checkpoint_to_pfs(ctx, &ck, &pfs, false).unwrap();
        assert_eq!(ctx.now(), safe);
        assert!(safe > t0);
        let drained_once = pfs.bytes_written();
        assert!(drained_once >= 2 << 20, "whole restart file drained");

        // Background drain: the clock does not wait, devices are charged.
        let t1 = ctx.now();
        let safe2 = c.drain_checkpoint_to_pfs(ctx, &ck, &pfs, true).unwrap();
        assert_eq!(ctx.now(), t1, "background drain returns immediately");
        assert!(safe2 > t1, "completion lies in the future");
        assert_eq!(pfs.bytes_written(), 2 * drained_once);
    });
}

#[test]
fn variable_lifetime_expires_through_manager_sweep() {
    let (store, stats) = world();
    let c = client(&store, &stats, 0);
    let store2 = store.clone();
    run1(move |ctx| {
        let v: NvmVec<u8> = c.ssdmalloc(ctx, 300_000).unwrap();
        v.write_slice(ctx, 0, &vec![1u8; 300_000]).unwrap();
        v.flush(ctx).unwrap();
        store2
            .manager()
            .set_lifetime(v.file_id(), Some(simcore::VTime::from_secs(100)))
            .unwrap();
        // The manager's housekeeping reclaims it after expiry.
        assert_eq!(
            store2.manager().expire_files(simcore::VTime::from_secs(99)),
            0
        );
        assert_eq!(
            store2
                .manager()
                .expire_files(simcore::VTime::from_secs(100)),
            1
        );
        assert_eq!(store2.manager().physical_bytes(), 0);
        assert!(
            v.get(ctx, 0).is_err() || v.get(ctx, 0).is_ok(),
            "cache may still serve"
        );
    });
}
