//! A standby takeover serves what the journal holds (DESIGN.md §16).
//!
//! The script creates and fallocates a file, writes it (first writes and
//! in-place updates), links it into a checkpoint, copy-on-writes one of
//! its chunks, links a second checkpoint, deletes the first and sets the
//! second's lifetime. Then a manager rank crashes: the paper's one rank,
//! or rank 1 of two shards. The standby replays the rank's lane and
//! installs it, dropping what the crashed rank held in memory, so from
//! then on every access resolves through the replay:
//!
//! * every slot of the file and of the surviving checkpoint reads back
//!   byte for byte, with every read verified against the recorded digest;
//! * the ops after the outage allocate the same file and chunk ids, at the
//!   same virtual times, and leave the same metadata as a run without the
//!   crash, whose manager kept its live tables.
//!
//! An RS(2,1) script does the same for the parity groups, which the
//! namespace's slots imply: after a first write, a checkpoint link and a
//! copy-on-write of a grouped member, manager rank 0 crashes; the groups
//! the replay installs are the ones a run without the crash serves, and a
//! read whose home is dead reconstructs through them.

use chunkstore::{
    AggregateStore, Benefactor, ChunkBuf, ChunkPayload, FileId, GroupRef, MetaState,
    PlacementPolicy, ShardMeta, Slot, StoreConfig, StripeSpec,
};
use devices::{Ssd, INTEL_X25E};
use netsim::Network;
use simcore::time::bytes::mib;
use simcore::{StatsRegistry, VTime};

const CHUNK: u64 = 256 * 1024;
const BENEFACTORS: usize = 4;
/// Benefactors on nodes `1..=BENEFACTORS`, the client after them.
const CLIENT: usize = BENEFACTORS + 1;

fn store(shards: usize) -> (AggregateStore, StatsRegistry) {
    let stats = StatsRegistry::new();
    let cfg = StoreConfig {
        ha_standby: true,
        manager_shards: shards,
        verify_reads: true,
        fetch_retries: 12,
        ..StoreConfig::default()
    };
    let store = AggregateStore::new(cfg, Network::new(CLIENT + 1, &stats), &stats);
    for i in 0..BENEFACTORS {
        let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(i + 1, ssd, mib(16), CHUNK));
    }
    if shards > 0 {
        store.install_shards(&[1, 2], 77);
        store.set_standby_nodes(&[2, 1]);
    }
    (store, stats)
}

fn bytes(tag: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(29) ^ tag).collect()
}

/// What a file's slots must read back as.
type Oracle = Vec<Vec<u8>>;

fn write(
    store: &AggregateStore,
    t: VTime,
    f: FileId,
    oracle: &mut Oracle,
    at: (usize, u64),
    data: &[u8],
) -> VTime {
    let (idx, off) = at;
    oracle[idx][off as usize..off as usize + data.len()].copy_from_slice(data);
    store
        .write_pages(t, CLIENT, f, idx, &[(off, data)])
        .unwrap()
}

fn read_all(store: &AggregateStore, mut t: VTime, f: FileId, oracle: &Oracle) -> VTime {
    for (idx, want) in oracle.iter().enumerate() {
        let (done, payload) = store.fetch_chunk(t, CLIENT, f, idx).unwrap();
        assert_eq!(
            payload,
            ChunkPayload::Data(ChunkBuf::from_bytes(want)),
            "slot {idx}"
        );
        t = done;
    }
    t
}

/// What a run did after its outage, for two runs to compare.
#[derive(Debug, PartialEq)]
struct After {
    times: Vec<VTime>,
    files: Vec<FileId>,
    chunks: Vec<Slot>,
    state: MetaState,
}

/// The script, an outage of manager rank `crash` (or none), the reads
/// that ride it out, and the ops after it.
fn run(shards: usize, crash: Option<usize>) -> After {
    let (store, stats) = store(shards);
    let rr = PlacementPolicy::RoundRobin;
    let (t, v) = store.create_file(VTime::ZERO, CLIENT, "/v").unwrap();
    let mut t = store
        .fallocate(t, CLIENT, v, 4 * CHUNK, StripeSpec::all(), rr)
        .unwrap();
    let mut oracle: Oracle = vec![vec![0; CHUNK as usize]; 4];
    for idx in 0..4 {
        t = write(
            &store,
            t,
            v,
            &mut oracle,
            (idx, 0),
            &bytes(idx as u8, CHUNK as usize),
        );
    }
    // In-place updates: every chunk's digest is re-recorded.
    for idx in 0..4 {
        t = write(
            &store,
            t,
            v,
            &mut oracle,
            (idx, 2 * 4096),
            &bytes(0x11, 4096),
        );
    }
    let (t2, ck1) = store.create_file(t, CLIENT, "/ck1").unwrap();
    t = store.link_file(t2, CLIENT, ck1, v).unwrap();
    // Copy-on-write of the linked chunk, then an in-place update of the copy.
    t = write(&store, t, v, &mut oracle, (0, 4096), &bytes(0x22, 4096));
    t = write(&store, t, v, &mut oracle, (0, 3 * 4096), &bytes(0x33, 4096));
    let (t2, ck2) = store.create_file(t, CLIENT, "/ck2").unwrap();
    t = store.link_file(t2, CLIENT, ck2, v).unwrap();
    let ck2_oracle = oracle.clone();
    t = store.delete(t, CLIENT, ck1).unwrap();
    store
        .manager()
        .set_lifetime(ck2, Some(VTime::from_secs(3600)))
        .unwrap();

    let down = t + VTime::from_micros(1);
    if let Some(rank) = crash {
        store.attach_faults(
            faults::FaultPlanBuilder::new(5)
                .mgr_crash(down, rank)
                .build(),
        );
    }
    let t = read_all(&store, down, v, &oracle);
    read_all(&store, t, ck2, &ck2_oracle);
    if crash.is_some() {
        assert_eq!(stats.get("store.mgr_failovers"), 1, "the standby took over");
        // What the manager serves is what its lanes replay to.
        let mgr = store.manager();
        let lanes = (0..mgr.journal().lanes()).flat_map(|k| mgr.journal().lane(k).iter());
        assert_eq!(ShardMeta::replay(CHUNK, lanes).state, *mgr.state());
    }

    // After the outage: a new file, a first write, a copy-on-write of a
    // chunk the checkpoint shares, and the checkpoint's deletion.
    let t = down + VTime::from_secs(1);
    let (t1, after) = store.create_file(t, CLIENT, "/after").unwrap();
    let t2 = store
        .fallocate(t1, CLIENT, after, 2 * CHUNK, StripeSpec::all(), rr)
        .unwrap();
    let mut after_oracle: Oracle = vec![vec![0; CHUNK as usize]; 2];
    let t3 = write(
        &store,
        t2,
        after,
        &mut after_oracle,
        (0, 0),
        &bytes(0x44, 4096),
    );
    let t3 = write(
        &store,
        t3,
        after,
        &mut after_oracle,
        (1, 0),
        &bytes(0x45, 4096),
    );
    let t4 = write(&store, t3, v, &mut oracle, (2, 4096), &bytes(0x55, 4096));
    let t5 = store.delete(t4, CLIENT, ck2).unwrap();
    let t6 = read_all(&store, t5, v, &oracle);
    let t7 = read_all(&store, t6, after, &after_oracle);
    let mgr = store.manager();
    let slot = |f: FileId, idx| mgr.file(f).unwrap().slots[idx];
    After {
        times: vec![t1, t2, t3, t4, t5, t6, t7],
        files: vec![v, after],
        chunks: vec![slot(after, 1), slot(v, 2)],
        state: mgr.state().clone(),
    }
}

#[test]
fn the_papers_manager_takeover_serves_the_replayed_log() {
    let kept = run(0, None);
    assert!(matches!(kept.chunks[..], [Slot::Chunk(_), Slot::Chunk(_)]));
    assert_eq!(run(0, Some(0)), kept);
}

#[test]
fn a_shard_takeover_serves_the_replayed_log() {
    let kept = run(2, None);
    assert_eq!(run(2, Some(1)), kept);
}

/// The RS(2,1) script, an outage of manager rank `crash` (or none), and a
/// read of data slot 1 with its home dead. Returns the group of every
/// chunk `/rs` and its checkpoint hold, as the manager serves it after
/// the outage.
fn run_rs(shards: usize, crash: Option<usize>) -> Vec<Option<GroupRef>> {
    let (store, stats) = store(shards);
    let rr = PlacementPolicy::RoundRobin;
    let spec = StripeSpec::all().with_parity(2, 1);
    let (t, v) = store.create_file(VTime::ZERO, CLIENT, "/rs").unwrap();
    let mut t = store.fallocate(t, CLIENT, v, 4 * CHUNK, spec, rr).unwrap();
    let mut oracle: Oracle = vec![vec![0; CHUNK as usize]; 4];
    for idx in 0..4 {
        let data = bytes(0x60 + idx as u8, CHUNK as usize);
        t = write(&store, t, v, &mut oracle, (idx, 0), &data);
    }
    // The checkpoint keeps slot 0's chunk, so its next write is a COW of
    // a grouped member: the new chunk takes the group over.
    let (t2, ck) = store.create_file(t, CLIENT, "/ck").unwrap();
    t = store.link_file(t2, CLIENT, ck, v).unwrap();
    t = write(&store, t, v, &mut oracle, (0, 4096), &bytes(0x66, 4096));

    let down = t + VTime::from_micros(1);
    if let Some(rank) = crash {
        store.attach_faults(
            faults::FaultPlanBuilder::new(5)
                .mgr_crash(down, rank)
                .build(),
        );
    }
    let t = read_all(&store, down, v, &oracle);
    assert_eq!(stats.get("store.mgr_failovers"), crash.is_some() as u64);
    let (groups, home) = {
        let mgr = store.manager();
        let (rs, ck) = (mgr.file(v).unwrap(), mgr.file(ck).unwrap());
        let slots = rs.slots.iter().chain(&rs.parity_slots).chain(&ck.slots);
        let groups: Vec<Option<GroupRef>> = (slots.clone())
            .map(|s| match *s {
                Slot::Chunk(c) => mgr.group_of_chunk(c),
                _ => panic!("every slot is written"),
            })
            .collect();
        let Slot::Chunk(c1) = rs.slots[1] else {
            unreachable!()
        };
        (groups, mgr.chunk_home(c1).unwrap())
    };
    // `/rs`'s four data and two parity members are grouped; the chunk the
    // checkpoint kept from slot 0 no longer is.
    assert!(groups[..6].iter().all(Option::is_some));
    assert_eq!(groups[6], None);
    assert!(groups[7..].iter().all(Option::is_some));

    store.set_benefactor_alive(home, false);
    let (_, payload) = store.fetch_chunk(t, CLIENT, v, 1).unwrap();
    assert_eq!(
        payload,
        ChunkPayload::Data(ChunkBuf::from_bytes(&oracle[1]))
    );
    assert_eq!(stats.get("store.degraded_reconstructs"), 1);
    groups
}

#[test]
fn the_papers_manager_takeover_installs_an_rs_files_groups() {
    assert_eq!(run_rs(0, Some(0)), run_rs(0, None));
}

#[test]
fn a_namespace_shard_takeover_installs_an_rs_files_groups() {
    assert_eq!(run_rs(2, Some(0)), run_rs(2, None));
}
