//! Golden pin of the manager's metadata: what the placement map, the
//! parity-group reverse map, the reference counts and the crash-consistent
//! journal hold after one scripted run.
//!
//! The script runs `ha_standby` with two journal lanes over plain,
//! `replicas = 2` and RS(2,1) files:
//!
//! * first, in-place and copy-on-write writes, the last in a plain and in
//!   an encoded file;
//! * `link_file` of a plain and of an encoded file into a plain checkpoint;
//! * both `delete_file` orders — source before checkpoint and checkpoint
//!   before source — including an encoded file with unmaterialized data
//!   and parity;
//! * a benefactor crash, then writes that drop its dead copy and flag a
//!   parity member stale;
//! * both repair sweeps while it is down, then its recovery and reconcile;
//! * `expire_files`.
//!
//! Every op ends by replaying each lane's `unload_journal` image: lane
//! *k*'s `MetaState` must equal the live state restricted to rank *k*'s
//! keyspace (its chunks, and the namespace for rank 0), and the lanes
//! together the whole live state.
//!
//! At two points — after the checkpoints, and at the end — it pins an
//! FNV-1a hash of every journal lane's `unload_journal` image, the
//! placement epoch, and a sorted dump of every file's slots, parity slots
//! and stale flags and every chunk's homes, target, refcount, CRC and
//! parity group. The constants were recorded before `manager.rs` was
//! carved into `manager/`; a "no behaviour change" refactor of the
//! metadata tier leaves them unedited, and a failing run prints the new
//! values. The script never links onto an encoded file: which slots of
//! such a file are group members is a rule of its own (DESIGN.md §15).

use chunkstore::journal::load_image;
use chunkstore::shardmgr::DEFAULT_VNODES;
use chunkstore::{
    AggregateStore, Benefactor, BenefactorId, ChunkId, FileId, HashRing, MetaState,
    PlacementPolicy, ShardMeta, Slot, StoreConfig, StripeSpec, DEFAULT_RING_SEED,
};
use devices::{Ssd, INTEL_X25E};
use netsim::Network;
use simcore::time::bytes::mib;
use simcore::{StatsRegistry, VTime};
use std::fmt::Write as _;

const CHUNK: u64 = 256 * 1024;
const BENEFACTORS: usize = 5;
const LANES: usize = 2;

struct Golden {
    lane_hashes: [u64; LANES],
    epoch: u64,
    dump: &'static str,
}

const AFTER_CHECKPOINTS: Golden = Golden {
    lane_hashes: [0x14BC52D69A7EE00E, 0x3C8E6EF019074E65],
    epoch: 42,
    dump: "\
/plain: size=1048576 slots=[16 1 u 2] parity=[] stale=[]\n\
/rep: size=786432 slots=[3 4 5] parity=[] stale=[]\n\
/rs: size=1048576 slots=[17 8 9 18] parity=[7 10] stale=[0, 0]\n\
/rs_b: size=786432 slots=[12 14 u] parity=[13 u] stale=[0, 0]\n\
/tmp: size=524288 slots=[15 u] parity=[] stale=[]\n\
/ck1: size=2097152 slots=[0 1 h 2 6 8 9 11] parity=[] stale=[]\n\
/ck2: size=786432 slots=[12 14 h] parity=[] stale=[]\n\
/ck3: size=524288 slots=[15 h] parity=[] stale=[]\n\
c0: homes=[0] target=1 refs=1 crc=b33e49907dfb92b5 group=-\n\
c1: homes=[1] target=1 refs=2 crc=8e7d833758a2579d group=-\n\
c2: homes=[3] target=1 refs=2 crc=9df8f0ec22c23b49 group=-\n\
c3: homes=[4, 0] target=2 refs=1 crc=3be70fe0bb6905eb group=-\n\
c4: homes=[0, 1] target=2 refs=1 crc=c207dc4f9b1e1d31 group=-\n\
c5: homes=[1, 2] target=2 refs=1 crc=28627c3bc109693f group=-\n\
c6: homes=[0] target=1 refs=1 crc=de6779efebc5d39c group=-\n\
c7: homes=[2] target=1 refs=1 crc=952b33138d69eacf group=2/0/2\n\
c8: homes=[1] target=1 refs=2 crc=e4b8a9c457fa00c6 group=2/0/1\n\
c9: homes=[2] target=1 refs=2 crc=cde20a3491a5bf48 group=2/1/0\n\
c10: homes=[4] target=1 refs=1 crc=e90f76148583808a group=2/1/2\n\
c11: homes=[3] target=1 refs=1 crc=c420b3d92c958922 group=-\n\
c12: homes=[1] target=1 refs=2 crc=d18fcabfa991d356 group=3/0/0\n\
c13: homes=[3] target=1 refs=1 crc=c20ab964d3f1bf82 group=3/0/2\n\
c14: homes=[2] target=1 refs=2 crc=d84d735214a1e53c group=3/0/1\n\
c15: homes=[2] target=1 refs=2 crc=340fbcb0f93d0521 group=-\n\
c16: homes=[0] target=1 refs=1 crc=dad01cb48ac2fdf9 group=-\n\
c17: homes=[0] target=1 refs=1 crc=15d5d1810fdae294 group=2/0/0\n\
c18: homes=[3] target=1 refs=1 crc=0af313b0afe6d44a group=2/1/1\n",
};

const AT_END: Golden = Golden {
    lane_hashes: [0xF92161C3F64CA237, 0x136435BFD8236405],
    epoch: 64,
    dump: "\
/plain: size=1048576 slots=[16 1 u 2] parity=[] stale=[]\n\
/rep: size=786432 slots=[3 4 5] parity=[] stale=[]\n\
/rs: size=1048576 slots=[17 8 19 18] parity=[7 10] stale=[0, 0]\n\
/rs_b: deleted\n\
/tmp: deleted\n\
/ck1: deleted\n\
/ck2: deleted\n\
/ck3: deleted\n\
c1: homes=[1] target=1 refs=1 crc=8e7d833758a2579d group=-\n\
c2: homes=[3] target=1 refs=1 crc=9df8f0ec22c23b49 group=-\n\
c3: homes=[0, 1] target=2 refs=1 crc=f055a78e5f7634e3 group=-\n\
c4: homes=[0, 1] target=2 refs=1 crc=c207dc4f9b1e1d31 group=-\n\
c5: homes=[1, 2] target=2 refs=1 crc=28627c3bc109693f group=-\n\
c7: homes=[2] target=1 refs=1 crc=952b33138d69eacf group=2/0/2\n\
c8: homes=[1] target=1 refs=1 crc=e4b8a9c457fa00c6 group=2/0/1\n\
c10: homes=[0] target=1 refs=1 crc=8609a897282831ac group=2/1/2\n\
c16: homes=[0] target=1 refs=1 crc=dad01cb48ac2fdf9 group=-\n\
c17: homes=[0] target=1 refs=1 crc=15d5d1810fdae294 group=2/0/0\n\
c18: homes=[3] target=1 refs=1 crc=0af313b0afe6d44a group=2/1/1\n\
c19: homes=[2] target=1 refs=1 crc=4809c62fcd82421b group=2/1/0\n",
};

/// Rank `k`'s keyspace of `state` — what its lane replays to: the
/// chunks the store's ring gives it, and the namespace for rank 0.
fn keyspace(state: &MetaState, k: usize) -> MetaState {
    let ring = HashRing::new(LANES, DEFAULT_VNODES, DEFAULT_RING_SEED);
    let owns = |c: &ChunkId| ring.owner_of_chunk(*c) == k;
    let mut part = state.clone();
    part.chunks.retain(|c, _| owns(c));
    part.homes.retain(|c, _| owns(c));
    if k != 0 {
        part.ns = Default::default();
    }
    part
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

struct Rig {
    store: AggregateStore,
    client: usize,
    /// Every file the script created, by name, in creation order.
    files: Vec<(&'static str, FileId)>,
}

impl Rig {
    /// Manager on node 0, benefactors on nodes `1..=BENEFACTORS`, the
    /// client on the node after them.
    fn new() -> Rig {
        let stats = StatsRegistry::new();
        let net = Network::new(BENEFACTORS + 2, &stats);
        let cfg = StoreConfig {
            ha_standby: true,
            manager_shards: LANES,
            ..StoreConfig::default()
        };
        let store = AggregateStore::new(cfg, net, &stats);
        for i in 0..BENEFACTORS {
            let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
            store.add_benefactor(Benefactor::new(i + 1, ssd, mib(16), CHUNK));
        }
        Rig {
            store,
            client: BENEFACTORS + 1,
            files: Vec::new(),
        }
    }

    fn create(&mut self, t: VTime, name: &'static str) -> (VTime, FileId) {
        let (t, f) = self.store.create_file(t, self.client, name).unwrap();
        self.files.push((name, f));
        self.replay_matches_live();
        (t, f)
    }

    fn file(
        &mut self,
        t: VTime,
        name: &'static str,
        chunks: u64,
        spec: StripeSpec,
    ) -> (VTime, FileId) {
        let (t, f) = self.create(t, name);
        let placement = PlacementPolicy::RoundRobin;
        let t = self
            .store
            .fallocate(t, self.client, f, chunks * CHUNK, spec, placement)
            .unwrap();
        self.replay_matches_live();
        (t, f)
    }

    /// A full-chunk write of slot `idx`, its bytes derived from `tag`.
    fn fill(&self, t: VTime, f: FileId, idx: usize, tag: u8) -> VTime {
        let data: Vec<u8> = (0..CHUNK as usize)
            .map(|i| (i as u8).wrapping_mul(31) ^ tag ^ (idx as u8).wrapping_mul(17))
            .collect();
        let t = self
            .store
            .write_pages(t, self.client, f, idx, &[(0, &data)])
            .unwrap();
        self.replay_matches_live();
        t
    }

    /// A one-page write at page `page` of slot `idx`.
    fn poke(&self, t: VTime, f: FileId, idx: usize, page: u64, tag: u8) -> VTime {
        let data: Vec<u8> = (0..4096).map(|i| (i as u8).wrapping_mul(7) ^ tag).collect();
        let t = self
            .store
            .write_pages(t, self.client, f, idx, &[(page * 4096, &data)])
            .unwrap();
        self.replay_matches_live();
        t
    }

    fn delete(&self, t: VTime, f: FileId) -> VTime {
        let t = self.store.delete(t, self.client, f).unwrap();
        self.replay_matches_live();
        t
    }

    fn link(&self, t: VTime, dst: FileId, src: FileId) -> VTime {
        let t = self.store.link_file(t, self.client, dst, src).unwrap();
        self.replay_matches_live();
        t
    }

    /// Replay every lane and hold it to the manager's whole live state
    /// (files, names, slots, references, chunks, homes and groups): lane
    /// `k` is the state restricted to rank `k`'s keyspace, and the lanes
    /// together are the whole state.
    fn replay_matches_live(&self) {
        let mgr = self.store.manager();
        for k in 0..LANES {
            let image = mgr.unload_journal(k);
            let (_, lane, repair) = load_image(&image, CHUNK).expect("image decodes");
            assert!(!repair.torn, "a just-unloaded image has no torn tail");
            lane.assert_consistent();
            assert_eq!(lane.state, keyspace(mgr.state(), k), "lane {k} vs rank {k}");
        }
        let j = mgr.journal();
        let lanes = ShardMeta::replay(CHUNK, (0..LANES).flat_map(|k| j.lane(k).iter()));
        assert_eq!(lanes.state, *mgr.state(), "the lanes vs the state");
    }

    /// What the golden pins, as of now.
    fn observe(&self) -> (Vec<u64>, u64, String) {
        let mgr = self.store.manager();
        let lanes = (0..LANES)
            .map(|lane| fnv1a(&mgr.unload_journal(lane)))
            .collect();
        let slot = |s: &Slot| match s {
            Slot::Unmaterialized => "u".to_string(),
            Slot::Hole => "h".to_string(),
            Slot::Chunk(c) => c.0.to_string(),
        };
        let mut dump = String::new();
        for &(name, f) in &self.files {
            let Ok(meta) = mgr.file(f) else {
                writeln!(dump, "{name}: deleted").unwrap();
                continue;
            };
            let slots: Vec<String> = meta.slots.iter().map(slot).collect();
            let parity: Vec<String> = meta.parity_slots.iter().map(slot).collect();
            let stale: Vec<u8> = meta.parity_stale.iter().map(|&s| s as u8).collect();
            writeln!(
                dump,
                "{name}: size={} slots=[{}] parity=[{}] stale={stale:?}",
                meta.size,
                slots.join(" "),
                parity.join(" ")
            )
            .unwrap();
        }
        for c in mgr.chunk_ids_sorted() {
            let homes: Vec<usize> = mgr.chunk_homes(c).unwrap().iter().map(|b| b.0).collect();
            let group = mgr
                .group_of_chunk(c)
                .map(|g| format!("{}/{}/{}", g.file.0, g.group, g.member));
            writeln!(
                dump,
                "c{}: homes={homes:?} target={} refs={} crc={:016x} group={}",
                c.0,
                mgr.chunk_target(c).unwrap(),
                mgr.chunk_refcount(c),
                mgr.chunk_crc(c).unwrap(),
                group.as_deref().unwrap_or("-")
            )
            .unwrap();
        }
        (lanes, mgr.placement_epoch(), dump)
    }
}

fn check(point: &str, want: &Golden, (lanes, epoch, dump): (Vec<u64>, u64, String)) {
    let same = lanes == want.lane_hashes && epoch == want.epoch && dump == want.dump;
    assert!(
        same,
        "{point}: the manager's state moved; new values:\n\
         lane_hashes: [{}],\nepoch: {epoch},\ndump:\n{dump}",
        lanes
            .iter()
            .map(|h| format!("0x{h:016X}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

#[test]
fn manager_metadata_and_journal_are_pinned() {
    let mut rig = Rig::new();
    let all: Vec<BenefactorId> = (0..BENEFACTORS).map(BenefactorId).collect();
    // The victim of the crash below holds the second copy of `/rep`'s slot
    // 0 and the parity of `/rs`'s group 1.
    let victim = BenefactorId(4);
    let mut rotated = all.clone();
    rotated.rotate_right(1);

    // ----- first writes ------------------------------------------------
    let t = VTime::ZERO;
    let (t, plain) = rig.file(t, "/plain", 4, StripeSpec::all());
    let (t, rep) = rig.file(t, "/rep", 3, StripeSpec::explicit(rotated).with_replicas(2));
    let (t, rs) = rig.file(
        t,
        "/rs",
        4,
        StripeSpec::explicit(all.clone()).with_parity(2, 1),
    );
    let (t, rs_b) = rig.file(t, "/rs_b", 3, StripeSpec::all().with_parity(2, 1));
    let (t, tmp) = rig.file(t, "/tmp", 2, StripeSpec::all());
    let mut t = t;
    for idx in [0, 1, 3] {
        t = rig.fill(t, plain, idx, 0x10); // slot 2 stays unmaterialized
    }
    for idx in 0..3 {
        t = rig.fill(t, rep, idx, 0x20);
    }
    for idx in 0..4 {
        t = rig.fill(t, rs, idx, 0x30);
    }
    for idx in 0..2 {
        t = rig.fill(t, rs_b, idx, 0x40); // group 1 stays unmaterialized
    }
    t = rig.fill(t, tmp, 0, 0x50);
    let rep0 = chunk(&rig, rep, 0);
    {
        let mgr = rig.store.manager();
        assert!(mgr.chunk_homes(rep0).unwrap().contains(&victim));
        let Slot::Chunk(pc) = mgr.file(rs).unwrap().parity_slot(1, 0) else {
            panic!("group 1 parity materialized");
        };
        assert_eq!(mgr.chunk_home(pc), Some(victim));
    }

    // ----- in-place writes ---------------------------------------------
    t = rig.poke(t, plain, 0, 3, 0x11);
    t = rig.poke(t, rep, 1, 5, 0x21);
    t = rig.poke(t, rs, 1, 7, 0x31);

    // ----- checkpoints: link into plain files, then copy-on-write ------
    let (t2, ck1) = rig.create(t, "/ck1");
    t = rig.link(t2, ck1, plain);
    t = rig.link(t, ck1, rs);
    let (t2, ck2) = rig.create(t, "/ck2");
    t = rig.link(t2, ck2, rs_b);
    let (t2, ck3) = rig.create(t, "/ck3");
    t = rig.link(t2, ck3, tmp);
    t = rig.poke(t, plain, 0, 1, 0x12);
    t = rig.poke(t, rs, 0, 2, 0x32);
    t = rig.poke(t, rs, 3, 4, 0x33);
    check("after the checkpoints", &AFTER_CHECKPOINTS, rig.observe());

    // ----- both delete orders ------------------------------------------
    t = rig.delete(t, rs_b); // source first
    t = rig.delete(t, ck2);
    t = rig.delete(t, ck3); // checkpoint first
    t = rig.delete(t, tmp);

    // ----- a crash, writes that route around it, both sweeps, recovery --
    rig.store.set_benefactor_alive(victim, false);
    rig.replay_matches_live();
    t = rig.poke(t, rep, 0, 2, 0x22); // drops the dead copy
    t = rig.poke(t, rs, 2, 6, 0x34); // group 1's parity goes stale
    {
        let mgr = rig.store.manager();
        assert!(!mgr.chunk_homes(rep0).unwrap().contains(&victim));
        assert!(mgr.file(rs).unwrap().parity_is_stale(1, 0));
    }
    let (t2, report) = rig.store.repair_under_replicated(t);
    assert!(report.chunks_repaired > 0);
    rig.replay_matches_live();
    let (t2, report) = rig.store.repair_parity_groups(t2);
    assert!(report.chunks_repaired > 0);
    rig.replay_matches_live();
    rig.store.set_benefactor_alive(victim, true); // reconciles
    rig.replay_matches_live();
    t = t2;

    // ----- lifetimes ---------------------------------------------------
    {
        let mut mgr = rig.store.manager();
        mgr.set_lifetime(ck1, Some(t)).unwrap();
        mgr.set_lifetime(plain, Some(t + VTime::from_secs(1)))
            .unwrap();
        assert_eq!(mgr.expire_files(t), 1);
    }
    rig.replay_matches_live();
    check("at the end", &AT_END, rig.observe());
}

fn chunk(rig: &Rig, f: FileId, idx: usize) -> chunkstore::ChunkId {
    match rig.store.manager().file(f).unwrap().slots[idx] {
        Slot::Chunk(c) => c,
        s => panic!("slot {idx} is {s:?}"),
    }
}
