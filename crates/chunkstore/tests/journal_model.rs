//! Model-based property tests of the journal codec and its
//! scan-and-repair replay (DESIGN.md §16).
//!
//! Two families:
//!
//! 1. **Codec round-trip**: any record of any variant — including the
//!    zero-length and maximum-length `LeafCheckpoint` edge cases —
//!    survives encode → decode exactly, and a journal of such records
//!    iterates and rescans in order with nothing truncated.
//!
//! 2. **Prefix replay**: build a journal from a valid mutation history,
//!    cut it at an *arbitrary byte offset* and optionally flip one byte
//!    of what remains (torn tail / bit rot). Scan-and-repair must
//!    recover exactly some prefix of the appended records, the replayed
//!    [`ShardMeta`] must pass its own `assert_consistent` sweep, and its
//!    whole [`Placement`] (homes with their slots, and parity-group
//!    membership), per-benefactor populations and rebuilt-allocator free
//!    counts must agree with an independent set model of that prefix.

use chunkstore::{ChunkId, Journal, Placement, Record, ShardMeta};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Slot capacity per benefactor in the prefix-replay model.
const CAP: usize = 96;
/// Benefactors the model places across.
const BENEFACTORS: usize = 3;
/// Max `LeafCheckpoint` words that still fit the 64 KiB record-payload
/// cap: tag(1) + benefactor(4) + len(8) + words(4) + words*8 ≤ 65536.
const MAX_LEAF_WORDS: usize = (64 * 1024 - 17) / 8;

fn record_strategy() -> impl Strategy<Value = Record> {
    prop_oneof![
        4 => (any::<u64>(), 0usize..64, 0usize..4096).prop_map(|(c, b, s)| Record::Place {
            chunk: ChunkId(c),
            benefactor: b,
            slot: s,
        }),
        4 => (any::<u64>(), 0usize..64, 0usize..4096).prop_map(|(c, b, s)| Record::Free {
            chunk: ChunkId(c),
            benefactor: b,
            slot: s,
        }),
        2 => any::<u64>().prop_map(|epoch| Record::EpochBump { epoch }),
        2 => (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()).prop_map(
            |(c, file, group, member)| Record::GroupLink {
                chunk: ChunkId(c),
                file,
                group,
                member,
            }
        ),
        2 => any::<u64>().prop_map(|c| Record::GroupUnlink { chunk: ChunkId(c) }),
        3 => (0usize..64, proptest::collection::vec(any::<u64>(), 0..80)).prop_map(
            |(b, leaf)| Record::LeafCheckpoint {
                benefactor: b,
                len: leaf.len() * 64,
                leaf,
            }
        ),
        // The codec's edge cases, kept in rotation: an empty bitmap…
        1 => Just(Record::LeafCheckpoint {
            benefactor: 0,
            len: 0,
            leaf: vec![],
        }),
        // …and the largest record the frame cap admits.
        1 => Just(Record::LeafCheckpoint {
            benefactor: 1,
            len: MAX_LEAF_WORDS * 64,
            leaf: vec![0xAAAA_AAAA_AAAA_AAAA; MAX_LEAF_WORDS],
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn codec_round_trips_arbitrary_records(
        recs in proptest::collection::vec(record_strategy(), 1..24)
    ) {
        let mut j = Journal::new();
        for r in &recs {
            let bytes = r.encode_payload();
            let decoded = Record::decode_payload(&bytes);
            prop_assert_eq!(decoded.as_ref(), Some(r));
            j.append(r);
        }
        prop_assert_eq!(j.records(), recs.len() as u64);
        prop_assert_eq!(j.iter().collect::<Vec<_>>(), recs.clone());
        // A clean rescan recovers everything and truncates nothing.
        let (back, stats) = Journal::scan_and_repair(j.bytes());
        prop_assert_eq!(back.records(), recs.len() as u64);
        prop_assert!(!stats.torn);
        prop_assert_eq!(stats.truncated_bytes, 0);
    }
}

/// One step of a *valid* mutation history (the kind a live manager
/// journals): frees only free placed copies, slots come from a real
/// per-benefactor free list.
#[derive(Clone, Debug)]
enum Op {
    /// Place `chunk` on benefactor `pick % BENEFACTORS`, lowest free slot.
    Place { chunk: u64, pick: usize },
    /// Free the `index % live`-th outstanding placement.
    Free { index: usize },
    /// Bump the epoch and journal the revocation.
    Revoke,
    /// Link `chunk` into a parity group.
    Link { chunk: u64, file: u64, member: u32 },
    /// Unlink the `index % linked`-th linked chunk.
    Unlink { index: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u64..64, any::<usize>()).prop_map(|(chunk, pick)| Op::Place { chunk, pick }),
        3 => any::<usize>().prop_map(|index| Op::Free { index }),
        1 => Just(Op::Revoke),
        2 => (0u64..64, 0u64..8, 0u32..6).prop_map(|(chunk, file, member)| Op::Link {
            chunk,
            file,
            member,
        }),
        1 => any::<usize>().prop_map(|index| Op::Unlink { index }),
    ]
}

/// Turn an op history into the record sequence a manager would journal.
fn records_of(ops: &[Op]) -> Vec<Record> {
    let mut free: Vec<BTreeSet<usize>> = (0..BENEFACTORS).map(|_| (0..CAP).collect()).collect();
    let mut live: Vec<(u64, usize, usize)> = Vec::new();
    let mut linked: Vec<u64> = Vec::new();
    let mut epoch = 0u64;
    let mut out = Vec::new();
    for op in ops {
        match *op {
            Op::Place { chunk, pick } => {
                let b = pick % BENEFACTORS;
                let Some(&slot) = free[b].iter().next() else {
                    continue; // benefactor full — a live manager would ENOSPC
                };
                free[b].remove(&slot);
                live.push((chunk, b, slot));
                out.push(Record::Place {
                    chunk: ChunkId(chunk),
                    benefactor: b,
                    slot,
                });
            }
            Op::Free { index } => {
                if live.is_empty() {
                    continue;
                }
                let (chunk, b, slot) = live.swap_remove(index % live.len());
                free[b].insert(slot);
                out.push(Record::Free {
                    chunk: ChunkId(chunk),
                    benefactor: b,
                    slot,
                });
            }
            Op::Revoke => {
                epoch += 1;
                out.push(Record::EpochBump { epoch });
            }
            Op::Link {
                chunk,
                file,
                member,
            } => {
                linked.push(chunk);
                out.push(Record::GroupLink {
                    chunk: ChunkId(chunk),
                    file,
                    group: 0,
                    member,
                });
            }
            Op::Unlink { index } => {
                if linked.is_empty() {
                    continue;
                }
                let chunk = linked.swap_remove(index % linked.len());
                out.push(Record::GroupUnlink {
                    chunk: ChunkId(chunk),
                });
            }
        }
    }
    out
}

/// A placement table as the model keeps one: chunk → (benefactor, slot)
/// homes in place order, and chunk → (file, group, member).
type ModelPlacement = (
    BTreeMap<u64, Vec<(usize, usize)>>,
    BTreeMap<u64, (u64, u32, u32)>,
);

fn model_view(p: &Placement) -> ModelPlacement {
    let homes = p
        .chunks()
        .map(|(c, ids, slots)| {
            (
                c.0,
                ids.iter().map(|b| b.0).zip(slots.iter().copied()).collect(),
            )
        })
        .collect();
    let groups = p
        .groups()
        .map(|(c, g)| (c.0, (g.file.0, g.group as u32, g.member as u32)))
        .collect();
    (homes, groups)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_prefix_replays_to_consistent_state(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        cut_seed in any::<usize>(),
        rot in prop_oneof![
            1 => Just(None),
            1 => (any::<usize>(), 0u8..255).prop_map(|(at, m)| Some((at, m + 1))),
        ],
    ) {
        let records = records_of(&ops);
        let mut j = Journal::new();
        for r in &records {
            j.append(r);
        }
        // Tear the log at an arbitrary byte offset…
        let cut = cut_seed % (j.byte_len() + 1);
        let mut raw = j.bytes()[..cut].to_vec();
        // …and optionally rot one byte of what survived.
        if let Some((at, mask)) = rot {
            if !raw.is_empty() {
                let at = at % raw.len();
                raw[at] ^= mask;
            }
        }
        let (back, stats) = Journal::scan_and_repair(&raw);
        // The scanner recovers a clean *prefix*: CRC-64 catches any
        // single-byte rot, so recovered records are exactly the first
        // `stats.records` appended ones.
        prop_assert!(stats.records <= records.len() as u64);
        prop_assert_eq!(back.records(), stats.records);
        let r = stats.records as usize;
        prop_assert_eq!(
            back.iter().collect::<Vec<_>>(),
            records[..r].to_vec(),
            "recovered log is a strict prefix"
        );
        // Replay is internally consistent whatever the cut point was.
        let meta = ShardMeta::replay(back.iter());
        meta.assert_consistent();
        // And agrees with an independent set model of the same prefix.
        let mut homes: BTreeMap<u64, Vec<(usize, usize)>> = BTreeMap::new();
        let mut groups: BTreeMap<u64, (u64, u32, u32)> = BTreeMap::new();
        let mut alloc: Vec<BTreeSet<usize>> =
            (0..BENEFACTORS).map(|_| BTreeSet::new()).collect();
        let mut epoch = 0u64;
        for rec in &records[..r] {
            match rec {
                Record::Place {
                    chunk,
                    benefactor,
                    slot,
                } => {
                    alloc[*benefactor].insert(*slot);
                    homes.entry(chunk.0).or_default().push((*benefactor, *slot));
                }
                Record::Free {
                    chunk,
                    benefactor,
                    slot,
                } => {
                    alloc[*benefactor].remove(slot);
                    if let Some(h) = homes.get_mut(&chunk.0) {
                        h.retain(|&e| e != (*benefactor, *slot));
                        if h.is_empty() {
                            homes.remove(&chunk.0);
                        }
                    }
                }
                Record::EpochBump { epoch: e } => epoch = epoch.max(*e),
                Record::GroupLink {
                    chunk,
                    file,
                    group,
                    member,
                } => {
                    groups.insert(chunk.0, (*file, *group, *member));
                }
                Record::GroupUnlink { chunk } => {
                    groups.remove(&chunk.0);
                }
                Record::LeafCheckpoint { .. } => {}
            }
        }
        prop_assert_eq!(meta.epoch, epoch);
        prop_assert_eq!(model_view(&meta.placement), (homes, groups), "placement diverged");
        for (b, set) in alloc.iter().enumerate() {
            prop_assert_eq!(
                meta.allocated_on(b),
                set.len(),
                "benefactor {} population diverged", b
            );
            // The rebuilt allocator (BitAlloc::from_leaf) sees the same
            // free count the model does.
            let a = meta.rebuild_alloc(b, CAP);
            a.assert_consistent();
            prop_assert_eq!(a.free_count(), CAP - set.len());
        }
    }
}
