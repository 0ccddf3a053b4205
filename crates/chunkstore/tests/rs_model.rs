//! Property-based model of the RS(k, m) codec (DESIGN.md §15).
//!
//! The codec is checked against a *naive* GF(2^8) reference — schoolbook
//! carry-less multiplication reduced mod x^8 + x^4 + x^3 + x^2 + 1 — so a
//! bug in the exp/log tables cannot hide behind itself. Properties:
//!
//! * encode — every parity byte equals the naive Σ coef(p, j) · data_j;
//! * any-k decode — for *every* k-subset of the k + m members, the
//!   remaining members reconstruct exactly (the MDS property);
//! * incremental ≡ full — XOR-ing `parity_delta` into the old parity
//!   lands on the full re-encode of the new data, byte for byte;
//! * placement — `with_parity` spreads every group's k + m members over
//!   distinct benefactors, whatever the stripe width.

use chunkstore::{
    AggregateStore, Benefactor, PlacementPolicy, RsCode, Slot, StoreConfig, StripeSpec,
};
use devices::{Ssd, INTEL_X25E};
use netsim::Network;
use proptest::prelude::*;
use simcore::{time::bytes::mib, StatsRegistry, VTime};
use std::collections::HashSet;

/// Same reduction polynomial as `chunkstore::rs` (0x11D), applied the
/// slow, obviously-correct way.
fn naive_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= 0x1D; // low byte of x^8 + x^4 + x^3 + x^2 + 1
        }
        b >>= 1;
    }
    acc
}

/// Deterministic member data derived from a proptest-chosen byte pool.
fn members(bytes: &[u8], k: usize, len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|j| {
            (0..len)
                .map(|i| bytes[(j * len + i) % bytes.len()].wrapping_add(j as u8))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_matches_naive_reference(
        k in 1usize..6,
        m in 0usize..4,
        len in 1usize..48,
        bytes in proptest::collection::vec(any::<u8>(), 1..128),
    ) {
        let code = RsCode::new(k, m);
        let data = members(&bytes, k, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        for p in 0..m {
            let mut out = vec![0u8; len];
            code.encode_parity(p, &refs, &mut out);
            for i in 0..len {
                let mut acc = 0u8;
                for (j, d) in data.iter().enumerate() {
                    acc ^= naive_mul(code.coef(p, j), d[i]);
                }
                prop_assert_eq!(out[i], acc, "parity {} byte {}", p, i);
            }
        }
    }

    #[test]
    fn every_k_subset_of_survivors_reconstructs(
        k in 1usize..5,
        m in 0usize..4,
        len in 1usize..32,
        bytes in proptest::collection::vec(any::<u8>(), 1..128),
    ) {
        let code = RsCode::new(k, m);
        let data = members(&bytes, k, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut stored = data.clone();
        for p in 0..m {
            let mut out = vec![0u8; len];
            code.encode_parity(p, &refs, &mut out);
            stored.push(out);
        }
        let n = k + m;
        for mask in 0u32..1 << n {
            if mask.count_ones() as usize != k {
                continue;
            }
            let present: Vec<(usize, &[u8])> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| (i, stored[i].as_slice()))
                .collect();
            let want: Vec<usize> = (0..n).filter(|i| mask & (1 << i) == 0).collect();
            let got = code.reconstruct(&present, &want);
            for (w, g) in want.iter().zip(&got) {
                prop_assert_eq!(g, &stored[*w], "survivors {:#b}, member {}", mask, w);
            }
        }
    }

    #[test]
    fn incremental_delta_lands_on_full_reencode(
        k in 1usize..6,
        m in 1usize..4,
        len in 2usize..48,
        jraw in 0usize..6,
        span in (0usize..48, 1usize..48),
        bytes in proptest::collection::vec(any::<u8>(), 1..128),
    ) {
        let code = RsCode::new(k, m);
        let j = jraw % k;
        let off = span.0 % (len - 1);
        let dlen = (span.1 % (len - off)).max(1);
        let old = members(&bytes, k, len);
        let mut new = old.clone();
        for (i, b) in new[j][off..off + dlen].iter_mut().enumerate() {
            *b = b.wrapping_mul(167).wrapping_add(i as u8 | 1);
        }
        let old_refs: Vec<&[u8]> = old.iter().map(|d| d.as_slice()).collect();
        let new_refs: Vec<&[u8]> = new.iter().map(|d| d.as_slice()).collect();
        for p in 0..m {
            let mut before = vec![0u8; len];
            let mut after = vec![0u8; len];
            code.encode_parity(p, &old_refs, &mut before);
            code.encode_parity(p, &new_refs, &mut after);
            let mut delta = vec![0u8; dlen];
            code.parity_delta(p, j, &old[j][off..off + dlen], &new[j][off..off + dlen], &mut delta);
            let mut spliced = before;
            for (s, d) in spliced[off..off + dlen].iter_mut().zip(&delta) {
                *s ^= d;
            }
            prop_assert_eq!(spliced, after, "parity {} diverges from re-encode", p);
        }
    }

    #[test]
    fn parity_groups_always_land_on_distinct_benefactors(
        nbene in 3usize..8,
        kraw in 1usize..5,
        mraw in 1usize..3,
        slots in 1usize..10,
    ) {
        const CHUNK: u64 = 256 * 1024;
        let k = kraw.min(nbene - 1);
        let m = mraw.min(nbene - k);
        let stats = StatsRegistry::new();
        let net = Network::new(nbene + 1, &stats);
        let store = AggregateStore::new(StoreConfig::default(), net, &stats);
        for node in 0..nbene {
            let ssd = Ssd::new(&format!("b{node}.ssd"), INTEL_X25E, &stats);
            store.add_benefactor(Benefactor::new(node, ssd, mib(64), CHUNK));
        }
        let client = nbene;
        let (t, f) = store.create_file(VTime::ZERO, client, "/v").unwrap();
        store
            .fallocate(
                t,
                client,
                f,
                slots as u64 * CHUNK,
                StripeSpec::all().with_parity(k, m),
                PlacementPolicy::RoundRobin,
            )
            .unwrap();
        let mgr = store.manager();
        let meta = mgr.file(f).unwrap();
        for g in 0..meta.parity_groups() {
            let mut homes: Vec<_> = meta
                .group_data_slots(g)
                .map(|idx| match meta.slots[idx] {
                    Slot::Unmaterialized => meta.home_of_slot(idx),
                    _ => panic!("fresh file has unmaterialized slots"),
                })
                .collect();
            for p in 0..m {
                homes.push(meta.parity_home(g, p));
            }
            let distinct: HashSet<_> = homes.iter().copied().collect();
            prop_assert_eq!(
                distinct.len(),
                homes.len(),
                "group {} members share a benefactor",
                g
            );
        }
    }
}
