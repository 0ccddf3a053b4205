use super::*;
use crate::error::StoreError;
use crate::ids::FileId;
use devices::{Ssd, INTEL_X25E};
use simcore::{StatsRegistry, VTime};

const CHUNK: u64 = 256 * 1024;

fn mgr(benefactors: usize, cap_chunks: u64) -> Manager {
    let stats = StatsRegistry::new();
    let mut m = Manager::new(CHUNK, simcore::Counter::new("store.journal_records"));
    for i in 0..benefactors {
        let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
        m.register_benefactor(Benefactor::new(i, ssd, cap_chunks * CHUNK, CHUNK));
    }
    m
}

fn materialize(m: &mut Manager, f: FileId, idx: usize) -> ChunkId {
    let home = m.file(f).unwrap().home_of_slot(idx);
    let data = crate::payload::zero_chunk(CHUNK);
    let c = m.new_chunk_id(1, data.digest());
    m.benefactor_mut(home)
        .store_chunk(VTime::ZERO, c, data, CHUNK, true);
    m.set_slot(f, idx, c, &[home]);
    c
}

#[test]
fn create_lookup_delete() {
    let mut m = mgr(2, 16);
    let f = m.create_file("/x").unwrap();
    assert_eq!(m.lookup("/x"), Some(f));
    assert_eq!(
        m.create_file("/x").unwrap_err(),
        StoreError::FileExists("/x".into())
    );
    m.delete_file(f).unwrap();
    assert_eq!(m.lookup("/x"), None);
    assert_eq!(m.delete_file(f).unwrap_err(), StoreError::NoSuchFile);
}

#[test]
fn fallocate_reserves_striped_slots() {
    let mut m = mgr(2, 16);
    let f = m.create_file("/x").unwrap();
    m.fallocate(f, 4 * CHUNK, StripeSpec::all(), PlacementPolicy::RoundRobin)
        .unwrap();
    // 4 slots over 2 benefactors: 2 each.
    assert_eq!(m.benefactor(BenefactorId(0)).used(), 2 * CHUNK);
    assert_eq!(m.benefactor(BenefactorId(1)).used(), 2 * CHUNK);
    let meta = m.file(f).unwrap();
    assert_eq!(meta.slots.len(), 4);
    assert_eq!(meta.home_of_slot(0), BenefactorId(0));
    assert_eq!(meta.home_of_slot(1), BenefactorId(1));
    assert_eq!(meta.home_of_slot(2), BenefactorId(0));
}

#[test]
fn fallocate_partial_chunk_rounds_up() {
    let mut m = mgr(1, 16);
    let f = m.create_file("/x").unwrap();
    m.fallocate(f, CHUNK + 1, StripeSpec::all(), PlacementPolicy::RoundRobin)
        .unwrap();
    assert_eq!(m.file(f).unwrap().slots.len(), 2);
}

#[test]
fn fallocate_out_of_space() {
    let mut m = mgr(1, 2);
    let f = m.create_file("/x").unwrap();
    let err = m
        .fallocate(f, 3 * CHUNK, StripeSpec::all(), PlacementPolicy::RoundRobin)
        .unwrap_err();
    assert!(matches!(err, StoreError::OutOfSpace { .. }));
    // Nothing was reserved on failure.
    assert_eq!(m.benefactor(BenefactorId(0)).used(), 0);
}

#[test]
fn stripe_count_selects_subset() {
    let mut m = mgr(4, 16);
    let f = m.create_file("/x").unwrap();
    m.fallocate(
        f,
        8 * CHUNK,
        StripeSpec::count(2),
        PlacementPolicy::RoundRobin,
    )
    .unwrap();
    assert_eq!(m.file(f).unwrap().stripe.len(), 2);
    let y = m.create_file("/y").unwrap();
    let err = m
        .fallocate(y, CHUNK, StripeSpec::count(9), PlacementPolicy::RoundRobin)
        .unwrap_err();
    assert!(matches!(err, StoreError::NotEnoughBenefactors { .. }));
}

#[test]
fn explicit_stripe_respected() {
    let mut m = mgr(4, 16);
    let f = m.create_file("/x").unwrap();
    m.fallocate(
        f,
        4 * CHUNK,
        StripeSpec::explicit(vec![BenefactorId(3), BenefactorId(1)]),
        PlacementPolicy::RoundRobin,
    )
    .unwrap();
    let meta = m.file(f).unwrap();
    assert_eq!(meta.home_of_slot(0), BenefactorId(3));
    assert_eq!(meta.home_of_slot(1), BenefactorId(1));
}

#[test]
fn dead_benefactor_rejected() {
    let mut m = mgr(2, 16);
    m.set_alive(BenefactorId(1), false);
    let f = m.create_file("/x").unwrap();
    let err = m
        .fallocate(
            f,
            CHUNK,
            StripeSpec::explicit(vec![BenefactorId(1)]),
            PlacementPolicy::RoundRobin,
        )
        .unwrap_err();
    assert_eq!(err, StoreError::BenefactorDown(BenefactorId(1)));
    // Count(n) only sees the alive one.
    assert_eq!(m.alive_benefactors(), vec![BenefactorId(0)]);
}

#[test]
fn explicit_stripe_error_contract() {
    // The documented resolve_stripe contract for Explicit lists: an
    // empty list is NoBenefactors; naming a dead OR never-registered
    // benefactor is BenefactorDown(the offending id) — one error for
    // "that benefactor cannot serve you", whatever the reason.
    let mut m = mgr(2, 16);
    let f = m.create_file("/x").unwrap();
    let err = m
        .fallocate(
            f,
            CHUNK,
            StripeSpec::explicit(vec![]),
            PlacementPolicy::RoundRobin,
        )
        .unwrap_err();
    assert_eq!(err, StoreError::NoBenefactors);

    let err = m
        .fallocate(
            f,
            CHUNK,
            StripeSpec::explicit(vec![BenefactorId(0), BenefactorId(9)]),
            PlacementPolicy::RoundRobin,
        )
        .unwrap_err();
    assert_eq!(err, StoreError::BenefactorDown(BenefactorId(9)));

    m.set_alive(BenefactorId(1), false);
    let err = m
        .fallocate(
            f,
            CHUNK,
            StripeSpec::explicit(vec![BenefactorId(1)]),
            PlacementPolicy::RoundRobin,
        )
        .unwrap_err();
    assert_eq!(err, StoreError::BenefactorDown(BenefactorId(1)));
    // Nothing was reserved by the failed attempts.
    assert_eq!(m.benefactor(BenefactorId(0)).used(), 0);
}

#[test]
fn replicated_fallocate_reserves_k_slots_per_chunk() {
    let mut m = mgr(3, 16);
    let f = m.create_file("/x").unwrap();
    m.fallocate(
        f,
        3 * CHUNK,
        StripeSpec::all().with_replicas(2),
        PlacementPolicy::RoundRobin,
    )
    .unwrap();
    // 3 slots × 2 replicas = 6 reservations, spread 2 per benefactor.
    let total: u64 = (0..3).map(|i| m.benefactor(BenefactorId(i)).used()).sum();
    assert_eq!(total, 6 * CHUNK);
    let meta = m.file(f).unwrap();
    assert_eq!(meta.replicas, 2);
    for idx in 0..3 {
        let homes = meta.homes_of_slot(idx);
        assert_eq!(homes.len(), 2);
        assert_ne!(homes[0], homes[1]);
    }
}

#[test]
fn parity_fallocate_reserves_groups_on_distinct_benefactors() {
    let mut m = mgr(6, 64);
    let f = m.create_file("/x").unwrap();
    m.fallocate(
        f,
        8 * CHUNK,
        StripeSpec::all().with_parity(4, 2),
        PlacementPolicy::RoundRobin,
    )
    .unwrap();
    // 8 data slots + 2 groups × 2 parity = 12 reservations.
    let total: u64 = (0..6).map(|i| m.benefactor(BenefactorId(i)).used()).sum();
    assert_eq!(total, 12 * CHUNK);
    let meta = m.file(f).unwrap();
    assert_eq!(meta.parity_groups(), 2);
    for g in 0..2 {
        let mut members: Vec<BenefactorId> = meta
            .group_data_slots(g)
            .map(|i| meta.home_of_slot(i))
            .collect();
        members.extend((0..2).map(|p| meta.parity_home(g, p)));
        let n = members.len();
        members.sort_unstable();
        members.dedup();
        assert_eq!(members.len(), n, "group {g} members must not co-locate");
    }
    // Delete releases every reservation, parity included.
    m.delete_file(f).unwrap();
    let total: u64 = (0..6).map(|i| m.benefactor(BenefactorId(i)).used()).sum();
    assert_eq!(total, 0);
}

#[test]
fn parity_needs_wide_enough_stripe() {
    let mut m = mgr(3, 64);
    let f = m.create_file("/x").unwrap();
    let err = m
        .fallocate(
            f,
            8 * CHUNK,
            StripeSpec::all().with_parity(4, 2),
            PlacementPolicy::RoundRobin,
        )
        .unwrap_err();
    assert_eq!(
        err,
        StoreError::NotEnoughBenefactors {
            requested: 6,
            alive: 3
        }
    );
}

#[test]
fn group_reverse_map_tracks_materialization_and_delete() {
    let mut m = mgr(4, 64);
    let f = m.create_file("/x").unwrap();
    m.fallocate(
        f,
        4 * CHUNK,
        StripeSpec::all().with_parity(2, 1),
        PlacementPolicy::RoundRobin,
    )
    .unwrap();
    let c = materialize(&mut m, f, 3);
    assert_eq!(
        m.group_of_chunk(c),
        Some(GroupRef {
            file: f,
            group: 1,
            member: 1
        })
    );
    m.delete_file(f).unwrap();
    assert_eq!(m.group_of_chunk(c), None);
}

#[test]
fn random_placement_is_deterministic() {
    let mut m = mgr(4, 64);
    let f = m.create_file("/x").unwrap();
    m.fallocate(
        f,
        32 * CHUNK,
        StripeSpec::all(),
        PlacementPolicy::RandomPermutation { seed: 7 },
    )
    .unwrap();
    let meta = m.file(f).unwrap();
    let homes: Vec<_> = (0..32).map(|i| meta.home_of_slot(i)).collect();
    let homes2: Vec<_> = (0..32).map(|i| meta.home_of_slot(i)).collect();
    assert_eq!(homes, homes2);
    // Not all on one benefactor.
    assert!(homes.iter().any(|&h| h != homes[0]));
}

#[test]
fn link_file_shares_chunks_and_freezes_holes() {
    let mut m = mgr(2, 16);
    let var = m.create_file("/var").unwrap();
    m.fallocate(
        var,
        3 * CHUNK,
        StripeSpec::all(),
        PlacementPolicy::RoundRobin,
    )
    .unwrap();
    let c0 = materialize(&mut m, var, 0);
    // Slot 1 stays unmaterialized; slot 2 materialized.
    let c2 = materialize(&mut m, var, 2);

    let ckpt = m.create_file("/ckpt").unwrap();
    m.link_file(ckpt, var).unwrap();
    assert_eq!(m.chunk_refcount(c0), 2);
    assert_eq!(m.chunk_refcount(c2), 2);
    let meta = m.file(ckpt).unwrap();
    assert_eq!(meta.slots[0], Slot::Chunk(c0));
    assert_eq!(meta.slots[1], Slot::Hole);
    assert_eq!(meta.slots[2], Slot::Chunk(c2));

    // No extra physical space for shared chunks.
    assert_eq!(m.physical_bytes(), 2 * CHUNK);

    // Deleting the variable keeps the checkpoint intact.
    m.delete_file(var).unwrap();
    assert_eq!(m.chunk_refcount(c0), 1);
    assert!(m.benefactor(m.chunk_home(c0).unwrap()).has_chunk(c0));
    // Deleting the checkpoint frees everything.
    m.delete_file(ckpt).unwrap();
    assert_eq!(m.chunk_refcount(c0), 0);
    assert_eq!(m.physical_bytes(), 0);
}

#[test]
fn quarantined_benefactor_excluded_from_new_stripes() {
    let mut m = mgr(3, 16);
    m.set_quarantined(BenefactorId(1), true);
    assert_eq!(
        m.placeable_benefactors(),
        vec![BenefactorId(0), BenefactorId(2)]
    );
    assert_eq!(m.quarantined_count(), 1);

    let f = m.create_file("/x").unwrap();
    m.fallocate(f, 4 * CHUNK, StripeSpec::all(), PlacementPolicy::RoundRobin)
        .unwrap();
    let stripe = &m.file(f).unwrap().stripe;
    assert!(
        !stripe.contains(&BenefactorId(1)),
        "All-stripe skips the quarantined benefactor"
    );

    // Explicit pins still work: quarantine is not death.
    let y = m.create_file("/y").unwrap();
    m.fallocate(
        y,
        CHUNK,
        StripeSpec::explicit(vec![BenefactorId(1)]),
        PlacementPolicy::RoundRobin,
    )
    .unwrap();

    // Count cannot draw from the quarantined pool either.
    let z = m.create_file("/z").unwrap();
    let err = m
        .fallocate(z, CHUNK, StripeSpec::count(3), PlacementPolicy::RoundRobin)
        .unwrap_err();
    assert!(matches!(err, StoreError::NotEnoughBenefactors { .. }));
}

#[test]
fn chunk_crc_recorded_and_updatable() {
    let mut m = mgr(2, 16);
    let f = m.create_file("/x").unwrap();
    m.fallocate(f, CHUNK, StripeSpec::all(), PlacementPolicy::RoundRobin)
        .unwrap();
    let c = materialize(&mut m, f, 0);
    let zeros = vec![0u8; CHUNK as usize];
    assert_eq!(m.chunk_crc(c), Some(crate::crc::crc64(&zeros)));
    m.set_chunk_crc(c, 0xDEAD);
    assert_eq!(m.chunk_crc(c), Some(0xDEAD));
    assert_eq!(m.chunk_ids_sorted(), vec![c]);
}

#[test]
fn journal_unload_load_round_trip_survives_churn() {
    let mut m = mgr(2, 16);
    let f = m.create_file("/x").unwrap();
    m.fallocate(f, 4 * CHUNK, StripeSpec::all(), PlacementPolicy::RoundRobin)
        .unwrap();
    let c0 = materialize(&mut m, f, 0);
    let c1 = materialize(&mut m, f, 1);
    // Churn a second file through so frees hit the journal too.
    let y = m.create_file("/y").unwrap();
    m.fallocate(y, 2 * CHUNK, StripeSpec::all(), PlacementPolicy::RoundRobin)
        .unwrap();
    materialize(&mut m, y, 0);
    m.delete_file(y).unwrap();

    let image = m.unload_journal(0);
    let (sb, meta, repair) = crate::journal::load_image(&image, CHUNK).unwrap();
    assert_eq!(sb.epoch, m.placement_epoch());
    assert!(!repair.torn, "clean image loads without repair");
    meta.assert_consistent();
    assert_eq!(meta.state, *m.state(), "replay is the live state");
    assert!(meta.state.homes.contains_key(&c0));
    assert!(meta.state.homes.contains_key(&c1));
    // The deleted file's chunk was freed out of the replayed state.
    assert_eq!(meta.state.homes.len(), 2);
    assert_eq!(meta.state.chunks.len(), 2);
    // Rebuilt allocators agree with the fleet's free space.
    for (bi, _) in [(0usize, ()), (1, ())] {
        let live = m.benefactor(BenefactorId(bi)).slot_allocator();
        let rebuilt = meta.rebuild_alloc(bi, live.len());
        assert_eq!(rebuilt.free_count(), live.free_count());
    }
}

/// A file name is outside input that enters a journal record: one no
/// frame can hold is refused with a declared error, before any change.
#[test]
fn create_file_refuses_a_name_over_the_record_cap() {
    let mut m = mgr(2, 16);
    let name = "n".repeat(crate::journal::MAX_RECORD_BYTES);
    let err = m.create_file(&name).unwrap_err();
    assert!(matches!(err, StoreError::RecordTooLarge { bytes, max }
        if bytes > max && max == crate::journal::MAX_RECORD_BYTES));
    assert_eq!(m.lookup(&name), None);
    assert_eq!(m.journal().total_records(), 0, "nothing committed");
    // The longest name a frame holds is a file like any other.
    let longest = "n".repeat(crate::journal::MAX_RECORD_BYTES - 13);
    assert_eq!(m.create_file(&longest), Ok(FileId(0)));
    assert_eq!(m.lookup(&longest), Some(FileId(0)));
}

/// So is an explicit stripe list: repeating a benefactor past what a
/// `Fallocate` record holds is refused, nothing reserved.
#[test]
fn fallocate_refuses_a_stripe_over_the_record_cap() {
    let mut m = mgr(2, 16);
    let f = m.create_file("/x").unwrap();
    let list = vec![BenefactorId(0); crate::journal::MAX_RECORD_BYTES / 4];
    let spec = StripeSpec::explicit(list);
    let err = m.fallocate(f, CHUNK, spec, PlacementPolicy::RoundRobin);
    assert!(
        matches!(err, Err(StoreError::RecordTooLarge { .. })),
        "{err:?}"
    );
    assert_eq!(m.file(f).unwrap().size, 0);
    assert_eq!(m.space().1, 32 * CHUNK, "nothing reserved");
}

#[test]
fn space_report() {
    let mut m = mgr(2, 4);
    let (total, free) = m.space();
    assert_eq!(total, 8 * CHUNK);
    assert_eq!(free, 8 * CHUNK);
    let f = m.create_file("/x").unwrap();
    m.fallocate(f, 2 * CHUNK, StripeSpec::all(), PlacementPolicy::RoundRobin)
        .unwrap();
    assert_eq!(m.space().1, 6 * CHUNK);
}
