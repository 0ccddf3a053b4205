//! Background repair: the scrub daemon (DESIGN.md §11) and the two
//! sweeps that restore redundancy after losses — re-replication
//! (DESIGN.md §7) and parity-group rebuild (DESIGN.md §15). Each walks
//! the metadata in a deterministic order and keeps its own clock, report
//! and counters; what it does to a copy is decided in `copies`.

use super::copies::{self, Landing};
use super::{
    AggregateStore, RepairReport, ScrubConfig, INTEGRITY_COUNTERS, QUARANTINE_MIN_SAMPLES,
    QUARANTINE_RATE,
};
use crate::ids::{BenefactorId, ChunkId, FileId};
use crate::manager::{GroupRef, Manager, Slot};
use obs::Layer;
use simcore::VTime;

/// Scrub daemon runtime state (see [`ScrubConfig`]).
#[derive(Debug)]
pub(super) struct ScrubState {
    cfg: ScrubConfig,
    /// Earliest virtual time the next pass may start.
    next_at: VTime,
    /// When the in-flight pass finishes; a poll before this is a no-op so
    /// passes never overlap.
    busy_until: VTime,
    /// Chunk-id walk cursor: the next pass resumes at the first chunk id
    /// ≥ this value (wrapping).
    cursor: u64,
    /// Per-benefactor copies verified, for the quarantine rate.
    scrubbed: Vec<u64>,
    /// Per-benefactor CRC mismatches found.
    bad: Vec<u64>,
}

/// Every benefactor currently holding (or reserving) a member of parity
/// group `gidx` — the exclusion set for re-homing, preserving the
/// placement invariant that no benefactor holds two members of a group.
fn group_homes(mgr: &Manager, f: FileId, gidx: usize) -> Vec<BenefactorId> {
    let Ok(meta) = mgr.file(f) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut add_slot = |slot: Slot, reserve: BenefactorId| match slot {
        Slot::Chunk(c) => {
            if let Some(homes) = mgr.chunk_homes(c) {
                out.extend(homes.iter().copied());
            }
        }
        Slot::Unmaterialized => out.push(reserve),
        Slot::Hole => {}
    };
    for idx in meta.group_data_slots(gidx) {
        add_slot(meta.slots[idx], meta.home_of_slot(idx));
    }
    for p in 0..meta.parity {
        add_slot(meta.parity_slot(gidx, p), meta.parity_home(gidx, p));
    }
    out
}

impl AggregateStore {
    // ----- scrub daemon -----------------------------------------------------

    /// Install the background scrub daemon; the first pass may start at
    /// `start_at`. Like fault plans, the daemon is driven by the fault
    /// polls at the top of every timed store operation.
    pub fn attach_scrub(&self, cfg: ScrubConfig, start_at: VTime) {
        assert!(cfg.chunks_per_pass > 0, "scrub pass must cover chunks");
        self.register_counters(INTEGRITY_COUNTERS);
        let n = self.mgr.borrow().benefactor_count();
        *self.scrub.borrow_mut() = Some(ScrubState {
            cfg,
            next_at: start_at,
            busy_until: VTime::ZERO,
            cursor: 0,
            scrubbed: vec![0; n],
            bad: vec![0; n],
        });
    }

    /// Run one scrub pass if the daemon is attached and due. The pass is
    /// kicked at the poll time `t` (the flusher pattern from PR 4): it
    /// charges benefactor SSD reads and repair traffic in virtual time,
    /// but never the foreground clock — `poll_faults` returns `()` and the
    /// caller's `t` is unchanged.
    pub(super) fn poll_scrub(&self, t: VTime) {
        let mut guard = self.scrub.borrow_mut();
        let Some(st) = guard.as_mut() else { return };
        if t < st.next_at || t < st.busy_until {
            return;
        }
        let sp = self.trace.span(Layer::Store, "store.scrub", t);
        let mut now = t;
        let mut verified = 0u64;
        let mut repaired = 0u64;
        let mut mgr = self.mgr.borrow_mut();
        let ids = mgr.chunk_ids_sorted();
        if !ids.is_empty() {
            let start = ids.partition_point(|c| c.0 < st.cursor);
            let n = st.cfg.chunks_per_pass.min(ids.len());
            for k in 0..n {
                let c = ids[(start + k) % ids.len()];
                now = self.scrub_chunk(&mut mgr, st, c, now, &mut verified, &mut repaired);
            }
            let last = ids[(start + n - 1) % ids.len()];
            st.cursor = last.0 + 1;
        }
        // Rebuild parity groups as part of the pass: dead-homed members
        // and stale parity are re-encoded from survivors (DESIGN.md §15).
        // A no-op — one metadata scan — when no file is erasure-coded.
        let (pt, preport) = self.repair_parity_groups_locked(&mut mgr, now);
        now = pt;
        repaired += preport.chunks_repaired;
        // Quarantine benefactors whose observed corruption rate crossed
        // the threshold: placement stops choosing them (alive, but no new
        // bytes land there).
        for i in 0..mgr.benefactor_count() {
            let b = BenefactorId(i);
            if mgr.benefactor(b).is_quarantined() || st.scrubbed[i] < QUARANTINE_MIN_SAMPLES {
                continue;
            }
            if st.bad[i] as f64 > QUARANTINE_RATE * st.scrubbed[i] as f64 {
                mgr.set_quarantined(b, true);
                mgr.bump_placement_epoch();
                self.stats.counter("store.quarantined").inc();
                self.trace
                    .instant(Layer::Store, format!("store.quarantine b={i}"), now);
            }
        }
        drop(mgr);
        self.stats.counter("store.scrub_passes").inc();
        st.busy_until = now;
        // Idle a full interval after the pass *finishes* — scheduling from
        // the kick time would let passes longer than the interval run
        // back-to-back and saturate the SSDs the foreground needs.
        st.next_at = now + st.cfg.interval;
        sp.arg("verified", verified).arg("repaired", repaired);
        sp.finish(now);
    }

    /// Scrub one chunk: verify every live copy benefactor-side (local SSD
    /// read, no network), drop mismatching copies, then restore the
    /// replica degree from a surviving copy. Returns the advanced pass
    /// clock.
    fn scrub_chunk(
        &self,
        mgr: &mut Manager,
        st: &mut ScrubState,
        c: ChunkId,
        mut now: VTime,
        verified: &mut u64,
        repaired: &mut u64,
    ) -> VTime {
        let Some(expected) = mgr.chunk_crc(c) else {
            return now; // deleted since the id list was taken
        };
        let homes: Vec<BenefactorId> = mgr.chunk_homes(c).expect("chunk without home").to_vec();
        // The one copy this pass found corrupt and had to leave listed
        // (a sole copy is never dropped): reads report it ChunkCorrupt,
        // and it must never be the donor of a new replica.
        let mut sole_bad = None;
        for h in homes {
            if !mgr.benefactor(h).is_alive() {
                continue;
            }
            let (g, data) = mgr.benefactor(h).read_chunk(now, c);
            now = g.end;
            st.scrubbed[h.0] += 1;
            *verified += 1;
            if data.digest() != expected {
                st.bad[h.0] += 1;
                self.stats.counter("store.crc_mismatches").inc();
                self.trace.instant(
                    Layer::Store,
                    format!("store.scrub_mismatch c={} b={}", c.0, h.0),
                    now,
                );
                if !copies::drop_bad_copy(mgr, c, h) {
                    sole_bad = Some(h);
                }
            }
        }
        // A corrupt sole copy of a parity-group member is rebuilt in
        // place from the group's survivors (DESIGN.md §15): k peer reads
        // and transfers, a decode, one full-chunk rewrite — where a
        // replica-less plain chunk would stay ChunkCorrupt forever.
        if let (Some(home), Some(gref)) = (sole_bad, mgr.group_of_chunk(c)) {
            let landing = Landing::InPlace { chunk: c, home };
            if let Some((end, _)) =
                copies::install_rebuilt(mgr, &self.net, now, gref, landing, false)
            {
                now = end;
                sole_bad = None;
                *repaired += 1;
                self.stats.counter("store.scrub_repairs").inc();
                self.stats.counter("store.parity_repairs").inc();
            }
        }
        // Re-replicate from a surviving copy up to the target degree. The
        // verdicts above already say which listed copy is bad — no copy
        // is re-read to pick the donor.
        loop {
            let homes: Vec<BenefactorId> = mgr.chunk_homes(c).expect("chunk listed").to_vec();
            let live = homes.iter().filter(|h| mgr.benefactor(**h).is_alive());
            if live.count() >= mgr.chunk_target(c).expect("chunk has a target") {
                break;
            }
            let donor = copies::trusted_copy(mgr, c, |h| Some(h) != sole_bad);
            let (Some(donor), Some(dest)) = (donor, copies::pick_destination(mgr, &homes)) else {
                break;
            };
            now = copies::replicate_to(mgr, &self.net, now, c, donor, dest);
            *repaired += 1;
            self.stats.counter("store.scrub_repairs").inc();
        }
        now
    }

    /// Untimed admin sweep: how many stored chunk copies currently
    /// disagree with their recorded CRC (bench/test instrumentation —
    /// time-to-repair is "first poll at which this reaches zero").
    pub fn count_corrupt_copies(&self) -> usize {
        let mgr = self.mgr.borrow();
        let mut n = 0;
        for c in mgr.chunk_ids_sorted() {
            for &h in mgr.chunk_homes(c).expect("chunk listed") {
                if mgr.benefactor(h).has_chunk(c) && !copies::is_clean(&mgr, c, h) {
                    n += 1;
                }
            }
        }
        n
    }

    // ----- repair sweeps ----------------------------------------------------

    /// One pass of the manager-side re-replication scanner: copy every
    /// under-replicated chunk from a surviving copy to a live benefactor
    /// that doesn't already hold one, restoring the replica degree after
    /// a crash. The sweep is sequential (donor SSD read → network copy →
    /// destination SSD write per chunk) so the returned completion time
    /// *is* the time-to-repair. Deterministic: chunks are visited in id
    /// order and the destination is the lowest-id eligible benefactor.
    pub fn repair_under_replicated(&self, t: VTime) -> (VTime, RepairReport) {
        self.poll_faults(t);
        let sp = self.trace.span(Layer::Store, "store.repair", t);
        let mut t = t;
        let mut report = RepairReport::default();
        let work = self.mgr.borrow().under_replicated();
        for (c, missing) in work {
            for _ in 0..missing {
                let mut mgr = self.mgr.borrow_mut();
                if mgr.chunk_homes(c).is_none() {
                    break; // chunk deleted mid-sweep
                }
                // Donor: the first live copy — under `verify_reads`, the
                // first live copy whose bytes still match the recorded
                // digest, so a rotten donor never propagates its
                // corruption into a fresh replica. Mismatching candidates
                // are counted and dropped like a failed read.
                let mut rotten = Vec::new();
                let donor = copies::trusted_copy(&mgr, c, |h| {
                    let ok = !self.cfg.verify_reads || copies::is_clean(&mgr, c, h);
                    if !ok {
                        rotten.push(h);
                    }
                    ok
                });
                for h in rotten {
                    self.stats.counter("store.crc_mismatches").inc();
                    copies::drop_bad_copy(&mut mgr, c, h);
                }
                // Re-read the home list: earlier copies in this sweep, a
                // racing write or the vetting above may have changed it.
                let homes: Vec<BenefactorId> = mgr.chunk_homes(c).expect("chunk listed").to_vec();
                let (Some(donor), Some(dest)) = (donor, copies::pick_destination(&mgr, &homes))
                else {
                    report.chunks_unrepairable += 1;
                    break;
                };
                t = copies::replicate_to(&mut mgr, &self.net, t, c, donor, dest);
                report.chunks_repaired += 1;
                report.bytes_copied += self.cfg.chunk_size;
                self.repairs_chunks.inc();
                self.repairs_bytes.add(self.cfg.chunk_size);
            }
        }
        sp.arg("repaired", report.chunks_repaired)
            .arg("unrepairable", report.chunks_unrepairable);
        sp.finish(t);
        (t, report)
    }

    /// Sweep every erasure-coded file and rebuild group members the store
    /// can no longer read: chunks whose every home is dead are decoded
    /// from `k` survivors onto a fresh benefactor, and stale parity (a
    /// delta that could not land because the parity home was dead) is
    /// re-encoded in place or re-homed. The parity analogue of
    /// [`repair_under_replicated`](Self::repair_under_replicated), with
    /// the same determinism: files, groups and members are visited in
    /// ascending order and the destination is the lowest-id placeable
    /// benefactor holding no member of the group.
    pub fn repair_parity_groups(&self, t: VTime) -> (VTime, RepairReport) {
        self.poll_faults(t);
        let sp = self.trace.span(Layer::Store, "store.parity_repair", t);
        let mut mgr = self.mgr.borrow_mut();
        let (end, report) = self.repair_parity_groups_locked(&mut mgr, t);
        drop(mgr);
        sp.arg("repaired", report.chunks_repaired)
            .arg("unrepairable", report.chunks_unrepairable);
        sp.finish(end);
        (end, report)
    }

    /// The sweep body, callable from inside the scrub pass (which already
    /// holds the manager borrow).
    fn repair_parity_groups_locked(&self, mgr: &mut Manager, t: VTime) -> (VTime, RepairReport) {
        let mut now = t;
        let mut report = RepairReport::default();
        for f in mgr.parity_files_sorted() {
            let (k, m, n_groups) = match mgr.file(f) {
                Ok(meta) => (meta.group_data, meta.parity, meta.parity_groups()),
                Err(_) => continue,
            };
            for gidx in 0..n_groups {
                for member in 0..k + m {
                    let gref = GroupRef {
                        file: f,
                        group: gidx,
                        member,
                    };
                    now = self.repair_group_member(mgr, now, gref, k, &mut report);
                }
            }
        }
        (now, report)
    }

    /// Examine one group member; if it is unreadable (dead-homed) or
    /// stale, rebuild it.
    fn repair_group_member(
        &self,
        mgr: &mut Manager,
        now: VTime,
        gref: GroupRef,
        k: usize,
        report: &mut RepairReport,
    ) -> VTime {
        // Where the rebuilt content lands (`None`: no benefactor can take
        // it) and whether the decode is trusted as the new truth.
        let (landing, trust_decode) = {
            let Ok(meta) = mgr.file(gref.file) else {
                return now;
            };
            let live = |c: ChunkId| copies::trusted_copy(mgr, c, |_| true);
            // Off every benefactor that holds a member of the group.
            let elsewhere =
                || copies::pick_destination(mgr, &group_homes(mgr, gref.file, gref.group));
            let rehome = |chunk| elsewhere().map(|dest| Landing::Rehome { chunk, dest });
            if gref.member < k {
                match meta.group_slot(gref.group, gref.member) {
                    // A chunk whose every home is dead: decode onto a
                    // fresh benefactor.
                    Slot::Chunk(chunk) if live(chunk).is_none() => (rehome(chunk), false),
                    _ => return now,
                }
            } else {
                let p = gref.member - k;
                let stale = meta.parity_is_stale(gref.group, p);
                match meta.parity_slot(gref.group, p) {
                    // Stale never-materialized parity: the reservation's
                    // benefactor died before the first delta could land.
                    // Materialize on it if it is back, elsewhere if not.
                    Slot::Unmaterialized if stale => {
                        let reserve = meta.parity_home(gref.group, p);
                        let back = mgr.benefactor(reserve).is_placeable();
                        let dest = if back { Some(reserve) } else { elsewhere() };
                        let landing = dest.map(|dest| Landing::Materialize { dest, reserve });
                        (landing, true)
                    }
                    Slot::Chunk(chunk) => match (stale, live(chunk)) {
                        // Stale parity with a live home: re-encode in place.
                        (true, Some(home)) => (Some(Landing::InPlace { chunk, home }), true),
                        // Dead-homed: decode onto a fresh benefactor. Stale
                        // parity additionally takes the decode's digest
                        // (the stored copy missed deltas).
                        (_, None) => (rehome(chunk), stale),
                        (false, Some(_)) => return now,
                    },
                    _ => return now,
                }
            }
        };
        let rebuilt = landing
            .and_then(|l| copies::install_rebuilt(mgr, &self.net, now, gref, l, trust_decode));
        match rebuilt {
            Some((end, bytes)) => {
                report.chunks_repaired += 1;
                report.bytes_copied += bytes;
                self.stats.counter("store.parity_repairs").inc();
                end
            }
            None => {
                report.chunks_unrepairable += 1;
                now
            }
        }
    }
}
