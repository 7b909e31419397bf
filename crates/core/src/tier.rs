//! Tiering executor: the crash-safe half of the five-minute-rule engine.
//!
//! `purity-tier` decides *what* should move (heat watcher, reconciler);
//! this module decides *how*, against the array's real durability
//! machinery:
//!
//! * **Cold addressing** — demoted cblocks live on the QLC-like cold
//!   drive pool in fixed-size slots. A cold location is an ordinary
//!   [`Pba`] whose segment id sits in a reserved pseudo-segment
//!   namespace ([`COLD_SEG_BASE`] + drive index), so map facts, patches
//!   and checkpoints carry cold locations with zero format changes.
//!   Cold pseudo-segments are *never* entered into the controller's
//!   segment table: GC cannot pick them as victims and recovery's
//!   segment bookkeeping never sees them.
//! * **Demotion** is copy-then-switch, mirroring GC relocation: fetch
//!   the live payload, re-encode, write the cold slot, then rewrite the
//!   referencing map keys with fresh-seq facts. Until those facts reach
//!   a patch + checkpoint, recovery replays the *old* facts — which
//!   still point at the flash copy GC has not freed (GC frees victims
//!   only after its own checkpoint, which flushes these facts first).
//!   Power loss mid-demotion therefore never loses an acked write and
//!   never serves stale data: the move simply un-happens.
//! * **Slot reclamation** — a slot whose last referencing fact was
//!   superseded (overwrite, promotion) is swept into `pending_free` and
//!   returned to the allocator only inside [`Controller::write_checkpoint`],
//!   *after* the boot record that makes the superseding facts durable.
//!   Reusing it earlier could let a crash resurrect old facts pointing
//!   at a rewritten slot — the stale-read hazard the checkpoint barrier
//!   exists to prevent.
//! * **Recovery** rebuilds the cold allocator by scanning the recovered
//!   map for live cold references; slots a crash orphaned mid-demotion
//!   simply show up unreferenced and return to the free set.

use crate::config::ArrayConfig;
use crate::controller::{Controller, MapVal};
use crate::error::{PurityError, Result};
use crate::shelf::Shelf;
use crate::types::{BlockLoc, Pba, SegmentId};
use purity_obs::OpTrace;
use purity_sim::Nanos;
use purity_tier::plan::VolumePlacement;
use purity_tier::{HeatPolicy, HeatWatcher, MigrationPlan, Move, Reconciler};
use std::collections::{BTreeMap, BTreeSet};

/// First segment id of the cold pseudo-segment namespace. Real segment
/// ids are sequential from 1; 2^62 leaves the namespaces disjoint for
/// any conceivable array lifetime.
pub(crate) const COLD_SEG_BASE: u64 = 1 << 62;

/// The cold drive index a pseudo-segment id addresses, if it is one.
pub(crate) fn cold_drive_of(pba: &Pba) -> Option<usize> {
    (pba.segment.0 >= COLD_SEG_BASE).then(|| (pba.segment.0 - COLD_SEG_BASE) as usize)
}

/// A volume's live map entries grouped by backing pba: map key
/// `(medium, sector)` plus its current value, one bucket per cblock.
type VolumeRefs = BTreeMap<Pba, Vec<((u64, u64), MapVal)>>;

/// One volume-level migration executed this tick (reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutedMove {
    /// Volume the move concerned.
    pub volume: u64,
    /// True = demotion to cold, false = promotion to flash.
    pub demote: bool,
    /// cblocks actually copied.
    pub cblocks: usize,
}

/// Report of one migrator tick (tests, exhibits).
#[derive(Debug, Clone, Default)]
pub struct TierTickReport {
    /// Moves executed, in plan order.
    pub moves: Vec<ExecutedMove>,
    /// Cold slots swept into `pending_free` by the liveness sweep.
    pub slots_swept: usize,
}

/// Volatile tiering state owned by the controller. Everything here is
/// reconstructible: heat re-learns, and the cold allocator is rebuilt
/// from the recovered map on every cold start.
#[derive(Debug)]
pub struct TierState {
    /// Per-volume heat from the flight recorder's read time-series.
    pub watcher: HeatWatcher,
    /// Free cold slots, ascending `(drive, slot)` — allocation takes the
    /// lowest, so placement is deterministic.
    free_slots: BTreeSet<(usize, u64)>,
    /// Slots referenced (or possibly referenced) by map facts.
    used_slots: BTreeSet<(usize, u64)>,
    /// Dead slots awaiting the checkpoint durability barrier.
    pending_free: Vec<(usize, u64)>,
    /// Virtual time of the last migrator tick.
    last_tick_at: Nanos,
    /// Recorder intervals already folded into the watcher.
    heat_intervals_seen: u64,
    /// Cumulative reads per volume (published as `volume_reads`).
    pub(crate) vol_reads: BTreeMap<u64, u64>,
}

impl TierState {
    /// Fresh state for a formatted or recovered controller: every slot
    /// free, no heat history.
    pub(crate) fn new(cfg: &ArrayConfig) -> Self {
        let mut free_slots = BTreeSet::new();
        for d in 0..cfg.cold_drives {
            for s in 0..cfg.cold_slots_per_drive() as u64 {
                free_slots.insert((d, s));
            }
        }
        Self {
            watcher: HeatWatcher::new(),
            free_slots,
            used_slots: BTreeSet::new(),
            pending_free: Vec::new(),
            last_tick_at: 0,
            heat_intervals_seen: 0,
            vol_reads: BTreeMap::new(),
        }
    }

    /// `(free, used, pending_free)` slot counts across the cold pool.
    pub fn slot_counts(&self) -> (usize, usize, usize) {
        (
            self.free_slots.len(),
            self.used_slots.len(),
            self.pending_free.len(),
        )
    }

    /// Whether a slot is currently marked used (integrity checks).
    pub(crate) fn slot_used(&self, drive: usize, slot: u64) -> bool {
        self.used_slots.contains(&(drive, slot))
    }
}

impl Controller {
    /// Runs the watcher → reconciler → migrator loop if a tick is due.
    /// Called from [`crate::FlashArray::advance`]; a no-op unless the
    /// config enables the cold tier and the tick interval elapsed.
    pub fn tier_maintenance(&mut self, shelf: &mut Shelf, now: Nanos) -> Result<TierTickReport> {
        let mut report = TierTickReport::default();
        if !self.cfg.tiering_enabled() || self.cfg.tier_interval_ns == 0 {
            return Ok(report);
        }
        if now.saturating_sub(self.tier.last_tick_at) < self.cfg.tier_interval_ns {
            return Ok(report);
        }
        self.tier.last_tick_at = now;
        self.feed_heat_from_recorder();

        // Desired vs actual placement, volume by volume (BTreeMap order).
        let policy = HeatPolicy::with_demote_after(self.cfg.tier_demote_after_ns);
        let placements = self.volume_placements();
        let plan: MigrationPlan =
            Reconciler::plan(&placements, &self.tier.watcher, now, &policy, 8);

        let mut budget = self.cfg.tier_migration_budget.max(1);
        let mut trace = (!plan.is_empty()).then(|| OpTrace::new("tier_migrate", now));
        let mut done = now;
        for mv in &plan.moves {
            if budget == 0 {
                break;
            }
            let (moved, t) = match *mv {
                Move::Promote { volume } => {
                    self.promote_volume(shelf, volume, budget, now, trace.as_mut())?
                }
                Move::Demote { volume } => {
                    self.demote_volume(shelf, volume, budget, now, trace.as_mut())?
                }
            };
            budget = budget.saturating_sub(moved);
            done = done.max(t);
            if moved > 0 {
                report.moves.push(ExecutedMove {
                    volume: mv.volume(),
                    demote: matches!(mv, Move::Demote { .. }),
                    cblocks: moved,
                });
            }
        }
        if let Some(tr) = trace {
            self.obs.tracer.finish(tr, done);
        }
        report.slots_swept = self.sweep_cold_liveness();
        Ok(report)
    }

    /// Folds recorder intervals the watcher has not yet seen into the
    /// per-volume heat state.
    fn feed_heat_from_recorder(&mut self) {
        let rec = &self.obs.recorder;
        let total_closed = rec.dropped_intervals() + rec.intervals() as u64;
        let new = total_closed.saturating_sub(self.tier.heat_intervals_seen);
        if new == 0 {
            return;
        }
        let first_start = rec.first_interval_start();
        let interval = rec.interval_ns();
        let vols: Vec<u64> = self.volumes.keys().copied().collect();
        for vol in vols {
            let label = vol.to_string();
            let series = rec.counter_series("volume_reads", &[("volume", &label)]);
            let take = (new as usize).min(series.len());
            let skip = series.len() - take;
            for (j, &reads) in series.iter().enumerate().skip(skip) {
                let end = first_start + (j as u64 + 1) * interval;
                self.tier.watcher.observe(vol, reads, end);
            }
        }
        self.tier.heat_intervals_seen = total_closed;
    }

    /// Counts, per volume, how many live cblocks sit on flash vs cold.
    fn volume_placements(&self) -> BTreeMap<u64, VolumePlacement> {
        let mut placements = BTreeMap::new();
        let vols: Vec<(u64, crate::types::MediumId, u64)> = self
            .volumes
            .values()
            .map(|v| (v.id.0, v.anchor, v.size_sectors))
            .collect();
        for (id, anchor, size) in vols {
            let mut flash: BTreeSet<Pba> = BTreeSet::new();
            let mut cold: BTreeSet<Pba> = BTreeSet::new();
            for entry in self
                .resolve_range_entries(anchor, 0, size as usize)
                .into_iter()
                .flatten()
            {
                let pba = entry.1.loc.pba;
                if cold_drive_of(&pba).is_some() {
                    cold.insert(pba);
                } else {
                    flash.insert(pba);
                }
            }
            placements.insert(
                id,
                VolumePlacement {
                    flash_cblocks: flash.len() as u64,
                    cold_cblocks: cold.len() as u64,
                },
            );
        }
        placements
    }

    /// The live cblock map of one volume, grouped by pba: every map key
    /// the volume's reads resolve through, with its current value.
    fn volume_refs(&self, volume: u64) -> VolumeRefs {
        let mut by_pba: VolumeRefs = BTreeMap::new();
        let Some(v) = self.volumes.get(&volume) else {
            return by_pba;
        };
        for entry in self
            .resolve_range_entries(v.anchor, 0, v.size_sectors as usize)
            .into_iter()
            .flatten()
        {
            by_pba.entry(entry.1.loc.pba).or_default().push(entry);
        }
        by_pba
    }

    /// Demotes up to `budget` of a volume's flash-resident cblocks to the
    /// cold pool: copy-then-switch, one fixed-size slot per cblock.
    fn demote_volume(
        &mut self,
        shelf: &mut Shelf,
        volume: u64,
        budget: usize,
        now: Nanos,
        mut trace: Option<&mut OpTrace>,
    ) -> Result<(usize, Nanos)> {
        let slot_bytes = self.cfg.cold_slot_bytes();
        let refs = self.volume_refs(volume);
        let mut moved = 0usize;
        let mut done = now;
        for (pba, refs) in refs {
            if moved >= budget {
                break;
            }
            if cold_drive_of(&pba).is_some() {
                continue;
            }
            let Some(&(d, slot)) = self.tier.free_slots.iter().next() else {
                break; // cold pool full
            };
            let (payload, t0) = self.fetch_cblock(shelf, &pba, now)?;
            done = done.max(t0);
            let encoded = crate::controller::encode_cblock(&payload, self.cfg.compression_enabled);
            if encoded.len() > slot_bytes {
                return Err(PurityError::Internal(format!(
                    "encoded cblock ({} B) exceeds cold slot ({} B)",
                    encoded.len(),
                    slot_bytes
                )));
            }
            let mut padded = encoded.clone();
            padded.resize(
                padded.len().div_ceil(self.cfg.cold_geometry.page_size)
                    * self.cfg.cold_geometry.page_size,
                0,
            );
            let off = slot * slot_bytes as u64;
            let t1 = shelf.write_cold(d, off as usize, &padded, now)?;
            done = done.max(t1);
            self.tier.free_slots.remove(&(d, slot));
            self.tier.used_slots.insert((d, slot));
            let cold_pba = Pba {
                segment: SegmentId(COLD_SEG_BASE + d as u64),
                offset: off,
                stored_len: encoded.len() as u32,
            };
            // Redirect every referencing key with a fresh-seq fact. The
            // sector index addresses the uncompressed payload, which the
            // copy preserves byte-for-byte.
            let seq = self.seq.next();
            for (key, val) in &refs {
                self.map.insert(
                    *key,
                    MapVal {
                        loc: BlockLoc {
                            pba: cold_pba,
                            sector: val.loc.sector,
                        },
                        deduped: val.deduped,
                    },
                    seq,
                );
            }
            self.stats.tier_demotions += 1;
            self.stats.tier_bytes_demoted += encoded.len() as u64;
            if let Some(tr) = trace.as_deref_mut() {
                tr.stage_note(
                    "tier_demote",
                    now,
                    t1,
                    format!("vol {volume} cblock -> cold {d}:{slot}"),
                );
            }
            moved += 1;
        }
        Ok((moved, done))
    }

    /// Promotes up to `budget` of a volume's cold-resident cblocks back
    /// into the flash log. The vacated slots are reclaimed later by the
    /// liveness sweep + checkpoint barrier, never inline.
    fn promote_volume(
        &mut self,
        shelf: &mut Shelf,
        volume: u64,
        budget: usize,
        now: Nanos,
        mut trace: Option<&mut OpTrace>,
    ) -> Result<(usize, Nanos)> {
        let refs = self.volume_refs(volume);
        let mut moved = 0usize;
        let mut done = now;
        for (pba, refs) in refs {
            if moved >= budget {
                break;
            }
            if cold_drive_of(&pba).is_none() {
                continue;
            }
            let (payload, t0) = self.fetch_cblock_traced(shelf, &pba, now, trace.as_deref_mut())?;
            done = done.max(t0);
            let encoded = crate::controller::encode_cblock(&payload, self.cfg.compression_enabled);
            let new_pba = match self.place_cblock_with(shelf, &encoded, false, now) {
                Ok(p) => p,
                // Promotion is optional work: never eat the reserve, just
                // stop for this tick if flash is tight.
                Err(PurityError::OutOfSpace) => break,
                Err(e) => return Err(e),
            };
            let seq = self.seq.next();
            for (key, val) in &refs {
                self.map.insert(
                    *key,
                    MapVal {
                        loc: BlockLoc {
                            pba: new_pba,
                            sector: val.loc.sector,
                        },
                        deduped: val.deduped,
                    },
                    seq,
                );
            }
            self.stats.tier_promotions += 1;
            self.stats.tier_bytes_promoted += encoded.len() as u64;
            moved += 1;
        }
        Ok((moved, done))
    }

    /// Sweeps cold slots no live fact references into `pending_free`.
    /// Dead slots arise from overwrites and promotions; they stay out of
    /// the allocator until [`Controller::write_checkpoint`] makes the
    /// superseding facts durable.
    pub(crate) fn sweep_cold_liveness(&mut self) -> usize {
        let mut live: BTreeSet<(usize, u64)> = BTreeSet::new();
        let slot_bytes = self.cfg.cold_slot_bytes() as u64;
        for (_key, val) in self.reachable_live() {
            if let Some(d) = cold_drive_of(&val.loc.pba) {
                live.insert((d, val.loc.pba.offset / slot_bytes));
            }
        }
        let dead: Vec<(usize, u64)> = self
            .tier
            .used_slots
            .iter()
            .filter(|s| !live.contains(s))
            .copied()
            .collect();
        for s in &dead {
            self.tier.used_slots.remove(s);
            self.tier.pending_free.push(*s);
        }
        dead.len()
    }

    /// Checkpoint hook: the boot record is durable, so slots freed by
    /// now-durable facts may re-enter the allocator. TRIM is advisory.
    /// A released slot's address will name different bytes once it is
    /// reused, so every cache entry keyed by it is dropped here.
    pub(crate) fn release_pending_cold(&mut self, shelf: &mut Shelf) {
        if self.tier.pending_free.is_empty() {
            return;
        }
        let slot_bytes = self.cfg.cold_slot_bytes();
        let released = std::mem::take(&mut self.tier.pending_free);
        for &(d, slot) in &released {
            let _ = shelf.trim_cold(d, (slot * slot_bytes as u64) as usize, slot_bytes);
            self.tier.free_slots.insert((d, slot));
        }
        self.cache.retain(|p| {
            cold_drive_of(p).is_none_or(|d| !released.contains(&(d, p.offset / slot_bytes as u64)))
        });
    }

    /// Recovery hook: rebuilds the cold allocator from the recovered
    /// map. Every slot a live fact references is used; everything else —
    /// including slots a crash orphaned mid-demotion — is free.
    pub(crate) fn rebuild_cold_state(&mut self) {
        if !self.cfg.tiering_enabled() {
            return;
        }
        self.tier = TierState::new(&self.cfg);
        let slot_bytes = self.cfg.cold_slot_bytes() as u64;
        let mut live: BTreeSet<(usize, u64)> = BTreeSet::new();
        for (_key, val) in self.reachable_live() {
            if let Some(d) = cold_drive_of(&val.loc.pba) {
                live.insert((d, val.loc.pba.offset / slot_bytes));
            }
        }
        for s in live {
            self.tier.free_slots.remove(&s);
            self.tier.used_slots.insert(s);
        }
    }

    /// Reads one cold-resident cblock (raw encoded bytes) for the fetch
    /// path. Kept here so the pseudo-segment decoding lives in one file.
    pub(crate) fn read_cold_cblock(
        shelf: &mut Shelf,
        pba: &Pba,
        now: Nanos,
    ) -> Result<(Vec<u8>, Nanos)> {
        let d = cold_drive_of(pba)
            .ok_or_else(|| PurityError::Internal(format!("not a cold pba: {:?}", pba)))?;
        if d >= shelf.n_cold_drives() {
            return Err(PurityError::Internal(format!(
                "cold pba {:?} addresses missing drive {d}",
                pba
            )));
        }
        shelf.read_cold(d, pba.offset as usize, pba.stored_len as usize, now)
    }

    /// `(free, used, pending_free)` cold slot counts.
    pub fn cold_slot_counts(&self) -> (usize, usize, usize) {
        self.tier.slot_counts()
    }

    /// Per-volume heat classification right now (exhibits).
    pub fn volume_heat(&self, volume: u64, now: Nanos) -> purity_tier::Heat {
        let policy = HeatPolicy::with_demote_after(self.cfg.tier_demote_after_ns.max(1));
        self.tier.watcher.classify(volume, now, &policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FlashArray;
    use crate::config::ArrayConfig;

    const MS: Nanos = 1_000_000;

    fn tiered_array() -> FlashArray {
        FlashArray::new(ArrayConfig::tiered()).unwrap()
    }

    #[test]
    fn cold_namespace_never_collides_with_real_segments() {
        let pba = Pba {
            segment: SegmentId(COLD_SEG_BASE + 1),
            offset: 0,
            stored_len: 4096,
        };
        assert_eq!(cold_drive_of(&pba), Some(1));
        let real = Pba {
            segment: SegmentId(123),
            offset: 0,
            stored_len: 4096,
        };
        assert_eq!(cold_drive_of(&real), None);
    }

    #[test]
    fn idle_volume_demotes_and_reads_survive_with_cold_blame() {
        let mut a = tiered_array();
        let vol = a.create_volume("idle", 1 << 20).unwrap();
        let data: Vec<u8> = (0..(256 * 1024)).map(|i| (i % 251) as u8).collect();
        a.write(vol, 0, &data).unwrap();
        // Touch it once so the watcher has evidence, then go quiet long
        // past the demote threshold while ticks fire.
        a.read(vol, 0, 4096).unwrap();
        let mut demoted = false;
        for _ in 0..20 {
            a.advance(100 * MS);
            if a.stats().tier_demotions > 0 {
                demoted = true;
                break;
            }
        }
        assert!(demoted, "idle volume never demoted");
        let (_, used, _) = a.controller().cold_slot_counts();
        assert!(used > 0, "demotion consumed no cold slots");
        // Reads still return the exact bytes, now paying the cold path.
        let (back, _) = a.read(vol, 0, data.len()).unwrap();
        assert_eq!(back, data, "cold-resident data corrupted");
        assert!(a.stats().cold_reads > 0, "read did not touch the cold pool");
        assert!(a.verify_integrity().is_empty());
    }

    #[test]
    fn reheated_volume_promotes_back_to_flash() {
        let mut a = tiered_array();
        let vol = a.create_volume("swing", 1 << 20).unwrap();
        let data: Vec<u8> = (0..(128 * 1024)).map(|i| (i % 241) as u8).collect();
        a.write(vol, 0, &data).unwrap();
        a.read(vol, 0, 4096).unwrap();
        for _ in 0..12 {
            a.advance(100 * MS);
        }
        assert!(a.stats().tier_demotions > 0, "setup: volume never demoted");
        // Morning: the volume gets busy again; the migrator chases it.
        for _ in 0..30 {
            a.read(vol, 0, 8192).unwrap();
            a.advance(20 * MS);
            if a.stats().tier_promotions > 0 {
                break;
            }
        }
        assert!(a.stats().tier_promotions > 0, "hot volume never promoted");
        let (back, _) = a.read(vol, 0, data.len()).unwrap();
        assert_eq!(back, data);
        assert!(a.verify_integrity().is_empty());
    }

    #[test]
    fn ram_cache_hits_short_circuit_and_count() {
        let mut a = tiered_array();
        let vol = a.create_volume("hot", 1 << 20).unwrap();
        let data = vec![7u8; 64 * 1024];
        a.write(vol, 0, &data).unwrap();
        for _ in 0..5 {
            a.read(vol, 0, 64 * 1024).unwrap();
        }
        assert!(
            a.stats().cache_reads > 0,
            "repeated reads never hit the DRAM cache"
        );
    }

    #[test]
    fn reused_cold_slot_never_serves_stale_bytes() {
        // Idles with a checkpoint each tick (so dead slots are released)
        // until the migrator demotes something more.
        fn idle_until_demoted(a: &mut FlashArray) -> bool {
            let before = a.stats().tier_demotions;
            (0..20).any(|_| {
                a.advance(100 * MS);
                a.checkpoint().unwrap();
                a.stats().tier_demotions > before
            })
        }
        let mut a = tiered_array();
        let vol = a.create_volume("reuse", 1 << 20).unwrap();
        // Incompressible, so both versions encode to the same length and
        // a reused slot yields the very same cache key.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut noise = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect()
        };
        let old = noise(64 * 1024);
        a.write(vol, 0, &old).unwrap();
        a.read(vol, 0, 4096).unwrap();
        assert!(idle_until_demoted(&mut a), "setup: never demoted");
        let (back, _) = a.read(vol, 0, old.len()).unwrap();
        assert_eq!(back, old);
        // Overwrite and go idle: the sweep parks the old slots, the
        // checkpoint releases them, and re-demotion takes the lowest free
        // slots — the addresses the cache still holds the old bytes under.
        let new = noise(64 * 1024);
        a.write(vol, 0, &new).unwrap();
        assert!(idle_until_demoted(&mut a), "setup: never re-demoted");
        let (back, _) = a.read(vol, 0, new.len()).unwrap();
        assert!(
            back == new,
            "read served the old cblock from a reused cold slot"
        );
        assert!(a.verify_integrity().is_empty());
    }

    #[test]
    fn power_loss_mid_demotion_loses_nothing() {
        let mut a = tiered_array();
        let vol = a.create_volume("victim", 1 << 20).unwrap();
        let data: Vec<u8> = (0..(256 * 1024)).map(|i| (i % 239) as u8).collect();
        a.write(vol, 0, &data).unwrap();
        a.read(vol, 0, 4096).unwrap();
        // Tear the very first cold write mid-slot.
        a.arm_power_loss(crate::shelf::CrashTarget::ColdWrite, 0, 512);
        for _ in 0..20 {
            a.advance(100 * MS);
            if !a.powered() {
                break;
            }
        }
        assert!(!a.powered(), "cold-write trigger never fired");
        let report = a
            .power_loss(crate::array::PowerLossSpec::default())
            .unwrap();
        assert!(
            report.torn.unwrap().contains("cold"),
            "tear was not a cold write"
        );
        let (back, _) = a.read(vol, 0, data.len()).unwrap();
        assert_eq!(back, data, "acked write lost across mid-demotion crash");
        assert!(a.verify_integrity().is_empty());
    }

    #[test]
    fn recovery_rebuilds_cold_allocator_from_the_map() {
        let mut a = tiered_array();
        let vol = a.create_volume("survivor", 1 << 20).unwrap();
        let data: Vec<u8> = (0..(256 * 1024)).map(|i| (i % 233) as u8).collect();
        a.write(vol, 0, &data).unwrap();
        a.read(vol, 0, 4096).unwrap();
        for _ in 0..12 {
            a.advance(100 * MS);
        }
        assert!(a.stats().tier_demotions > 0);
        a.checkpoint().unwrap();
        let used_before = a.controller().cold_slot_counts().1;
        assert!(used_before > 0);
        a.power_loss(crate::array::PowerLossSpec::default())
            .unwrap();
        let used_after = a.controller().cold_slot_counts().1;
        assert_eq!(
            used_before, used_after,
            "recovered cold allocator disagrees with pre-crash state"
        );
        let (back, _) = a.read(vol, 0, data.len()).unwrap();
        assert_eq!(back, data);
        assert!(a.verify_integrity().is_empty());
    }
}
