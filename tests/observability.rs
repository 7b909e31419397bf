//! End-to-end acceptance tests for the observability layer: slow-op
//! capture with die-level stall attribution, per-path metrics export,
//! and survival of telemetry across controller failover.
//!
//! The scenario the tentpole demands: a run with write-induced
//! program/erase stalls must produce a slow-op capture that *explains*
//! a tail read — "queued 1.3ms behind program on die 2 of drive 5" —
//! and the metrics snapshot must expose the per-path counters and
//! queueing/service split that back the explanation up.

use purity_core::{ArrayConfig, FlashArray, SECTOR};
use purity_ssd::SsdGeometry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A config that funnels reads straight into busy drives: no read
/// cache, no read-around scheduling, incompressible non-dedupable data.
fn stall_config() -> ArrayConfig {
    let mut cfg = ArrayConfig::test_small();
    cfg.cache_bytes = 0;
    cfg.read_around_writes = false;
    cfg.dedup_enabled = false;
    cfg.compression_enabled = false;
    cfg
}

/// Like [`stall_config`], but on tiny drives (4 dies × 16 blocks ×
/// 32 pages = 8 MiB raw) so sustained churn cycles the FTL through its
/// free-block pool and forces device-level GC erases mid-run.
fn churn_config() -> ArrayConfig {
    let mut cfg = stall_config();
    cfg.ssd_geometry = SsdGeometry {
        dies: 4,
        blocks_per_die: 16,
        pages_per_block: 32,
        page_size: 4096,
    };
    cfg
}

fn random_sectors(rng: &mut StdRng, n: usize) -> Vec<u8> {
    let mut out = vec![0u8; n * SECTOR];
    rng.fill(&mut out[..]);
    out
}

#[test]
fn tail_reads_are_attributed_to_die_busy_time() {
    // Tighter than [`churn_config`]: 8-page (32 KiB) blocks and a
    // short frontier let the FTL's free pool cycle within the storm,
    // so device-level GC erases land inside the same paced flush
    // slots the probes race.
    let mut cfg = stall_config();
    cfg.frontier_aus_per_drive = 4;
    cfg.ssd_geometry = SsdGeometry {
        dies: 4,
        blocks_per_die: 20,
        pages_per_block: 8,
        page_size: 4096,
    };
    let mut a = FlashArray::new(cfg).expect("format");
    let vol_bytes: u64 = 2 << 20;
    let vol = a.create_volume("churn", vol_bytes).unwrap();
    let mut rng = StdRng::seed_from_u64(42);

    // Fill the volume once so several segments seal and reach the
    // drives, then let the write pacer drain its flush backlog.
    let chunk = 32 * 1024usize;
    let n_chunks = vol_bytes / chunk as u64;
    for ci in 0..n_chunks {
        let data = random_sectors(&mut rng, chunk / SECTOR);
        a.write(vol, ci * chunk as u64, &data).unwrap();
        a.advance(500_000);
    }
    a.advance(300_000_000);

    // Churn: each iteration overwrites 256 KiB and lasts about as long
    // as the §4.4 pacer takes to flush it, so the flush backlog stays
    // bounded — whatever is mid-program at any instant is data written
    // one to three iterations ago, still reachable through the current
    // logical mapping. Probes target exactly those chunks: one whose
    // column is mid-program (or mid-erase, once the cycling free pool
    // pulls device GC into the flush slots) at issue stalls for the
    // reservation remainder. Periodic array GC recycles AUs, so drive
    // LBAs are overwritten and the FTL accumulates the garbage its GC
    // needs to collect.
    let mut saw_program = false;
    let mut saw_erase = false;
    let col_sectors: u64 = chunk as u64 / SECTOR as u64;
    let bulk: u64 = 8;
    'churn: for iter in 0..160u64 {
        for i in 0..bulk {
            let ci = (iter * bulk + i) % n_chunks;
            let data = random_sectors(&mut rng, chunk / SECTOR);
            a.write(vol, ci * chunk as u64, &data).unwrap();
            a.advance(50_000);
        }
        for burst in 0..2u64 {
            a.advance(2_000_000);
            for p in 0..8u64 {
                let back = 1 + p % 3;
                let ci = ((iter.saturating_sub(back)) * bulk + p) % n_chunks;
                let r_sector = ci * col_sectors + (iter * 13 + burst * 29 + p * 7) % col_sectors;
                a.read(vol, r_sector * SECTOR as u64, SECTOR).unwrap();
                a.advance(250_000);
            }
        }
        a.advance(2_400_000);
        if iter % 4 == 3 {
            a.run_gc().unwrap();
            a.advance(3_000_000);
        }
        for op in a.obs().tracer.slow_ops() {
            for stage in &op.stages {
                if let Some(note) = &stage.note {
                    if note.contains("behind program on die") {
                        saw_program = true;
                    }
                    if note.contains("behind erase on die") {
                        saw_erase = true;
                    }
                }
            }
        }
        if saw_program && saw_erase {
            break 'churn;
        }
    }
    assert!(
        saw_program,
        "expected a slow read queued behind a page program; slow ops: {:?}",
        a.obs()
            .tracer
            .slow_ops()
            .iter()
            .map(|o| o.describe())
            .collect::<Vec<_>>()
    );
    assert!(
        saw_erase,
        "expected a slow read queued behind an erase (device GC); slow ops: {:?}",
        a.obs()
            .tracer
            .slow_ops()
            .iter()
            .map(|o| o.describe())
            .collect::<Vec<_>>()
    );

    // The capture carries the full decomposition: a drive_read stage with
    // die/drive attribution, and an end-to-end latency above threshold.
    let slow = a.obs().tracer.slowest().expect("ring not empty");
    assert!(slow.latency >= a.config().slow_op_capture_ns);
    let dominant = slow.dominant_stage().expect("stages recorded");
    assert!(
        matches!(
            dominant.stage,
            "drive_read"
                | "reconstruct"
                | "die_stall_program"
                | "die_stall_erase"
                | "gc_interference"
        ),
        "tail op dominated by {}: {}",
        dominant.stage,
        slow.describe()
    );
    let described = slow.describe();
    assert!(
        described.contains("of drive"),
        "attribution names a drive: {described}"
    );

    // The same story shows up in the aggregate counters.
    let snap = a.metrics_snapshot();
    let stalls: u64 = ["program", "erase", "read"]
        .iter()
        .map(|c| {
            snap.counters
                .iter()
                .filter(|(id, _)| {
                    id.name == "flash_read_stalls"
                        && id.labels.iter().any(|(k, v)| k == "cause" && v == c)
                })
                .map(|&(_, v)| v)
                .sum::<u64>()
        })
        .sum();
    assert!(stalls > 0, "flash_read_stalls counters should be nonzero");
    assert!(snap.counter("array_reads", &[("path", "direct")]) > 0);

    // Queueing + service decompose every direct drive read losslessly.
    let stats = a.stats();
    assert_eq!(stats.read_queueing.count(), stats.read_service.count());
    assert!(stats.read_queueing.count() > 0);
    assert!(
        stats.read_queueing.max() > 0,
        "stalled reads show nonzero queueing"
    );
}

#[test]
fn metrics_snapshot_and_export_are_consistent() {
    let mut a = FlashArray::new(stall_config()).expect("format");
    let vol = a.create_volume("v", 8 << 20).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    // 4 MiB of incompressible data seals 2+ segments, so early offsets
    // are on the drives (not the open segment's pending buffer).
    let data = random_sectors(&mut rng, 1024);
    a.write(vol, 0, &data).unwrap();
    a.advance(20_000_000);
    a.read(vol, 0, 64 * SECTOR).unwrap();
    // An unwritten range exercises the zero-fill path.
    a.read(vol, 6 << 20, 4 * SECTOR).unwrap();

    let snap = a.metrics_snapshot();
    assert_eq!(
        snap.counter("array_logical_bytes_written", &[]),
        data.len() as u64
    );
    assert!(snap.counter("array_reads", &[("path", "direct")]) > 0);
    assert!(snap.counter("array_reads", &[("path", "zero")]) > 0);
    // Per-drive flash counters exist, and at least one full stripe's
    // worth of drives took programs (segments span 9 of the 11 slots).
    let programmed_drives = (0..a.config().n_drives)
        .filter(|d| snap.counter("flash_programs", &[("drive", d.to_string().as_str())]) > 0)
        .count();
    assert!(
        programmed_drives >= a.config().stripe_width(),
        "only {programmed_drives} drives published program counters"
    );
    // Latency histograms mirror ArrayStats exactly (set_from is lossless).
    let h = snap
        .histogram("array_read_latency", &[])
        .expect("read latency published");
    assert_eq!(h.count, a.stats().read_latency.count());
    assert_eq!(h.p999, a.stats().read_latency.p999());

    // Publishing is idempotent: a second snapshot reports the same values.
    let again = a.metrics_snapshot();
    assert_eq!(
        snap.counter("array_logical_bytes_written", &[]),
        again.counter("array_logical_bytes_written", &[])
    );
    assert_eq!(h, again.histogram("array_read_latency", &[]).unwrap());

    // The combined export carries both halves of the story.
    let j = a.export_observability_json();
    assert!(j.contains("\"metrics\""), "{j}");
    assert!(j.contains("\"slow_ops\""), "{j}");
    assert!(j.contains("array_read_latency"), "{j}");
}

/// A compact deterministic run that exercises every export section:
/// preload, paced reads across many 1 ms telemetry intervals, an
/// overwrite burst for slow-op captures, and a final settle.
fn telemetry_run(seed: u64) -> FlashArray {
    let mut cfg = churn_config();
    cfg.telemetry_interval_ns = 1_000_000;
    let mut a = FlashArray::new(cfg).expect("format");
    let vol = a.create_volume("t", 2 << 20).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let chunk = 64 * 1024usize;
    for i in 0..16u64 {
        let data = random_sectors(&mut rng, chunk / SECTOR);
        a.write(vol, i * chunk as u64, &data).unwrap();
        a.advance(300_000);
    }
    a.advance(30_000_000);
    for i in 0..64u64 {
        a.read(vol, (i * 4096) % (1 << 20), 4096).unwrap();
        a.advance(250_000);
    }
    a
}

#[test]
fn export_is_idempotent_across_repeated_publishes() {
    let a = telemetry_run(3);
    // Publishing is pull-style and absolute, and exporting never
    // advances recorder state: any number of repeats at the same
    // virtual time must render byte-identical JSON.
    a.publish_metrics();
    a.publish_metrics();
    let first = a.export_observability_json();
    a.publish_metrics();
    let second = a.export_observability_json();
    assert_eq!(first, second);
    // All five export sections are present.
    for section in [
        "\"metrics\"",
        "\"slow_ops\"",
        "\"timeseries\"",
        "\"incidents\"",
        "\"tail_blame\"",
    ] {
        assert!(first.contains(section), "missing {section}");
    }
}

#[test]
fn same_seed_runs_export_identical_telemetry() {
    // Determinism regression: the full observability export — interval
    // grid, quantiles, ordering, incident log — is a pure function of
    // the seed.
    let first = telemetry_run(9).export_observability_json();
    let second = telemetry_run(9).export_observability_json();
    assert_eq!(first, second);
    // Sanity that the comparison has teeth: more virtual time closes
    // more intervals, which must change the time-series section.
    let mut longer = telemetry_run(9);
    longer.advance(5_000_000);
    assert_ne!(
        first,
        longer.export_observability_json(),
        "a longer run must change the export"
    );
}

#[test]
fn slow_op_ring_capacity_comes_from_config() {
    let mut cfg = stall_config();
    cfg.slow_op_ring_capacity = 4;
    cfg.slow_op_capture_ns = 1; // capture everything
    let mut a = FlashArray::new(cfg).expect("format");
    assert_eq!(a.obs().tracer.capacity(), 4);
    let vol = a.create_volume("v", 1 << 20).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let data = random_sectors(&mut rng, 256);
    a.write(vol, 0, &data).unwrap();
    a.advance(20_000_000);
    for i in 0..8u64 {
        a.read(vol, i * 4096, 4096).unwrap();
        a.advance(1_000_000);
    }
    // Every op crossed the 1 ns threshold, but the ring holds only the
    // configured four most recent.
    assert!(a.obs().tracer.captured_count() >= 8);
    assert_eq!(a.obs().tracer.slow_ops().len(), 4);
}

#[test]
fn threshold_change_applies_only_to_subsequent_captures() {
    let mut cfg = stall_config();
    cfg.slow_op_capture_ns = 1;
    let mut a = FlashArray::new(cfg).expect("format");
    let vol = a.create_volume("v", 1 << 20).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let data = random_sectors(&mut rng, 256);
    a.write(vol, 0, &data).unwrap();
    a.advance(20_000_000);

    a.read(vol, 0, 4096).unwrap();
    let captured_low = a.obs().tracer.captured_count();
    assert!(captured_low > 0, "1 ns threshold captures everything");
    let ring_before = a.obs().tracer.slow_ops().len();

    // Raise the bar mid-run: ops already in the ring stay (they were
    // judged against the old threshold); new fast ops no longer match.
    a.obs().tracer.set_threshold(u64::MAX);
    a.read(vol, 4096, 4096).unwrap();
    a.read(vol, 8192, 4096).unwrap();
    assert_eq!(a.obs().tracer.captured_count(), captured_low);
    assert_eq!(a.obs().tracer.slow_ops().len(), ring_before);

    // Drop it again: capturing resumes for subsequent ops only.
    a.obs().tracer.set_threshold(1);
    a.read(vol, 16384, 4096).unwrap();
    assert_eq!(a.obs().tracer.captured_count(), captured_low + 1);
}

#[test]
fn observability_survives_failover() {
    let mut a = FlashArray::new(stall_config()).expect("format");
    let vol = a.create_volume("v", 4 << 20).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let data = random_sectors(&mut rng, 64);
    a.write(vol, 0, &data).unwrap();
    a.read(vol, 0, SECTOR).unwrap();

    let finished_before = a.obs().tracer.finished_count();
    let captured_before = a.obs().tracer.captured_count();
    assert!(finished_before > 0);

    a.fail_primary().unwrap();

    // The secondary shares the same hub: history intact, and new ops
    // keep accumulating into it.
    assert_eq!(a.obs().tracer.finished_count(), finished_before);
    assert_eq!(a.obs().tracer.captured_count(), captured_before);
    a.read(vol, 0, SECTOR).unwrap();
    assert!(a.obs().tracer.finished_count() > finished_before);

    // Post-failover metrics publishing still reflects merged stats.
    let snap = a.metrics_snapshot();
    assert_eq!(
        snap.counter("array_logical_bytes_written", &[]),
        data.len() as u64
    );
    assert_eq!(snap.counter("array_failovers", &[]), 1);
}

/// Every stage name a real run emits must come from the closed
/// [`purity_obs::STAGE_REGISTRY`] — the audit that keeps the blame
/// taxonomy total: an unregistered stage would silently fold into
/// `reduction_cpu` and corrupt tail attribution.
#[test]
fn emitted_stage_names_are_registered() {
    let a = telemetry_run(11);
    let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for op in a.obs().tracer.slow_ops() {
        for st in &op.stages {
            seen.insert(st.stage);
        }
    }
    assert!(!seen.is_empty(), "run captured no slow ops to audit");
    for s in &seen {
        assert!(
            purity_obs::is_registered_stage(s),
            "run emitted unregistered stage {s:?}; registry: {:?}",
            purity_obs::STAGE_REGISTRY
        );
    }
}

/// The tiering engine's stages (ISSUE 10) are part of the same closed
/// registry: a run that hits the RAM cache, demotes to the cold class
/// and pays a cold read must emit exactly the registered names — and
/// the new metrics families must show up in the snapshot.
#[test]
fn tier_stages_are_emitted_and_registered() {
    let mut cfg = ArrayConfig::tiered();
    cfg.slow_op_capture_ns = 1; // capture every op, fast or slow
    let mut a = FlashArray::new(cfg).expect("format");
    let vol = a.create_volume("t", 512 * 1024).unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let data = random_sectors(&mut rng, 512 * 1024 / SECTOR);
    a.write(vol, 0, &data).unwrap();
    // One read warms the heat series; the idle advance crosses the
    // demote threshold so the migrator copies the volume down; the
    // re-read pays the cold penalty and admits into the DRAM cache; the
    // final read hits it.
    a.read(vol, 0, 64 * SECTOR).unwrap();
    for _ in 0..12 {
        a.advance(100_000_000);
    }
    a.read(vol, 0, 64 * SECTOR).unwrap();
    a.read(vol, 0, 64 * SECTOR).unwrap();

    let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for op in a.obs().tracer.slow_ops() {
        for st in &op.stages {
            seen.insert(st.stage);
        }
    }
    for want in ["cache_hit", "cold_read", "tier_demote"] {
        assert!(
            seen.contains(want),
            "tiered run never emitted {want:?}; saw {seen:?}"
        );
    }
    for s in &seen {
        assert!(
            purity_obs::is_registered_stage(s),
            "run emitted unregistered stage {s:?}; registry: {:?}",
            purity_obs::STAGE_REGISTRY
        );
    }

    let s = a.stats();
    assert!(s.tier_demotions > 0 && s.cold_reads > 0 && s.cache_reads > 0);
    let snap = a.metrics_snapshot();
    assert_eq!(snap.counter("tier_demotions", &[]), s.tier_demotions);
    assert_eq!(snap.counter("tier_cold_reads", &[]), s.cold_reads);
    assert_eq!(
        snap.counter("array_reads", &[("path", "cache")]),
        s.cache_reads
    );
    let vol_label = vol.0.to_string();
    assert!(
        snap.counter("volume_reads", &[("volume", vol_label.as_str())]) > 0,
        "per-volume heat series must be published"
    );
}
