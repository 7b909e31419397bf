//! Serial-vs-parallel differential harness (ISSUE 8): the parallel
//! engine's whole determinism contract, enforced byte-for-byte.
//!
//! Every scenario here runs the same seed at worker-pool widths 1, 2
//! and 8 and asserts the runs are indistinguishable:
//!
//! - exhibit-style workloads compare `export_observability_json()`
//!   (stripped of the wall-clock `profile` section, the one block
//!   that is *allowed* to differ) byte-for-byte;
//! - torture campaigns compare the full `Debug` rendering of the
//!   outcome — violations, torn-write descriptions, recovery reports,
//!   virtual downtime, acked sector counts.
//!
//! The worker-pool width is process-global (`purity_sim::parallel`),
//! so every test serializes on one mutex before touching it.

use purity_core::{Ack, ArrayConfig, FlashArray};
use purity_obs::profiler::strip_profile_section;
use purity_sim::parallel;
use purity_torture::{
    run_campaign, run_cluster_campaign, run_repl_campaign, CampaignSpec, ClusterCampaignSpec,
    CrashPhase, ReplCampaignSpec,
};
use purity_wkld::{AccessPattern, ContentModel, Op, SizeMix, WorkloadGen};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The thread counts the differential contract is stated over.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Serializes tests in this binary: the worker-pool width is a
/// process-wide knob, and two tests flipping it concurrently would
/// measure each other instead of the engine.
fn pool_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Runs `scenario` once per thread count and asserts all renderings
/// are byte-identical. Restores the default width afterwards.
fn assert_thread_invariant(what: &str, mut scenario: impl FnMut() -> String) {
    let _guard = pool_lock();
    let mut reference: Option<(usize, String)> = None;
    for &n in &THREAD_COUNTS {
        parallel::set_threads(n);
        let doc = scenario();
        match &reference {
            None => reference = Some((n, doc)),
            Some((n0, base)) => {
                if *base != doc {
                    let at = base
                        .bytes()
                        .zip(doc.bytes())
                        .position(|(a, b)| a != b)
                        .unwrap_or(base.len().min(doc.len()));
                    let lo = at.saturating_sub(60);
                    panic!(
                        "{what}: {n0}-thread and {n}-thread runs diverge at byte {at}:\n \
                         {n0}t: ...{}\n  {n}t: ...{}",
                        &base[lo..(at + 60).min(base.len())],
                        &doc[lo..(at + 60).min(doc.len())],
                    );
                }
            }
        }
    }
    parallel::set_threads(1);
}

/// Drives `n_ops` of a generated workload against a fresh array and
/// returns the deterministic observability export.
fn exhibit_export(cfg: ArrayConfig, wkld_seed: u64, n_ops: u64, gc_every: u64) -> String {
    let mut a = FlashArray::new(cfg).expect("format");
    let vol_bytes: u64 = 8 << 20;
    let vol = a.create_volume("diff", vol_bytes).unwrap();
    let mut gen = WorkloadGen::new(
        wkld_seed,
        vol_bytes,
        AccessPattern::Zipfian(0.99),
        SizeMix::enterprise(),
        70,
        ContentModel::Rdbms,
        200_000,
    );
    for i in 0..n_ops {
        match gen.next_op() {
            Op::Read { offset, len } => {
                a.read(vol, offset, len).expect("read");
            }
            Op::Write { offset, data } => {
                let Ack { .. } = a.write(vol, offset, &data).expect("write");
            }
        }
        a.advance(gen.interarrival);
        if gc_every > 0 && i % gc_every == gc_every - 1 {
            a.run_gc().expect("gc");
        }
    }
    strip_profile_section(&a.export_observability_json())
}

/// The exhibit seeds the bench binaries actually use (tail-latency
/// preload/mix, host front end, GC storm).
const EXHIBIT_SEEDS: [u64; 4] = [3, 5, 17, 29];

#[test]
fn exhibit_exports_are_thread_count_invariant() {
    for seed in EXHIBIT_SEEDS {
        assert_thread_invariant(&format!("exhibit seed {seed}"), || {
            exhibit_export(ArrayConfig::test_small(), seed, 250, 50)
        });
    }
}

/// Overwrite churn on tiny dies forces FTL GC erases mid-run — the
/// path where per-die reservations interleave with relocations.
#[test]
fn gc_churn_export_is_thread_count_invariant() {
    let mut cfg = ArrayConfig::test_small();
    cfg.cache_bytes = 0;
    cfg.read_around_writes = false;
    assert_thread_invariant("gc churn", move || exhibit_export(cfg.clone(), 29, 300, 25));
}

/// Pre-aged flash (the paper's worn-drive validation) changes per-die
/// wear and retention limits; the export must still not depend on the
/// worker count.
#[test]
fn preaged_export_is_thread_count_invariant() {
    let mut cfg = ArrayConfig::test_small();
    cfg.preage_cycles = 1500;
    assert_thread_invariant("preaged array", move || {
        exhibit_export(cfg.clone(), 5, 200, 40)
    });
}

/// The tiering engine's exhibit arc (ISSUE 10, `exp_fiveminute_live`
/// seed): a working-set shift that demotes an idle volume to the cold
/// class, pays cold reads on its return, and promotes it back. RAM-cache
/// admissions, migrator ticks, cold-slot allocation and the tier blame
/// category must all be invisible to the worker-pool width.
#[test]
fn tiered_workset_shift_export_is_thread_count_invariant() {
    assert_thread_invariant("tiered workset shift seed 0x5F1E", || {
        let mut a = FlashArray::new(ArrayConfig::tiered()).expect("format");
        let vol_bytes: u64 = 512 * 1024;
        let chunks = vol_bytes / (32 * 1024);
        let vdi = a.create_volume("vdi", vol_bytes).unwrap();
        let batch = a.create_volume("batch", vol_bytes).unwrap();
        let mut gen = WorkloadGen::new(
            0x5F1E,
            vol_bytes,
            AccessPattern::Sequential,
            SizeMix::fixed(32 * 1024),
            0,
            ContentModel::Random,
            1_000_000,
        );
        for vol in [vdi, batch] {
            for _ in 0..chunks {
                if let Op::Write { offset, data } = gen.next_op() {
                    a.write(vol, offset, &data).unwrap();
                }
                a.advance(1_000_000);
            }
        }
        // Boot storm on vdi, quiet night on batch (vdi idles past the
        // demote threshold), morning storm back on vdi.
        let phases: [(_, u64); 3] = [(vdi, 2), (batch, 10), (vdi, 3)];
        for (vol, waves) in phases {
            for _ in 0..waves {
                for c in 0..chunks {
                    a.read(vol, c * 32 * 1024, 32 * 1024).unwrap();
                    a.advance(2_000_000);
                }
                a.advance(20_000_000);
            }
        }
        let s = a.stats();
        assert!(s.tier_demotions > 0, "night must demote the idle volume");
        assert!(s.cold_reads > 0, "morning must pay cold reads");
        assert!(s.tier_promotions > 0, "migrator must promote the return");
        let mut doc = strip_profile_section(&a.export_observability_json()).to_string();
        doc.push_str(&format!(
            "\ndemotions={} promotions={} cold_reads={} cache_hits={}",
            s.tier_demotions, s.tier_promotions, s.cold_reads, s.cache_reads
        ));
        doc
    });
}

/// Every tier-1 torture seed, re-run per thread count: the campaign
/// outcome (violations, torn tails, recovery report, virtual
/// downtime) must not notice the worker pool.
#[test]
fn torture_outcomes_are_thread_count_invariant() {
    let sweeps = [
        (CrashPhase::NvramTail, 0..6u64),
        (CrashPhase::SegmentFlush, 10..16),
        (CrashPhase::Checkpoint, 20..26),
        (CrashPhase::OpBoundary, 30..36),
        (CrashPhase::TierDemote, 60..63),
    ];
    for (phase, seeds) in sweeps {
        for seed in seeds {
            let spec = CampaignSpec::new(seed, phase);
            assert_thread_invariant(&format!("torture seed {seed} {}", phase.name()), || {
                format!("{:?}", run_campaign(&spec))
            });
        }
    }
}

/// Crash-during-replication campaigns cross two arrays and a lossy
/// link; both arrays' parallel batches must stay deterministic.
#[test]
fn repl_campaigns_are_thread_count_invariant() {
    for seed in 0..2u64 {
        let spec = ReplCampaignSpec::new(seed);
        assert_thread_invariant(&format!("repl seed {seed}"), || {
            format!("{:?}", run_repl_campaign(&spec))
        });
    }
}

/// Cluster fault campaigns: SWIM timing, rebuild ordering and ack
/// audits across three arrays, per thread count.
#[test]
fn cluster_campaigns_are_thread_count_invariant() {
    for seed in 0..2u64 {
        let spec = ClusterCampaignSpec::new(seed);
        assert_thread_invariant(&format!("cluster seed {seed}"), || {
            format!("{:?}", run_cluster_campaign(&spec))
        });
    }
}

/// The causal-tracing spine (ISSUE 9) under parallel execution: a
/// compact GC-storm with single-sector probes racing the §4.4 write
/// pacer produces die-stall blame, slow-op captures with stall notes,
/// and a populated `tail_blame` export section. The comparison string
/// carries the stripped observability export (tail blame and stage
/// audit included), every slow-op `describe()`, and the tracer's
/// cumulative per-category blame totals — so trace assembly, the
/// critical-path fold, and the p99.9 cohort are all byte-equal at
/// widths 1, 2 and 8.
#[test]
fn blame_traces_and_tail_blame_are_thread_count_invariant() {
    use purity_core::SECTOR;
    assert_thread_invariant("blame trace", || {
        let mut cfg = ArrayConfig::test_small();
        cfg.cache_bytes = 0;
        cfg.read_around_writes = false;
        cfg.dedup_enabled = false;
        cfg.compression_enabled = false;
        cfg.telemetry_interval_ns = 5_000_000;
        let mut a = FlashArray::new(cfg).expect("format");
        let vol_bytes: u64 = 1 << 20;
        let vol = a.create_volume("blame", vol_bytes).unwrap();
        let mut gen = WorkloadGen::new(
            23,
            vol_bytes,
            AccessPattern::Sequential,
            SizeMix::fixed(32 * 1024),
            0,
            ContentModel::Random,
            20_000,
        );
        for _ in 0..(vol_bytes / (32 * 1024)) {
            if let Op::Write { offset, data } = gen.next_op() {
                a.write(vol, offset, &data).unwrap();
            }
            a.advance(200_000);
        }
        a.advance(50_000_000);
        let vol_sectors = vol_bytes / SECTOR as u64;
        for round in 0..6u64 {
            for _ in 0..4 {
                if let Op::Write { offset, data } = gen.next_op() {
                    a.write(vol, offset % vol_bytes, &data).unwrap();
                }
                a.advance(100_000);
            }
            for p in 0..12u64 {
                let s = (round * 37 + p * 11) % vol_sectors;
                a.read(vol, s * SECTOR as u64, SECTOR).unwrap();
                a.advance(300_000);
            }
            if round % 3 == 2 {
                a.run_gc().unwrap();
                a.advance(5_000_000);
            }
        }
        let mut doc = strip_profile_section(&a.export_observability_json()).to_string();
        assert!(doc.contains("\"tail_blame\""), "export carries tail blame");
        let totals = a.obs().tracer.blame_totals();
        assert!(totals.total() > 0, "every completed op folds into blame");
        doc.push('\n');
        for op in a.obs().tracer.slow_ops() {
            doc.push_str(&op.describe());
            doc.push('\n');
        }
        doc.push_str(&totals.to_json());
        doc
    });
}
