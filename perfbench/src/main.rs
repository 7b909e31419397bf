//! End-to-end and per-layer benchmark of the Purity simulator.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! ```
//!
//! Drives `FlashArray` and `Cluster` through their public calls from
//! one process, times every call from outside, verifies every read
//! against a shadow copy, and prints one JSON object as the last line
//! of stdout. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! turns on the existing wall-clock profiler, replays the workload's
//! own data through each layer crate, and reports per-layer metrics.
//! `--out PATH` also writes the detailed report to PATH. The exit code
//! is nonzero when any op failed, any read came back wrong, or
//! `verify_integrity()` found a violation. See README.md.

mod layers;
mod meter;
mod workloads;

use meter::{peak_rss_mb, percentile, Call, Meter};
use purity_obs::json::JsonWriter;
use purity_obs::profiler::{self, Plane, ProfileSnapshot};
use workloads::{Outcome, Rig, Workload};

/// Parallel-engine worker width. A 2-core box has no spare core for a
/// second worker, and results are identical at any width.
const THREADS: usize = 1;
/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out) = (DEFAULT_SEED, DEFAULT_SECONDS, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => out = Some(value()?.clone()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required: one of {names:?}"))?,
        seed,
        seconds: seconds.max(1),
        trace,
        out,
    })
}

/// One named metric with its unit.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Host ops per wall-second inside program calls.
fn host_ops_per_s(m: &Meter) -> f64 {
    ratio(m.attempted as f64, m.in_call_ns() as f64 / 1e9)
}

/// Builds the workload's system `repeats` times (each is timed) and
/// keeps the last one.
fn setup(args: &Args, repeats: usize) -> Result<(Rig, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut rig = None;
    for _ in 0..repeats {
        drop(rig.take());
        let mut m = Meter::new(false);
        rig = Some(args.workload.setup(args.seed, &mut m)?);
        times.push(m.total_ns() as f64 / 1e9);
    }
    Ok((rig.expect("at least one set-up"), times))
}

/// Mean of `samples`, and mean of their slowest 1% (at least ten).
fn mean_and_tail(samples: &[u64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_unstable_by(|a, b| b.cmp(a));
    let k = (v.len().div_ceil(100)).max(10).min(v.len());
    let mean = |s: &[u64]| ratio(s.iter().sum::<u64>() as f64, s.len() as f64);
    (mean(&v), mean(&v[..k]))
}

/// The untraced run's user-visible metrics.
fn end_to_end(m: &Meter, out: &Outcome, setup_s: f64) -> Vec<Metric> {
    let (read_mean, read_tail) = mean_and_tail(&m.read_lat_ns);
    let op_wall_us = |q| percentile(&m.op_wall_ns, q) as f64 / 1e3;
    vec![
        metric("setup_s", "s", setup_s),
        metric("host_ops_per_s", "ops/s", host_ops_per_s(m)),
        metric(
            "sim_s_per_wall_s",
            "ratio",
            ratio(out.sim_ns as f64, m.in_call_ns() as f64),
        ),
        metric("op_wall_p50_us", "us", op_wall_us(0.50)),
        metric("op_wall_p99_us", "us", op_wall_us(0.99)),
        metric("peak_rss_mb", "MiB", peak_rss_mb()),
        metric("read_mean_us", "us", read_mean / 1e3),
        metric("read_tail_mean_us", "us", read_tail / 1e3),
        metric(
            "read_slo_ok_ratio",
            "ratio",
            ratio(
                (m.reads_attempted - m.read_slo_misses) as f64,
                m.reads_attempted as f64,
            ),
        ),
        metric("reduction_ratio", "ratio", out.stats.reduction_ratio()),
        metric(
            "flash_bytes_per_user_byte",
            "ratio",
            ratio(
                out.flash_bytes as f64,
                out.stats.logical_bytes_written as f64,
            ),
        ),
        metric(
            "verified_op_ratio",
            "ratio",
            ratio((m.attempted - m.failed()) as f64, m.attempted as f64),
        ),
    ]
}

/// The traced run's per-layer metrics.
fn per_layer(
    m: &Meter,
    out: &Outcome,
    snap: &ProfileSnapshot,
    lr: &layers::LayerReport,
    untraced_ops_per_s: f64,
) -> Vec<Metric> {
    let s = &out.stats;
    // Shares of in-call wall time, so a layer that a workload never
    // calls reads 0% rather than a time that never changes.
    let busy_pct = |c: Call| 100.0 * ratio(m.busy(c).ns as f64, m.in_call_ns() as f64);
    let calls = |c: Call| m.busy(c).calls as f64;
    let host_reads = m.reads_attempted as f64;
    let fetches =
        (s.ram_cache_hits + s.cache_reads + s.cold_reads + s.direct_reads + s.reconstructed_reads)
            as f64;
    let cl = out.cluster;
    let mut v = vec![
        metric("core.write.calls", "count", calls(Call::Write)),
        metric("core.write.busy_pct", "%", busy_pct(Call::Write)),
        metric("core.read.calls", "count", calls(Call::Read)),
        metric("core.read.busy_pct", "%", busy_pct(Call::Read)),
        metric("core.advance.busy_pct", "%", busy_pct(Call::Advance)),
        metric("core.run_gc.calls", "count", calls(Call::RunGc)),
        metric("core.run_gc.busy_pct", "%", busy_pct(Call::RunGc)),
        metric(
            "core.gc.bytes_relocated",
            "bytes",
            s.gc_bytes_relocated as f64,
        ),
        metric(
            "core.gc.segments_freed",
            "count",
            s.gc_segments_freed as f64,
        ),
        metric(
            "core.gc.relocated_mb_per_freed_segment",
            "MB",
            ratio(
                s.gc_bytes_relocated as f64 / 1e6,
                s.gc_segments_freed as f64,
            ),
        ),
        metric("core.read.direct", "count", s.direct_reads as f64),
        metric(
            "core.read.reconstructed",
            "count",
            s.reconstructed_reads as f64,
        ),
        metric("core.read.zero", "count", s.zero_reads as f64),
        metric(
            "core.read.amplification",
            "ratio",
            ratio(
                (s.direct_reads + s.reconstructed_reads + s.reconstruction_extra_reads) as f64,
                host_reads,
            ),
        ),
        metric(
            "core.cache.hit_ratio",
            "ratio",
            ratio(s.cache_reads as f64, fetches),
        ),
        metric(
            "core.dedup.saved_bytes",
            "bytes",
            s.dedup_bytes_saved as f64,
        ),
        metric(
            "core.compress.saved_bytes",
            "bytes",
            s.compress_bytes_saved as f64,
        ),
        metric("core.nvram.peak_bytes", "bytes", m.nvram_peak as f64),
        metric(
            "tier.ram_cache.hit_ratio",
            "ratio",
            ratio(s.ram_cache_hits as f64, fetches),
        ),
        metric("tier.cold_reads", "count", s.cold_reads as f64),
        metric("tier.demotions", "count", s.tier_demotions as f64),
        metric("tier.promotions", "count", s.tier_promotions as f64),
        metric("tier.bytes_demoted", "bytes", s.tier_bytes_demoted as f64),
        metric("ssd.host_programs", "count", out.host_programs as f64),
        metric("ssd.gc_programs", "count", out.gc_programs as f64),
        metric("ssd.erases", "count", out.erases as f64),
        metric(
            "ssd.ftl_write_amp",
            "ratio",
            ratio(
                (out.host_programs + out.gc_programs) as f64,
                out.host_programs as f64,
            ),
        ),
        metric(
            "ssd.read_queue_mean_us",
            "us",
            s.read_queueing.mean() as f64 / 1e3,
        ),
        metric(
            "compress.encode_ns_per_kib",
            "ns/KiB",
            lr.compress_encode_ns_per_kib,
        ),
        metric(
            "compress.decode_ns_per_kib",
            "ns/KiB",
            lr.compress_decode_ns_per_kib,
        ),
        metric("compress.ratio", "ratio", lr.compress_ratio),
        metric("dedup.hash_ns_per_kib", "ns/KiB", lr.dedup_hash_ns_per_kib),
        metric("dedup.index_lookup_ns", "ns", lr.dedup_index_lookup_ns),
        metric("ecc.encode_mb_per_s", "MB/s", lr.ecc_encode_mb_per_s),
        metric(
            "ecc.reconstruct_mb_per_s",
            "MB/s",
            lr.ecc_reconstruct_mb_per_s,
        ),
        metric("lsm.insert_ns", "ns", lr.lsm_insert_ns),
        metric("lsm.get_ns", "ns", lr.lsm_get_ns),
        metric(
            "format.page_encode_ns_per_row",
            "ns",
            lr.format_page_encode_ns_per_row,
        ),
        metric("cluster.write.busy_pct", "%", busy_pct(Call::ClusterWrite)),
        metric("cluster.read.busy_pct", "%", busy_pct(Call::ClusterRead)),
        metric("cluster.tick.busy_pct", "%", busy_pct(Call::ClusterTick)),
        metric(
            "cluster.rebuild.tasks_done",
            "count",
            cl.map_or(0.0, |c| c.tasks_done as f64),
        ),
        metric(
            "cluster.rebuild.stalls",
            "count",
            cl.map_or(0.0, |c| c.stalls as f64),
        ),
    ];
    for p in Plane::ALL {
        let share = snap.plane(p.name()).map_or(0.0, |st| snap.share_pct(st));
        v.push(metric(format!("plane.{}.share_pct", p.name()), "%", share));
    }
    v.push(metric(
        "obs.tracing_overhead_ratio",
        "ratio",
        ratio(host_ops_per_s(m), untraced_ops_per_s),
    ));
    v
}

/// Result of one benchmark invocation.
struct Report {
    metrics: Vec<Metric>,
    meter: Meter,
    outcome: Outcome,
    /// Layer-replay self-check failures (traced run only).
    replay_failures: Vec<String>,
    /// Per-plane shares summed (traced run only).
    share_sum_pct: f64,
}

impl Report {
    fn correct(&self) -> bool {
        self.meter.failed() == 0
            && self.outcome.integrity.is_empty()
            && self.replay_failures.is_empty()
    }
}

/// Runs `ops` host ops of the chosen workload, traced or not.
fn run(args: &Args, ops: u64) -> Result<Report, String> {
    purity_sim::parallel::set_threads(THREADS);
    if !args.trace {
        let (mut rig, times) = setup(args, SETUP_REPEATS)?;
        let mut m = Meter::new(false);
        let outcome = args.workload.run(&mut rig, args.seed, ops, &mut m);
        let metrics = end_to_end(&m, &outcome, median(times));
        return Ok(Report {
            metrics,
            meter: m,
            outcome,
            replay_failures: Vec::new(),
            share_sum_pct: 0.0,
        });
    }
    // Untraced pass first, for the tracing-overhead ratio only.
    let (mut rig, _) = setup(args, 1)?;
    let mut plain = Meter::new(false);
    let plain_outcome = args.workload.run(&mut rig, args.seed, ops, &mut plain);
    drop(rig);
    let (mut rig, _) = setup(args, 1)?;
    let mut m = Meter::new(true);
    profiler::reset();
    profiler::enable();
    let mut outcome = args.workload.run(&mut rig, args.seed, ops, &mut m);
    let snap = profiler::snapshot();
    profiler::disable();
    drop(rig);
    let cap = m.capture.take().expect("traced meter captures");
    let lr = layers::replay(&cap, &outcome.cfg);
    drop(cap);
    let metrics = per_layer(&m, &outcome, &snap, &lr, host_ops_per_s(&plain));
    let share_sum_pct = snap.planes.iter().map(|p| snap.share_pct(p)).sum();
    // Failures in the untraced pass count too.
    m.errors += plain.errors;
    m.mismatches += plain.mismatches;
    outcome.integrity.extend(plain_outcome.integrity);
    Ok(Report {
        metrics,
        meter: m,
        outcome,
        replay_failures: lr.failures,
        share_sum_pct,
    })
}

/// A float with every digit it has (shortest round-trip form).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut w = JsonWriter::object();
    for mt in metrics {
        let mut o = JsonWriter::object();
        o.raw_field("value", &num(mt.value))
            .str_field("unit", mt.unit);
        w.raw_field(&mt.name, &o.finish());
    }
    w.finish()
}

/// Sample count, mean and percentiles of virtual latencies, in µs.
fn latency_json(samples: &[u64]) -> String {
    let mut w = JsonWriter::object();
    let mean = ratio(samples.iter().sum::<u64>() as f64, samples.len() as f64);
    w.u64_field("count", samples.len() as u64)
        .raw_field("mean_us", &num(mean / 1e3));
    for (name, q) in [
        ("p50_us", 0.5),
        ("p90_us", 0.9),
        ("p99_us", 0.99),
        ("p999_us", 0.999),
        ("max_us", 1.0),
    ] {
        w.raw_field(name, &num(percentile(samples, q) as f64 / 1e3));
    }
    w.finish()
}

fn detail_json(args: &Args, r: &Report) -> String {
    let m = &r.meter;
    let mut integrity = JsonWriter::array();
    for v in &r.outcome.integrity {
        integrity.str_element(v);
    }
    let mut w = JsonWriter::object();
    w.str_field("workload", args.workload.name())
        .u64_field("seed", args.seed)
        .u64_field("seconds", args.seconds)
        .bool_field("trace", args.trace)
        .u64_field("threads", purity_sim::parallel::threads() as u64)
        .u64_field("ops", m.attempted)
        .u64_field("reads", m.reads_attempted)
        .raw_field("read_latency", &latency_json(&m.read_lat_ns))
        .raw_field("write_latency", &latency_json(&m.write_lat_ns))
        .u64_field("errors", m.errors)
        .u64_field("read_mismatches", m.mismatches)
        .raw_field(
            "failed_op_ratio",
            &num(ratio(m.failed() as f64, m.attempted as f64)),
        )
        .raw_field("verify_integrity", &integrity.finish())
        .str_field("first_failure", m.first_failure.as_deref().unwrap_or(""))
        .raw_field("virtual_s", &num(r.outcome.sim_ns as f64 / 1e9))
        .raw_field(
            "rebuild_virtual_s",
            &num(r.outcome.cluster.map_or(0.0, |c| c.rebuild_virtual_s)),
        )
        .raw_field("in_call_s", &num(m.in_call_ns() as f64 / 1e9));
    if args.trace {
        w.raw_field("plane_share_sum_pct", &num(r.share_sum_pct));
        let mut f = JsonWriter::array();
        for x in &r.replay_failures {
            f.str_element(x);
        }
        w.raw_field("replay_failures", &f.finish());
    }
    w.raw_field("metrics", &metrics_json(&r.metrics));
    w.finish()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&args, args.workload.ops(args.seconds)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for mt in &report.metrics {
        println!("{:<42} {:>16.4} {}", mt.name, mt.value, mt.unit);
    }
    let detail = detail_json(&args, &report);
    println!("{detail}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{detail}\n")) {
            eprintln!("perfbench: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    let m = &report.meter;
    let mut w = JsonWriter::object();
    w.bool_field("correct", report.correct())
        .u64_field("attempted", m.attempted)
        .u64_field("failed", m.failed())
        .raw_field("metrics", &metrics_json(&report.metrics));
    println!("{}", w.finish());
    if !report.correct() {
        eprintln!(
            "perfbench: correctness check failed: {}",
            m.first_failure
                .clone()
                .or_else(|| report.outcome.integrity.first().cloned())
                .or_else(|| report.replay_failures.first().cloned())
                .unwrap_or_default()
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 7,
            seconds: 1,
            trace,
            out: None,
        }
    }

    /// Every metric the binary emits is declared in BENCHMARK.json,
    /// and every declared metric is emitted.
    fn assert_declared(metrics: &[Metric]) {
        for mt in metrics {
            let decl = format!("\"name\": \"{}\", \"unit\": \"{}\"", mt.name, mt.unit);
            assert!(
                BENCHMARK_JSON.contains(&decl),
                "{decl} missing from BENCHMARK.json"
            );
        }
    }

    /// One test, because the profiler and the worker width are
    /// process-global: traced runs of every workload, checking plane
    /// shares, the layer replays and the declared metric set.
    #[test]
    fn traced_runs_cover_every_workload() {
        let mut declared = 0;
        for w in Workload::ALL {
            let r = run(&args(w, true), 300).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(r.correct(), "{}: run was not correct", w.name());
            assert!(
                (r.share_sum_pct - 100.0).abs() < 0.5,
                "{}: plane shares sum to {}",
                w.name(),
                r.share_sum_pct
            );
            let metric_value = |name: &str| {
                r.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value)
                    .unwrap()
            };
            for name in [
                "compress.encode_ns_per_kib",
                "dedup.hash_ns_per_kib",
                "ecc.encode_mb_per_s",
                "lsm.insert_ns",
                "format.page_encode_ns_per_row",
            ] {
                assert!(
                    metric_value(name) > 0.0,
                    "{}: replay {name} did not run",
                    w.name()
                );
            }
            assert_declared(&r.metrics);
            declared = r.metrics.len();
        }
        let r = run(&args(Workload::GcChurn, false), 100).expect("untraced run");
        assert!(r.correct());
        assert_declared(&r.metrics);
        assert_eq!(
            BENCHMARK_JSON.matches("\"name\":").count(),
            declared + r.metrics.len() + Workload::ALL.len(),
            "BENCHMARK.json declares metrics the binary does not emit"
        );
        for w in Workload::ALL {
            assert!(BENCHMARK_JSON.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn tail_mean_takes_slowest_percent_with_a_floor_of_ten() {
        let v: Vec<u64> = (1..=2000).collect();
        let (mean, tail) = mean_and_tail(&v);
        assert_eq!(mean, 1000.5);
        assert_eq!(tail, (1981..=2000).sum::<u64>() as f64 / 20.0);
        let (_, tail) = mean_and_tail(&(1..=50).collect::<Vec<u64>>());
        assert_eq!(tail, (41..=50).sum::<u64>() as f64 / 10.0);
    }
}
