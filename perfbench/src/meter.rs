//! Outside-in measurement: wall time spent inside program calls, the
//! virtual latency each call reports, and read-back verification
//! against the benchmark's own shadow copy of every volume.

use std::time::Instant;

/// Virtual read latency above which a read misses the paper's SLO
/// (p99.9 reads under 1 ms, §5).
pub const READ_SLO_NS: u64 = 1_000_000;

/// The program entry points the benchmark times. Generator, shadow and
/// verification work happens between calls and is never counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `FlashArray::new`, `create_volume`, `Cluster::new` and the like.
    Build,
    /// `FlashArray::write`.
    Write,
    /// `FlashArray::read`.
    Read,
    /// `FlashArray::advance`.
    Advance,
    /// `FlashArray::run_gc`.
    RunGc,
    /// `Cluster::write`.
    ClusterWrite,
    /// `Cluster::read`.
    ClusterRead,
    /// `Cluster::tick`.
    ClusterTick,
}

impl Call {
    pub const ALL: [Call; 8] = [
        Call::Build,
        Call::Write,
        Call::Read,
        Call::Advance,
        Call::RunGc,
        Call::ClusterWrite,
        Call::ClusterRead,
        Call::ClusterTick,
    ];

    /// Host reads and writes: the calls whose wall time is an op latency.
    fn is_host_op(self) -> bool {
        matches!(
            self,
            Call::Write | Call::Read | Call::ClusterWrite | Call::ClusterRead
        )
    }
}

/// Calls made and wall nanoseconds spent inside them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    pub calls: u64,
    pub ns: u64,
}

/// Samples of the workload's own data, kept only in the traced run so
/// the layer replays run on what the workload actually wrote.
#[derive(Debug, Default)]
pub struct Capture {
    /// Write payloads, in issue order, up to [`Capture::PAYLOAD_BYTES`].
    pub payloads: Vec<Vec<u8>>,
    payload_bytes: usize,
    /// `(volume, sector)` of every sector written, up to
    /// [`Capture::MAX_SECTORS`].
    pub sectors: Vec<(u64, u64)>,
}

impl Capture {
    const PAYLOAD_BYTES: usize = 16 << 20;
    const MAX_SECTORS: usize = 1 << 20;

    fn note_write(&mut self, volume: u64, offset: u64, data: &[u8]) {
        if self.payload_bytes < Self::PAYLOAD_BYTES {
            self.payload_bytes += data.len();
            self.payloads.push(data.to_vec());
        }
        let first = offset / purity_core::SECTOR as u64;
        let n = (data.len() / purity_core::SECTOR) as u64;
        for s in first..first + n {
            if self.sectors.len() < Self::MAX_SECTORS {
                self.sectors.push((volume, s));
            }
        }
    }
}

/// Everything measured about one run.
#[derive(Debug, Default)]
pub struct Meter {
    busy: [Busy; Call::ALL.len()],
    /// Wall nanoseconds of every host read/write call.
    pub op_wall_ns: Vec<u64>,
    /// Virtual latency of every successful read, from when it was due.
    pub read_lat_ns: Vec<u64>,
    /// Virtual latency of every successful write.
    pub write_lat_ns: Vec<u64>,
    /// Host ops issued.
    pub attempted: u64,
    /// Reads issued.
    pub reads_attempted: u64,
    /// Reads over [`READ_SLO_NS`] or failed.
    pub read_slo_misses: u64,
    /// Calls that returned `Err`.
    pub errors: u64,
    /// Reads that returned bytes other than the last ones written.
    pub mismatches: u64,
    /// First failure seen, for the report.
    pub first_failure: Option<String>,
    /// Peak NVRAM occupancy seen after a write (bytes).
    pub nvram_peak: u64,
    /// Workload data for the layer replays (traced run only).
    pub capture: Option<Capture>,
}

impl Meter {
    pub fn new(capture: bool) -> Self {
        Self {
            capture: capture.then(Capture::default),
            ..Self::default()
        }
    }

    /// Runs one program call, charging its wall time to `call`.
    pub fn time<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let ns = t0.elapsed().as_nanos() as u64;
        let b = &mut self.busy[call as usize];
        b.calls += 1;
        b.ns += ns;
        if call.is_host_op() {
            self.op_wall_ns.push(ns);
        }
        out
    }

    pub fn busy(&self, call: Call) -> Busy {
        self.busy[call as usize]
    }

    /// Wall nanoseconds inside every program call except set-up builds.
    pub fn in_call_ns(&self) -> u64 {
        Call::ALL
            .iter()
            .filter(|&&c| c != Call::Build)
            .map(|&c| self.busy(c).ns)
            .sum()
    }

    /// Wall nanoseconds inside every program call, builds included.
    pub fn total_ns(&self) -> u64 {
        self.busy.iter().map(|b| b.ns).sum()
    }

    /// Records a call that returned `Err`.
    pub fn error(&mut self, what: &str, e: impl std::fmt::Display) {
        self.errors += 1;
        self.first_failure
            .get_or_insert_with(|| format!("{what}: {e}"));
    }

    /// Records a completed write of `data` at `offset` of `volume`.
    pub fn write_ok(&mut self, latency: u64, volume: u64, offset: u64, data: &[u8]) {
        self.write_lat_ns.push(latency);
        if let Some(c) = &mut self.capture {
            c.note_write(volume, offset, data);
        }
    }

    /// Records a completed read and checks it against the shadow bytes.
    /// A wrong read misses the SLO whatever its latency.
    pub fn read_ok(&mut self, latency: u64, got: &[u8], want: &[u8], at: u64) {
        self.read_lat_ns.push(latency);
        let wrong = got != want;
        if latency > READ_SLO_NS || wrong {
            self.read_slo_misses += 1;
        }
        if wrong {
            self.mismatches += 1;
            self.first_failure
                .get_or_insert_with(|| format!("read at byte {at} returned stale or wrong bytes"));
        }
    }

    /// Records a read that returned `Err`.
    pub fn read_err(&mut self, e: impl std::fmt::Display) {
        self.read_slo_misses += 1;
        self.error("read", e);
    }

    /// Ops that failed: errors plus wrong read-backs.
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Derives an independent 64-bit seed for one generator (splitmix64).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.999), 999);
        assert_eq!(percentile(&v, 1.0), 1000);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn failures_count_errors_and_mismatches() {
        let mut m = Meter::new(false);
        m.read_ok(10, b"ab", b"ab", 0);
        m.read_ok(2_000_000, b"ab", b"ab", 0);
        m.read_ok(10, b"ab", b"ax", 512);
        m.read_err("boom");
        assert_eq!(m.mismatches, 1);
        assert_eq!(m.errors, 1);
        assert_eq!(m.failed(), 2);
        // Slow, wrong and failed reads all miss the SLO.
        assert_eq!(m.read_slo_misses, 3);
        assert!(m.first_failure.as_deref().unwrap().contains("512"));
    }

    #[test]
    fn sub_seeds_differ_per_stream() {
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }
}
