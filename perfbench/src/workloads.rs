//! The four workloads. Each builds its system in `setup`, then `run`
//! drives a fixed, seed-derived op stream through the public API as
//! one closed-loop caller in wall time and an open loop in virtual
//! time: after every op the virtual clock moves on by the generator's
//! inter-arrival gap, whatever the op cost, so a stall queues the ops
//! behind it on the die timelines.

use crate::meter::{sub_seed, Call, Meter};
use purity_cluster::{Cluster, ClusterClient, ClusterSpec, ClusterVolumeId};
use purity_core::stats::ArrayStats;
use purity_core::{ArrayConfig, FlashArray, VolumeId, SECTOR};
use purity_sim::{MS, SEC};
use purity_wkld::{AccessPattern, ContentModel, Op, SizeMix, WorkloadGen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OltpZipf,
    GcChurn,
    TierShift,
    ClusterFailover,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OltpZipf,
        Workload::GcChurn,
        Workload::TierShift,
        Workload::ClusterFailover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpZipf => "oltp_zipf",
            Workload::GcChurn => "gc_churn",
            Workload::TierShift => "tier_shift",
            Workload::ClusterFailover => "cluster_failover",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Host ops per requested second. The op count is fixed by the
    /// seed and the run length, never by how fast this build happens to
    /// be, so a faster program does the same work in less time and
    /// every virtual-time result repeats exactly for a seed. The rates
    /// are what a 2-core x86-64 box sustains at worker width 1.
    fn ops_per_second(self) -> u64 {
        match self {
            Workload::OltpZipf => 5_500,
            Workload::GcChurn => 450,
            Workload::TierShift => 4_200,
            Workload::ClusterFailover => 2_600,
        }
    }

    pub fn ops(self, seconds: u64) -> u64 {
        (self.ops_per_second() * seconds).max(30)
    }

    /// Builds the system and preloads it. Every program call is timed
    /// on `m`, so `m.total_ns()` is the set-up cost.
    pub fn setup(self, seed: u64, m: &mut Meter) -> Result<Rig, String> {
        match self {
            Workload::OltpZipf => {
                let mut rig = ArrayRig::build(ArrayConfig::bench_medium(), &[OLTP_VOL], m)?;
                let mut load = preload_gen(sub_seed(seed, 1), OLTP_VOL, 128 * 1024);
                rig.drive(0, &mut load, OLTP_VOL / (128 * 1024), 0, m);
                m.time(Call::Advance, || rig.array.advance(10 * SEC));
                Ok(Rig::Array(Box::new(rig)))
            }
            Workload::GcChurn => {
                let mut rig = ArrayRig::build(ArrayConfig::test_small(), &[CHURN_VOL], m)?;
                let mut load = preload_gen(sub_seed(seed, 1), CHURN_VOL, 64 * 1024);
                rig.drive(0, &mut load, CHURN_VOL / (64 * 1024), 0, m);
                Ok(Rig::Array(Box::new(rig)))
            }
            Workload::TierShift => {
                let mut rig = ArrayRig::build(ArrayConfig::tiered(), &[TIER_VOL, TIER_VOL], m)?;
                for v in 0..2 {
                    let mut load = preload_gen(sub_seed(seed, 1 + v as u64), TIER_VOL, 64 * 1024);
                    rig.drive(v, &mut load, TIER_VOL / (64 * 1024), 0, m);
                }
                m.time(Call::Advance, || rig.array.advance(100 * MS));
                Ok(Rig::Array(Box::new(rig)))
            }
            Workload::ClusterFailover => {
                ClusterRig::build(seed, m).map(|r| Rig::Cluster(Box::new(r)))
            }
        }
        .and_then(|rig| match m.first_failure.take() {
            Some(f) => Err(format!("set-up failed: {f}")),
            None => Ok(rig),
        })
    }

    /// Drives `ops` host ops against the rig built by [`Workload::setup`].
    pub fn run(self, rig: &mut Rig, seed: u64, ops: u64, m: &mut Meter) -> Outcome {
        match (self, rig) {
            (Workload::OltpZipf, Rig::Array(rig)) => {
                let mut gen = WorkloadGen::new(
                    sub_seed(seed, 10),
                    OLTP_VOL,
                    AccessPattern::Zipfian(0.99),
                    SizeMix::enterprise(),
                    70,
                    ContentModel::Rdbms,
                    650_000,
                );
                let t0 = rig.array.now();
                rig.drive(0, &mut gen, ops, 0, m);
                rig.outcome(rig.array.now() - t0)
            }
            (Workload::GcChurn, Rig::Array(rig)) => {
                let mut gen = WorkloadGen::new(
                    sub_seed(seed, 10),
                    CHURN_VOL,
                    AccessPattern::Uniform,
                    SizeMix::fixed(64 * 1024),
                    10,
                    ContentModel::Rdbms,
                    100_000,
                );
                let t0 = rig.array.now();
                rig.drive(0, &mut gen, ops, 25, m);
                rig.outcome(rig.array.now() - t0)
            }
            (Workload::TierShift, Rig::Array(rig)) => {
                let gen = |stream| {
                    WorkloadGen::new(
                        sub_seed(seed, stream),
                        TIER_VOL,
                        AccessPattern::Zipfian(0.99),
                        SizeMix::enterprise(),
                        90,
                        ContentModel::Rdbms,
                        400_000,
                    )
                };
                let (mut day, mut alt, mut morning) = (gen(10), gen(11), gen(12));
                let t0 = rig.array.now();
                for _ in 0..ops.div_ceil(3 * TIER_PHASE_OPS) {
                    // Day: the hot volume's working set warms the RAM cache.
                    rig.drive(0, &mut day, TIER_PHASE_OPS, 0, m);
                    // Night: the working set moves; `hot` idles past the
                    // demote threshold and the migrator moves it cold.
                    for _ in 0..12 {
                        m.time(Call::Advance, || rig.array.advance(50 * MS));
                    }
                    rig.drive(1, &mut alt, TIER_PHASE_OPS, 0, m);
                    // Morning: back to `hot` — cold reads, then promotions.
                    rig.drive(0, &mut morning, TIER_PHASE_OPS, 0, m);
                }
                rig.outcome(rig.array.now() - t0)
            }
            (Workload::ClusterFailover, Rig::Cluster(rig)) => rig.run(seed, ops, m),
            _ => unreachable!("rig built by another workload"),
        }
    }
}

const OLTP_VOL: u64 = 96 << 20;
const CHURN_VOL: u64 = 8 << 20;
const TIER_VOL: u64 = 4 << 20;
const TIER_PHASE_OPS: u64 = 1500;
const CLUSTER_VOL: u64 = 4 << 20;
const CLUSTER_NODES: usize = 3;
/// Virtual gap between cluster ops (one `Cluster::tick` each).
const CLUSTER_GAP: u64 = 40 * MS;

/// Sequential full-volume RDBMS writer used to preload a volume.
fn preload_gen(seed: u64, vol_bytes: u64, unit: usize) -> WorkloadGen {
    WorkloadGen::new(
        seed,
        vol_bytes,
        AccessPattern::Sequential,
        SizeMix::fixed(unit),
        0,
        ContentModel::Rdbms,
        50_000,
    )
}

/// A built system, ready for [`Workload::run`].
pub enum Rig {
    Array(Box<ArrayRig>),
    Cluster(Box<ClusterRig>),
}

/// What a finished run leaves for the metrics, read from public stats
/// after the last timed call.
#[derive(Debug)]
pub struct Outcome {
    /// Virtual time the timed run advanced the clock by.
    pub sim_ns: u64,
    /// Array statistics, summed over every array.
    pub stats: ArrayStats,
    /// FTL pages programmed by host writes, every drive incl. cold.
    pub host_programs: u64,
    /// FTL pages copied by drive-internal GC.
    pub gc_programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Bytes programmed into NAND (host + GC pages × page size).
    pub flash_bytes: u64,
    /// `verify_integrity()` findings over every powered array.
    pub integrity: Vec<String>,
    /// The per-node array configuration (for the layer replays).
    pub cfg: ArrayConfig,
    /// Cluster-only results.
    pub cluster: Option<ClusterOutcome>,
}

#[derive(Debug, Clone, Copy)]
pub struct ClusterOutcome {
    /// Member kill to full redundancy, virtual seconds.
    pub rebuild_virtual_s: f64,
    pub tasks_done: u64,
    pub stalls: u64,
}

/// Folds one array's stats and drive counters into `out`.
fn absorb_array(out: &mut Outcome, a: &mut FlashArray) {
    out.stats.absorb(a.stats());
    if a.powered() {
        out.integrity.extend(a.verify_integrity());
    }
    let cfg = a.config().clone();
    let (_, shelf) = a.controller_and_shelf();
    let drives =
        (0..shelf.n_drives()).map(|d| (shelf.drive(d).stats(), cfg.ssd_geometry.page_size));
    let cold = (0..shelf.n_cold_drives())
        .map(|d| (shelf.cold_drive(d).stats(), cfg.cold_geometry.page_size));
    for (s, page) in drives.chain(cold) {
        out.host_programs += s.host_programs;
        out.gc_programs += s.gc_programs;
        out.erases += s.erases;
        out.flash_bytes += (s.host_programs + s.gc_programs) * page as u64;
    }
}

fn empty_outcome(sim_ns: u64, cfg: ArrayConfig) -> Outcome {
    Outcome {
        sim_ns,
        stats: ArrayStats::default(),
        host_programs: 0,
        gc_programs: 0,
        erases: 0,
        flash_bytes: 0,
        integrity: Vec::new(),
        cfg,
        cluster: None,
    }
}

/// One array plus the benchmark's shadow of every volume's bytes.
pub struct ArrayRig {
    pub array: FlashArray,
    vols: Vec<(VolumeId, Vec<u8>)>,
}

impl ArrayRig {
    fn build(cfg: ArrayConfig, sizes: &[u64], m: &mut Meter) -> Result<Self, String> {
        let mut array = m
            .time(Call::Build, || FlashArray::new(cfg))
            .map_err(|e| format!("FlashArray::new: {e}"))?;
        let mut vols = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let id = m
                .time(Call::Build, || array.create_volume(&format!("v{i}"), size))
                .map_err(|e| format!("create_volume: {e}"))?;
            vols.push((id, vec![0u8; size as usize]));
        }
        Ok(Self { array, vols })
    }

    /// Issues one op against volume `v`, verifying reads.
    fn apply(&mut self, v: usize, op: Op, m: &mut Meter) {
        let (array, (vol, shadow)) = (&mut self.array, &mut self.vols[v]);
        m.attempted += 1;
        match op {
            Op::Read { offset, len } => {
                m.reads_attempted += 1;
                match m.time(Call::Read, || array.read(*vol, offset, len)) {
                    Ok((got, ack)) => {
                        let want = &shadow[offset as usize..offset as usize + len];
                        m.read_ok(ack.latency, &got, want, offset);
                    }
                    Err(e) => m.read_err(e),
                }
            }
            Op::Write { offset, data } => {
                match m.time(Call::Write, || array.write(*vol, offset, &data)) {
                    Ok(ack) => {
                        shadow[offset as usize..offset as usize + data.len()]
                            .copy_from_slice(&data);
                        m.write_ok(ack.latency, vol.0, offset, &data);
                        m.nvram_peak = m.nvram_peak.max(array.nvram_used() as u64);
                    }
                    Err(e) => m.error("write", e),
                }
            }
        }
    }

    /// Open-loop drive: `n` ops from `gen` on volume `v`, the clock
    /// advanced by the inter-arrival gap after each, and a GC pass
    /// every `gc_every` ops when nonzero.
    fn drive(&mut self, v: usize, gen: &mut WorkloadGen, n: u64, gc_every: u64, m: &mut Meter) {
        for i in 0..n {
            self.apply(v, gen.next_op(), m);
            let gap = gen.interarrival;
            m.time(Call::Advance, || self.array.advance(gap));
            if gc_every > 0 && i % gc_every == gc_every - 1 {
                if let Err(e) = m.time(Call::RunGc, || self.array.run_gc()) {
                    m.error("run_gc", e);
                }
            }
        }
    }

    fn outcome(&mut self, sim_ns: u64) -> Outcome {
        let mut out = empty_outcome(sim_ns, self.array.config().clone());
        absorb_array(&mut out, &mut self.array);
        out
    }
}

/// A 3-array cluster, one striped volume, and its shadow.
pub struct ClusterRig {
    c: Cluster,
    client: ClusterClient,
    vol: ClusterVolumeId,
    shadow: Vec<u8>,
    /// Per member: the next array op id not yet accounted for.
    seen: Vec<u64>,
}

impl ClusterRig {
    fn build(seed: u64, m: &mut Meter) -> Result<Self, String> {
        let mut c = m
            .time(Call::Build, || {
                Cluster::new(ClusterSpec::test_small(CLUSTER_NODES, sub_seed(seed, 2)))
            })
            .map_err(|e| format!("Cluster::new: {e}"))?;
        let vol = m
            .time(Call::Build, || c.create_volume("db", CLUSTER_VOL))
            .map_err(|e| format!("create_volume: {e}"))?;
        let client = c.client();
        let mut rig = Self {
            c,
            client,
            vol,
            shadow: vec![0u8; CLUSTER_VOL as usize],
            seen: vec![0; CLUSTER_NODES],
        };
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
        for chunk in 0..CLUSTER_VOL / (64 * 1024) {
            let data: Vec<u8> = (0..64 * 1024).map(|_| rng.gen()).collect();
            rig.write(chunk * 64 * 1024, data, m);
        }
        rig.tick(CLUSTER_GAP, m);
        Ok(rig)
    }

    /// Member-array legs issued since the last call, per member, as
    /// virtual latencies in issue order.
    fn new_legs(&mut self) -> Vec<VecDeque<u64>> {
        (0..CLUSTER_NODES)
            .map(|o| {
                let mut legs: Vec<_> = self
                    .c
                    .array(o)
                    .inflight_at(0)
                    .filter(|op| op.id >= self.seen[o])
                    .map(|op| (op.id, op.completes_at - op.issued_at))
                    .collect();
                legs.sort_unstable();
                if let Some(&(id, _)) = legs.last() {
                    self.seen[o] = id + 1;
                }
                legs.into_iter().map(|(_, lat)| lat).collect()
            })
            .collect()
    }

    /// The members each shard run of `[offset, offset+len)` will send a
    /// leg to: every live in-sync owner for a write, the first one for
    /// a read — the cluster's own routing rule.
    fn plan(&self, offset: u64, len: usize, write: bool) -> Vec<Vec<usize>> {
        let shard_sectors = self.c.spec().shard_sectors;
        let vol = self.c.volume(self.vol).expect("benchmark volume exists");
        let (mut at, end) = (
            offset / SECTOR as u64,
            (offset + len as u64) / SECTOR as u64,
        );
        let mut runs = Vec::new();
        while at < end {
            let shard = at / shard_sectors;
            let sh = &vol.shards[shard as usize];
            let live = sh
                .owners
                .iter()
                .zip(&sh.in_sync)
                .filter(|&(&o, &s)| s && self.c.array(o).powered())
                .map(|(&o, _)| o);
            runs.push(if write {
                live.collect()
            } else {
                live.take(1).collect()
            });
            at = end.min((shard + 1) * shard_sectors);
        }
        runs
    }

    /// Virtual latency of the op just issued: shard runs complete one
    /// after another, each at its slowest replica leg. The one-off
    /// redirect charge after a membership change is not visible from
    /// outside and is not included.
    fn op_latency(&mut self, plan: &[Vec<usize>]) -> u64 {
        let mut legs = self.new_legs();
        plan.iter()
            .map(|members| {
                members
                    .iter()
                    .map(|&o| legs[o].pop_front().unwrap_or(0))
                    .max()
                    .unwrap_or(0)
            })
            .sum()
    }

    fn write(&mut self, offset: u64, data: Vec<u8>, m: &mut Meter) {
        let plan = self.plan(offset, data.len(), true);
        m.attempted += 1;
        let (c, client, vol) = (&mut self.c, &mut self.client, self.vol);
        match m.time(Call::ClusterWrite, || c.write(client, vol, offset, &data)) {
            Ok(()) => {
                let latency = self.op_latency(&plan);
                self.shadow[offset as usize..offset as usize + data.len()].copy_from_slice(&data);
                m.write_ok(latency, vol as u64, offset, &data);
                for o in 0..CLUSTER_NODES {
                    m.nvram_peak = m.nvram_peak.max(self.c.array(o).nvram_used() as u64);
                }
            }
            Err(e) => {
                self.new_legs();
                m.error("cluster write", e);
            }
        }
    }

    fn read(&mut self, offset: u64, len: usize, m: &mut Meter) {
        let plan = self.plan(offset, len, false);
        m.attempted += 1;
        m.reads_attempted += 1;
        let (c, client, vol) = (&mut self.c, &mut self.client, self.vol);
        match m.time(Call::ClusterRead, || c.read(client, vol, offset, len)) {
            Ok(got) => {
                let latency = self.op_latency(&plan);
                let want = &self.shadow[offset as usize..offset as usize + len];
                m.read_ok(latency, &got, want, offset);
            }
            Err(e) => {
                self.new_legs();
                m.read_err(e);
            }
        }
    }

    fn tick(&mut self, dt: u64, m: &mut Meter) {
        m.time(Call::ClusterTick, || self.c.tick(dt));
        // Rebuild and replication traffic is not a host op.
        self.new_legs();
    }

    /// 512 B–4 KiB incompressible ops (70% writes) at one per
    /// [`CLUSTER_GAP`]; member 1 dies a third of the way in, then the
    /// cluster ticks until every shard is fully redundant again.
    fn run(&mut self, seed: u64, ops: u64, m: &mut Meter) -> Outcome {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 10));
        let t0 = self.c.now();
        for i in 0..ops {
            if i == ops / 3 {
                self.c.kill(1);
            }
            let len = SECTOR << rng.gen_range(0..4u32);
            let offset = rng.gen_range(0..(CLUSTER_VOL as usize - len) / SECTOR) * SECTOR;
            if rng.gen_range(0..100u32) < 30 {
                self.read(offset as u64, len, m);
            } else {
                let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                self.write(offset as u64, data, m);
            }
            self.tick(CLUSTER_GAP, m);
        }
        let mut guard = 0;
        while !(self.c.epoch() > 1 && self.c.fully_redundant()) {
            self.tick(100 * MS, m);
            guard += 1;
            if guard > 1200 {
                m.error("cluster", "never returned to full redundancy");
                break;
            }
        }
        let rebuild_virtual_s = match (self.c.last_kill_at, self.c.last_redundant_at) {
            (Some(k), Some(r)) if r >= k => (r - k) as f64 / SEC as f64,
            _ => {
                m.error("cluster", "no kill-to-redundant interval recorded");
                0.0
            }
        };
        let rs = self.c.rebuild_stats();
        let mut out = empty_outcome(self.c.now() - t0, self.c.spec().array.clone());
        for o in 0..CLUSTER_NODES {
            absorb_array(&mut out, self.c.array_mut(o));
        }
        out.cluster = Some(ClusterOutcome {
            rebuild_virtual_s,
            tasks_done: rs.done,
            stalls: rs.stalls,
        });
        out
    }
}
