//! Deterministic correctness record of one simulation run.
//!
//! Host timings never enter a record. Two runs of one workload and seed
//! must produce identical digests at any thread count, traced or not; the
//! benchmark counts every run whose digest differs from the first run of
//! its workload and seed as failed.

use experiments::fleet::FleetConfig;
use experiments::{weather, Deployment, Harvest};
use simkernel::SimTime;

/// FNV-1a over little-endian `u64` words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn mix(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn opt_bits(x: Option<f64>) -> u64 {
    x.map_or(u64::MAX, f64::to_bits)
}

/// Digest of every field of a [`Harvest`]: the per-run record of the
/// paper-grid workload, and part of the fleet record.
pub fn harvest_digest(h: &Harvest) -> u64 {
    let mut f = Fnv::new();
    for r in &h.per_region {
        f.mix(r.outputs as u64);
        f.mix(r.throughput.to_bits());
        f.mix(opt_bits(r.mean_latency_s));
        f.mix(opt_bits(r.p95_latency_s));
        f.mix(r.source_drops);
        f.mix(r.catchup_discards);
        f.mix(r.cell_drops);
        f.mix(r.cell_max_queue_depth);
    }
    f.mix(h.mean_throughput.to_bits());
    f.mix(h.mean_latency_s.to_bits());
    for c in [&h.wifi_bytes, &h.cell_bytes] {
        for b in [
            c.data,
            c.replication,
            c.checkpoint,
            c.preservation,
            c.control,
            c.recovery,
        ] {
            f.mix(b);
        }
    }
    f.mix(h.preserved_bytes);
    f.mix(h.ckpt_repl_bytes);
    f.mix(h.recoveries as u64);
    f.mix(h.mean_recovery_s.to_bits());
    f.mix(h.stops);
    f.mix(h.cell_drops);
    f.mix(h.cell_max_queue_depth);
    f.mix(h.cell_severed_sends);
    f.mix(h.cell_queue_drop_bytes);
    f.mix(h.cell_rejects);
    f.finish()
}

/// Deterministic counts of one finished deployment, plus the invariants
/// whose violation fails the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub events: u64,
    pub outputs: u64,
    pub commits: u64,
    pub recoveries: u64,
    pub departures: u64,
    pub harvest: u64,
    pub duplicate_commits: u64,
    pub slo_violations: u64,
    pub pool_aliasing: u64,
    pub sanitizer_violations: u64,
}

impl Record {
    /// Record a finished deployment. `fleet` supplies the weather whose
    /// recovery SLO the run is held to.
    pub fn of(dep: &Deployment, h: &Harvest, fleet: Option<&FleetConfig>) -> Record {
        let ms = !dep.region_controllers.is_empty();
        let commits = if ms { dep.ms_commits() } else { Vec::new() };
        let mut seen = std::collections::BTreeSet::new();
        let duplicate_commits = commits
            .iter()
            .filter(|&&(r, v, _)| !seen.insert((r, v)))
            .count() as u64;
        let slo_violations = fleet.map_or(0, |cfg| slo_violations(cfg, &commits));
        Record {
            events: dep.sim.events_processed(),
            outputs: h.per_region.iter().map(|r| r.outputs as u64).sum(),
            commits: commits.len() as u64,
            recoveries: h.recoveries as u64,
            departures: if ms { dep.ms_departures_handled() } else { 0 },
            harvest: harvest_digest(h),
            duplicate_commits,
            slo_violations,
            pool_aliasing: dep.sim.pool_stats().aliasing,
            sanitizer_violations: dep.sim.causality_report().map_or(0, |r| r.violations),
        }
    }

    /// Digest of the deterministic counts (the invariants are checked
    /// separately by [`Record::violations`]).
    pub fn digest(&self) -> u64 {
        let mut f = Fnv::new();
        for x in [
            self.events,
            self.outputs,
            self.commits,
            self.recoveries,
            self.departures,
            self.harvest,
        ] {
            f.mix(x);
        }
        f.finish()
    }

    /// Broken invariants, one message each.
    pub fn violations(&self) -> Vec<String> {
        [
            ("duplicate_commits", self.duplicate_commits),
            ("slo_violations", self.slo_violations),
            ("pool_aliasing", self.pool_aliasing),
            ("sanitizer_violations", self.sanitizer_violations),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|(what, n)| format!("{what} = {n}"))
        .chain((self.outputs == 0).then(|| "no sink outputs".to_string()))
        .collect()
    }
}

/// Weather fault windows whose region did not recommit a checkpoint
/// within the program's recovery SLO after the scheduled heal (the same
/// rule as `FleetReport::slo_violations`).
fn slo_violations(cfg: &FleetConfig, commits: &[(usize, u64, SimTime)]) -> u64 {
    let Some(program) = &cfg.weather else {
        return 0;
    };
    if program.recovery_slo_s < 0.0 {
        return 0;
    }
    weather::fault_windows(program, cfg.topo())
        .into_iter()
        .filter(|&(region, _, heal)| {
            let first = commits
                .iter()
                .filter(|&&(r, _, at)| r == region && at >= heal)
                .map(|&(_, _, at)| at)
                .min();
            match first {
                Some(at) => at.as_secs_f64() - heal.as_secs_f64() > program.recovery_slo_s,
                None => true,
            }
        })
        .count() as u64
}
