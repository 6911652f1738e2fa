//! perfbench: end-to-end and per-layer benchmark of the MobiStreams
//! reproduction. `run.py` beside this package drives it; see README.md.
//!
//! ```text
//! perfbench run   <workload> <seed>              one untraced run
//! perfbench trace <workload> <seed> <spans.json> traced run + layer probes
//! ```
//!
//! Each command prints one JSON line. Host timings come from
//! `std::time::Instant` here, outside the simulation crates, which stay
//! free of wall-clock reads.

mod probes;
mod record;
mod reference;
mod spans;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dsps::node::NodeActor;
use experiments::faults::{failure_order, inject_departure, inject_failure, inject_reboot};
use experiments::fleet::{build_fleet, profile, run_fleet, FleetConfig};
use experiments::weather::{self, WeatherSystem};
use experiments::{
    harvest, measured_run, AppKind, Deployment, ExpOptions, Harvest, ScenarioConfig, Scheme,
};
use mobistreams::controller::RegionController;
use simkernel::{SimDuration, SimTime};
use simnet::cellular::CellularNet;
use simnet::stats::TrafficClass;
use simnet::wifi::WifiMedium;

use probes::Shape;
use record::{harvest_digest, Record};
use spans::{array, quote, Json, Spans};

/// Traced runs step `run_until` in slices of this much simulated time.
const SLICE: SimDuration = SimDuration::from_secs(1);

/// Set-ups timed per deployment in an untraced run (the first one is the
/// deployment that runs); the run reports their median.
const SETUP_REPS: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Metro,
    StadiumBrownout,
    PaperGrid,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "metro" => Some(Workload::Metro),
            "stadium-brownout" => Some(Workload::StadiumBrownout),
            "paper-grid" => Some(Workload::PaperGrid),
            _ => None,
        }
    }

    /// Kernel worker threads: only `metro` runs the worker pool.
    fn threads(self) -> usize {
        match self {
            Workload::Metro => worker_threads(),
            _ => 1,
        }
    }
}

/// Worker threads for the sharded kernel: 2, or fewer on a smaller host.
fn worker_threads() -> usize {
    available_parallelism().min(2)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn fleet_config(w: Workload, seed: u64) -> FleetConfig {
    match w {
        Workload::Metro => {
            let mut cfg = profile("metro", seed).expect("metro is a built-in profile");
            cfg.threads = w.threads();
            cfg
        }
        Workload::StadiumBrownout => {
            let mut cfg = profile("stadium", seed).expect("stadium is a built-in profile");
            cfg.weather = weather::weather("brownout-front", seed, cfg.topo());
            cfg.threads = w.threads();
            cfg
        }
        Workload::PaperGrid => unreachable!("paper-grid is not a fleet workload"),
    }
}

// ---------------------------------------------------------------------
// Paper grid: every FT scheme on the paper's 4 × 8 deployment.

#[derive(Debug, Clone, Copy)]
enum Fault {
    None,
    /// Fig 9 failure burst of n phones per region, rebooted 60 s later.
    Fail(u32),
    /// Fig 9 departure burst of n phones per region.
    Depart(u32),
}

#[derive(Debug, Clone, Copy)]
struct GridRun {
    app: AppKind,
    scheme: Scheme,
    fault: Fault,
}

impl GridRun {
    fn label(&self) -> String {
        let fault = match self.fault {
            Fault::None => "fault-free".to_string(),
            Fault::Fail(n) => format!("fail-{n}"),
            Fault::Depart(n) => format!("depart-{n}"),
        };
        format!("{}/{}/{fault}", self.app.label(), self.scheme.label())
    }

    /// Per-layer metric that times this run's scheme.
    fn scheme_metric(&self) -> &'static str {
        match self.scheme {
            Scheme::Base => "dsps.base_run_s",
            Scheme::Local => "baselines.local_run_s",
            Scheme::Dist(1) => "baselines.dist1_run_s",
            Scheme::Dist(2) => "baselines.dist2_run_s",
            Scheme::Dist(_) => "baselines.dist3_run_s",
            Scheme::Rep2 => "baselines.rep2_run_s",
            Scheme::Ms | Scheme::Upstream => "mobistreams.ms_run_s",
        }
    }

    fn config(&self, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            app: self.app,
            scheme: self.scheme,
            seed,
            ..ScenarioConfig::default()
        }
    }

    /// Schedule the run's Fig 9 burst, 30 s into the measurement window.
    fn inject(&self, dep: &mut Deployment, warmup: SimDuration) {
        let at = SimTime::ZERO + warmup + SimDuration::from_secs(30);
        let (n, depart) = match self.fault {
            Fault::None => return,
            Fault::Fail(n) => (n, false),
            Fault::Depart(n) => (n, true),
        };
        for region in 0..dep.cfg.regions {
            let order = failure_order(dep, region);
            for &slot in order.iter().take(n as usize) {
                if depart {
                    inject_departure(dep, region, slot, at);
                } else {
                    inject_failure(dep, region, slot, at);
                    inject_reboot(dep, region, slot, at + SimDuration::from_secs(60));
                }
            }
        }
    }
}

/// BCP and SignalGuru under every scheme fault-free, plus each scheme's
/// tolerated Fig 9 failure burst and an ms-8 departure burst.
fn grid_runs() -> Vec<GridRun> {
    let schemes = [
        Scheme::Base,
        Scheme::Local,
        Scheme::Dist(1),
        Scheme::Dist(2),
        Scheme::Dist(3),
        Scheme::Rep2,
        Scheme::Ms,
    ];
    let bursts = [
        (Scheme::Dist(1), Fault::Fail(1)),
        (Scheme::Dist(2), Fault::Fail(2)),
        (Scheme::Dist(3), Fault::Fail(3)),
        (Scheme::Rep2, Fault::Fail(1)),
        (Scheme::Ms, Fault::Fail(3)),
        (Scheme::Ms, Fault::Depart(3)),
    ];
    let mut runs = Vec::new();
    for app in [AppKind::Bcp, AppKind::SignalGuru] {
        for scheme in schemes {
            runs.push(GridRun {
                app,
                scheme,
                fault: Fault::None,
            });
        }
        for (scheme, fault) in bursts {
            runs.push(GridRun { app, scheme, fault });
        }
    }
    runs
}

// ---------------------------------------------------------------------
// Untraced runs.

/// User + system CPU seconds of this process so far, all threads
/// included (`/proc/self/stat`, in USER_HZ = 100 ticks per second).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("Linux /proc/self/stat");
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm field") + 1..]
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick field");
    // utime and stime are fields 14 and 15; `fields` starts at field 3.
    (ticks(11) + ticks(12)) / 100.0
}

/// Host seconds of one untraced pass, with its deterministic record.
struct Pass {
    setup_s: f64,
    run_s: f64,
    harvest_s: f64,
    /// CPU seconds of the set-up that ran, the run and the harvest.
    cpu_s: f64,
    digest: u64,
    failures: Vec<String>,
}

impl Pass {
    fn total_s(&self) -> f64 {
        self.setup_s + self.run_s + self.harvest_s
    }
}

/// Run `f`, turning a panic into a failure message.
fn guarded<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("{what}: panicked: {msg}")
    })
}

/// `build_fleet` plus `enable_sharding_opts`, timed.
fn fleet_setup(cfg: &FleetConfig) -> (Deployment, f64) {
    let t = Instant::now();
    let (mut dep, _schedule) = build_fleet(cfg);
    dep.enable_sharding_opts(cfg.threads, !cfg.uniform_lookahead);
    (dep, t.elapsed().as_secs_f64())
}

/// Build, run and harvest one fleet deployment; `tracer` switches on
/// the sanitizer and sliced, spanned stepping.
fn fleet_pass(cfg: &FleetConfig, mut tracer: Option<&mut Tracer>) -> Pass {
    let setup = tracer
        .as_mut()
        .map(|tr| tr.spans.open("setup", Some(tr.parent)));
    let cpu = cpu_seconds();
    let (mut dep, setup_s) = fleet_setup(cfg);
    let end = SimTime::ZERO + cfg.duration;
    let t = Instant::now();
    match tracer.as_mut() {
        Some(tr) => {
            tr.spans
                .close(setup.expect("opened with the tracer"), Json::default());
            dep.sim.enable_sanitizer();
            tr.run_sliced(&mut dep, end);
        }
        None => dep.run_until(end),
    }
    let run_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let from = SimTime::ZERO + cfg.warmup;
    let h = harvest(&dep, from, end);
    let harvest_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu;
    let rec = Record::of(&dep, &h, Some(cfg));
    let mut setups = vec![setup_s];
    match tracer {
        Some(tr) => {
            tr.layers.add_deployment(&dep, &h, from, end);
            tr.harvest_s += harvest_s;
        }
        None => {
            // Further set-ups only after the measured run, so that the
            // run starts on the same fresh heap in every process.
            drop(dep);
            setups.extend((1..SETUP_REPS).map(|_| fleet_setup(cfg).1));
        }
    }
    Pass {
        setup_s: median(setups),
        run_s,
        harvest_s,
        cpu_s,
        digest: rec.digest(),
        failures: rec.violations(),
    }
}

/// One paper-grid run through `measured_run`; set-up is the time until
/// its fault hook has run (build, start, fault injection), timed as the
/// median of [`SETUP_REPS`] set-ups.
fn grid_pass(run: &GridRun, seed: u64) -> Pass {
    let opts = ExpOptions::quick();
    let cpu = cpu_seconds();
    let called = Instant::now();
    let mut ran = called;
    let h: Harvest = measured_run(run.config(seed), opts.warmup, opts.window, |dep| {
        run.inject(dep, opts.warmup);
        ran = Instant::now();
    });
    let run_s = ran.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu;
    let mut setups = vec![(ran - called).as_secs_f64()];
    setups.extend((1..SETUP_REPS).map(|_| {
        let t = Instant::now();
        let mut dep = Deployment::build(run.config(seed));
        dep.start();
        run.inject(&mut dep, opts.warmup);
        t.elapsed().as_secs_f64()
    }));
    let mut failures = Vec::new();
    if !(h.mean_throughput > 0.0 && h.mean_throughput.is_finite()) {
        failures.push("no throughput".to_string());
    }
    Pass {
        setup_s: median(setups),
        run_s,
        harvest_s: 0.0,
        cpu_s,
        digest: harvest_digest(&h),
        failures,
    }
}

/// Every run of one untraced pass over the workload, labelled.
fn untraced(w: Workload, seed: u64) -> Vec<(String, Result<Pass, String>)> {
    match w {
        Workload::PaperGrid => grid_runs()
            .iter()
            .map(|r| (r.label(), guarded(&r.label(), || grid_pass(r, seed))))
            .collect(),
        _ => {
            let cfg = fleet_config(w, seed);
            vec![(
                cfg.name.clone(),
                guarded(&cfg.name, || fleet_pass(&cfg, None)),
            )]
        }
    }
}

fn hex(x: u64) -> String {
    format!("0x{x:016x}")
}

/// Digest (or `"panic"`) and failure messages of labelled passes.
fn outcome_json(passes: &[(String, Result<Pass, String>)]) -> (String, Vec<String>) {
    let digests = array(passes.iter().map(|(_, p)| match p {
        Ok(p) => quote(&hex(p.digest)),
        Err(_) => quote("panic"),
    }));
    let failures = passes
        .iter()
        .flat_map(|(label, p)| match p {
            Ok(p) => p.failures.iter().map(|f| format!("{label}: {f}")).collect(),
            Err(e) => vec![e.clone()],
        })
        .collect();
    (digests, failures)
}

fn cmd_run(w: Workload, seed: u64) -> Json {
    let before = reference::seconds();
    let passes = untraced(w, seed);
    let after = reference::seconds();
    let ok = || passes.iter().filter_map(|(_, p)| p.as_ref().ok());
    let setup_s: f64 = ok().map(|p| p.setup_s).sum();
    let wall_s: f64 = ok().map(|p| p.run_s + p.harvest_s).sum();
    let cpu_s: f64 = ok().map(|p| p.cpu_s).sum();
    let (digests, failures) = outcome_json(&passes);
    Json::default()
        .num("setup_s", setup_s)
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s)
        .int("runs", passes.len() as u64)
        .raw("digests", digests)
        .raw("failures", array(failures.iter().map(|f| quote(f))))
        .num("reference_s", (before + after) / 2.0)
}

// ---------------------------------------------------------------------
// Traced runs.

/// Per-layer counters summed over the traced deployments.
#[derive(Default)]
struct Layers {
    sum: BTreeMap<&'static str, f64>,
    /// Deployments added (averages divide by it).
    runs: u64,
    recovery_s_total: f64,
}

impl Layers {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.sum.entry(key).or_default() += v;
    }

    fn set_max(&mut self, key: &'static str, v: f64) {
        let e = self.sum.entry(key).or_default();
        *e = e.max(v);
    }

    fn add_deployment(&mut self, dep: &Deployment, h: &Harvest, from: SimTime, to: SimTime) {
        self.runs += 1;
        let sim = &dep.sim;
        self.add("simkernel.events", sim.events_processed() as f64);
        self.add("simkernel.pool_recycled", sim.pool_stats().recycled as f64);
        self.add(
            "simkernel.windows",
            sim.causality_report().map_or(0, |r| r.windows) as f64,
        );

        for region in &dep.regions {
            let s = sim.actor::<WifiMedium>(region.wifi).stats();
            self.add(
                "simnet.wifi.msgs.data",
                s.messages(TrafficClass::Data) as f64,
            );
            self.add(
                "simnet.wifi.msgs.checkpoint",
                s.messages(TrafficClass::Checkpoint) as f64,
            );
            self.add(
                "simnet.wifi.msgs.preservation",
                s.messages(TrafficClass::Preservation) as f64,
            );
            self.add(
                "simnet.wifi.msgs.control",
                s.messages(TrafficClass::Control) as f64,
            );
            self.add(
                "simnet.wifi.payload_mb",
                s.total_payload_bytes() as f64 / 1e6,
            );
            self.add("simnet.wifi.wire_mb", s.total_wire_bytes() as f64 / 1e6);
            self.add("simnet.wifi.drops", s.drops as f64);
            self.add("simnet.wifi.airtime_s", s.busy_time.as_secs_f64());
        }
        let cell = sim.actor::<CellularNet>(dep.cell).stats();
        self.add(
            "simnet.cell.payload_mb",
            cell.total_payload_bytes() as f64 / 1e6,
        );
        self.add("simnet.cell.drops", cell.queue_drops as f64);
        self.add("simnet.cell.rejects", cell.rejects as f64);
        self.set_max(
            "simnet.cell.max_queue_kb",
            cell.max_queue_depth as f64 / 1024.0,
        );

        if !dep.region_controllers.is_empty() {
            let recs = dep.ms_recoveries();
            self.add("mobistreams.commits", dep.ms_commits().len() as f64);
            self.add("mobistreams.recoveries", recs.len() as f64);
            self.recovery_s_total += recs
                .iter()
                .map(|r| (r.finished - r.started).as_secs_f64())
                .sum::<f64>();
            self.add("mobistreams.departures", dep.ms_departures_handled() as f64);
            for &c in &dep.region_controllers {
                let ctl = sim.actor::<RegionController>(c);
                self.add("mobistreams.membership_msgs", ctl.membership_msgs as f64);
                self.add(
                    "mobistreams.membership_kb",
                    ctl.membership_bytes as f64 / 1024.0,
                );
            }
        }

        let mut lats: Vec<f64> = Vec::new();
        for region in &dep.regions {
            for &nid in &region.nodes {
                let m = &sim.actor::<NodeActor>(nid).inner.metrics;
                self.add("dsps.processed", m.processed as f64);
                self.add("dsps.source_inputs", m.source_inputs as f64);
                self.add("dsps.source_drops", m.source_drops as f64);
                self.add("dsps.routing_drops", m.routing_drops as f64);
                self.add("dsps.outputs", m.sink_samples.len() as f64);
                self.add("dsps.cpu_busy_s", m.cpu_busy.as_secs_f64());
                lats.extend(
                    m.sink_samples
                        .iter()
                        .filter(|s| s.at >= from && s.at < to)
                        .map(|s| s.latency.as_secs_f64()),
                );
            }
        }
        lats.sort_by(f64::total_cmp);
        if let Some(&p95) = lats.get(((lats.len().max(1) - 1) as f64 * 0.95).round() as usize) {
            self.add("dsps.latency_p95_s", p95);
        }
        self.add("dsps.tput_tps", h.mean_throughput);
        if h.mean_latency_s.is_finite() {
            self.add("dsps.latency_mean_s", h.mean_latency_s);
        }
    }

    /// Final values: sums, with per-run averages and ratios resolved.
    fn finish(mut self) -> BTreeMap<&'static str, f64> {
        let runs = self.runs.max(1) as f64;
        for key in ["dsps.tput_tps", "dsps.latency_mean_s", "dsps.latency_p95_s"] {
            *self.sum.entry(key).or_default() /= runs;
        }
        let recoveries = self
            .sum
            .get("mobistreams.recoveries")
            .copied()
            .unwrap_or(0.0);
        self.sum.insert(
            "mobistreams.recovery_mean_s",
            if recoveries > 0.0 {
                self.recovery_s_total / recoveries
            } else {
                0.0
            },
        );
        let windows = self.sum.get("simkernel.windows").copied().unwrap_or(0.0);
        let events = self.sum.get("simkernel.events").copied().unwrap_or(0.0);
        self.sum.insert(
            "simkernel.events_per_window",
            if windows > 0.0 { events / windows } else { 0.0 },
        );
        self.sum
    }
}

/// Class-byte and progress counters read between slices.
struct Snapshot {
    events: u64,
    outputs: u64,
    bytes: [u64; 6],
}

impl Snapshot {
    fn of(dep: &Deployment) -> Snapshot {
        let mut bytes = [0u64; 6];
        let mut add = |s: &simnet::stats::NetStats| {
            for (b, c) in bytes.iter_mut().zip(TrafficClass::ALL) {
                *b += s.payload_bytes(c);
            }
        };
        for region in &dep.regions {
            add(dep.sim.actor::<WifiMedium>(region.wifi).stats());
        }
        add(dep.sim.actor::<CellularNet>(dep.cell).stats());
        let outputs = dep
            .regions
            .iter()
            .flat_map(|r| &r.nodes)
            .map(|&n| {
                dep.sim
                    .actor::<NodeActor>(n)
                    .inner
                    .metrics
                    .sink_samples
                    .len() as u64
            })
            .sum();
        Snapshot {
            events: dep.sim.events_processed(),
            outputs,
            bytes,
        }
    }

    fn class_delta(&self, before: &Snapshot, class: TrafficClass) -> u64 {
        let i = TrafficClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("class is in ALL");
        self.bytes[i] - before.bytes[i]
    }
}

/// Span recorder plus the layer counters of one traced pass.
struct Tracer {
    spans: Spans,
    parent: usize,
    layers: Layers,
    harvest_s: f64,
    /// Host seconds of slices labelled checkpoint / recovery / steady.
    class_s: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// Step `dep` to `end` in [`SLICE`]s, one span per slice, labelled
    /// by which traffic class moved: recovery bytes win over checkpoint
    /// bytes; a slice with neither is steady.
    fn run_sliced(&mut self, dep: &mut Deployment, end: SimTime) {
        let run = self.spans.open("run", Some(self.parent));
        let mut before = Snapshot::of(dep);
        let mut t = dep.sim.now();
        while t < end {
            t = (t + SLICE).min(end);
            let id = self.spans.open("slice", Some(run));
            dep.run_until(t);
            let after = Snapshot::of(dep);
            let ckpt = after.class_delta(&before, TrafficClass::Checkpoint);
            let recovery = after.class_delta(&before, TrafficClass::Recovery);
            let class = if recovery > 0 {
                "recovery"
            } else if ckpt > 0 {
                "checkpoint"
            } else {
                "steady"
            };
            let secs = self.spans.close(
                id,
                Json::default()
                    .str("class", class)
                    .num("sim_end_s", t.as_secs_f64())
                    .int("events", after.events - before.events)
                    .int("outputs", after.outputs - before.outputs)
                    .int("data_bytes", after.class_delta(&before, TrafficClass::Data))
                    .int("checkpoint_bytes", ckpt)
                    .int("recovery_bytes", recovery),
            );
            *self.class_s.entry(class).or_default() += secs;
            before = after;
        }
        self.spans.close(run, Json::default());
    }
}

/// The probe shape of a workload: its largest operator checkpoint in
/// 1 KB blocks, its receivers per region, and the heaviest WiFi loss
/// its regions see.
fn shape(w: Workload, seed: u64) -> Shape {
    let (scenario, weather) = match w {
        Workload::PaperGrid => (ScenarioConfig::default(), None),
        _ => {
            let cfg = fleet_config(w, seed);
            (cfg.scenario(), cfg.weather)
        }
    };
    let cal = &scenario.cal;
    let largest = [
        cal.state_a,
        cal.state_l,
        cal.state_b,
        cal.state_j,
        cal.state_p,
        cal.state_h,
        cal.state_v,
        cal.state_g,
        cal.state_svm,
        cal.state_m,
    ]
    .into_iter()
    .max()
    .unwrap_or(1024);
    let brownout = weather
        .iter()
        .flat_map(|p| &p.systems)
        .filter_map(|s| match s {
            WeatherSystem::ApBrownout { loss, .. } => Some(*loss),
            _ => None,
        });
    let loss = brownout.fold(scenario.wifi.loss, f64::max);
    Shape {
        blocks: largest.div_ceil(1024) as usize,
        receivers: scenario.phones.saturating_sub(1) as usize,
        loss,
    }
}

fn cmd_trace(w: Workload, name: &str, seed: u64, spans_path: &str) -> Json {
    let mut tracer = Tracer {
        spans: Spans::new(),
        parent: 0,
        layers: Layers::default(),
        harvest_s: 0.0,
        class_s: BTreeMap::new(),
    };
    let root = tracer.spans.open("workload", None);
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut fleet_digest = String::new();

    // Untraced reference pass.
    let span = tracer.spans.open("untraced", Some(root));
    let reference = untraced(w, seed);
    tracer.spans.close(span, Json::default());
    attempted += reference.len() as u64;
    let (digests, reference_failures) = outcome_json(&reference);
    failures.extend(reference_failures);
    let ok = || reference.iter().filter_map(|(_, p)| p.as_ref().ok());
    let untraced_s: f64 = ok().map(Pass::total_s).sum();
    let untraced_run_s: f64 = ok().map(|p| p.run_s).sum();
    metrics.insert("experiments.setup_s", ok().map(|p| p.setup_s).sum());
    for key in [
        "dsps.base_run_s",
        "baselines.local_run_s",
        "baselines.dist1_run_s",
        "baselines.dist2_run_s",
        "baselines.dist3_run_s",
        "baselines.rep2_run_s",
        "mobistreams.ms_run_s",
    ] {
        metrics.insert(key, 0.0);
    }

    // Traced pass: sanitizer on, sliced stepping, same digests expected.
    let traced_t = Instant::now();
    let traced: Vec<(String, Result<Pass, String>)> = match w {
        Workload::PaperGrid => {
            let opts = ExpOptions::quick();
            let runs = grid_runs();
            for (r, (_, p)) in runs.iter().zip(&reference) {
                if let Ok(p) = p {
                    *metrics.entry(r.scheme_metric()).or_default() += p.total_s();
                }
            }
            runs.iter()
                .map(|r| {
                    let label = r.label();
                    let id = tracer.spans.open(format!("run {label}"), Some(root));
                    tracer.parent = id;
                    let pass = guarded(&label, || {
                        let setup = tracer.spans.open("setup", Some(id));
                        let mut dep = Deployment::build(r.config(seed));
                        dep.start();
                        r.inject(&mut dep, opts.warmup);
                        tracer.spans.close(setup, Json::default());
                        dep.sim.enable_sanitizer();
                        let from = SimTime::ZERO + opts.warmup;
                        let to = from + opts.window;
                        tracer.run_sliced(&mut dep, to);
                        let t = Instant::now();
                        let h = harvest(&dep, from, to);
                        tracer.harvest_s += t.elapsed().as_secs_f64();
                        tracer.layers.add_deployment(&dep, &h, from, to);
                        let rec = Record::of(&dep, &h, None);
                        Pass {
                            setup_s: 0.0,
                            run_s: 0.0,
                            harvest_s: 0.0,
                            cpu_s: 0.0,
                            digest: rec.harvest,
                            failures: rec.violations(),
                        }
                    });
                    tracer.spans.close(id, Json::default());
                    (label, pass)
                })
                .collect()
        }
        _ => {
            let cfg = fleet_config(w, seed);
            metrics.insert("mobistreams.ms_run_s", untraced_s);
            let id = tracer.spans.open("traced", Some(root));
            tracer.parent = id;
            let pass = guarded(&cfg.name, || fleet_pass(&cfg, Some(&mut tracer)));
            tracer.spans.close(id, Json::default());
            vec![(cfg.name.clone(), pass)]
        }
    };
    let traced_s = traced_t.elapsed().as_secs_f64();
    attempted += traced.len() as u64;
    failures.extend(outcome_json(&traced).1);
    for ((label, r), (_, t)) in reference.iter().zip(&traced) {
        if let (Ok(r), Ok(t)) = (r, t) {
            if r.digest != t.digest {
                failures.push(format!(
                    "{label}: traced digest {} differs from untraced {}",
                    hex(t.digest),
                    hex(r.digest)
                ));
            }
        }
    }

    // Fleet workloads: the program's own report at one worker thread
    // must agree with the traced run (results are thread-count
    // invariant), and on metro, the only workload with more than one
    // worker thread, its wall time gives the parallel speed-up.
    metrics.insert("simkernel.par_speedup", 1.0);
    if w != Workload::PaperGrid {
        let mut cfg = fleet_config(w, seed);
        cfg.threads = 1;
        let span = tracer.spans.open("run_fleet 1 thread", Some(root));
        attempted += 1;
        match guarded("run_fleet", || run_fleet(&cfg)) {
            Ok(report) => {
                tracer
                    .spans
                    .close(span, Json::default().str("digest", &hex(report.digest)));
                fleet_digest = hex(report.digest);
                let layer_events = tracer.layers.sum.get("simkernel.events").copied();
                if layer_events != Some(report.events_processed as f64) {
                    failures.push(format!(
                        "run_fleet: {} events, traced run {:?}",
                        report.events_processed, layer_events
                    ));
                }
                for (what, n) in [
                    ("duplicate_commits", report.duplicate_commits),
                    ("slo_violations", report.slo_violations),
                    ("pool_aliasing", report.pool_aliasing),
                ] {
                    if n > 0 {
                        failures.push(format!("run_fleet: {what} = {n}"));
                    }
                }
                if w == Workload::Metro && untraced_s > 0.0 {
                    metrics.insert("simkernel.par_speedup", report.wall_secs / untraced_s);
                }
            }
            Err(e) => {
                tracer.spans.close(span, Json::default());
                failures.push(e);
            }
        }
    }

    let span = tracer.spans.open("probes", Some(root));
    let shape = shape(w, seed);
    metrics.extend(probes::run(shape, seed, &mut tracer.spans, span));
    tracer.spans.close(
        span,
        Json::default()
            .int("blocks", shape.blocks as u64)
            .int("receivers", shape.receivers as u64)
            .num("loss", shape.loss),
    );

    let Tracer {
        mut spans,
        layers,
        harvest_s,
        class_s,
        ..
    } = tracer;
    metrics.extend(layers.finish());
    let events = metrics.get("simkernel.events").copied().unwrap_or(0.0);
    metrics.insert(
        "simkernel.events_per_s",
        if untraced_run_s > 0.0 {
            events / untraced_run_s
        } else {
            0.0
        },
    );
    metrics.insert("experiments.harvest_s", harvest_s);
    metrics.insert("experiments.trace_overhead_s", traced_s - untraced_s);
    metrics.insert(
        "mobistreams.ckpt_s",
        class_s.get("checkpoint").copied().unwrap_or(0.0),
    );
    metrics.insert(
        "dsps.steady_s",
        class_s.get("steady").copied().unwrap_or(0.0),
    );

    spans.close(root, Json::default());
    let doc = Json::default()
        .str("workload", name)
        .int("seed", seed)
        .int("threads", w.threads() as u64)
        .str("fleet_digest", &fleet_digest)
        .raw("spans", spans.render())
        .render();
    if let Err(e) = std::fs::write(spans_path, doc) {
        failures.push(format!("writing {spans_path}: {e}"));
    }

    let metrics_json = metrics
        .iter()
        .fold(Json::default(), |j, (&k, &v)| j.num(k, v));
    Json::default()
        .int("attempted", attempted)
        .raw("failures", array(failures.iter().map(|f| quote(f))))
        .str("fleet_digest", &fleet_digest)
        .raw("digests", digests)
        .raw("metrics", metrics_json.render())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage =
        "usage: perfbench run <workload> <seed> | perfbench trace <workload> <seed> <spans.json>";
    let (Some(cmd), Some(w), Some(seed)) = (
        args.first(),
        args.get(1).and_then(|s| Workload::parse(s)),
        args.get(2).and_then(|s| s.parse::<u64>().ok()),
    ) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let out = match (cmd.as_str(), args.get(3)) {
        ("run", None) => cmd_run(w, seed),
        ("trace", Some(path)) => cmd_trace(w, &args[1], seed, path),
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    println!(
        "{}",
        out.int("threads", w.threads() as u64)
            .int("available_parallelism", available_parallelism() as u64)
            .render()
    );
}
