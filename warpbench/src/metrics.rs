//! The three workloads, their output checks, and the metrics they
//! report.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use warp_online::SessionPool;
use warp_wcla::CadCaches;

use crate::cad::{self, Pass, RegistryKernel};
use crate::clock;
use crate::fleet::{self, Fleet, Kind, Plan, Standalone};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::Args;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every registry kernel compiled cold, then warm; no simulation.
    CadRegistry,
    /// Long sessions that all warp from a cache their setup warmed.
    FleetWarped,
    /// Single-repeat software-only sessions.
    FleetChurn,
}

impl Workload {
    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// Lists the valid names.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "cad-registry" => Ok(Workload::CadRegistry),
            "fleet-warped" => Ok(Workload::FleetWarped),
            "fleet-churn" => Ok(Workload::FleetChurn),
            _ => Err(format!("unknown workload {name} (cad-registry, fleet-warped, fleet-churn)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::CadRegistry => "cad-registry",
            Workload::FleetWarped => "fleet-warped",
            Workload::FleetChurn => "fleet-churn",
        }
    }
}

/// End-to-end metrics (name, unit), reported by every untraced run. An
/// operation is one registry pass on cad-registry (the cold and the warm
/// pass) and one served session on the fleets (in blocks of whole spec
/// cycles, whose p50s and tails are averaged).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms")];

/// Per-layer metrics (name, unit), reported by every traced run. A
/// layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("fabric.route_ms", "ms"),
    ("fabric.route_wasted_ms", "ms"),
    ("fabric.route_useful_ratio", "ratio"),
    ("fabric.route_attempts", "count"),
    ("fabric.route_iterations", "count"),
    ("fabric.tracks", "tracks"),
    ("fabric.routed_wires", "count"),
    ("fabric.nets_restored", "count"),
    ("fabric.place_ms", "ms"),
    ("fabric.place_attempts", "count"),
    ("fabric.bitstream_ms", "ms"),
    ("fabric.route_ms.idct", "ms"),
    ("fabric.route_wasted_ms.idct", "ms"),
    ("fabric.route_attempts.idct", "count"),
    ("fabric.route_iterations.idct", "count"),
    ("fabric.tracks.idct", "tracks"),
    ("fabric.routed_wires.idct", "count"),
    ("cdfg.decompile_ms", "ms"),
    ("synth.synthesize_ms", "ms"),
    ("synth.map_ms", "ms"),
    ("synth.clusters_reused", "count"),
    ("wcla.model_ms", "ms"),
    ("core.dpm_ms", "ms"),
    ("core.dpm_cycles", "cycles"),
    ("core.dpm_cycles.idct", "cycles"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("cad.traced_cold_s", "s"),
    ("cad.stage_self_s", "s"),
    ("trace.overhead_s", "s"),
    ("sim.ns_per_insn", "ns"),
    ("sim.instructions", "count"),
    ("sim.cycles", "cycles"),
    ("online.ns_per_insn", "ns"),
    ("online.first_advance_us", "us"),
    ("online.warps", "count"),
    ("online.hit_events", "count"),
    ("profiler.events", "count"),
    ("profiler.evictions", "count"),
    ("wcla.invocations", "count"),
    ("wcla.hw_cycle_share", "ratio"),
    ("serve.minsn_per_s", "Minsn/s"),
    ("serve.quanta", "count"),
    ("serve.wait_ms", "ms"),
    ("serve.overhead_share", "ratio"),
    ("serve.sessions", "count"),
];

/// Span names of the CAD stages whose self times make up a compile.
const CAD_STAGES: [&str; 8] = [
    "synth.synthesize",
    "synth.map",
    "fabric.place",
    "fabric.route",
    "fabric.route_congested",
    "fabric.bitstream",
    "wcla.model",
    "core.dpm",
];

/// Set-ups per run whose median `setup_s` reports: many for the
/// sub-millisecond registry build, fewer for a fleet, and one where
/// set-up compiles circuits (it takes tens of seconds).
const REGISTRY_SETUPS: usize = 101;
const FLEET_SETUPS: usize = 15;

/// Standalone timing rounds per spec in a traced fleet run (medians
/// reported; the host warms over the first ones).
const PROBE_ROUNDS: usize = 5;

/// Failed checks a run prints verbatim.
const SHOWN_ERRORS: usize = 20;

/// What one run measured and checked.
pub struct Report {
    workload: Workload,
    trace: bool,
    /// Operations attempted (compiles or sessions).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    errors: Vec<String>,
    more_errors: u64,
    notes: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    fn new(workload: Workload, trace: bool) -> Self {
        Report {
            workload,
            trace,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            more_errors: 0,
            notes: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    /// Whether every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Records a failed check. Only the first [`SHOWN_ERRORS`] are kept
    /// verbatim, so a systematic failure across thousands of sessions
    /// stays one screen long; the rest are counted.
    fn error(&mut self, e: impl Into<String>) {
        if self.errors.len() < SHOWN_ERRORS {
            self.errors.push(e.into());
        } else {
            self.more_errors += 1;
        }
    }

    fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(stats::valid_metric_name(name), "{name}");
        self.metrics.insert(name, value);
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.metrics.entry(name).or_insert(0.0) += value;
    }

    /// The metrics this run prints: every end-to-end metric, or every
    /// per-layer metric for a traced run.
    fn printed(&self) -> Vec<(&'static str, f64, &'static str)> {
        let names: &[_] = if self.trace { &PER_LAYER } else { &END_TO_END };
        names.iter().map(|&(n, u)| (n, self.metrics.get(n).copied().unwrap_or(0.0), u)).collect()
    }

    /// Fails a run that measured no value for an end-to-end metric,
    /// unless a check already failed it. A per-layer metric the workload
    /// bypasses legitimately reads 0.
    pub fn require_end_to_end(&mut self) {
        if self.trace || !self.errors.is_empty() {
            return;
        }
        for (name, _) in END_TO_END {
            if !self.metrics.get(name).is_some_and(|v| v.is_finite() && *v > 0.0) {
                self.error(format!("{name} was not measured"));
            }
        }
    }

    /// The result line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .printed()
            .into_iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human summary for stderr.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "warpbench {} ({}): attempted {}, failed {} ({:.2}%), correct {}\n",
            self.workload.name(),
            if self.trace { "traced" } else { "end-to-end" },
            self.attempted,
            self.failed,
            100.0 * stats::failed_ratio(self.failed, self.attempted),
            self.correct(),
        );
        for (n, v, u) in self.printed() {
            let _ = writeln!(out, "  {n:<30} {v:>16.4} {u}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        for e in &self.errors {
            let _ = writeln!(out, "  CHECK FAILED: {e}");
        }
        if self.more_errors > 0 {
            let _ = writeln!(out, "  CHECK FAILED: {} more", self.more_errors);
        }
        out
    }
}

/// Runs `cad-registry`.
#[must_use]
pub fn cad_registry(args: &Args) -> Report {
    let mut r = Report::new(Workload::CadRegistry, args.trace);
    let mut tracer = Tracer::default();
    let mut setups = Vec::new();
    let mut kernels = Err(String::new());
    for _ in 0..if args.trace { 1 } else { REGISTRY_SETUPS } {
        let (k, seconds) = clock::thread_cpu_seconds(|| {
            cad::registry_kernels(args.seed, args.trace.then_some(&mut tracer))
        });
        kernels = k;
        setups.push(seconds);
    }
    let kernels = match kernels {
        Ok(k) => k,
        Err(e) => {
            r.error(e);
            return r;
        }
    };
    r.set("setup_s", median(&setups).unwrap_or(0.0));

    if args.trace {
        // The product path is the oracle the traced composition must
        // reproduce. Untraced cold passes run before and after the
        // traced one, and the overhead is taken against their mean, so
        // a process warming up (fresh heap pages on the first big pass)
        // does not read as negative tracing cost.
        let before = cad::product_pass(&kernels, &CadCaches::new());
        let traced = cad::traced_pass(&kernels, &CadCaches::new(), &mut tracer, "cold");
        let after = cad::product_pass(&kernels, &CadCaches::new());
        for pass in [&before, &traced, &after] {
            check_pass(&mut r, &kernels, pass);
        }
        for ((k, a), b) in kernels.iter().zip(&before.compiles).zip(&traced.compiles) {
            if let (Ok(a), Ok(b)) = (a, b) {
                if let Err(e) = cad::same_artifact(k.name, a, b) {
                    r.error(format!("traced composition drifted from the product path: {e}"));
                }
            }
        }
        cad_layer_metrics(&mut r, &tracer, &kernels, &traced);
        let untraced = (before.seconds + after.seconds) / 2.0;
        r.set("trace.overhead_s", traced.seconds - untraced);
        // Equal artifacts do not prove equal work: a product path that
        // stopped trying channel widths the composition still tries
        // builds the same circuit far faster. Host noise stays well
        // inside a factor of two between passes a minute apart.
        let ratio = traced.seconds / untraced.max(1e-9);
        if !(0.5..=2.0).contains(&ratio) {
            r.error(format!(
                "traced composition costs {ratio:.2}x the product path: the product's compile \
                 policy changed and `traced_compile` no longer mirrors it"
            ));
        }
        r.note(format!(
            "thread CPU (wall): untraced cold passes {:.3} s ({:.3} s) and {:.3} s ({:.3} s), \
             traced {:.3} s ({:.3} s), stage self times {:.3} s",
            before.seconds,
            before.wall_seconds,
            after.seconds,
            after.wall_seconds,
            traced.seconds,
            traced.wall_seconds,
            r.metrics["cad.stage_self_s"]
        ));
        write_spans(&mut r, args, &tracer);
        return r;
    }

    // Cold from empty caches, then warm through the caches the cold
    // pass filled: the re-warp path.
    let caches = CadCaches::new();
    let cold = cad::product_pass(&kernels, &caches);
    let warm = cad::product_pass(&kernels, &caches);
    check_pass(&mut r, &kernels, &cold);
    check_pass(&mut r, &kernels, &warm);
    if let Err(e) = cad::same_circuits(&kernels, &cold, &warm) {
        r.error(e);
    }
    // An operation is one registry pass (every kernel compiled, the
    // cold/warm pair), each pass its own block. Compiles shorter than a
    // millisecond vary by a quarter between processes on a shared host,
    // so per-compile latencies are notes, not metrics. Two passes are
    // too few for a percentile with ten beyond: the tail is the slower.
    r.set("ops_per_s", 2.0 / (cold.seconds + warm.seconds));
    r.set("op_p50_ms", median(&[cold.seconds, warm.seconds]).unwrap_or(0.0) * 1e3);
    r.set("op_tail_ms", cold.seconds.max(warm.seconds) * 1e3);
    r.note(format!(
        "thread CPU vs wall: cold {:.3} s / {:.3} s, warm {:.3} s / {:.3} s",
        cold.seconds, cold.wall_seconds, warm.seconds, warm.wall_seconds
    ));
    let kernel_rows = kernels.iter().zip(&cold.compiles).zip(&warm.compiles).enumerate();
    for (i, ((k, c), w)) in kernel_rows {
        if let (Ok(c), Ok(w)) = (c, w) {
            r.note(format!(
                "{:<7} dpm cycles cold {:>10} warm {:>10}; compile cold {:>10.3} ms warm {:>10.3} ms",
                k.name,
                c.dpm.total_cycles(),
                w.dpm.total_cycles(),
                cold.compile_seconds[i] * 1e3,
                warm.compile_seconds[i] * 1e3
            ));
        }
    }
    r
}

/// Counts one pass's compiles as attempted/failed and records errors.
fn check_pass(r: &mut Report, kernels: &[RegistryKernel], pass: &Pass) {
    r.attempted += pass.compiles.len() as u64;
    r.failed += pass.failed();
    for (k, c) in kernels.iter().zip(&pass.compiles) {
        if let Err(e) = c {
            r.error(format!("{}: compile failed: {e}", k.name));
        }
    }
}

/// Per-layer CAD metrics from a traced pass: stage self times summed
/// over every kernel, plus `.idct` rows for the kernel that dominates.
fn cad_layer_metrics(r: &mut Report, tracer: &Tracer, kernels: &[RegistryKernel], pass: &Pass) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let all = tracer.self_ns_by_name(|s| kernels.iter().any(|k| k.name == s.subject));
    let idct = tracer.self_ns_by_name(|s| s.subject == "idct");
    let get = |m: &BTreeMap<&str, u64>, n: &str| m.get(n).copied().unwrap_or(0);

    let route = |m: &BTreeMap<&str, u64>| {
        (
            ms(get(m, "fabric.route") + get(m, "fabric.route_congested")),
            ms(get(m, "fabric.route_congested")),
        )
    };
    let (route_ms, wasted_ms) = route(&all);
    r.set("fabric.route_ms", route_ms);
    r.set("fabric.route_wasted_ms", wasted_ms);
    let (route_ms, wasted_ms) = route(&idct);
    r.set("fabric.route_ms.idct", route_ms);
    r.set("fabric.route_wasted_ms.idct", wasted_ms);
    r.set("fabric.place_ms", ms(get(&all, "fabric.place")));
    r.set("fabric.bitstream_ms", ms(get(&all, "fabric.bitstream")));
    r.set("cdfg.decompile_ms", ms(get(&all, "cdfg.decompile")));
    r.set("synth.synthesize_ms", ms(get(&all, "synth.synthesize")));
    r.set("synth.map_ms", ms(get(&all, "synth.map")));
    r.set("wcla.model_ms", ms(get(&all, "wcla.model")));
    r.set("core.dpm_ms", ms(get(&all, "core.dpm")));
    let stage_ns: u64 = CAD_STAGES.iter().map(|s| get(&all, s)).sum();
    r.set("cad.stage_self_s", stage_ns as f64 / 1e9);
    r.set("cad.traced_cold_s", pass.seconds);

    let (mut attempts, mut congested) = (0, 0);
    for ((k, c), log) in kernels.iter().zip(&pass.compiles).zip(&pass.routes) {
        attempts += log.attempts;
        congested += log.congested;
        let Ok(c) = c else { continue };
        let stats = c.circuit.compiled.route_stats;
        let counts = [
            ("fabric.route_attempts", log.attempts as f64),
            ("fabric.route_iterations", stats.iterations as f64),
            ("fabric.tracks", stats.tracks as f64),
            ("fabric.routed_wires", c.work.fabric.routed_wires as f64),
            ("core.dpm_cycles", c.dpm.total_cycles() as f64),
        ];
        for (name, v) in counts {
            r.add(name, v);
        }
        r.add("fabric.nets_restored", c.work.fabric.nets_restored as f64);
        r.add("fabric.place_attempts", c.work.fabric.place_attempts as f64);
        r.add("synth.clusters_reused", c.work.map.clusters_reused as f64);
        if k.name == "idct" {
            r.set("fabric.route_attempts.idct", log.attempts as f64);
            r.set("fabric.route_iterations.idct", stats.iterations as f64);
            r.set("fabric.tracks.idct", stats.tracks as f64);
            r.set("fabric.routed_wires.idct", c.work.fabric.routed_wires as f64);
            r.set("core.dpm_cycles.idct", c.dpm.total_cycles() as f64);
        }
    }
    let useful = if attempts == 0 { 0.0 } else { (attempts - congested) as f64 / attempts as f64 };
    r.set("fabric.route_useful_ratio", useful);
}

/// Fleet shape per kind. The session count is about `seconds` times the
/// rate the fleet sustained on the host the benchmark was defined on,
/// rounded up to whole blocks, and a block is whole spec cycles, so
/// every block serves the same mix of binaries. A warped block (7 cycles,
/// 252 sessions) is long enough for a p95 tail; a churn block is one
/// cycle (144 sessions, p90 tail), so a run averages hundreds of them.
fn plan(kind: Kind, seconds: u64) -> Plan {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let seconds = usize::try_from(seconds).unwrap_or(60);
    let (repeats, seeds_per_workload, per_second, cycles_per_block, window) = match kind {
        Kind::Warped => (64, 4, 110, 7, 8),
        Kind::Churn => (1, 16, 8000, 1, 64),
    };
    let block = seeds_per_workload * workloads::all().len() * cycles_per_block;
    let blocks = (seconds * per_second).div_ceil(block);
    Plan { kind, repeats, seeds_per_workload, window, sessions: blocks * block, blocks, workers }
}

/// Runs `fleet-warped` or `fleet-churn`.
#[must_use]
pub fn fleet(args: &Args, kind: Kind) -> Report {
    let workload = match kind {
        Kind::Warped => Workload::FleetWarped,
        Kind::Churn => Workload::FleetChurn,
    };
    let mut r = Report::new(workload, args.trace);
    let plan = plan(kind, args.seconds);
    let mut tracer = Tracer::default();

    // Set-up: build the inputs, start the server, publish circuits
    // (warped) and warm it. Every set-up is timed; the last one serves
    // the window.
    let mut setups = Vec::new();
    let mut current = None;
    let rounds = if kind == Kind::Warped || args.trace { 1 } else { FLEET_SETUPS };
    for _ in 0..rounds {
        drop(current.take());
        let start = Instant::now();
        let fleet = (|| {
            let fleet = Fleet::start(plan, fleet::build_specs(args.seed, plan.seeds_per_workload));
            if kind == Kind::Warped {
                publish_circuits(&mut r, &fleet, args, &mut tracer)?;
            }
            fleet.warm_up().map(|()| fleet)
        })();
        let seconds = start.elapsed().as_secs_f64();
        match fleet {
            Ok(fleet) => current = Some(fleet),
            Err(e) => {
                r.error(e);
                return r;
            }
        }
        setups.push(seconds);
    }
    let fleet = current.expect("at least one set-up round");
    r.set("setup_s", median(&setups).unwrap_or(0.0));

    // The oracle: every spec run standalone.
    let pool = Arc::new(SessionPool::new());
    let refs = match standalone_round(&fleet, &pool) {
        Ok(round) => round,
        Err(e) => {
            r.error(e);
            return r;
        }
    };
    if kind == Kind::Warped {
        for (i, s) in refs.iter().enumerate() {
            if s.report.events.iter().any(|e| !e.cache_hit) {
                r.error(format!("{}: set-up left a circuit unpublished", fleet.specs[i].label(i)));
            }
        }
    }

    let cache_before = fleet.cache.as_ref().map(|c| c.stats());
    let window = fleet::run_window(&fleet, args.trace.then_some(&mut tracer));
    let cache_after = fleet.cache.as_ref().map(|c| c.stats());

    // Output checks: every session verified, and equal to its spec's
    // standalone run; in the warped fleet every warp a cache hit.
    r.attempted = window.served.len() as u64;
    let (mut instructions, mut warps) = (0u64, 0u64);
    let (mut latencies, mut done_s, mut minsn) = (Vec::new(), Vec::new(), Vec::new());
    for s in &window.served {
        match &s.result {
            Ok(report) => {
                instructions += report.instructions;
                warps += report.events.len() as u64;
                latencies.push(s.latency_ms);
                done_s.push(s.done_s);
                minsn.push(report.instructions as f64 / 1e6);
                if *report != refs[s.spec].report {
                    r.error(format!(
                        "{}: served report differs from the standalone run",
                        fleet.specs[s.spec].label(s.spec)
                    ));
                }
                if kind == Kind::Warped && report.events.iter().any(|e| !e.cache_hit) {
                    r.error(format!(
                        "{}: a window warp missed the cache",
                        fleet.specs[s.spec].label(s.spec)
                    ));
                }
            }
            Err(e) => {
                r.failed += 1;
                r.error(format!("{}: {e}", fleet.specs[s.spec].label(s.spec)));
            }
        }
    }
    if let (Some(before), Some(after)) = (cache_before, cache_after) {
        let misses = after.misses - before.misses;
        if misses != 0 {
            r.error(format!("{misses} circuit-cache misses inside the measured window"));
        }
        r.set("core.cache_hits", (after.hits - before.hits) as f64);
        r.set("core.cache_misses", misses as f64);
    }

    // Throughput is the median over blocks of the window, the p50 and
    // the tail the mean of per-block values (a block's tail is bimodal
    // under host scheduling noise, so a median would flip between the
    // modes): a burst of host noise moves one block, not the run.
    let ones = vec![1.0; done_s.len()];
    let blocks = stats::block_ranges(latencies.len(), plan.blocks);
    let tails: Vec<_> = blocks.iter().filter_map(|b| stats::tail(&latencies[b.clone()])).collect();
    r.set("ops_per_s", median(&stats::block_rates(&done_s, &ones, plan.blocks)).unwrap_or(0.0));
    let minsn_per_s = median(&stats::block_rates(&done_s, &minsn, plan.blocks)).unwrap_or(0.0);
    // Latencies cluster on scheduler-tick multiples when threads share
    // CPUs, so one median jumps between clusters; the mean of the
    // blocks' medians moves smoothly.
    let p50s: Vec<f64> = blocks.iter().filter_map(|b| median(&latencies[b.clone()])).collect();
    r.set("op_p50_ms", p50s.iter().sum::<f64>() / p50s.len().max(1) as f64);
    if tails.len() == blocks.len() {
        let mean = tails.iter().map(|t| t.value).sum::<f64>() / tails.len() as f64;
        r.set("op_tail_ms", mean);
        r.note(format!(
            "op_tail_ms is the mean over {} blocks of p{} ({} of ~{} sessions beyond); \
             window {:.3} s, {} sessions, {} instructions ({:.1} Minsn/s), {} warps, \
             {} workers, {} outstanding",
            blocks.len(),
            tails[0].percentile,
            tails[0].beyond,
            latencies.len() / blocks.len(),
            window.seconds,
            latencies.len(),
            instructions,
            minsn_per_s,
            warps,
            plan.workers,
            plan.window
        ));
    } else {
        r.error(format!("{} sessions are too few for a tail percentile", latencies.len()));
    }

    if args.trace {
        r.set("serve.minsn_per_s", minsn_per_s);
        // Timing probes run after the window, on a warm host, and
        // must reproduce the oracle exactly.
        let mut probes = Vec::new();
        for _ in 0..PROBE_ROUNDS {
            match standalone_round(&fleet, &pool) {
                Ok(round) => probes.push(round),
                Err(e) => r.error(e),
            }
        }
        for (a, b) in probes.iter().flatten().zip(refs.iter().cycle()) {
            if a.report != b.report {
                r.error(format!("{}: standalone reruns differ", a.report.name));
            }
        }
        if !probes.is_empty() {
            fleet_layer_metrics(&mut r, &fleet, &refs, &probes, &window);
        }
        write_spans(&mut r, args, &tracer);
    }
    r
}

/// Runs every spec standalone once.
fn standalone_round(fleet: &Fleet, pool: &Arc<SessionPool>) -> Result<Vec<Standalone>, String> {
    (0..fleet.specs.len()).map(|i| fleet::standalone(fleet, i, pool)).collect()
}

/// Compiles the registry kernels into the fleet's shared circuit cache
/// (traced: through the traced composition). A compile error fails the
/// set-up.
fn publish_circuits(
    r: &mut Report,
    fleet: &Fleet,
    args: &Args,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let cache = fleet.cache.as_ref().expect("warped fleets carry a cache");
    let kernels = cad::registry_kernels(args.seed, args.trace.then_some(&mut *tracer))?;
    let caches = cache.cad_caches();
    let pass = if args.trace {
        let pass = cad::traced_pass(&kernels, &caches, tracer, "publish");
        cad_layer_metrics(r, tracer, &kernels, &pass);
        pass
    } else {
        cad::product_pass(&kernels, &caches)
    };
    for (k, c) in kernels.iter().zip(pass.compiles) {
        let c = c.map_err(|e| format!("{}: compile failed: {e}", k.name))?;
        cache.insert_compiled(&Arc::new(c));
    }
    Ok(())
}

/// Per-layer fleet metrics from the standalone probes, a raw
/// software-only run of every spec, and the window.
fn fleet_layer_metrics(
    r: &mut Report,
    fleet: &Fleet,
    refs: &[Standalone],
    probes: &[Vec<Standalone>],
    window: &fleet::Window,
) {
    let n = fleet.specs.len();
    let per_spec = |f: fn(&Standalone) -> u64| -> Vec<f64> {
        (0..n)
            .map(|i| {
                let v: Vec<f64> = probes.iter().map(|round| f(&round[i]) as f64).collect();
                median(&v).unwrap_or(0.0)
            })
            .collect()
    };
    let total_ns = per_spec(|s| s.total_ns);
    let first_ns = per_spec(|s| s.first_ns);

    let (mut insns, mut cycles, mut stall) = (0u64, 0u64, 0u64);
    for s in refs {
        let rep = &s.report;
        insns += rep.instructions;
        cycles += rep.cycles;
        let hw = rep.hw_total();
        stall += hw.mb_stall_cycles;
        r.add("online.warps", rep.events.len() as f64);
        r.add("online.hit_events", rep.events.iter().filter(|e| e.cache_hit).count() as f64);
        r.add("profiler.events", rep.profiler.events as f64);
        r.add("profiler.evictions", rep.profiler.evictions as f64);
        r.add("wcla.invocations", hw.invocations as f64);
    }
    r.set("online.ns_per_insn", total_ns.iter().sum::<f64>() / insns.max(1) as f64);
    r.set("online.first_advance_us", first_ns.iter().sum::<f64>() / n as f64 / 1e3);
    r.set("wcla.hw_cycle_share", stall as f64 / cycles.max(1) as f64);

    let mut sim_ns = Vec::new();
    for _ in 0..PROBE_ROUNDS {
        match fleet::sim_probe(&fleet.specs) {
            Ok(p) => {
                sim_ns.push(p.run_ns as f64 / p.instructions.max(1) as f64);
                r.set("sim.instructions", p.instructions as f64);
                r.set("sim.cycles", p.cycles as f64);
            }
            Err(e) => r.error(e),
        }
    }
    r.set("sim.ns_per_insn", median(&sim_ns).unwrap_or(0.0));

    let ok: Vec<_> = window.served.iter().filter(|s| s.result.is_ok()).collect();
    let alone_ms: f64 = ok.iter().map(|s| total_ns[s.spec] / 1e6).sum();
    let waited: f64 = ok.iter().map(|s| s.latency_ms - total_ns[s.spec] / 1e6).sum();
    r.set("serve.wait_ms", waited / ok.len().max(1) as f64);
    r.set(
        "serve.overhead_share",
        1.0 - alone_ms / 1e3 / (fleet.plan.workers as f64 * window.seconds),
    );
    r.set("serve.quanta", window.quanta as f64);
    r.set("serve.sessions", ok.len() as f64);
}

/// Writes the run's spans under the build directory.
fn write_spans(r: &mut Report, args: &Args, tracer: &Tracer) {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = std::path::Path::new(&base).join("warpbench-traces");
    let path = dir.join(format!("{}-seed{}.json", r.workload.name(), args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
        Ok(()) => r.note(format!("{} spans written to {}", tracer.spans().len(), path.display())),
        Err(e) => r.error(format!("writing spans to {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
    }

    #[test]
    fn every_run_prints_every_metric_of_its_kind() {
        let mut r = Report::new(Workload::FleetChurn, true);
        r.attempted = 4;
        r.set("serve.quanta", 12.0);
        let json = r.to_json();
        for (name, _) in PER_LAYER {
            assert!(json.contains(&format!("\"{name}\": ")), "{name}");
        }
        let mut r = Report::new(Workload::CadRegistry, false);
        r.attempted = 18;
        for (name, _) in END_TO_END {
            r.set(name, 0.5);
        }
        r.set("ops_per_s", 0.375);
        r.set("serve.quanta", 12.0);
        r.require_end_to_end();
        let json = r.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 18, \"failed\": 0, "));
        assert!(json.contains("\"ops_per_s\": {\"value\": 0.375, \"unit\": \"1/s\"}"));
        for (name, _) in END_TO_END {
            assert!(json.contains(&format!("\"{name}\": ")), "{name}");
        }
        assert!(!json.contains("serve.quanta"));
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_fails_the_run() {
        let mut r = Report::new(Workload::FleetChurn, false);
        r.attempted = 64;
        r.set("setup_s", 0.25);
        r.set("ops_per_s", 2000.0);
        r.set("op_p50_ms", 3.0);
        r.require_end_to_end();
        assert!(!r.correct());
        assert!(r.to_json().contains("\"op_tail_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
    }

    #[test]
    fn failures_and_check_errors_make_a_run_incorrect() {
        let mut r = Report::new(Workload::FleetWarped, false);
        assert!(!r.correct(), "nothing attempted");
        r.attempted = 10;
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        r.failed = 0;
        r.error("served report differs");
        assert!(!r.correct());
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(doc) = std::fs::read_to_string(path) else { return };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = doc.matches("\"unit\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }
}
