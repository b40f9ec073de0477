//! The serving stack, driven from outside: `warp_serve::Server` hosting
//! `warp_online::OnlineSession`s, loaded by one closed-loop client, with
//! standalone `OnlineSession` and raw `mb_sim::System` runs of the same
//! specs as the correctness oracle and the per-layer probes.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use mb_isa::MbFeatures;
use mb_sim::{MbConfig, StopReason};
use warp_core::{CadService, CircuitCache};
use warp_online::{
    NeverPolicy, OnlineConfig, OnlineReport, OnlineSession, SessionPool, SessionStatus, TopKPolicy,
};
use warp_serve::{ServeConfig, Server};
use workloads::BuiltWorkload;

use crate::clock;
use crate::stats::derive_seed;
use crate::trace::Tracer;

/// Which way a fleet uses the serving layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Long sessions that warp every kernel from a warm circuit cache.
    Warped,
    /// Single-repeat, software-only sessions: per-session cost dominates.
    Churn,
}

/// The shape of one fleet run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Which fleet.
    pub kind: Kind,
    /// Application repeats per session.
    pub repeats: u32,
    /// Data seeds per registry workload (specs = workloads × seeds).
    pub seeds_per_workload: usize,
    /// Sessions outstanding at once.
    pub window: usize,
    /// Sessions the measured window serves.
    pub sessions: usize,
    /// Blocks the window is split into for the throughput median and
    /// the tail mean, so a burst of host noise moves one block.
    pub blocks: usize,
    /// Server worker threads.
    pub workers: usize,
}

/// One session input: a registry workload built with one data seed.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// The built binary and data.
    pub built: Arc<BuiltWorkload>,
}

impl Spec {
    /// `name#index`, the span subject for this spec.
    #[must_use]
    pub fn label(&self, index: usize) -> String {
        format!("{}#{index}", self.name)
    }
}

/// Builds the spec list: every registry workload, once per data seed,
/// interleaved so consecutive sessions run different workloads.
#[must_use]
pub fn build_specs(seed: u64, seeds_per_workload: usize) -> Vec<Spec> {
    let registry = workloads::all();
    let mut specs = Vec::new();
    for s in 0..seeds_per_workload {
        for (w, workload) in registry.iter().enumerate() {
            let data_seed = derive_seed(seed, (s * registry.len() + w) as u64);
            let built = workload.build_seeded(MbFeatures::paper_default(), data_seed);
            specs.push(Spec { name: workload.name, built: Arc::new(built) });
        }
    }
    specs
}

/// Shared state every session of a fleet is built against.
pub struct Fleet {
    /// The plan.
    pub plan: Plan,
    /// Session inputs.
    pub specs: Vec<Spec>,
    /// Shared circuit cache (warped fleets only).
    pub cache: Option<Arc<CircuitCache>>,
    /// Shared CAD worker pool.
    pub service: Arc<CadService>,
    /// The server.
    pub server: Server,
}

impl Fleet {
    /// A session for spec `i`, configured the way this fleet serves it.
    #[must_use]
    pub fn session(&self, i: usize) -> OnlineSession {
        let config = OnlineConfig { repeats: self.plan.repeats, ..OnlineConfig::default() };
        let session = OnlineSession::new(Arc::clone(&self.specs[i].built), config)
            .with_service(Arc::clone(&self.service));
        match &self.cache {
            Some(cache) => session
                .with_policy(TopKPolicy { k: 2, min_count: 256 })
                .with_cache(Arc::clone(cache)),
            None => session.with_policy(NeverPolicy),
        }
    }

    /// Serves one session per spec through the server and waits for all
    /// of them: program images, carcasses and (warped) circuits are hot
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Names the first warm-up session that failed.
    pub fn warm_up(&self) -> Result<(), String> {
        let ids: Vec<_> = (0..self.specs.len())
            .map(|i| {
                let id = self.server.create(self.session(i));
                self.server.run(id).map(|()| id).map_err(|e| format!("warm-up grant: {e}"))
            })
            .collect::<Result<_, _>>()?;
        for (i, id) in ids.into_iter().enumerate() {
            self.server
                .wait(id)
                .map_err(|e| format!("warm-up session {}: {e}", self.specs[i].label(i)))?;
        }
        Ok(())
    }

    /// Starts a fleet: server, shared cache (warped) and CAD service.
    #[must_use]
    pub fn start(plan: Plan, specs: Vec<Spec>) -> Self {
        let cache = (plan.kind == Kind::Warped).then(|| Arc::new(CircuitCache::new()));
        Fleet {
            plan,
            specs,
            cache,
            service: Arc::new(CadService::new(1)),
            server: Server::start(ServeConfig { workers: plan.workers, ..ServeConfig::default() }),
        }
    }
}

/// One served session as the client saw it.
pub struct Served {
    /// Spec index.
    pub spec: usize,
    /// Grant-to-report wall latency, ms.
    pub latency_ms: f64,
    /// When the client received the report, seconds into the window.
    pub done_s: f64,
    /// The report, or the failure.
    pub result: Result<OnlineReport, String>,
}

/// The measured window.
pub struct Window {
    /// Wall seconds from the first grant to the last report.
    pub seconds: f64,
    /// Every session, in creation order.
    pub served: Vec<Served>,
    /// Scheduling quanta the server ran during the window.
    pub quanta: u64,
}

/// The closed loop: one client thread creates and grants sessions,
/// cycling through the specs, until `window` are outstanding, then waits
/// on the oldest before creating the next. Times are wall-clock: a
/// fleet's throughput and latency include every wait. With a tracer,
/// each session gets a `serve.session` span under one `serve.window`
/// span, in wall-clock ns since the window opened.
#[must_use]
pub fn run_window(fleet: &Fleet, mut tracer: Option<&mut Tracer>) -> Window {
    let quanta_before = fleet.server.fleet().quanta;
    let start = Instant::now();
    let since = |t: Instant| u64::try_from(t.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
    let window_span = tracer.as_deref_mut().map(|t| t.record("serve.window", "fleet", None, 0, 0));
    let mut served = Vec::with_capacity(fleet.plan.sessions);
    let mut outstanding = VecDeque::with_capacity(fleet.plan.window);
    let mut finish = |(spec, id, granted): (usize, u64, Instant), served: &mut Vec<Served>| {
        let result = fleet.server.wait(id).map_err(|e| e.to_string());
        let done = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            let label = fleet.specs[spec].label(spec);
            t.record("serve.session", &label, window_span, since(granted), since(done));
        }
        let latency_ms = done.duration_since(granted).as_secs_f64() * 1e3;
        let done_s = done.duration_since(start).as_secs_f64();
        served.push(Served { spec, latency_ms, done_s, result });
    };
    for n in 0..fleet.plan.sessions {
        if outstanding.len() == fleet.plan.window {
            let oldest = outstanding.pop_front().expect("window is full");
            finish(oldest, &mut served);
        }
        let spec = n % fleet.specs.len();
        let id = fleet.server.create(fleet.session(spec));
        let granted = Instant::now();
        match fleet.server.run(id) {
            Ok(()) => outstanding.push_back((spec, id, granted)),
            Err(e) => {
                let done_s = start.elapsed().as_secs_f64();
                served.push(Served { spec, latency_ms: 0.0, done_s, result: Err(e.to_string()) });
            }
        }
    }
    while let Some(oldest) = outstanding.pop_front() {
        finish(oldest, &mut served);
    }
    let end = Instant::now();
    if let (Some(t), Some(id)) = (tracer, window_span) {
        t.close_at(id, since(end));
    }
    Window {
        seconds: end.duration_since(start).as_secs_f64(),
        served,
        quanta: fleet.server.fleet().quanta - quanta_before,
    }
}

/// One standalone run of a spec through `OnlineSession::advance`: the
/// first slice alone, then the server's quantum steps.
pub struct Standalone {
    /// The report.
    pub report: OnlineReport,
    /// Thread CPU ns for construction plus the first slice.
    pub first_ns: u64,
    /// Thread CPU ns for construction plus every quantum.
    pub total_ns: u64,
}

/// Runs spec `i` standalone, attached to `pool` the way a server worker
/// attaches its own.
///
/// # Errors
///
/// The session's failure, with its spec label.
pub fn standalone(fleet: &Fleet, i: usize, pool: &Arc<SessionPool>) -> Result<Standalone, String> {
    let quantum = fleet.server.quantum_slices();
    let start = clock::thread_cpu_ns();
    let mut session = fleet.session(i).with_pool(Arc::clone(pool));
    let mut status = session.advance(1);
    let first_ns = clock::thread_cpu_ns() - start;
    while status == SessionStatus::Runnable {
        status = session.advance(quantum);
    }
    let total_ns = clock::thread_cpu_ns() - start;
    match session.into_outcome() {
        Some(Ok(report)) => Ok(Standalone { report, first_ns, total_ns }),
        Some(Err(e)) => Err(format!("{}: standalone session failed: {e}", fleet.specs[i].label(i))),
        None => Err(format!("{}: standalone session never finished", fleet.specs[i].label(i))),
    }
}

/// A software-only run of every spec's binary on a raw `System`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimProbe {
    /// Thread CPU ns inside `System::run`.
    pub run_ns: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
}

/// Runs every spec once in software only (`System::run`) and verifies
/// its output.
///
/// # Errors
///
/// Names the spec whose run faulted, hit the cycle limit or failed
/// verification.
pub fn sim_probe(specs: &[Spec]) -> Result<SimProbe, String> {
    let config = MbConfig::paper_default();
    let limit = OnlineConfig::default().max_cycles;
    let mut probe = SimProbe::default();
    for (i, spec) in specs.iter().enumerate() {
        let mut sys = spec.built.instantiate(&config);
        let (outcome, seconds) = clock::thread_cpu_seconds(|| sys.run(limit));
        let outcome = outcome.map_err(|e| format!("{}: {e}", spec.label(i)))?;
        probe.run_ns += (seconds * 1e9) as u64;
        if outcome.stop == StopReason::CycleLimit {
            return Err(format!("{}: software run hit the cycle limit", spec.label(i)));
        }
        spec.built.verify(sys.dmem()).map_err(|e| format!("{}: {e}", spec.label(i)))?;
        probe.instructions += outcome.instructions;
        probe.cycles += outcome.cycles;
    }
    Ok(probe)
}
