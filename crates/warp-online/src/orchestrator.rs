//! The event-driven co-simulation runtime.
//!
//! One [`Orchestrator::run`] interleaves three actors on a single
//! simulated timeline:
//!
//! * the **MicroBlaze**, executing the workload in bounded cycle slices;
//! * the **profiler**, fed every retired instruction during the slice
//!   (it is the slice's [`TraceSink`](mb_sim::TraceSink)) and decayed
//!   on a fixed cadence so it tracks the current program phase;
//! * the **OCPM**, which — once the policy commits to a region — runs
//!   the real CAD chain host-side through the typed
//!   [`warp_core::pipeline`] stages on a background
//!   [`CadService`](warp_core::CadService) worker, while the *modeled*
//!   lean-processor cycle cost is charged to the timeline; the patch
//!   lands only when that budget has elapsed in simulated time.
//!
//! # Concurrency without nondeterminism
//!
//! The paper's DPM is a separate processor: CAD runs *while* the
//! application keeps executing. The runtime reproduces that overlap in
//! host wall-clock — compilation is submitted to a worker thread at
//! detection and the MicroBlaze keeps simulating slices — without ever
//! letting host speed or `WARP_CAD_THREADS` leak into the modeled
//! timeline. The trick is that the background result is only *consumed*
//! at a boundary computed from modeled quantities: the first slice
//! boundary at-or-after `detected + decompile_floor` (a lower bound on
//! the CAD budget known at detection). If the worker is still running
//! there, the orchestrator blocks on it; if it finished earlier, the
//! result waited. Either way every downstream decision — blacklisting,
//! `ready_at`, the patch cycle — happens at the same simulated cycle on
//! every host, so [`OnlineReport`]s are byte-identical across thread
//! counts.
//!
//! When a [`CircuitCache`] is attached, its sub-kernel
//! [`CadCaches`](warp_wcla::CadCaches) ride along into the background
//! compile: a re-warp of a shifted-but-similar kernel replays mapped
//! LUT cones, placements, and first-pass net routes, producing a
//! bit-identical circuit while charging only the delta work to the
//! timeline (see [`warp_core::pipeline::compile_circuit_cached`]).
//!
//! Hot-patching happens between slices through
//! [`System::imem_mut`](mb_sim::System::imem_mut); the pre-decoded
//! fetch store invalidates itself via `Bram::generation`, so the next
//! fetch of the loop head sees the jump to the invocation stub. Because
//! the stub marshals the *current* counter, stream pointers, and
//! accumulators, a patch that lands mid-loop is safe: the next pass
//! over the loop head hands the remaining iterations to hardware.
//!
//! # The orchestrator is a wrapper
//!
//! All of the above is implemented by [`OnlineSession`], the resumable
//! state machine a multi-session server schedules in slices.
//! `Orchestrator::run` builds one session and drives it to completion —
//! a served session and a standalone run share every line of the loop
//! body, so their reports are bit-identical *by construction*.

use std::sync::Arc;

use mb_sim::MbConfig;
use warp_core::{CircuitCache, WarpOptions};
use workloads::BuiltWorkload;

use crate::error::OnlineError;
use crate::policy::{ThresholdPolicy, WarpPolicy};
use crate::report::OnlineReport;
use crate::session::{OnlineSession, SessionStatus};

/// Knobs of the online runtime.
#[derive(Clone, Debug)]
pub struct OnlineConfig {
    /// Simulated system configuration (features are overridden per
    /// workload by [`BuiltWorkload::instantiate`]).
    pub mb: MbConfig,
    /// The warp flow's options: profiler geometry, power models, and —
    /// crucially here — `dpm_clock_hz`, the clock of the lean OCPM
    /// processor that the CAD cycle budget is converted with.
    pub options: WarpOptions,
    /// Cycle budget per scheduler slice. Smaller slices react faster
    /// (detection and patching happen at slice boundaries) but cost
    /// more host-side scheduling; one slice should cover at least a
    /// few hundred kernel iterations.
    pub slice_cycles: u64,
    /// Profiler decay cadence, in slices (0 disables decay). Decay is
    /// what lets the ranking *forget* a phase that ended or a kernel
    /// that moved to hardware.
    pub decay_interval: u32,
    /// Number of times to run the application end-to-end on one
    /// timeline. Patches persist across repeats — a re-entered program
    /// starts warped, the paper's "transparent optimization amortized
    /// over reuse".
    pub repeats: u32,
    /// Hard timeline budget across all repeats.
    pub max_cycles: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            mb: MbConfig::paper_default(),
            options: WarpOptions::default(),
            slice_cycles: 20_000,
            decay_interval: 16,
            repeats: 1,
            max_cycles: 2_000_000_000,
        }
    }
}

/// The online warp runtime for one workload, driven to completion in
/// one call. See [`OnlineSession`] for the sliced form a server hosts.
pub struct Orchestrator<'w> {
    built: &'w BuiltWorkload,
    config: OnlineConfig,
    policy: Box<dyn WarpPolicy>,
    cache: Option<Arc<CircuitCache>>,
}

impl<'w> Orchestrator<'w> {
    /// Creates a runtime with the default [`ThresholdPolicy`].
    #[must_use]
    pub fn new(built: &'w BuiltWorkload, config: OnlineConfig) -> Self {
        Orchestrator {
            built,
            config,
            policy: Box::new(ThresholdPolicy { min_count: 2048 }),
            cache: None,
        }
    }

    /// Replaces the warp policy.
    #[must_use]
    pub fn with_policy(mut self, policy: impl WarpPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Shares a circuit cache: kernels compiled in previous runs (or by
    /// other orchestrators and served sessions) warm-start, paying only
    /// the reconfiguration cycles on the timeline.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<CircuitCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Runs the workload to completion under the online runtime.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError`] if the simulated program faults, the
    /// final memory diverges from the golden model, a patch cannot be
    /// applied, a CAD phase fails for a reason other than "region not
    /// implementable" (those are skipped and blacklisted), or the
    /// timeline budget runs out.
    pub fn run(self) -> Result<OnlineReport, OnlineError> {
        let Orchestrator { built, config, policy, cache } = self;
        let mut session =
            crate::session::session_from_parts(Arc::new(built.clone()), config, policy, cache);
        while session.advance(u64::MAX) == SessionStatus::Runnable {}
        session.into_outcome().expect("session drove to completion")
    }

    /// Converts the runtime into its sliced, owned form (cloning the
    /// workload), for callers that want to interleave it with others.
    #[must_use]
    pub fn into_session(self) -> OnlineSession {
        let Orchestrator { built, config, policy, cache } = self;
        crate::session::session_from_parts(Arc::new(built.clone()), config, policy, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{NeverPolicy, TopKPolicy};
    use crate::session::cad_timeline_cycles;
    use mb_isa::MbFeatures;
    use mb_sim::Engine;

    #[test]
    fn never_policy_is_a_pure_software_timeline() {
        let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
        let report = Orchestrator::new(&built, OnlineConfig::default())
            .with_policy(NeverPolicy)
            .run()
            .unwrap();
        assert!(report.events.is_empty());
        assert_eq!(report.exit_code, 0);

        // The sliced never-warp timeline is cycle-identical to one
        // monolithic software run.
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let out = sys.run(500_000_000).unwrap();
        assert_eq!(report.cycles, out.cycles);
        assert_eq!(report.instructions, out.instructions);
    }

    #[test]
    fn brev_warps_mid_run_and_finishes_in_hardware() {
        let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
        let report = Orchestrator::new(&built, OnlineConfig::default())
            .with_policy(TopKPolicy { k: 1, min_count: 256 })
            .run()
            .unwrap();
        assert_eq!(report.events.len(), 1, "brev's cheap CAD must land within one run");
        let e = &report.events[0];
        assert_eq!((e.head, e.tail), (built.kernel.head, built.kernel.tail));
        assert!(e.patched_cycle >= e.detected_cycle + e.cad_cycles);
        assert!(e.patched_cycle < report.cycles, "patch must land before the program ends");
        assert!(e.hw.invocations >= 1, "the remaining iterations must run in hardware");
        assert!(e.hw.iterations > 0);
        assert!(!e.cache_hit);
        assert_eq!(e.evicted, None);
    }

    #[test]
    fn warm_cache_charges_only_reconfiguration() {
        let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
        let cache = Arc::new(CircuitCache::new());
        // Slices finer than the CAD budget, so the patch cycle resolves
        // the cold/warm difference instead of quantizing it away.
        let config = OnlineConfig { slice_cycles: 2_000, ..OnlineConfig::default() };
        let cold = Orchestrator::new(&built, config.clone())
            .with_policy(TopKPolicy { k: 1, min_count: 256 })
            .with_cache(Arc::clone(&cache))
            .run()
            .unwrap();
        let warm = Orchestrator::new(&built, config)
            .with_policy(TopKPolicy { k: 1, min_count: 256 })
            .with_cache(Arc::clone(&cache))
            .run()
            .unwrap();
        assert!(!cold.events[0].cache_hit);
        assert!(warm.events[0].cache_hit, "second orchestrator must warm-start");
        assert_eq!(warm.events[0].cad_cycles, {
            let dpm = warm.events[0].dpm;
            cad_timeline_cycles(&dpm, true, 85_000_000, warp_core::DEFAULT_DPM_CLOCK_HZ)
        });
        assert!(
            warm.events[0].cad_cycles < cold.events[0].cad_cycles,
            "warm start must shorten time-to-warp"
        );
        assert!(warm.time_to_first_warp().unwrap() < cold.time_to_first_warp().unwrap());
    }

    /// The megablock trace engine must be invisible to the online
    /// runtime: hot patches land between slices while the dispatcher is
    /// mid-trace on the patched loop, and the imem write log must drop
    /// the dirtied traces so the very next head fetch sees the jump to
    /// the invocation stub. A full warped run with traces on therefore
    /// produces the *same* timeline, events, and profiler view as one
    /// on the block engine (traces off).
    #[test]
    fn warped_timeline_is_identical_with_and_without_traces() {
        let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
        let run = |mb: MbConfig| {
            Orchestrator::new(&built, OnlineConfig { mb, repeats: 2, ..OnlineConfig::default() })
                .with_policy(TopKPolicy { k: 1, min_count: 256 })
                .run()
                .unwrap()
        };
        let traced = run(MbConfig::paper_default());
        let untraced = run(MbConfig::paper_default().with_engine(Engine::Block));

        assert_eq!(traced.cycles, untraced.cycles);
        assert_eq!(traced.instructions, untraced.instructions);
        assert_eq!(traced.slices, untraced.slices);
        assert_eq!(traced.exit_code, untraced.exit_code);
        assert_eq!(traced.profiler, untraced.profiler);
        assert_eq!(traced.events.len(), untraced.events.len());
        for (t, u) in traced.events.iter().zip(&untraced.events) {
            assert_eq!((t.head, t.tail), (u.head, u.tail));
            assert_eq!(t.detected_cycle, u.detected_cycle);
            assert_eq!(t.patched_cycle, u.patched_cycle);
            assert_eq!(t.patched_insns, u.patched_insns);
            assert_eq!(t.hw.invocations, u.hw.invocations);
            assert_eq!(t.hw.iterations, u.hw.iterations);
        }
        assert!(traced.events[0].hw.invocations >= 2, "patched kernel must run in hardware");
    }

    #[test]
    fn repeats_accumulate_one_timeline_and_stay_patched() {
        let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
        let config = OnlineConfig { repeats: 3, ..OnlineConfig::default() };
        let report = Orchestrator::new(&built, config)
            .with_policy(TopKPolicy { k: 1, min_count: 256 })
            .run()
            .unwrap();
        assert_eq!(report.repeats, 3);
        assert_eq!(report.events.len(), 1, "the standing patch needs no second warp");
        // Repeats 2 and 3 enter the kernel already warped: one
        // invocation from the mid-run patch plus one per warm repeat.
        assert!(report.events[0].hw.invocations >= 3);

        // And the warped repeats are cheaper than software-only ones.
        let sw = Orchestrator::new(&built, OnlineConfig { repeats: 3, ..OnlineConfig::default() })
            .with_policy(NeverPolicy)
            .run()
            .unwrap();
        assert!(report.cycles < sw.cycles, "online {} vs software {}", report.cycles, sw.cycles);
    }

    /// The wrapper contract itself: a session advanced slice-by-slice
    /// (as a server would) reports exactly what `run()` reports.
    #[test]
    fn served_session_matches_orchestrator_run() {
        let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
        let direct = Orchestrator::new(&built, OnlineConfig::default())
            .with_policy(TopKPolicy { k: 1, min_count: 256 })
            .run()
            .unwrap();

        let mut session = Orchestrator::new(&built, OnlineConfig::default())
            .with_policy(TopKPolicy { k: 1, min_count: 256 })
            .into_session();
        while session.advance(2) == SessionStatus::Runnable {}
        let served = session.into_outcome().unwrap().unwrap();

        assert_eq!(direct, served);
    }
}
