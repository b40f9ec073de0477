//! Fast-path equivalence: the pre-decoded fetch store, the superblock
//! engine, the trace sinks, and the streaming aggregates must be
//! invisible to simulated results.
//!
//! Five contracts are locked in here, each checked on every [`Engine`]:
//!
//! 1. the pre-decoded fetch path produces an instruction-for-instruction
//!    identical [`Trace`], identical [`ExecStats`], and identical
//!    [`Outcome`] to the decode-per-fetch reference loop
//!    ([`Engine::Reference`]);
//! 2. the superblock engine ([`Engine::Block`]) and the megablock trace
//!    engine above it ([`Engine::Trace`], the default) match the
//!    per-instruction step engine ([`Engine::Step`]) the same way —
//!    including across mid-run patches, guard-failure side exits, and
//!    cycle budgets that expire mid-block or mid-trace;
//! 3. decode-cache and block-store invalidation: after an imem patch
//!    through [`System::imem_mut`] — the WCLA binary-patching interface
//!    — the patched words execute, never stale pre-decoded ones, stale
//!    fused blocks, or stale chained traces;
//! 4. a [`TraceSummary`] streamed during the run equals every aggregate
//!    computed from the full trace;
//! 5. every engine retires on its own tier, as counted by
//!    [`ExecStats::engine_coverage`] — in particular, caches never
//!    silently downgrade block or trace dispatch to stepping.
//!
//! [`ExecStats`]: mb_sim::ExecStats
//! [`ExecStats::engine_coverage`]: mb_sim::ExecStats::engine_coverage
//! [`Outcome`]: mb_sim::Outcome

use mb_isa::{encode, Assembler, Insn, MbFeatures, MemSize, Reg};
use mb_sim::cache::CacheConfig;
use mb_sim::{Engine, MbConfig, NullSink, System, Trace, TraceSummary, EXIT_PORT_BASE};

/// Every engine, slowest first. The equality tests run each one against
/// an oracle engine on identical inputs.
const ENGINES: [Engine; 4] = [Engine::Reference, Engine::Step, Engine::Block, Engine::Trace];

/// The paper configuration dispatching through `engine`.
fn config(engine: Engine) -> MbConfig {
    MbConfig::paper_default().with_engine(engine)
}

/// `engine` with both caches configured: block and trace dispatch then
/// retire op by op with per-op cache waits (careful dispatch) instead of
/// downgrading to per-instruction stepping.
fn cached(engine: Engine) -> MbConfig {
    let mut config = config(engine);
    config.icache = Some(CacheConfig::small());
    config.dcache = Some(CacheConfig::small());
    config
}

#[test]
fn every_config_reports_the_engine_it_dispatches() {
    // What retired, not what was asked for: a loop-heavy workload's
    // engine-coverage split must show each engine's own tier, with and
    // without caches.
    let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
    for engine in ENGINES {
        for mb in [config(engine), cached(engine)] {
            let caches = mb.icache.is_some();
            let mut sys = built.instantiate(&mb);
            assert!(sys.run(500_000_000).unwrap().exited());
            let (step, block, trace) = sys.stats().engine_coverage();
            let what =
                format!("{engine} (caches {caches}): step {step}, block {block}, trace {trace}");
            match engine {
                Engine::Reference | Engine::Step => {
                    assert_eq!((step, block, trace), (1.0, 0.0, 0.0), "{what}");
                }
                Engine::Block => assert!(block > 0.0 && trace == 0.0, "{what}"),
                Engine::Trace => assert!(trace > 0.0, "{what}"),
            }
        }
    }
}

#[test]
fn predecoded_fetch_matches_decode_per_fetch_reference() {
    for workload in workloads::all() {
        let built = workload.build(MbFeatures::paper_default());

        let mut reference = built.instantiate(&config(Engine::Reference));
        let (ref_out, ref_trace) = reference.run_traced(500_000_000).unwrap();

        for engine in ENGINES {
            let mut fast = built.instantiate(&config(engine));
            let (fast_out, fast_trace) = fast.run_traced(500_000_000).unwrap();
            let name = format!("{} on {engine}", workload.name);
            assert_eq!(fast_out, ref_out, "{name}: outcome must be identical");
            assert_eq!(
                fast_trace, ref_trace,
                "{name}: traces must match instruction-for-instruction"
            );
            assert_eq!(fast.stats(), reference.stats(), "{name}: ExecStats must match");
            assert_eq!(fast.cpu(), reference.cpu(), "{name}: final CPU state must match");
        }
    }
}

#[test]
fn untraced_run_has_identical_stats_to_traced_run() {
    // NullSink vs full-trace sink is a compile-time policy; the
    // simulated outcome and statistics must not notice.
    let built = workloads::by_name("canrdr").unwrap().build(MbFeatures::paper_default());

    let mut untraced = built.instantiate(&MbConfig::paper_default());
    let out_untraced = untraced.run(500_000_000).unwrap();

    let mut traced = built.instantiate(&MbConfig::paper_default());
    let (out_traced, _) = traced.run_traced(500_000_000).unwrap();

    assert_eq!(out_untraced, out_traced);
    assert_eq!(untraced.stats(), traced.stats());
    assert_eq!(untraced.cpu(), traced.cpu());
    built.verify(untraced.dmem()).unwrap();
}

/// Builds a two-iteration loop whose body instruction at a known PC can
/// be patched between iterations.
fn patchable_loop() -> (mb_isa::Program, u32, u32) {
    let mut a = Assembler::new(0);
    a.li(Reg::R3, 2); // one word: addik r3, r0, 2
    a.label("top");
    a.push(Insn::addik(Reg::R4, Reg::R4, 5)); // the patch target
    a.push(Insn::addik(Reg::R3, Reg::R3, -1));
    a.bnei(Reg::R3, "top");
    a.li(Reg::R31, EXIT_PORT_BASE as i32);
    a.push(Insn::swi(Reg::R0, Reg::R31, 0));
    let program = a.finish().unwrap();
    let body_pc = 4; // first instruction after the one-word li
    let branch_pc = 12;
    (program, body_pc, branch_pc)
}

/// Steps until the PC equals `target`, with a safety bound.
fn step_until(sys: &mut System, target: u32) {
    let mut guard = 0;
    while sys.cpu().pc() != target {
        sys.step(&mut NullSink).unwrap();
        guard += 1;
        assert!(guard < 10_000, "never reached pc {target:#x}");
    }
}

/// Runs the patch-mid-execution scenario on one configuration: execute
/// the loop body once (hot in any decode cache), rewrite the body
/// instruction through `imem_mut`, finish the program.
fn run_patch_scenario(config: &MbConfig) -> System {
    let (program, body_pc, branch_pc) = patchable_loop();
    let mut sys = System::new(config.clone());
    sys.load_program(&program).unwrap();
    // First iteration has executed the body once when the branch is
    // reached — exactly when a stale decode-cache entry would exist.
    step_until(&mut sys, branch_pc);
    sys.imem_mut().write_word(body_pc, encode(&Insn::addik(Reg::R4, Reg::R4, 7))).unwrap();
    let out = sys.run(10_000).unwrap();
    assert!(out.exited());
    sys
}

#[test]
fn imem_patch_invalidates_predecoded_store() {
    // The block and trace engines exercise both the predecode-slot and
    // the fused-block invalidation paths; every engine subjected to the
    // identical patch sequence must end in the step engine's state.
    let stepped = run_patch_scenario(&config(Engine::Step));
    // Iteration 1 added 5, iteration 2 must execute the patched word.
    assert_eq!(stepped.cpu().reg(Reg::R4), 12, "stale pre-decoded instruction executed");
    for engine in ENGINES {
        let sys = run_patch_scenario(&config(engine));
        assert_eq!(sys.cpu(), stepped.cpu(), "{engine}");
        assert_eq!(sys.stats(), stepped.stats(), "{engine}");
    }
}

#[test]
fn faulting_block_preserves_step_engine_prefix_state() {
    // An `imm` directly before a register-indexed load that faults: the
    // step engine clears a pending prefix only *after* a successful
    // Type-A access, so it still holds the prefix at the fault point —
    // the block engine must restore it when unwinding the fused block,
    // leaving bit-identical CPU state on the error path too.
    let run = |config: &MbConfig| {
        let mut a = Assembler::new(0);
        a.li(Reg::R2, 0x0010_0000); // beyond the 64 KiB dmem, below the OPB window
        a.push(Insn::Imm { imm: 0x0123 });
        a.push(Insn::Load { size: MemSize::Word, rd: Reg::R1, ra: Reg::R2, rb: Reg::R0 });
        a.li(Reg::R31, EXIT_PORT_BASE as i32);
        a.push(Insn::swi(Reg::R0, Reg::R31, 0));
        let program = a.finish().unwrap();
        let mut sys = System::new(config.clone());
        sys.load_program(&program).unwrap();
        let err = sys.run(10_000).unwrap_err();
        (sys, err)
    };
    let (stepped, err_s) = run(&config(Engine::Step));
    assert!(stepped.cpu().has_imm_prefix(), "the pending prefix must survive the Type-A fault");
    for engine in ENGINES {
        let (sys, err) = run(&config(engine));
        assert_eq!(err, err_s, "{engine} must raise the step engine's fault");
        assert_eq!(sys.cpu(), stepped.cpu(), "{engine}: post-fault CPU state must match");
        assert_eq!(sys.stats(), stepped.stats(), "{engine}: post-fault stats must match");
    }
}

#[test]
fn trace_block_and_step_engines_match_on_all_workloads() {
    for workload in workloads::all() {
        let built = workload.build(MbFeatures::paper_default());

        let mut stepped = built.instantiate(&config(Engine::Step));
        let (out_s, trace_s) = stepped.run_traced(500_000_000).unwrap();

        for engine in ENGINES {
            let mut sys = built.instantiate(&config(engine));
            let (out, trace) = sys.run_traced(500_000_000).unwrap();
            let name = format!("{} on {engine}", workload.name);
            assert_eq!(out, out_s, "{name}: outcome must be identical");
            assert_eq!(
                trace, trace_s,
                "{name}: block and loop-trace retirement (guard side exits included) must \
                 synthesize the identical event stream"
            );
            assert_eq!(sys.stats(), stepped.stats(), "{name}: ExecStats must match");
            assert_eq!(sys.cpu(), stepped.cpu(), "{name}: final CPU state must match");
            built.verify(sys.dmem()).unwrap();
        }
    }
}

#[test]
fn cached_configs_retire_blocks_with_identical_results() {
    // The configuration that used to silently step: caches on, blocks
    // on. Careful dispatch must match per-instruction stepping with the
    // identical cache model bit-for-bit — outcome, trace, stats, CPU,
    // and dmem.
    for workload in workloads::paper_suite() {
        let built = workload.build(MbFeatures::paper_default());

        let mut stepped = built.instantiate(&cached(Engine::Step));
        let (out_s, trace_s) = stepped.run_traced(2_000_000_000).unwrap();

        for engine in ENGINES {
            let mut careful = built.instantiate(&cached(engine));
            let (out_c, trace_c) = careful.run_traced(2_000_000_000).unwrap();
            let name = format!("{} on {engine}", workload.name);
            assert_eq!(out_c, out_s, "{name}: cached outcome must be identical");
            assert_eq!(trace_c, trace_s, "{name}: cached event streams must match");
            assert_eq!(careful.stats(), stepped.stats(), "{name}: cached ExecStats must match");
            assert_eq!(careful.cpu(), stepped.cpu(), "{name}: cached CPU state must match");
            built.verify(careful.dmem()).unwrap();
        }
    }
}

#[test]
fn cached_sliced_execution_stops_at_step_engine_boundaries() {
    // Careful dispatch checks the budget per op, so slice boundaries
    // land mid-block; they must be the step engine's exact boundaries.
    let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
    for engine in ENGINES {
        assert_slices_match_step(&built, &cached(engine), &cached(Engine::Step));
    }
}

#[test]
fn sliced_block_execution_stops_at_step_engine_boundaries() {
    // Slice budgets small enough that they constantly expire mid-block:
    // the engine must split at the exact instruction boundary the step
    // engine would have used, observable as identical PC / stats /
    // outcome after every slice.
    let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
    for engine in ENGINES {
        assert_slices_match_step(&built, &config(engine), &config(Engine::Step));
    }
}

/// Runs `built` under `engine` and `step` side by side in slices of
/// mid-block budgets, asserting identical outcome, boundary PC, and
/// stats after every slice and identical traces and CPU at the end.
fn assert_slices_match_step(built: &workloads::BuiltWorkload, engine: &MbConfig, step: &MbConfig) {
    let budgets = [1u64, 3, 7, 17, 33, 129, 513];
    let label = engine.engine;
    let mut fast = built.instantiate(engine);
    let mut stepped = built.instantiate(step);
    let mut trace_f = Trace::new();
    let mut trace_s = Trace::new();
    for (i, &budget) in budgets.iter().cycle().enumerate() {
        let out_f = fast.run_slice(budget, &mut trace_f).unwrap();
        let out_s = stepped.run_slice(budget, &mut trace_s).unwrap();
        assert_eq!(out_f, out_s, "{label} slice {i} (budget {budget}) diverged");
        assert_eq!(
            fast.cpu().pc(),
            stepped.cpu().pc(),
            "{label} slice {i} (budget {budget}): boundary PC diverged"
        );
        assert_eq!(fast.stats(), stepped.stats(), "{label} slice {i}: stats diverged");
        if out_f.exited() {
            break;
        }
        assert!(i < 20_000_000, "{label}: workload never exited under sliced execution");
    }
    assert_eq!(trace_f, trace_s, "{label}: sliced traces must be event-identical");
    assert_eq!(fast.cpu(), stepped.cpu(), "{label}");
    built.verify(fast.dmem()).unwrap();
}

/// A 100-iteration counting loop: one-word `li`, two-op body, backward
/// `bnei` — the shape the trace tier chains. Returns the program plus
/// the body and guard-word PCs.
fn hot_loop() -> (mb_isa::Program, u32, u32) {
    let mut a = Assembler::new(0);
    a.li(Reg::R3, 100);
    a.label("top");
    a.push(Insn::addik(Reg::R4, Reg::R4, 5));
    a.push(Insn::addik(Reg::R3, Reg::R3, -1));
    a.bnei(Reg::R3, "top");
    a.li(Reg::R31, EXIT_PORT_BASE as i32);
    a.push(Insn::swi(Reg::R0, Reg::R31, 0));
    (a.finish().unwrap(), 4, 12)
}

#[test]
fn mid_trace_patches_to_body_and_guard_words_take_effect() {
    // Run one slice so the loop trace is chained and hot, then — in the
    // warp-online hot-patch window between slices — rewrite both a body
    // word and the guard word itself. The stale trace must be dropped:
    // the patched body executes and the patched (no longer a branch)
    // guard word falls through to the exit. Every engine must agree.
    let run = |config: &MbConfig| {
        let (program, body_pc, guard_pc) = hot_loop();
        let mut sys = System::new(config.clone());
        sys.load_program(&program).unwrap();
        let out = sys.run_slice(100, &mut NullSink).unwrap();
        assert!(!out.exited(), "slice must stop mid-loop");
        sys.imem_mut().write_word(body_pc, encode(&Insn::addik(Reg::R4, Reg::R4, 7))).unwrap();
        sys.imem_mut().write_word(guard_pc, encode(&Insn::addik(Reg::R5, Reg::R5, 1))).unwrap();
        let out = sys.run(1_000_000).unwrap();
        assert!(out.exited());
        sys
    };
    let stepped = run(&config(Engine::Step));
    assert_eq!(stepped.cpu().reg(Reg::R5), 1, "patched guard word must execute");
    for engine in ENGINES {
        let sys = run(&config(engine));
        assert_eq!(sys.cpu(), stepped.cpu(), "{engine}");
        assert_eq!(sys.stats(), stepped.stats(), "{engine}");
    }
}

#[test]
fn write_log_overflow_mid_slice_still_invalidates_traces() {
    // Overflow the imem write log (`WRITE_LOG_CAP` spans) with scattered
    // writes to unreachable words before patching the hot body: the
    // incremental invalidation path gives up and the store must fall
    // back to a full flush that still drops the stale block and trace.
    let run = |config: &MbConfig| {
        let (program, body_pc, _) = hot_loop();
        let mut sys = System::new(config.clone());
        sys.load_program(&program).unwrap();
        let out = sys.run_slice(100, &mut NullSink).unwrap();
        assert!(!out.exited(), "slice must stop mid-loop");
        for i in 0..12u32 {
            sys.imem_mut()
                .write_word(0x8000 + i * 64, encode(&Insn::addik(Reg::R5, Reg::R5, 1)))
                .unwrap();
        }
        sys.imem_mut().write_word(body_pc, encode(&Insn::addik(Reg::R4, Reg::R4, 7))).unwrap();
        let out = sys.run(1_000_000).unwrap();
        assert!(out.exited());
        sys
    };
    let stepped = run(&config(Engine::Step));
    for engine in ENGINES {
        let sys = run(&config(engine));
        assert_eq!(sys.cpu(), stepped.cpu(), "{engine}");
        assert_eq!(sys.stats(), stepped.stats(), "{engine}");
    }
}

#[test]
fn guard_failure_side_exit_resumes_at_the_architectural_boundary() {
    // A nested loop: the inner guard fails every 4th iteration (side
    // exit to the outer decrement, a non-chainable forward fall-
    // through), and the outer backward branch re-enters the inner
    // trace. Slice budgets force boundaries inside and around the
    // side exits; everything must match the step engine exactly.
    let program = {
        let mut a = Assembler::new(0);
        a.li(Reg::R10, 25); // outer iterations
        a.label("outer");
        a.li(Reg::R3, 4); // inner iterations
        a.label("inner");
        a.push(Insn::addik(Reg::R4, Reg::R4, 3));
        a.push(Insn::addik(Reg::R3, Reg::R3, -1));
        a.bnei(Reg::R3, "inner");
        a.push(Insn::addik(Reg::R10, Reg::R10, -1));
        a.bnei(Reg::R10, "outer");
        a.li(Reg::R31, EXIT_PORT_BASE as i32);
        a.push(Insn::swi(Reg::R0, Reg::R31, 0));
        a.finish().unwrap()
    };
    for engine in ENGINES {
        for budget in [5u64, 23, 101, 1_000_000] {
            let what = format!("{engine}, budget {budget}");
            let mut fast = System::new(config(engine));
            let mut stepped = System::new(config(Engine::Step));
            fast.load_program(&program).unwrap();
            stepped.load_program(&program).unwrap();
            let mut trace_f = Trace::new();
            let mut trace_s = Trace::new();
            loop {
                let out_f = fast.run_slice(budget, &mut trace_f).unwrap();
                let out_s = stepped.run_slice(budget, &mut trace_s).unwrap();
                assert_eq!(out_f, out_s, "{what}: diverged");
                assert_eq!(fast.cpu().pc(), stepped.cpu().pc(), "{what}: boundary PC");
                if out_f.exited() {
                    break;
                }
            }
            assert_eq!(trace_f, trace_s, "{what}: event streams must match");
            assert_eq!(fast.cpu(), stepped.cpu(), "{what}");
            assert_eq!(fast.stats(), stepped.stats(), "{what}");
            assert_eq!(fast.cpu().reg(Reg::R4), 25 * 4 * 3);
        }
    }
}

#[test]
fn trailing_imm_guard_prefix_survives_slice_boundaries() {
    // A loop whose guard needs an `imm` prefix (32-bit backward
    // displacement): the trailing `imm` fuses into the guard when the
    // trace chains. A slice boundary landing between the `imm` and the
    // branch must leave the architectural prefix pending, exactly as
    // the step engine would — for the trace engine (guard skipped on
    // budget expiry) and the careful cached path (per-op budget exit)
    // alike. Full-CPU equality every slice catches a dropped prefix.
    let program = {
        let mut a = Assembler::new(0);
        a.li(Reg::R3, 50);
        a.push(Insn::addik(Reg::R4, Reg::R4, 9));
        a.push(Insn::addik(Reg::R3, Reg::R3, -1));
        a.push(Insn::Imm { imm: -1 });
        a.push(Insn::Bci { cond: mb_isa::Cond::Ne, ra: Reg::R3, imm: -12, delay: false });
        a.li(Reg::R31, EXIT_PORT_BASE as i32);
        a.push(Insn::swi(Reg::R0, Reg::R31, 0));
        a.finish().unwrap()
    };
    let pairs = ENGINES.into_iter().flat_map(|engine| {
        [(config(engine), config(Engine::Step)), (cached(engine), cached(Engine::Step))]
    });
    for (engine_config, step_config) in pairs {
        for budget in [1u64, 2, 3, 4, 5, 7, 11] {
            let what = format!(
                "{} (caches {}), budget {budget}",
                engine_config.engine,
                engine_config.icache.is_some()
            );
            let mut fast = System::new(engine_config.clone());
            let mut stepped = System::new(step_config.clone());
            fast.load_program(&program).unwrap();
            stepped.load_program(&program).unwrap();
            let mut trace_f = Trace::new();
            let mut trace_s = Trace::new();
            loop {
                let out_f = fast.run_slice(budget, &mut trace_f).unwrap();
                let out_s = stepped.run_slice(budget, &mut trace_s).unwrap();
                assert_eq!(out_f, out_s, "{what}: diverged");
                assert_eq!(
                    fast.cpu(),
                    stepped.cpu(),
                    "{what}: full CPU state (incl. imm prefix) at the boundary"
                );
                if out_f.exited() {
                    break;
                }
            }
            assert_eq!(trace_f, trace_s, "{what}: event streams must match");
            assert_eq!(fast.stats(), stepped.stats(), "{what}");
            assert_eq!(fast.cpu().reg(Reg::R4), 50 * 9);
        }
    }
}

#[test]
fn summary_sink_equals_full_trace_aggregates() {
    for workload in workloads::paper_suite() {
        let built = workload.build(MbFeatures::paper_default());

        let mut traced = built.instantiate(&MbConfig::paper_default());
        let (out_t, trace) = traced.run_traced(500_000_000).unwrap();

        let mut summarized = built.instantiate(&MbConfig::paper_default());
        let (out_s, summary) = summarized.run_summarized(500_000_000).unwrap();

        assert_eq!(out_t, out_s, "{}", workload.name);
        // The summary streamed during execution is exactly the summary
        // of the recorded trace...
        assert_eq!(summary, TraceSummary::of_trace(&trace), "{}", workload.name);
        // ...and every aggregate matches the trace's own answers.
        assert_eq!(summary.len(), trace.len() as u64, "{}", workload.name);
        assert_eq!(summary.cycles(), trace.cycles(), "{}", workload.name);
        assert_eq!(summary.class_histogram(), trace.class_histogram(), "{}", workload.name);
        assert_eq!(
            summary.backward_taken(),
            trace.iter().filter(|e| e.is_backward_taken_branch()).count() as u64,
            "{}",
            workload.name
        );
        let (start, end) = built.kernel.range();
        for (lo, hi) in [(start, end), (0, u32::MAX), (start, start), (end, end + 64)] {
            assert_eq!(
                summary.cycles_in_range(lo, hi),
                trace.cycles_in_range(lo, hi),
                "{}: cycles [{lo:#x},{hi:#x})",
                workload.name
            );
            assert_eq!(
                summary.instructions_in_range(lo, hi),
                trace.instructions_in_range(lo, hi),
                "{}: insns [{lo:#x},{hi:#x})",
                workload.name
            );
        }
        assert_eq!(
            summary.backward_taken_at(built.kernel.tail),
            trace
                .iter()
                .filter(|e| e.pc == built.kernel.tail && e.is_backward_taken_branch())
                .count() as u64,
            "{}",
            workload.name
        );
    }
}
