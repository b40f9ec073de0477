//! The CAD chain, driven from outside: registry kernels compiled through
//! the product path (`pipeline::compile_circuit_cached`), and the same
//! compile composed stage by stage from the layers' public functions so
//! each stage can carry a span.

use std::time::Instant;

use mb_isa::MbFeatures;
use warp_core::dpm;
use warp_core::pipeline::{compile_circuit_cached, CompiledWcla, DecompiledKernel};
use warp_core::WarpError;
use warp_fabric::route::RouteError;
use warp_fabric::{
    bitstream, place, route, timing, CompileError, CompiledCircuit, FabricConfig, FabricWork,
};
use warp_wcla::{CadCaches, CadWork, ExecModel, WclaCircuit};

use crate::clock;
use crate::stats::derive_seed;
use crate::trace::{SpanId, Tracer};

/// Channel-width attempts before giving up, as in `warp_fabric::compile`
/// (the starting width and four doublings).
const WIDTH_ATTEMPTS: usize = 5;

/// One registry workload's annotated kernel, decompiled.
pub struct RegistryKernel {
    /// Workload name.
    pub name: &'static str,
    /// The kernel and its fingerprint.
    pub decompiled: DecompiledKernel,
}

/// Builds every registry workload and decompiles its annotated kernel.
/// With a tracer, each decompile carries a `cdfg.decompile` span.
///
/// # Errors
///
/// Names the workload whose kernel failed to decompile.
pub fn registry_kernels(
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<RegistryKernel>, String> {
    workloads::all()
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let built = w.build_seeded(MbFeatures::paper_default(), derive_seed(seed, i as u64));
            let run = || {
                warp_cdfg::decompile_loop(&built.program, built.kernel.head, built.kernel.tail).map(
                    |kernel| {
                        let fingerprint = kernel.fingerprint();
                        DecompiledKernel { kernel, fingerprint, profiler_agrees: true }
                    },
                )
            };
            let decompiled = match tracer.as_deref_mut() {
                Some(t) => t.span("cdfg.decompile", w.name, None, run),
                None => run(),
            }
            .map_err(|e| format!("{}: decompile failed: {e}", w.name))?;
            Ok(RegistryKernel { name: w.name, decompiled })
        })
        .collect()
}

/// One pass of compiles over a kernel set.
pub struct Pass {
    /// CPU seconds of the compiling thread for the whole pass.
    pub seconds: f64,
    /// Wall seconds for the whole pass (reported for context only).
    pub wall_seconds: f64,
    /// Per kernel, in input order.
    pub compiles: Vec<Result<CompiledWcla, WarpError>>,
    /// Per kernel, CPU seconds of its compile (product passes only;
    /// empty otherwise).
    pub compile_seconds: Vec<f64>,
    /// Per kernel route log (traced passes only; empty otherwise).
    pub routes: Vec<RouteLog>,
}

impl Pass {
    /// Compiles that returned an error.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.compiles.iter().filter(|c| c.is_err()).count() as u64
    }
}

/// Compiles every kernel through the product path with `caches`,
/// timing each compile.
#[must_use]
pub fn product_pass(kernels: &[RegistryKernel], caches: &CadCaches) -> Pass {
    let wall = Instant::now();
    let start = clock::thread_cpu_ns();
    let (compiles, compile_seconds) = kernels
        .iter()
        .map(|k| clock::thread_cpu_seconds(|| compile_circuit_cached(&k.decompiled, Some(caches))))
        .unzip();
    let seconds = clock::thread_cpu_ns().saturating_sub(start) as f64 / 1e9;
    let wall_seconds = wall.elapsed().as_secs_f64();
    Pass { seconds, wall_seconds, compiles, compile_seconds, routes: Vec::new() }
}

/// Compiles every kernel through [`traced_compile`] with `caches`,
/// under one `cad.pass` span labelled `label`.
pub fn traced_pass(
    kernels: &[RegistryKernel],
    caches: &CadCaches,
    tracer: &mut Tracer,
    label: &str,
) -> Pass {
    let wall = Instant::now();
    let pass = tracer.open("cad.pass", label, None);
    let (compiles, routes) = kernels
        .iter()
        .map(|k| {
            let span = tracer.open("cad.kernel", k.name, Some(pass));
            let out = traced_compile(&k.decompiled, Some(caches), tracer, span, k.name);
            tracer.close(span);
            out
        })
        .unzip();
    tracer.close(pass);
    let span = &tracer.spans()[pass];
    let seconds = (span.end_ns - span.start_ns) as f64 / 1e9;
    let wall_seconds = wall.elapsed().as_secs_f64();
    Pass { seconds, wall_seconds, compiles, compile_seconds: Vec::new(), routes }
}

/// What routing did for one kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteLog {
    /// `route_cached` calls (one per channel width tried).
    pub attempts: u64,
    /// Attempts that ended `Congested`.
    pub congested: u64,
}

/// The product compile (`compile_circuit_cached`) composed from the
/// layers' public stages — synthesize, map, then place and route at
/// widening channel widths, bitstream plus timing, cycle model, DPM
/// estimate — with a span around every stage call.
pub fn traced_compile(
    decompiled: &DecompiledKernel,
    caches: Option<&CadCaches>,
    tracer: &mut Tracer,
    parent: SpanId,
    subject: &str,
) -> (Result<CompiledWcla, WarpError>, RouteLog) {
    let kernel = decompiled.kernel.clone();
    let parent = Some(parent);
    let synth =
        tracer.span("synth.synthesize", subject, parent, || warp_synth::synthesize(&kernel));
    let (netlist, map_work) = tracer.span("synth.map", subject, parent, || {
        warp_synth::map::map_netlist_cached(&synth.netlist, caches.map(|c| &c.map))
    });

    let mut config = FabricConfig::sized_for(netlist.lut_count(), netlist.ffs().len());
    let mut fabric = FabricWork::default();
    let mut log = RouteLog::default();
    let mut last_overused = 0;
    let mut compiled = None;
    for _ in 0..WIDTH_ATTEMPTS {
        let placed = tracer.span("fabric.place", subject, parent, || {
            place::place_cached(&netlist, &config, caches.map(|c| &c.fabric.place))
        });
        let (placement, place_work) = match placed {
            Ok(p) => p,
            Err(e) => return (Err(WarpError::Fabric(e)), log),
        };
        fabric.place_attempts += place_work.attempts;
        fabric.place_restored = place_work.restored;

        log.attempts += 1;
        let start = tracer.now_ns();
        let routed =
            route::route_cached(&netlist, &placement, &config, caches.map(|c| &c.fabric.route));
        let end = tracer.now_ns();
        match routed {
            Ok((routing, route_work)) => {
                tracer.record("fabric.route", subject, parent, start, end);
                fabric.routed_wires += route_work.routed_wires;
                fabric.nets_restored = route_work.nets_restored;
                let (bits, timing) = tracer.span("fabric.bitstream", subject, parent, || {
                    (
                        bitstream::generate(&netlist, &placement, &routing, &config),
                        timing::analyze(&netlist, &placement, &routing, &config),
                    )
                });
                compiled = Some(CompiledCircuit {
                    config: config.clone(),
                    placement,
                    bitstream: bits,
                    route_stats: routing.stats,
                    timing,
                });
                break;
            }
            Err(RouteError::Congested { overused }) => {
                tracer.record("fabric.route_congested", subject, parent, start, end);
                log.congested += 1;
                last_overused = overused;
                config.tracks *= 2;
            }
        }
    }
    let Some(compiled) = compiled else {
        let e = CompileError::Unroutable { tracks: config.tracks, overused: last_overused };
        return (Err(WarpError::Fabric(e)), log);
    };

    let model = tracer
        .span("wcla.model", subject, parent, || ExecModel::derive(&kernel, &netlist, &compiled));
    let work = CadWork { map: map_work, fabric };
    let dpm = tracer.span("core.dpm", subject, parent, || {
        dpm::estimate(&kernel, &synth, &netlist, &compiled, &work)
    });
    let circuit = WclaCircuit { kernel, netlist, compiled, model };
    let fingerprint = decompiled.fingerprint;
    (Ok(CompiledWcla { circuit, synth, dpm, work, fingerprint }), log)
}

/// Checks that two compiles of one kernel produced the same artifact:
/// bitstream words, routing statistics, CAD work and DPM cost.
///
/// # Errors
///
/// Names the first field that differs.
pub fn same_artifact(name: &str, a: &CompiledWcla, b: &CompiledWcla) -> Result<(), String> {
    let (ca, cb) = (&a.circuit.compiled, &b.circuit.compiled);
    if ca.bitstream.words() != cb.bitstream.words() {
        return Err(format!("{name}: bitstream words differ"));
    }
    if ca.route_stats != cb.route_stats {
        return Err(format!(
            "{name}: route stats differ: {:?} vs {:?}",
            ca.route_stats, cb.route_stats
        ));
    }
    if a.work != b.work {
        return Err(format!("{name}: CAD work differs: {:?} vs {:?}", a.work, b.work));
    }
    if a.dpm != b.dpm {
        return Err(format!("{name}: DPM cost differs"));
    }
    Ok(())
}

/// Checks that a later pass rebuilt bit-identical circuits (caches may
/// change the work a compile reports, never its artifact).
///
/// # Errors
///
/// Names the first kernel whose bitstream or routing differs.
pub fn same_circuits(kernels: &[RegistryKernel], a: &Pass, b: &Pass) -> Result<(), String> {
    for ((k, x), y) in kernels.iter().zip(&a.compiles).zip(&b.compiles) {
        if let (Ok(x), Ok(y)) = (x, y) {
            let (cx, cy) = (&x.circuit.compiled, &y.circuit.compiled);
            if cx.bitstream.words() != cy.bitstream.words() || cx.route_stats != cy.route_stats {
                return Err(format!("{}: circuit changed between passes", k.name));
            }
        }
    }
    Ok(())
}
