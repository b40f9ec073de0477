//! Content-addressed circuit cache.
//!
//! The multi-processor round-robin of [`multi`](crate::multi), the
//! configurability sweeps of [`experiments`](crate::experiments), and
//! the figure/table binaries all warp the *same* kernels repeatedly.
//! The CAD chain — synthesis, mapping, place & route, bitstream — is a
//! pure function of the decompiled kernel, so its output can be shared:
//! [`CircuitCache`] stores [`CompiledWcla`] artifacts keyed by
//! [`LoopKernel::fingerprint`](warp_cdfg::LoopKernel::fingerprint), a
//! stable content hash. A hit returns the compiled circuit without
//! performing any CAD work, and (because the whole flow is
//! deterministic) yields a [`WarpReport`](crate::WarpReport)
//! bit-identical to a cold run's.
//!
//! The cache is safe to share across the
//! [`BatchRunner`](crate::batch::BatchRunner)'s worker threads and the
//! `warp-serve` session fleet: lookups take a short mutex, but
//! compilation itself runs outside the lock so concurrent misses on
//! *different* kernels still compile in parallel.
//!
//! The cache is a plain fingerprint map: every circuit it admits stays
//! resident. Its size is the number of distinct kernels the host ever
//! warped — a handful per program — so there is nothing to bound.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use warp_wcla::CadCaches;

use crate::pipeline::{compile_circuit, CompiledWcla, DecompiledKernel};
use crate::system::WarpError;

/// Hit/miss counters for a [`CircuitCache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found a compiled circuit.
    pub hits: u64,
    /// Lookups that had to run the CAD chain.
    pub misses: u64,
    /// Distinct kernels currently cached.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe, content-addressed store of compiled WCLA circuits.
///
/// Beyond whole-circuit artifacts, the cache carries a set of
/// [`CadCaches`] — sub-kernel memoization of mapped LUT cones,
/// placements, and first-pass net routes — so an online runtime
/// attached to this cache can compile a *shifted-but-similar* kernel
/// incrementally even when its whole-kernel fingerprint misses.
#[derive(Default)]
pub struct CircuitCache {
    circuits: Mutex<HashMap<u64, Arc<CompiledWcla>>>,
    cad: Arc<CadCaches>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for CircuitCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitCache").field("stats", &self.stats()).finish_non_exhaustive()
    }
}

impl CircuitCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        CircuitCache::default()
    }

    /// The sub-kernel CAD caches carried by this circuit cache. Runtimes
    /// that compile through these caches share mapped cones, placements,
    /// and net routes with every other compile that went through them.
    #[must_use]
    pub fn cad_caches(&self) -> Arc<CadCaches> {
        Arc::clone(&self.cad)
    }

    /// Probes for an exact whole-kernel hit, verifying the kernel itself
    /// (the 64-bit fingerprint is not collision-proof). Counts a hit on
    /// success and nothing otherwise; a probe miss is expected to be
    /// followed by [`CircuitCache::insert_compiled`], which counts the
    /// miss.
    #[must_use]
    pub fn probe(&self, decompiled: &DecompiledKernel) -> Option<Arc<CompiledWcla>> {
        let hit =
            self.circuits.lock().expect("cache lock").get(&decompiled.fingerprint).cloned()?;
        if hit.circuit.kernel == decompiled.kernel {
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(hit)
        } else {
            None
        }
    }

    /// Publishes a freshly compiled circuit, counting a miss. On a
    /// fingerprint collision (or a racing insert of the same kernel) the
    /// slot stays with its first owner; the caller keeps using its own
    /// artifact either way.
    pub fn insert_compiled(&self, compiled: &Arc<CompiledWcla>) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.circuits
            .lock()
            .expect("cache lock")
            .entry(compiled.fingerprint)
            .or_insert_with(|| Arc::clone(compiled));
    }

    /// Returns the compiled circuit for a decompiled kernel, running
    /// the CAD chain only on a miss.
    ///
    /// The boolean is `true` on a hit. Compilation happens outside the
    /// cache lock, so concurrent misses on different kernels proceed in
    /// parallel; if two threads race on the *same* kernel, both compile
    /// (deterministically, to identical artifacts) and the first
    /// insertion wins.
    ///
    /// # Errors
    ///
    /// Propagates [`WarpError::Fabric`] from compilation on a miss.
    pub fn lookup_or_compile(
        &self,
        decompiled: &DecompiledKernel,
    ) -> Result<(Arc<CompiledWcla>, bool), WarpError> {
        if let Some(hit) = self.probe(decompiled) {
            return Ok((hit, true));
        }
        let compiled = Arc::new(compile_circuit(decompiled)?);
        self.insert_compiled(&compiled);
        Ok((compiled, false))
    }

    /// Current hit/miss/occupancy counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Number of distinct kernels cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.circuits.lock().expect("cache lock").len()
    }

    /// Whether the cache holds no circuits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// The cache is shared by reference across scoped worker threads; fail
// the build loudly if a field ever loses thread safety.
const _: fn() = || {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<CircuitCache>();
    assert_sync::<CompiledWcla>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline;
    use crate::WarpOptions;
    use mb_isa::MbFeatures;

    fn decompiled(name: &str) -> DecompiledKernel {
        let built = workloads::by_name(name).unwrap().build(MbFeatures::paper_default());
        let options = WarpOptions::default();
        let traced = pipeline::trace_software(&built, &options).unwrap();
        let hot = pipeline::profile_trace(&traced, &options).unwrap();
        pipeline::decompile(&built, &hot).unwrap()
    }

    #[test]
    fn second_lookup_hits_and_shares_the_artifact() {
        let cache = CircuitCache::new();
        let d = decompiled("brev");
        let (cold, hit0) = cache.lookup_or_compile(&d).unwrap();
        let (warm, hit1) = cache.lookup_or_compile(&d).unwrap();
        assert!(!hit0);
        assert!(hit1);
        assert!(Arc::ptr_eq(&cold, &warm), "hit must share the cached artifact");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, entries: 1 });
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_kernels_occupy_distinct_slots() {
        let cache = CircuitCache::new();
        assert!(cache.is_empty());
        let a = decompiled("brev");
        let b = decompiled("canrdr");
        assert_ne!(a.fingerprint, b.fingerprint);
        cache.lookup_or_compile(&a).unwrap();
        cache.lookup_or_compile(&b).unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn probe_counts_hits_and_insert_counts_misses() {
        let cache = CircuitCache::new();
        let d = decompiled("brev");
        assert!(cache.probe(&d).is_none(), "empty cache cannot hit");
        let compiled = Arc::new(pipeline::compile_circuit(&d).unwrap());
        cache.insert_compiled(&compiled);
        // A racing duplicate insert keeps the first owner's artifact.
        cache.insert_compiled(&Arc::new(pipeline::compile_circuit(&d).unwrap()));
        let hit = cache.probe(&d).expect("published circuit must hit");
        assert!(Arc::ptr_eq(&hit, &compiled));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2, entries: 1 });
    }
}
