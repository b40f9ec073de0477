//! System configuration.

use std::fmt;

use mb_isa::MbFeatures;

use crate::cache::CacheConfig;

/// MicroBlaze clock frequency on the Spartan3 FPGA used in the paper.
pub const MB_CLOCK_HZ: u64 = 85_000_000;

/// The execution engine a [`System`](crate::System) dispatches through.
/// Each tier rides on the one before it; with i/d-caches configured the
/// block and trace tiers retire op by op with per-op cache waits instead
/// of downgrading to stepping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// Decode-per-fetch reference loop: the seed behavior, re-decoding
    /// every fetched word.
    Reference,
    /// Per-instruction stepping over the pre-decoded store (each imem
    /// word decoded once into a side table, invalidated on imem writes).
    Step,
    /// Superblock retirement: fused straight-line blocks ending at
    /// control flow, one dispatch per block.
    Block,
    /// Megablock loop traces: superblocks chained across predicted-taken
    /// backward branches with guarded side exits, so a hot loop iterates
    /// inside one dispatch (the default).
    Trace,
}

impl Engine {
    /// Stable identifier used in `BENCH_sim.json` and CI gates.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Reference => "reference_decode_per_fetch",
            Engine::Step => "predecoded_step",
            Engine::Block => "block",
            Engine::Trace => "trace",
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration of a simulated MicroBlaze system.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MbConfig {
    /// Optional functional units (barrel shifter, multiplier, divider).
    pub features: MbFeatures,
    /// Core clock frequency in Hz (85 MHz on Spartan3 in the paper).
    pub clock_hz: u64,
    /// Instruction BRAM size in bytes.
    pub imem_bytes: u32,
    /// Data BRAM size in bytes.
    pub dmem_bytes: u32,
    /// Optional instruction cache (the paper's system uses local BRAM
    /// without caches; caches are provided for configurability studies).
    pub icache: Option<CacheConfig>,
    /// Optional data cache.
    pub dcache: Option<CacheConfig>,
    /// The execution engine simulation dispatches through (default
    /// [`Engine::Trace`]). Every engine retires the identical
    /// instruction stream with identical simulated timing, traces, and
    /// statistics — the choice only changes host-side speed. The slower
    /// tiers stay as test oracles and benchmark baselines.
    pub engine: Engine,
}

impl MbConfig {
    /// The configuration used in the paper's experiments: 85 MHz, barrel
    /// shifter and multiplier included, no divider, local BRAM memories
    /// and no caches.
    #[must_use]
    pub fn paper_default() -> Self {
        MbConfig {
            features: MbFeatures::paper_default(),
            clock_hz: MB_CLOCK_HZ,
            imem_bytes: 64 * 1024,
            dmem_bytes: 64 * 1024,
            icache: None,
            dcache: None,
            engine: Engine::Trace,
        }
    }

    /// Returns a copy that dispatches through `engine`.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Returns a copy with different functional units.
    #[must_use]
    pub fn with_features(mut self, features: MbFeatures) -> Self {
        self.features = features;
        self
    }

    /// Returns a copy with a different clock frequency.
    #[must_use]
    pub fn with_clock_hz(mut self, hz: u64) -> Self {
        self.clock_hz = hz;
        self
    }

    /// Seconds taken by `cycles` at this configuration's clock.
    #[must_use]
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz as f64
    }
}

impl Default for MbConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_4() {
        let c = MbConfig::paper_default();
        assert_eq!(c.clock_hz, 85_000_000);
        assert!(c.features.barrel_shifter);
        assert!(c.features.multiplier);
        assert!(!c.features.divider);
        assert!(c.icache.is_none() && c.dcache.is_none());
        assert_eq!(c.engine, Engine::Trace);
    }

    #[test]
    fn seconds_scale_with_clock() {
        let c = MbConfig::paper_default();
        let t = c.seconds(85_000_000);
        assert!((t - 1.0).abs() < 1e-12);
    }
}
