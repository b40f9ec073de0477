//! The thread CPU clock for the single-threaded, CPU-bound measurements:
//! the CAD passes, the registry build, and the standalone session and
//! raw simulator probes.
//!
//! On a shared host the wall clock also counts time the hypervisor gave
//! to other tenants and time the thread waited for a CPU. The kernel's
//! per-thread CPU clock counts only the time the thread ran, so for a
//! single-threaded CPU-bound stage it reads what the wall clock of an
//! otherwise idle host would. The fleets keep the wall clock: their
//! throughput and latency are made of waiting as much as of running.

use std::time::Instant;

/// CPU nanoseconds of the calling thread (`CLOCK_THREAD_CPUTIME_ID`), or
/// wall nanoseconds since first use where the platform has no such clock.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a valid, writable timespec for the duration of
        // the call, and every Linux kernel provides this clock.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
            let ns = i128::from(ts.tv_sec) * 1_000_000_000 + i128::from(ts.tv_nsec);
            return u64::try_from(ns).unwrap_or(0);
        }
    }
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` and returns its result with the thread CPU seconds it took.
pub fn thread_cpu_seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = thread_cpu_ns();
    let out = f();
    (out, thread_cpu_ns().saturating_sub(start) as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_thread_clock_counts_work_not_sleep() {
        let sleep = || std::thread::sleep(std::time::Duration::from_millis(50));
        let ((), slept) = thread_cpu_seconds(sleep);
        let spin = || (0..20_000_000u64).fold(0u64, |a, i| a ^ std::hint::black_box(i * i));
        let (x, busy) = thread_cpu_seconds(spin);
        assert_ne!(x, 1);
        assert!(slept < 0.025, "sleeping used {slept} s of thread CPU");
        assert!(busy > 0.0);
    }
}
