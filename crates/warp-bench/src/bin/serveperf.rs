//! Measures the warp-serve scheduler at fleet scale — ≥1k concurrent
//! seeded sessions (256 in smoke mode) time-sliced over a fixed worker
//! pool, all sharing one circuit cache — and writes `BENCH_serve.json`
//! (schema `warp-mb/bench-serve/v3`: setup vs execute wall-clock split,
//! the debug-only allocation count, and the cache's hits and misses).
//!
//! Usage: `serveperf [--smoke] [--out <path>]`
//!
//! `--smoke` (or `SERVEPERF_SMOKE=1`) drives the CI-sized fleet.
//! `SERVEPERF_WORKERS` overrides the worker-thread count (default 4,
//! which is what CI pins). Two env gates abort the run nonzero when
//! breached: `SERVEPERF_FLOOR` (sessions per second of the serving
//! window) and `SERVEPERF_MINSN_FLOOR` (aggregate fleet Minsn/s).

use warp_bench::measure::BenchCli;
use warp_bench::serve;

fn env_floor(name: &str) -> Option<f64> {
    std::env::var(name).ok().and_then(|v| v.parse::<f64>().ok())
}

fn main() {
    let cli = BenchCli::parse("SERVEPERF_SMOKE", "BENCH_serve.json");
    let workers =
        std::env::var("SERVEPERF_WORKERS").ok().and_then(|v| v.parse::<usize>().ok()).unwrap_or(4);

    let perf = serve::measure_fleet(cli.smoke, workers);
    println!(
        "warp-serve fleet, {} mode, {} workers:\n",
        if cli.smoke { "smoke" } else { "full" },
        workers
    );
    print!("{}", perf.render_table());

    assert_eq!(perf.failed, 0, "every served session must verify");
    assert!(
        perf.cache.hits > 0,
        "fleet of same-kernel tenants must produce cross-session cache hits"
    );

    if let Some(floor) = env_floor("SERVEPERF_FLOOR") {
        let got = perf.sessions_per_second();
        assert!(
            got >= floor,
            "serving throughput {got:.1} sessions/s below the SERVEPERF_FLOOR of {floor:.1}"
        );
        println!("\nSERVEPERF_FLOOR {floor:.1} sessions/s: ok ({got:.1})");
    }
    if let Some(floor) = env_floor("SERVEPERF_MINSN_FLOOR") {
        let got = perf.minsn_per_second();
        assert!(
            got >= floor,
            "fleet throughput {got:.1} Minsn/s below the SERVEPERF_MINSN_FLOOR of {floor:.1}"
        );
        println!("SERVEPERF_MINSN_FLOOR {floor:.1} Minsn/s: ok ({got:.1})");
    }

    cli.write_json(&perf.to_json());
}
