//! Capture a sec-trace recording of the combining engine at work and
//! export it as Chrome-trace JSON (DESIGN.md §14).
//!
//! Runs a 4-thread zipfian write-heavy workload against an elastic
//! [`SecMap`] with tracing enabled. Most ops find their bucket lock
//! free and run alone (`alone` instants); the ones that collide on a
//! hot bucket announce, freeze, combine and park, so both routes
//! appear in one capture. Then it:
//!
//!  * writes `results/trace_secmap.json`, loadable in Perfetto /
//!    `chrome://tracing` (freeze→publish batch residency and combine
//!    durations appear as spans, per-op protocol steps as instants),
//!  * prints the four phase histograms' percentiles,
//!  * prints the live rates between two [`TraceSnapshot`]s taken
//!    around the run (the polling view a production consumer gets
//!    without draining any ring).
//!
//! ```text
//! cargo run --release -p sec-bench --features trace --bin trace_dump
//! cargo run --release -p sec-bench --features trace --bin trace_dump -- --duration-ms 1000
//! ```
//!
//! Built without `--features trace` the binary still runs (the
//! `TraceSnapshot` polling path compiles unconditionally) but no
//! recorder exists; it prints the rebuild hint and exits 0.
//!
//! [`SecMap`]: sec_core::SecMap
//! [`TraceSnapshot`]: sec_core::TraceSnapshot

use sec_bench::{map_bench_capacity, map_bench_sec, BenchOpts};
use sec_core::trace::{chrome_trace_json, Histogram};
use sec_core::{SecConfig, SecMap, TraceConfig};
use sec_workload::{ClosedLoop, KeyDist, MapMix, Mix, RunConfig, Visitor};

/// One percentile row of the phase-histogram table.
fn print_phase(name: &str, h: &Histogram) {
    if h.is_empty() {
        println!("  {name:<20} (no samples)");
        return;
    }
    println!(
        "  {name:<20} n={:<9} p50={:<8} p90={:<8} p99={:<8} p999={:<8} max={}",
        h.count(),
        h.percentile(50.0),
        h.percentile(90.0),
        h.percentile(99.0),
        h.percentile(99.9),
        h.max(),
    );
}

fn main() {
    let opts = BenchOpts::from_args();
    println!(
        "{}",
        opts.banner("sec-trace capture: 4-thread zipfian SecMap")
    );

    const THREADS: usize = 4;
    let cfg = RunConfig {
        duration: opts.duration,
        prefill: opts.prefill,
        map_mix: MapMix::WRITE_HEAVY,
        key_dist: KeyDist::Zipfian {
            keys: 1024,
            theta: 3.0,
        },
        // map_bench's shard policy and provisioned headroom, so the
        // elastic monitor can vote shards up when the zipfian hot keys
        // crowd one.
        sec_capacity: Some(map_bench_capacity(THREADS)),
        ..RunConfig::new(THREADS, Mix::UPDATE_100)
    };
    let map: SecMap<u64, u64> = SecMap::with_config(
        map_bench_sec(SecConfig::new(2, cfg.capacity()))
            // Sample 1 in 4 ops: dense enough that the dump shows the
            // per-op protocol steps, cheap enough not to distort the
            // batch shapes being recorded.
            .trace(TraceConfig::on().sample_shift(2).ring_capacity(8192)),
    );

    let before = map.trace_snapshot();
    let result = ClosedLoop::timed(&cfg).map(&map, None).0.result;
    let after = map.trace_snapshot();

    println!(
        "ran {} ops in {:?} ({:.3} Mops/s)",
        result.ops,
        result.elapsed,
        result.mops()
    );

    // The polling view: counter deltas between two snapshots, no ring
    // access, works with or without the `trace` feature.
    let rates = after.rates_since(&before);
    println!(
        "snapshot rates over {:.3} s: {:.0} ops/s, {:.0} batches/s, {:.0} parks/s, batching degree {:.1}, active shards {}",
        rates.interval_s,
        rates.ops_per_sec,
        rates.batches_per_sec,
        rates.parks_per_sec,
        rates.batching_degree,
        after.active_aggregators,
    );

    let Some(tracer) = map.tracer() else {
        println!(
            "no trace recorder: this binary was built without the `trace` feature.\n\
             rebuild with `cargo run --release -p sec-bench --features trace --bin trace_dump`"
        );
        return;
    };

    println!("phase histograms (ns):");
    print_phase("announce->freeze", tracer.announce_to_freeze());
    print_phase("freeze->publish", tracer.batch_residency());
    print_phase("combine duration", tracer.combine_duration());
    print_phase("op latency", tracer.op_latency());

    let events = tracer.events();
    println!(
        "drained {} events ({} recorded; ring keeps the newest per thread)",
        events.len(),
        tracer.events_recorded()
    );

    let json = chrome_trace_json(&events);
    if let Err(e) = std::fs::create_dir_all(&opts.csv_dir) {
        eprintln!("warning: could not create {}: {e}", opts.csv_dir.display());
        return;
    }
    let path = opts.csv_dir.join("trace_secmap.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!(
            "wrote {} — open in https://ui.perfetto.dev or chrome://tracing",
            path.display()
        ),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
