//! The repository benchmark: three seeded workloads run from one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload eval_mix|hot_reads|read_write --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! of a separate traced run. See `perfbench/README.md`.

mod adapter;
mod eval_mix;
mod gen;
mod measure;
mod served;

use measure::{Layers, Metric};
use std::path::PathBuf;
use std::time::Instant;

/// What a workload run needs to know.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for stores, inside the checkout.
    pub work: PathBuf,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// No wrong answer was seen.
    pub correct: bool,
    pub attempted: u64,
    /// Typed errors, timeouts and wrong answers.
    pub failed: u64,
    /// Median set-up time over the repeated set-ups.
    pub setup_s: f64,
    /// Untraced operations per second.
    pub ops_per_s: f64,
    /// Untraced read-query latency: median, 90th percentile, samples.
    pub query_p50_ms: f64,
    pub query_p90_ms: f64,
    pub query_n: usize,
    /// Per-layer accumulators of the traced phase.
    pub layers: Layers,
}

/// How many times each run sets up, for a steady `setup_s`.
pub const SETUPS: usize = 5;

/// Per-layer metrics with their units, in report order.
const PER_LAYER: [(&str, &str); 33] = [
    ("logic.parse_us", "us"),
    ("analysis.preflight_us", "us"),
    ("analysis.plan_us", "us"),
    ("fo.eval_us", "us"),
    ("fo.result_tuples", "count"),
    ("datalog.eval_us", "us"),
    ("datalog.stages", "count"),
    ("core.tuples_materialized", "count"),
    ("core.atoms_materialized", "count"),
    ("core.useful_ratio", "ratio"),
    ("core.probe.dnf_insert", "count"),
    ("core.probe.quantifier_elim", "count"),
    ("core.probe.cell_split", "count"),
    ("core.probe.fixpoint_stage", "count"),
    ("core.sat_cache.hit_ratio", "ratio"),
    ("core.sat_cache.probes", "count"),
    ("store.query_us", "us"),
    ("store.cache.hit_ratio", "ratio"),
    ("store.reply_encode_us", "us"),
    ("store.commit_us", "us"),
    ("store.fsyncs_per_commit", "ratio"),
    ("store.commit_batch_mean", "count"),
    ("wal.fsync_us", "us"),
    ("wal.bytes_per_commit", "bytes"),
    ("server.transport_us", "us"),
    ("client.decode_us", "us"),
    ("server.queue_wait_us", "us"),
    ("server.stalls", "count"),
    ("server.shed", "count"),
    ("repl.lag_ms", "ms"),
    ("bench.gen_late_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.reconciled_share", "ratio"),
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload eval_mix|hot_reads|read_write --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let work = PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    println!("{}", measure::host_stamp(&workload, seed, trace, &work));
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        work: work.clone(),
    };
    let started = Instant::now();
    let outcome = match workload.as_str() {
        "eval_mix" => eval_mix::run(&ctx),
        "hot_reads" => served::hot_reads(&ctx),
        "read_write" => served::read_write(&ctx),
        _ => usage(),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    };
    println!("wall {:.3} s", started.elapsed().as_secs_f64());
    let (correct, attempted, failed) = (outcome.correct, outcome.attempted, outcome.failed);
    let metrics = if trace {
        let mut layers = outcome.layers;
        match layers.check_reconciliation() {
            Ok(share) => layers.set("bench.reconciled_share", share),
            Err(gap) => {
                eprintln!("perfbench: traced run of {workload} fails reconciliation: {gap}");
                std::process::exit(1);
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: layers.mean(name),
                unit,
            })
            .collect::<Vec<_>>()
    } else {
        end_to_end(&outcome)
    };
    println!(
        "{}",
        measure::result_line(correct, attempted, failed, &metrics)
    );
}

/// The end-to-end metrics every workload reports.
fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    let rss = measure::peak_rss_mb();
    let ops = o.attempted as usize;
    measure::report("setup_s", o.setup_s, "s", SETUPS);
    measure::report("ops_per_s", o.ops_per_s, "1/s", ops);
    measure::report("query_p50_ms", o.query_p50_ms, "ms", o.query_n);
    measure::report("query_p90_ms", o.query_p90_ms, "ms", o.query_n);
    measure::report("failed_frac", failed_frac, "ratio", ops);
    measure::report("peak_rss_mb", rss, "MiB", 1);
    vec![
        Metric {
            name: "setup_s",
            value: o.setup_s,
            unit: "s",
        },
        Metric {
            name: "ops_per_s",
            value: o.ops_per_s,
            unit: "1/s",
        },
        Metric {
            name: "query_p50_ms",
            value: o.query_p50_ms,
            unit: "ms",
        },
        Metric {
            name: "query_p90_ms",
            value: o.query_p90_ms,
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss,
            unit: "MiB",
        },
    ]
}
