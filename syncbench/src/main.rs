//! Sync-anatomy benchmark: real `SyncClient` ↔ `Server` syncs over
//! loopback, reported as end-to-end metrics (untraced run) or per-layer
//! metrics from spans around the calls into each layer (traced run).
//!
//! ```text
//! cargo run --release --manifest-path syncbench/Cargo.toml -- \
//!     --workload full_1e5 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `syncbench/README.md` for the workloads and the metric → layer map.

mod closed;
mod gen;
mod ledger;
mod live;
mod replay;
mod stats;
mod trace;

use ledger::{Ledger, Metric, ReplayRecord, ServerProbe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the timed window, s.
    pub seconds: f64,
    /// Record spans and replay syncs (per-layer metrics).
    pub trace: bool,
}

/// What a workload run hands back for reporting.
pub struct Outcome {
    /// The timed window's observations.
    pub ledger: Ledger,
    /// Duration of each set-up, s.
    pub setup_s: Vec<f64>,
    /// Spans (empty when untraced).
    pub tracer: Tracer,
    /// Replayed syncs (traced run only).
    pub replays: Vec<ReplayRecord>,
    /// Server probe at the window's start.
    pub before: ServerProbe,
    /// Server probe at the window's end.
    pub after: ServerProbe,
}

const WORKLOADS: [&str; 3] = ["full_1e5", "full_1e6", "live_mixed"];

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The benchmark's scratch directory inside the working directory.
fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".syncbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<(Outcome, Vec<Metric>), String> {
    let origin = Instant::now();
    let work = work_dir()?;
    let outcome = match args.workload.as_str() {
        "full_1e5" => closed::run(closed::Spec { n: 100_000, d: 100 }, args, origin)?,
        "full_1e6" => {
            let spec = closed::Spec {
                n: 1_000_000,
                d: 10_000,
            };
            closed::run(spec, args, origin)?
        }
        _ => live::run(args, &work, origin)?,
    };
    let mut setup = outcome.setup_s.clone();
    setup.sort_by(f64::total_cmp);
    let metrics = if args.trace {
        let path = work.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        outcome
            .tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "syncbench: {} spans written to {}",
            outcome.tracer.spans().len(),
            path.display()
        );
        ledger::per_layer(
            &outcome.ledger,
            &outcome.tracer,
            &outcome.replays,
            &outcome.before,
            &outcome.after,
            pbs_core::PbsConfig::default().target_rounds,
        )
    } else {
        ledger::end_to_end(&outcome.ledger, stats::median(&setup))?
    };
    Ok((outcome, metrics))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("syncbench: {e}");
            eprintln!(
                "usage: syncbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (outcome, metrics) = match run(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("syncbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let ledger = &outcome.ledger;
    let mut detail = Vec::new();
    for t in ledger::timings(ledger) {
        let s = t.summary;
        eprintln!(
            "syncbench: {}: n={} p50={:.3} p{:.1}={:.3} quartiles={:?}",
            t.name, s.count, s.p50, s.tail_pct, s.tail, t.quartiles
        );
        detail.push(format!(
            "\"{}\": {{\"count\": {}, \"p50\": {}, \"tail\": {}, \"tail_pct\": {}}}",
            t.name, s.count, s.p50, s.tail, s.tail_pct
        ));
    }
    eprintln!(
        "syncbench: {} ops attempted, {} failed (error_rate {}), setups {:?} s",
        ledger.attempted,
        ledger.failed,
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        outcome.setup_s
    );
    println!("{{\"detail\": {{{}}}}}", detail.join(", "));
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.attempted.max(1),
        ledger.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
