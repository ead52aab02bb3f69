//! Seeded benchmark of the manet-cfa detector's serving, monitoring,
//! retraining and corpus-generation paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve|monitor|train|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets the workload up several times (reporting the median
//! set-up time), measures for `--seconds`, then checks its outputs outside
//! the timed phase. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run (`--trace 1`)
//! records spans around the layers' public calls, writes them to
//! `perfbench-traces/` in the cargo target directory, and reports the
//! per-layer metrics. Why each workload
//! exists, and which metrics it should move, is in `perfbench/README.md`.

mod common;
mod fleet;
mod monitor;
mod serve;
mod stats;
mod trace;
mod train;

use common::Ctx;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;

/// End-to-end metrics every untraced run reports, with their units.
/// `op_p99_ms` is measured and printed but not among them: on a shared
/// two-core host it varies between runs by more than any bound the
/// benchmark could hold it to (see README.md).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics every traced run reports. Layers a workload does not
/// exercise report 0 work; per-layer quantities that are times appear
/// only for the layers every workload exercises (the simulator and the
/// extractor), everything else is a count, a rate or a share.
const PER_LAYER: [(&str, &str); 42] = [
    ("share.sim", "frac"),
    ("share.features.extract", "frac"),
    ("share.features.discretize", "frac"),
    ("share.ml.train", "frac"),
    ("share.core.threshold", "frac"),
    ("share.ml.score", "frac"),
    ("share.core.persist", "frac"),
    ("share.serve", "frac"),
    ("share.fleet", "frac"),
    ("share.bench", "frac"),
    ("trace.accounted_frac", "frac"),
    ("tracing.overhead_frac", "frac"),
    ("sim.busy_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.frames_delivered", "count"),
    ("sim.frames_lost", "count"),
    ("features.extract.busy_s", "s"),
    ("features.extract.events_ingested", "count"),
    ("features.extract.snapshots", "count"),
    ("features.extract.us_per_snapshot", "us"),
    ("features.extract.retained_events_max", "count"),
    ("features.discretize.rows", "count"),
    ("features.discretize.rows_per_s", "1/s"),
    ("features.discretize.fits", "count"),
    ("ml.score.rows", "count"),
    ("ml.score.single_rows_per_s", "1/s"),
    ("ml.score.batch_rows_per_s", "1/s"),
    ("ml.score.alarm_share", "frac"),
    ("ml.train.models", "count"),
    ("ml.train.c45_share", "frac"),
    ("ml.train.ripper_share", "frac"),
    ("ml.train.nbc_share", "frac"),
    ("core.persist.bytes", "count"),
    ("serve.requests_ok", "count"),
    ("serve.rejected_busy", "count"),
    ("serve.protocol_errors", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.overhead_p50_frac", "frac"),
    ("serve.overhead_p99_frac", "frac"),
    ("serve.gen_late_frac", "frac"),
    ("fleet.parallel_eff", "frac"),
];

/// What a workload measured and whether its outputs checked out.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every value measured, by name, with its unit; the JSON line picks
    /// the end-to-end or per-layer ones and the rest is printed as text.
    pub values: Vec<(String, f64, &'static str)>,
    pub checksum: u64,
    pub failures: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            values: Vec::new(),
            checksum: 0,
            failures: Vec::new(),
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.values.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _, _)| n == name).map(|v| v.1)
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.correct = false;
            self.failures.push(what.into());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 600)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve|monitor|train|fleet --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        nproc,
        tracer: Tracer::new(args.trace, origin),
    };
    let mut report = Report::new();
    match args.workload.as_str() {
        "serve" => serve::run(&mut ctx, &mut report),
        "monitor" => monitor::run(&mut ctx, &mut report),
        "train" => train::run(&mut ctx, &mut report),
        "fleet" => fleet::run(&mut ctx, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other} (serve|monitor|train|fleet)");
            std::process::exit(2);
        }
    }
    report.set("peak_rss_mb", stats::peak_rss_mb(), "MB");
    let provenance = stats::provenance(nproc);
    if args.trace {
        common::layer_report(&ctx, &mut report);
        // Traces go next to the build output, which version control ignores.
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| "perfbench/target".into(), std::path::PathBuf::from)
            .join("perfbench-traces");
        let file = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, ctx.tracer.to_json(&provenance)));
        match written {
            Ok(()) => println!("trace written to {}", file.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", file.display()),
        }
    }

    if !args.trace {
        for (name, _) in END_TO_END {
            let measured = report.get(name).is_some_and(|v| v.is_finite() && v > 0.0);
            report.check(
                measured,
                format!("end-to-end metric {name} has no measured value"),
            );
        }
    }
    println!("provenance {provenance}");
    println!(
        "workload {} seed {} checksum {:016x}",
        args.workload, args.seed, report.checksum
    );
    for (name, value, unit) in &report.values {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    for failure in &report.failures {
        println!("CHECK FAILED: {failure}");
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = report.get(name).unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed
    );
    if !report.correct {
        std::process::exit(1);
    }
}
