//! `serve`: an in-process `cfa-serve` server on loopback at its shipped
//! defaults, holding two models — C4.5 (the paper's headline learner) and
//! naive Bayes (the CLI default). Open-loop load on two connections steps
//! through a fixed rate ladder: single-row `SCORE_AS` requests to C4.5,
//! which the reactor, the protocol and per-request overhead dominate, and
//! 64-row batches to naive Bayes, which compiled scoring dominates. The
//! rows are the feature matrix of a held-out black-hole trace simulated
//! during set-up, so the discretizer's buckets and the alarm share are
//! those of real traffic.

use crate::common::{
    fit_and_deploy, honest_nodes, normal_bundles, paper_world, run_matrices, set_up, Ctx,
    TRAIN_SECS,
};
use crate::stats::{self, Fnv64};
use crate::trace::Tracer;
use crate::Report;
use cfa_serve::{Client, ClientError, Server, ServerConfig, StatsFrame};
use manet_cfa::core::ModelArtifact;
use manet_cfa::pipeline::{ClassifierKind, TrainedPipeline};
use manet_cfa::scenario::Attack;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Simulated seconds of the held-out black-hole trace the rows come from,
/// and how many honest vantages it is observed from.
const HELD_OUT_SECS: f64 = 300.0;
const HELD_OUT_VANTAGES: usize = 16;
const BATCH_ROWS: usize = 64;
/// Requests per second of (single-row class, batch class) at each ladder
/// step, and each step's share of the measured time: the nominal step
/// runs longest, so its latencies rest on the most samples.
const LADDER: [(f64, f64); 4] = [
    (1000.0, 25.0),
    (2000.0, 50.0),
    (3000.0, 75.0),
    (8000.0, 200.0),
];
/// The step whose latencies are reported.
const NOMINAL_STEP: usize = 1;
const STEP_SHARES: [u32; 4] = [1, 3, 1, 1];
/// Windows per share of a step, for the windowed quantiles.
const WINDOWS_PER_SHARE: u32 = 4;
/// p99 limits a ladder step must meet, counting BUSY, failed and unsent
/// requests as misses. They sit far above the nominal latencies, so a
/// slow phase of the shared host, which pushed the single-row p99 at
/// 3000 req/s to 70 ms, does not fail a step; a growing backlog does.
const SINGLE_P99_LIMIT_MS: f64 = 200.0;
const BATCH_P99_LIMIT_MS: f64 = 500.0;
/// Share of a step's requests that may still be unsent when it ends
/// before the step counts as a growing backlog.
const MAX_UNSENT_SHARE: f64 = 0.01;
/// Closed-loop requests each class sends before the ladder starts.
const WARMUP: Duration = Duration::from_millis(300);
const IO_TIMEOUT: Duration = Duration::from_secs(5);

const C45_NAME: &str = cfa_serve::protocol::DEFAULT_MODEL;
const NB_NAME: &str = "nb";

struct Served {
    addr: SocketAddr,
    server: Option<JoinHandle<std::io::Result<cfa_serve::ServeStats>>>,
    c45: TrainedPipeline,
    nb: TrainedPipeline,
    artifacts_digest: u64,
    /// Held-out rows, row-major.
    rows: Vec<f64>,
    n_cols: usize,
}

impl Served {
    fn n_rows(&self) -> usize {
        self.rows.len() / self.n_cols
    }

    fn stop(&mut self) {
        if let Some(handle) = self.server.take() {
            if let Ok(mut c) = Client::connect(self.addr, IO_TIMEOUT) {
                let _ = c.shutdown_server();
            }
            let _ = handle.join();
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stop();
    }
}

fn start(ctx: &mut Ctx) -> Served {
    let bundles = normal_bundles(ctx, &paper_world(TRAIN_SECS, ctx.scenario_seed(1)));
    let (c45_bytes, c45) = fit_and_deploy(ctx, ClassifierKind::C45, &bundles);
    let (nb_bytes, nb) = fit_and_deploy(ctx, ClassifierKind::NaiveBayes, &bundles);
    let held_out = paper_world(HELD_OUT_SECS, ctx.scenario_seed(2))
        .with_attack(Attack::blackhole_at(&[HELD_OUT_SECS / 4.0]));
    let vantages: Vec<_> = honest_nodes(&held_out)
        .into_iter()
        .take(HELD_OUT_VANTAGES)
        .collect();
    let matrices = run_matrices(ctx, &held_out, &vantages);
    let n_cols = matrices[0].n_cols();
    let mut rows: Vec<f64> = matrices
        .iter()
        .flat_map(|m| m.rows.iter().flatten().copied())
        .collect();
    // Whole batches only, so every batch request is one of a fixed set.
    rows.truncate(rows.len() / (n_cols * BATCH_ROWS) * n_cols * BATCH_ROWS);

    // C4.5 boots as the server's default model and NB arrives by LOAD,
    // so the registry holds exactly the two models.
    let (addr, handle) = ctx.tracer.span("core.persist:serve_load", || {
        let boot = ModelArtifact::load(&mut c45_bytes.as_slice()).expect("artifact just saved");
        let server =
            Server::bind(boot, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        let handle = std::thread::spawn(move || server.run());
        let mut c = Client::connect(addr, IO_TIMEOUT).expect("connect to the server");
        c.load_model(NB_NAME, &nb_bytes).expect("LOAD nb");
        (addr, handle)
    });
    let mut digest = Fnv64::new();
    digest.bytes(&c45_bytes);
    digest.bytes(&nb_bytes);
    Served {
        addr,
        server: Some(handle),
        c45,
        nb,
        artifacts_digest: digest.finish(),
        rows,
        n_cols,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Single,
    Batch,
}

impl Class {
    fn rows(self) -> usize {
        match self {
            Class::Single => 1,
            Class::Batch => BATCH_ROWS,
        }
    }

    fn model(self) -> &'static str {
        match self {
            Class::Single => C45_NAME,
            Class::Batch => NB_NAME,
        }
    }

    fn rate(self, step: usize) -> f64 {
        match self {
            Class::Single => LADDER[step].0,
            Class::Batch => LADDER[step].1,
        }
    }

    fn limit_ms(self) -> f64 {
        match self {
            Class::Single => SINGLE_P99_LIMIT_MS,
            Class::Batch => BATCH_P99_LIMIT_MS,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Class::Single => "single",
            Class::Batch => "batch",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Busy,
    Failed,
    /// Still unsent when its step ended: the generator fell behind.
    Unsent,
}

/// One request of the ladder.
struct Request {
    step: usize,
    /// Index of its first row in the held-out pool.
    first_row: usize,
    /// When it was due, when its latency clock starts (the due time, or
    /// the send time if the generator slept past it), when it was sent and
    /// when its answer arrived — nanoseconds after the ladder's start.
    due: u64,
    start: u64,
    sent: u64,
    done: u64,
    outcome: Outcome,
    /// Offset of its scores in the class log's `scores`.
    scores_at: usize,
}

impl Request {
    fn latency_ms(&self) -> f64 {
        match self.outcome {
            Outcome::Ok => (self.done - self.start) as f64 / 1e6,
            _ => f64::INFINITY,
        }
    }
}

struct ClassLog {
    class: Class,
    requests: Vec<Request>,
    scores: Vec<f64>,
    alarms: u64,
    /// Server counters sampled before and after each step.
    pings: Vec<(StatsFrame, StatsFrame)>,
    errors: Vec<String>,
}

/// Offset of a step from the ladder's start, and its length, for a share
/// of `unit`.
fn step_span(step: usize, unit: Duration) -> (Duration, Duration) {
    let before: u32 = STEP_SHARES[..step].iter().sum();
    (unit * before, unit * STEP_SHARES[step])
}

/// Drives one class through the ladder on its own connection.
fn generate(
    class: Class,
    served: &Served,
    t0: Instant,
    unit: Duration,
    tracer: &mut Tracer,
) -> ClassLog {
    let mut log = ClassLog {
        class,
        requests: Vec::new(),
        scores: Vec::new(),
        alarms: 0,
        pings: Vec::new(),
        errors: Vec::new(),
    };
    let root = tracer.begin(match class {
        Class::Single => "bench:gen.single",
        Class::Batch => "bench:gen.batch",
    });
    let mut client = Client::connect(served.addr, IO_TIMEOUT).expect("connect to the server");
    let per_req = class.rows();
    let n_reqs = served.n_rows() / per_req;
    let payload = |i: usize| {
        let first = (i % n_reqs) * per_req;
        (
            first,
            &served.rows[first * served.n_cols..(first + per_req) * served.n_cols],
        )
    };
    let mut i = 0usize;
    while Instant::now() + Duration::from_millis(20) < t0 {
        let _ = client.score_batch_as(class.model(), payload(i).1, served.n_cols);
        i += 1;
    }
    let ns = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    for step in 0..LADDER.len() {
        let (offset, len) = step_span(step, unit);
        let begin = t0 + offset;
        let end = begin + len;
        let before = ping(&mut client, &mut log.errors);
        let interval = Duration::from_secs_f64(1.0 / class.rate(step));
        let mut k = 0u32;
        loop {
            let due = begin + interval * k;
            if due >= end {
                break;
            }
            k += 1;
            let (first_row, rows) = payload(i);
            i += 1;
            let now = Instant::now();
            if now >= end {
                log.requests.push(Request {
                    step,
                    first_row,
                    due: ns(due),
                    start: ns(due),
                    sent: ns(now),
                    done: ns(now),
                    outcome: Outcome::Unsent,
                    scores_at: 0,
                });
                continue;
            }
            // Latency runs from the due time, so time spent waiting for an
            // earlier answer counts; if the generator was idle and slept
            // past the due time, its oversleep is lateness, not latency.
            let start = if now < due {
                std::thread::sleep(due - now);
                let woke = Instant::now();
                tracer.record("bench:wait", now, woke);
                woke
            } else {
                due
            };
            let sent = Instant::now();
            let answer = client.score_batch_as(class.model(), rows, served.n_cols);
            let done = Instant::now();
            tracer.record("serve:request", sent, done);
            let scores_at = log.scores.len();
            let outcome = match answer {
                Ok(scored) => {
                    for s in &scored {
                        log.scores.push(s.score);
                        log.alarms += u64::from(s.alarm);
                    }
                    Outcome::Ok
                }
                Err(ClientError::Status(cfa_serve::protocol::STATUS_BUSY)) => Outcome::Busy,
                Err(e) => {
                    log.errors.push(format!("{} request: {e}", class.name()));
                    Outcome::Failed
                }
            };
            log.requests.push(Request {
                step,
                first_row,
                due: ns(due),
                start: ns(start),
                sent: ns(sent),
                done: ns(done),
                outcome,
                scores_at,
            });
        }
        let after = ping(&mut client, &mut log.errors);
        log.pings.push((before, after));
    }
    tracer.end(root);
    log
}

fn ping(client: &mut Client, errors: &mut Vec<String>) -> StatsFrame {
    client.ping().unwrap_or_else(|e| {
        errors.push(format!("PING: {e}"));
        StatsFrame::default()
    })
}

pub fn run(ctx: &mut Ctx, report: &mut Report) {
    let mut served = set_up(ctx, report, start);
    report.set("serve.rows_pool", served.n_rows() as f64, "count");

    let open = ctx.tracer.begin("bench:measure");
    let ladder_len = ctx
        .budget
        .saturating_sub(WARMUP)
        .max(Duration::from_millis(500));
    let unit = ladder_len / STEP_SHARES.iter().sum::<u32>();
    let t0 = Instant::now() + WARMUP;
    let (single, batch) = std::thread::scope(|scope| {
        let mut batch_tracer = ctx.tracer.for_thread(1);
        let served = &served;
        let batch = scope.spawn(move || {
            let log = generate(Class::Batch, served, t0, unit, &mut batch_tracer);
            (log, batch_tracer)
        });
        let single = generate(Class::Single, served, t0, unit, &mut ctx.tracer);
        (single, batch.join().expect("batch generator"))
    });
    let (batch, batch_tracer) = batch;
    ctx.tracer.end(open);
    ctx.tracer.absorb(batch_tracer);

    let open = ctx.tracer.begin("bench:check");
    let logs = [single, batch];
    summarize(report, &logs, unit);
    let digest = verify(ctx, report, &served, &logs);
    ctx.tracer.end(open);
    served.stop();
    report.checksum = digest;
}

/// Latency quantile `q` of `reqs` (misses count as infinitely late) in
/// each of `windows` equal windows of the step, by due time; the median
/// over the windows is the step's figure. One stall of the shared host
/// then spoils one window, not the step, while a growing backlog spoils
/// them all.
fn windowed(reqs: &[&Request], begin: u64, step_ns: u64, windows: u64, q: f64) -> f64 {
    let mut per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let (lo, hi) = (
                begin + step_ns * w / windows,
                begin + step_ns * (w + 1) / windows,
            );
            let mut lat: Vec<f64> = reqs
                .iter()
                .filter(|r| (lo..hi).contains(&r.due))
                .map(|r| r.latency_ms())
                .collect();
            stats::percentile(&mut lat, q)
        })
        .collect();
    stats::median(&mut per_window)
}

/// Ladder results: per-step pass/fail, the nominal step's latencies,
/// sustained throughput, generator lateness and server counters.
fn summarize(report: &mut Report, logs: &[ClassLog; 2], unit: Duration) {
    let mut sustained = None;
    for (step, shares) in STEP_SHARES.into_iter().enumerate() {
        let mut pass = true;
        let mut rows_ok = 0usize;
        let (offset, len) = step_span(step, unit);
        let (begin, step_ns) = (offset.as_nanos() as u64, len.as_nanos() as u64);
        let windows = u64::from(WINDOWS_PER_SHARE * shares);
        // Achieved throughput runs from the step's start to its last answer.
        let mut last_done = begin;
        for log in logs {
            let reqs: Vec<&Request> = log.requests.iter().filter(|r| r.step == step).collect();
            let p50 = windowed(&reqs, begin, step_ns, windows, 0.5);
            let p99 = windowed(&reqs, begin, step_ns, windows, 0.99);
            let unsent = reqs.iter().filter(|r| r.outcome == Outcome::Unsent).count();
            for r in reqs.iter().filter(|r| r.outcome == Outcome::Ok) {
                rows_ok += log.class.rows();
                last_done = last_done.max(r.done);
            }
            // A growing backlog leaves requests unsent when the step ends;
            // a stall the generator recovers from leaves few or none.
            let backlog = unsent as f64 > MAX_UNSENT_SHARE * reqs.len() as f64;
            pass &= p99 <= log.class.limit_ms() && !backlog;
            println!(
                "step {step} {:<6} offered {:>7.0} req/s  sent {:>6}  unsent {:>4}  p50 {:>8.3} ms  p99 {:>8.3} ms",
                log.class.name(),
                log.class.rate(step),
                reqs.len() - unsent,
                unsent,
                p50,
                p99,
            );
            if step == NOMINAL_STEP {
                let name = log.class.name();
                report.set(
                    format!("serve.{name}.nominal_samples"),
                    reqs.len() as f64,
                    "count",
                );
                match log.class {
                    Class::Single => {
                        report.set("single_p50_us", p50 * 1e3, "us");
                        report.set("single_p99_us", p99 * 1e3, "us");
                    }
                    // The gated latency is the batch request's: compiled
                    // scoring dominates it. A single-row p50 is mostly
                    // the shared host waking idle vCPUs, which moved it by
                    // more than the bound between runs of the same code.
                    Class::Batch => {
                        report.set("batch_p50_ms", p50, "ms");
                        report.set("batch_p99_ms", p99, "ms");
                        report.set("op_p50_ms", p50, "ms");
                        report.set("op_p99_ms", p99, "ms");
                    }
                }
            }
        }
        let achieved = rows_ok as f64 / ((last_done - begin) as f64 / 1e9).max(1e-9);
        println!(
            "step {step} {} at {achieved:.0} rows/s",
            if pass { "passes" } else { "fails" }
        );
        if pass {
            sustained = Some(achieved);
        }
    }
    let sustained = sustained.unwrap_or_else(|| {
        println!("no ladder step met its limits");
        f64::NAN
    });
    report.set("sustained_rows_per_s", sustained, "1/s");
    report.set("work_per_s", sustained, "1/s");

    let (mut attempted, mut failed, mut late_frac) = (0u64, 0u64, 0.0f64);
    for log in logs {
        let name = log.class.name();
        let count = |o: Outcome| log.requests.iter().filter(|r| r.outcome == o).count() as u64;
        let (ok, busy, fail, unsent) = (
            count(Outcome::Ok),
            count(Outcome::Busy),
            count(Outcome::Failed),
            count(Outcome::Unsent),
        );
        report.set(
            format!("serve.{name}.attempted"),
            log.requests.len() as f64,
            "count",
        );
        report.set(format!("serve.{name}.ok"), ok as f64, "count");
        report.set(format!("serve.{name}.busy"), busy as f64, "count");
        report.set(format!("serve.{name}.failed"), fail as f64, "count");
        report.set(format!("serve.{name}.unsent"), unsent as f64, "count");
        report.set(
            format!("serve.{name}.alarm_share"),
            log.alarms as f64 / log.scores.len().max(1) as f64,
            "frac",
        );
        // Requests the generator could not send before their step ended are
        // misses for the latency limits, not operations the server failed.
        attempted += ok + busy + fail;
        failed += busy + fail;
        // Lateness at the nominal step, where the reported latencies come
        // from; overloaded steps are late by design.
        let mut late: Vec<f64> = log
            .requests
            .iter()
            .filter(|r| r.step == NOMINAL_STEP && r.outcome != Outcome::Unsent)
            .map(|r| (r.sent - r.due) as f64 / 1e6)
            .collect();
        let late_share =
            late.iter().filter(|&&l| l > 1.0).count() as f64 / late.len().max(1) as f64;
        report.set(
            format!("serve.{name}.gen_late_p99_ms"),
            stats::percentile(&mut late, 0.99),
            "ms",
        );
        report.set(
            format!("serve.{name}.gen_late_max_ms"),
            late.last().copied().unwrap_or(0.0),
            "ms",
        );
        report.set(format!("serve.{name}.gen_late_frac"), late_share, "frac");
        late_frac = late_frac.max(late_share);
    }
    report.attempted = attempted;
    report.failed = failed;
    report.set("serve.gen_late_frac", late_frac, "frac");

    // Server counters from the PING frames: they are server-wide, and the
    // single-row connection's first and last samples bracket the ladder.
    let pings = &logs[0].pings;
    if let (Some((first, _)), Some((_, last))) = (pings.first(), pings.last()) {
        let delta = |f: fn(&StatsFrame) -> u64| f(last).saturating_sub(f(first)) as f64;
        report.set("serve.requests_ok", delta(|s| s.requests_ok), "count");
        report.set("serve.rejected_busy", delta(|s| s.rejected_busy), "count");
        report.set(
            "serve.protocol_errors",
            delta(|s| s.protocol_errors),
            "count",
        );
    }
    let depth = logs
        .iter()
        .flat_map(|l| &l.pings)
        .map(|(b, a)| b.queue_depth.max(a.queue_depth))
        .max();
    report.set(
        "serve.queue_depth_max",
        f64::from(depth.unwrap_or(0)),
        "count",
    );
}

/// Outside the timed phase: replays every distinct request in process
/// (`transform_row_into` + `score_rows_with`), checks that each served
/// score has the replay's bits, and prices the serving overhead as round
/// trip minus replay. Returns the output checksum: the expected scores
/// and the artifacts, which depend on the seed only.
fn verify(ctx: &mut Ctx, report: &mut Report, served: &Served, logs: &[ClassLog; 2]) -> u64 {
    let mut digest = Fnv64::new();
    digest.u64(served.artifacts_digest);
    let mut overhead_us: Vec<f64> = Vec::new();
    let mut overhead_frac: Vec<f64> = Vec::new();
    let open = ctx.tracer.begin("bench:replay");
    for log in logs {
        let pipeline = match log.class {
            Class::Single => &served.c45,
            Class::Batch => &served.nb,
        };
        let (detector, disc) = (pipeline.detector(), pipeline.discretizer());
        let per_req = log.class.rows();
        let n_reqs = served.n_rows() / per_req;
        let mut expected = vec![0.0f64; served.n_rows()];
        let mut replay_ns = vec![0u64; n_reqs];
        let (mut row_u8, mut rows_u8, mut out, mut scratch) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut transform, mut score) = (Duration::ZERO, Duration::ZERO);
        for (r, slot) in replay_ns.iter_mut().enumerate() {
            let first = r * per_req;
            let t0 = Instant::now();
            rows_u8.clear();
            for row in served.rows[first * served.n_cols..(first + per_req) * served.n_cols]
                .chunks_exact(served.n_cols)
            {
                disc.transform_row_into(row, &mut row_u8);
                rows_u8.extend_from_slice(&row_u8);
            }
            let t1 = Instant::now();
            detector.score_rows_with(&rows_u8, &mut out, &mut scratch);
            let t2 = Instant::now();
            transform += t1 - t0;
            score += t2 - t1;
            *slot = (t2 - t0).as_nanos() as u64;
            expected[first..first + per_req].copy_from_slice(&out);
        }
        let rows = (n_reqs * per_req) as u64;
        ctx.tracer
            .rollup("features.discretize:transform", transform, rows);
        ctx.tracer.count("features.discretize.rows", rows as f64);
        let (span, counter) = match log.class {
            Class::Single => ("ml.score:single", "ml.score.single_rows"),
            Class::Batch => ("ml.score:batch", "ml.score.batch_rows"),
        };
        ctx.tracer.rollup(span, score, n_reqs as u64);
        ctx.tracer.count(counter, rows as f64);
        let threshold = detector.threshold();
        ctx.tracer.count(
            "ml.score.alarms",
            expected.iter().filter(|&&s| s < threshold).count() as f64,
        );
        for s in &expected {
            digest.f64(*s);
        }

        let mut mismatches = 0usize;
        for req in log.requests.iter().filter(|r| r.outcome == Outcome::Ok) {
            let got = &log.scores[req.scores_at..req.scores_at + per_req];
            let want = &expected[req.first_row..req.first_row + per_req];
            mismatches += got
                .iter()
                .zip(want)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            if log.class == Class::Single {
                let rtt = (req.done - req.sent) as f64;
                let inproc = replay_ns[req.first_row / per_req] as f64;
                overhead_us.push((rtt - inproc) / 1e3);
                overhead_frac.push((rtt - inproc) / rtt);
            }
        }
        report.check(
            mismatches == 0,
            format!(
                "{} served scores equal in-process scores ({mismatches} differ)",
                log.class.name()
            ),
        );
        for e in &log.errors {
            report.check(false, e.clone());
        }
    }
    ctx.tracer.end(open);
    report.set(
        "serve.overhead_p50_us",
        stats::percentile(&mut overhead_us, 0.5),
        "us",
    );
    report.set(
        "serve.overhead_p99_us",
        stats::percentile(&mut overhead_us, 0.99),
        "us",
    );
    report.set(
        "serve.overhead_p50_frac",
        stats::percentile(&mut overhead_frac, 0.5),
        "frac",
    );
    report.set(
        "serve.overhead_p99_frac",
        stats::percentile(&mut overhead_frac, 0.99),
        "frac",
    );
    digest.finish()
}
