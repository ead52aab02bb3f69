//! `monitor`: the paper's deployment. Every honest node of a 50-node AODV
//! run with a black hole scores its own audit stream with a C4.5 detector
//! trained during set-up (`OnlineMonitor::run`). Extraction dominates and
//! the simulator does a minority of the work.

use crate::common::{
    count_sim, fit_and_deploy, honest_nodes, normal_bundles, paper_world, pipeline, set_up, Ctx,
    ATTACKER, TRAIN_SECS,
};
use crate::stats::{self, Fnv64};
use crate::trace::Tracer;
use crate::Report;
use manet_cfa::core::{
    Alarm, AnomalyDetector, MonitorReport, NodeScoreSeries, OnlineMonitor, MONITOR_STEP_SECS,
};
use manet_cfa::features::{EqualFrequencyDiscretizer, IncrementalExtractor};
use manet_cfa::ml::AnyModel;
use manet_cfa::pipeline::{ClassifierKind, TrainedPipeline};
use manet_cfa::scenario::{Attack, Scenario};
use manet_cfa::sim::{AuditEvent, ForwardingSink, NodeId, NullSink, SimTime, TraceSink};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Monitored runs of different mobility seeds. They are measured in turn
/// and each run's median time counts once, so neither one run's traffic
/// nor one slow moment of the host sets the figure.
const RUNS: usize = 12;
/// Simulated seconds per monitored run; the black hole starts a quarter
/// of the way in and stays on for 100 s sessions.
const MONITOR_SECS: f64 = 100.0;

struct Setup {
    deployed: TrainedPipeline,
    smoothing: usize,
    scenarios: Vec<Scenario>,
    vantages: Vec<NodeId>,
}

pub fn run(ctx: &mut Ctx, report: &mut Report) {
    let setup = set_up(ctx, report, |ctx| {
        let bundles = normal_bundles(ctx, &paper_world(TRAIN_SECS, ctx.scenario_seed(1)));
        let (_, deployed) = fit_and_deploy(ctx, ClassifierKind::C45, &bundles);
        let scenarios: Vec<Scenario> = (0..RUNS as u64)
            .map(|i| {
                paper_world(MONITOR_SECS, ctx.scenario_seed(2 + i))
                    .with_attack(Attack::blackhole_at(&[MONITOR_SECS / 4.0]))
            })
            .collect();
        assert_eq!(scenarios[0].attacks[0].attacker, ATTACKER);
        Setup {
            deployed,
            smoothing: pipeline(ctx, ClassifierKind::C45).smoothing,
            vantages: honest_nodes(&scenarios[0]),
            scenarios,
        }
    });
    let open = ctx.tracer.begin("bench:measure");
    let start = Instant::now();
    // Per run: the time of every pass over it and the digest of its report.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); RUNS];
    let mut digests: Vec<Vec<u64>> = vec![Vec::new(); RUNS];
    let mut first: Vec<MonitorReport> = Vec::new();
    let mut last = Duration::ZERO;
    // The runs in turn: every run once, then more passes while the next
    // run, judged by the length of the last, ends within the budget.
    for (op, (i, scenario)) in setup.scenarios.iter().enumerate().cycle().enumerate() {
        if op >= RUNS && start.elapsed() + last > ctx.budget {
            break;
        }
        let rep = Instant::now();
        let report = if ctx.tracer.enabled() {
            monitor_rebuilt(&mut ctx.tracer, &setup, scenario)
        } else {
            monitor(&setup, scenario)
        };
        last = rep.elapsed();
        times[i].push(stats::secs(last));
        digests[i].push(digest(&report));
        if first.len() < RUNS {
            first.push(report);
        }
    }
    ctx.tracer.end(open);
    let passes: usize = times.iter().map(Vec::len).sum();
    report.attempted = passes as u64;

    // One repetition covers every run once: the sum of each run's median
    // and, for the printed tail, of each run's slowest pass.
    let rep_s: f64 = times.iter_mut().map(|t| stats::median(t)).sum();
    let slowest_s: f64 = times
        .iter()
        .map(|t| t.iter().copied().fold(0.0, f64::max))
        .sum();
    let rep_sim_s = MONITOR_SECS * RUNS as f64;
    report.set("sim_s_per_s", rep_sim_s / rep_s, "1/s");
    report.set("work_per_s", rep_sim_s / rep_s, "1/s");
    report.set("op_p50_ms", rep_s * 1e3, "ms");
    report.set("op_p99_ms", slowest_s * 1e3, "ms");
    report.set("monitor.passes", passes as f64, "count");

    let open = ctx.tracer.begin("bench:check");
    report.check(
        digests.iter().all(|d| d.iter().all(|&x| x == d[0])),
        "every pass over a run reports the same series and alarms",
    );
    let snapshots: usize = first
        .iter()
        .flat_map(|r| &r.series)
        .map(|s| s.series.len())
        .sum();
    let alarms: usize = first.iter().map(|r| r.alarms.len()).sum();
    report.set("monitor.snapshots", snapshots as f64, "count");
    report.set("monitor.alarms", alarms as f64, "count");
    report.set(
        "monitor.alarm_share",
        alarms as f64 / snapshots.max(1) as f64,
        "frac",
    );
    let firsts: Vec<u64> = digests.iter().map(|d| d[0]).collect();
    if ctx.tracer.enabled() {
        // The traced passes ran the rebuild; `OnlineMonitor::run` must
        // produce the same bits, and its time next to theirs is the
        // tracing overhead.
        let open = ctx.tracer.begin("bench:reference");
        let api = Instant::now();
        let reference: Vec<u64> = setup
            .scenarios
            .iter()
            .map(|scenario| digest(&monitor(&setup, scenario)))
            .collect();
        let untraced = api.elapsed().as_secs_f64();
        ctx.tracer.end(open);
        report.check(
            reference == firsts,
            "rebuilt monitor equals OnlineMonitor::run",
        );
        report.set("tracing.overhead_frac", rep_s / untraced - 1.0, "frac");
    }
    ctx.tracer.end(open);
    let mut all = Fnv64::new();
    for d in firsts {
        all.u64(d);
    }
    report.checksum = all.finish();
}

/// One monitored run through the public API.
fn monitor(setup: &Setup, scenario: &Scenario) -> MonitorReport {
    let (detector, disc) = (setup.deployed.detector(), setup.deployed.discretizer());
    OnlineMonitor::new(scenario.build_aodv(), &setup.vantages, detector, disc)
        .with_smoothing(setup.smoothing)
        .run()
}

/// Order-sensitive digest over every score bit and alarm field.
fn digest(r: &MonitorReport) -> u64 {
    let mut h = Fnv64::new();
    for s in &r.series {
        h.u64(u64::from(s.node.0));
        for &(t, score) in &s.series {
            h.f64(t);
            h.f64(score);
        }
    }
    for a in &r.alarms {
        h.u64(u64::from(a.node.0));
        h.f64(a.snapshot_time);
        h.f64(a.detected_at);
        h.f64(a.score);
    }
    h.finish()
}

/// One monitored node in the rebuild.
struct Tap {
    node: NodeId,
    extractor: Rc<RefCell<IncrementalExtractor>>,
    recent: VecDeque<f64>,
    series: Vec<(f64, f64)>,
}

/// `OnlineMonitor::run` rebuilt from public pieces with spans: the
/// simulator feeds each vantage's `IncrementalExtractor` through a
/// `ForwardingSink` that times every ingested event (a rollup child of
/// the `run_until` span, so the simulator's busy time is self time), then
/// `advance_to`, `drain_rows`, `transform_row_into`, `score_with` and the
/// trailing smoothing, step by step.
fn monitor_rebuilt(t: &mut Tracer, setup: &Setup, scenario: &Scenario) -> MonitorReport {
    let mut sim = t.span("sim:build", || scenario.build_aodv());
    let ingest: Rc<Cell<(Duration, u64)>> = Rc::default();
    let mut taps = Vec::new();
    for i in 0..scenario.n_nodes {
        let node = NodeId(i);
        if !setup.vantages.contains(&node) {
            sim.set_sink(node, Box::new(NullSink));
            continue;
        }
        let extractor = Rc::new(RefCell::new(IncrementalExtractor::new()));
        let (ext, acc) = (Rc::clone(&extractor), Rc::clone(&ingest));
        sim.set_sink(
            node,
            Box::new(ForwardingSink::new(move |event: AuditEvent| {
                let start = Instant::now();
                let mut x = ext.borrow_mut();
                match event {
                    AuditEvent::Packet(p) => x.packet(p.t, p.kind, p.dir),
                    AuditEvent::Route(r) => x.route(r.t, r.kind, r.route_len),
                    AuditEvent::Mobility(m) => x.mobility(m.t, m.velocity),
                }
                let (total, n) = acc.get();
                acc.set((total + start.elapsed(), n + 1));
            })),
        );
        taps.push(Tap {
            node,
            extractor,
            recent: VecDeque::new(),
            series: Vec::new(),
        });
    }

    let mut scorer = Scorer {
        detector: setup.deployed.detector(),
        disc: setup.deployed.discretizer(),
        smoothing: setup.smoothing,
        row: Vec::new(),
        scratch: Vec::new(),
        alarms: Vec::new(),
    };
    let duration = sim.config().duration;
    let step = SimTime::from_secs(MONITOR_STEP_SECS);
    while sim.now() < duration {
        let next = (sim.now() + step).min(duration);
        let open = t.begin("sim:run_until");
        sim.run_until(next);
        let (total, n) = ingest.take();
        t.rollup("features.extract:ingest", total, n);
        t.count("features.extract.events_ingested", n as f64);
        t.end(open);
        let now = sim.now();
        t.span("features.extract:advance_to", || {
            for tap in &taps {
                tap.extractor.borrow_mut().advance_to(now);
            }
        });
        scorer.score_ready(t, &mut taps, now.as_secs());
    }
    t.span("features.extract:finish", || {
        for tap in &taps {
            tap.extractor.borrow_mut().finish(duration);
        }
    });
    scorer.score_ready(t, &mut taps, duration.as_secs());
    count_sim(t, &sim);
    MonitorReport {
        alarms: scorer.alarms,
        series: taps
            .into_iter()
            .map(|tap| NodeScoreSeries {
                node: tap.node,
                series: tap.series,
            })
            .collect(),
    }
}

struct Scorer<'a> {
    detector: &'a AnomalyDetector<AnyModel>,
    disc: &'a EqualFrequencyDiscretizer,
    smoothing: usize,
    row: Vec<u8>,
    scratch: Vec<f64>,
    alarms: Vec<Alarm>,
}

impl Scorer<'_> {
    /// Drains and scores every completed snapshot, tap by tap, exactly as
    /// the monitor does; per-row work is timed as rollups.
    fn score_ready(&mut self, t: &mut Tracer, taps: &mut [Tap], now_secs: f64) {
        let open = t.begin("bench:score_ready");
        let (mut drain, mut transform, mut score) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let mut rows_scored = 0u64;
        let threshold = self.detector.threshold();
        for tap in taps.iter_mut() {
            let t0 = Instant::now();
            let rows = tap.extractor.borrow_mut().drain_rows();
            drain += t0.elapsed();
            t.max(
                "features.extract.retained_events_max",
                tap.extractor.borrow().retained_events() as f64,
            );
            for row in rows {
                let t1 = Instant::now();
                self.disc.transform_row_into(&row.values, &mut self.row);
                let t2 = Instant::now();
                let raw = self.detector.score_with(&self.row, &mut self.scratch);
                let t3 = Instant::now();
                transform += t2 - t1;
                score += t3 - t2;
                rows_scored += 1;
                tap.recent.push_back(raw);
                if tap.recent.len() > self.smoothing {
                    tap.recent.pop_front();
                }
                let smoothed = tap.recent.iter().sum::<f64>() / tap.recent.len() as f64;
                tap.series.push((row.time, smoothed));
                if smoothed < threshold {
                    self.alarms.push(Alarm {
                        node: tap.node,
                        snapshot_time: row.time,
                        detected_at: now_secs,
                        score: smoothed,
                    });
                    t.count("ml.score.alarms", 1.0);
                }
            }
        }
        t.rollup("features.extract:drain_rows", drain, taps.len() as u64);
        t.rollup("features.discretize:transform", transform, rows_scored);
        t.rollup("ml.score:single", score, rows_scored);
        t.count("features.extract.snapshots", rows_scored as f64);
        t.count("features.discretize.rows", rows_scored as f64);
        t.count("ml.score.single_rows", rows_scored as f64);
        t.end(open);
    }
}
