//! Acceptance test for the streaming refactor: scoring a full attack
//! scenario live (audit events → incremental extractor → online detector)
//! must reproduce the batch pipeline (full `NodeTrace` → batch extractor →
//! batch scoring) **bit for bit**, while also raising each alarm within
//! one monitor step of the offending window closing. The monitor's thread
//! budget must be invisible in everything it reports.

use manet_cfa::core::MONITOR_STEP_SECS;
use manet_cfa::core::{
    Alarm, MonitorReport, NodeScoreSeries, OnlineMonitor, Parallelism, ScoreMethod,
};
use manet_cfa::features::IncrementalExtractor;
use manet_cfa::pipeline::{ClassifierKind, Pipeline, TrainedPipeline};
use manet_cfa::scenario::{Attack, Protocol, Scenario, Transport};
use manet_cfa::sim::{
    Agent, AuditEvent, ForwardingSink, NodeId, NullSink, SimTime, Simulator, TraceSink,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

fn base(protocol: Protocol, seed: u64) -> Scenario {
    Scenario::paper_default(protocol, Transport::Cbr)
        .with_nodes(25)
        .with_connections(12)
        .with_duration(400.0)
        .with_seed(seed)
}

/// Batch-scores `scenario` and live-streams it, then checks both paths
/// agree exactly.
fn assert_stream_matches_batch(pipeline: &Pipeline, train: &Scenario, scenario: &Scenario) {
    let train_bundles = train.run_nodes(&Pipeline::default_train_nodes(train.n_nodes));
    let trained = pipeline.fit(&train_bundles);

    // Batch path: full simulation, retained trace, post-hoc scoring.
    let bundle = scenario.run();
    let batch_scores = trained.score_matrix(&bundle.matrix);

    // Both paths score on the compiled engine; the batch scores must also
    // equal the interpreted ensemble's, smoothed the same way.
    let table = trained
        .discretizer()
        .transform(&bundle.matrix)
        .expect("schema");
    let raw =
        trained
            .detector()
            .model()
            .scores_with(&table, pipeline.method, Parallelism::serial());
    for (i, &batch) in batch_scores.iter().enumerate() {
        let w = &raw[i.saturating_sub(pipeline.smoothing - 1)..=i];
        let oracle = w.iter().sum::<f64>() / w.len() as f64;
        assert_eq!(
            batch.to_bits(),
            oracle.to_bits(),
            "batch score {i} diverges from the interpreted oracle"
        );
    }

    // Streaming path: identical simulation scored while it runs.
    let report = trained.stream_scenario(scenario);
    assert_eq!(report.series.len(), 1);
    let series = &report.series[0].series;

    assert_eq!(
        series.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
        bundle.matrix.times,
        "streamed snapshot times differ from batch rows"
    );
    assert_eq!(series.len(), batch_scores.len());
    for (&(t, live), &batch) in series.iter().zip(&batch_scores) {
        assert!(
            live.to_bits() == batch.to_bits(),
            "score diverged at t={t}: streamed {live} != batch {batch}"
        );
    }

    // The monitor's alarms are exactly the snapshots whose smoothed batch
    // score dips below the trained threshold, detected within one step.
    let expected_alarms: Vec<f64> = bundle
        .matrix
        .times
        .iter()
        .zip(&batch_scores)
        .filter(|&(_, &s)| s < trained.fitted_threshold().threshold)
        .map(|(&t, _)| t)
        .collect();
    let got_alarms: Vec<f64> = report.alarms.iter().map(|a| a.snapshot_time).collect();
    assert_eq!(got_alarms, expected_alarms);
    for a in &report.alarms {
        assert_eq!(a.node, scenario.monitored);
        assert!(
            a.latency() >= 0.0 && a.latency() <= MONITOR_STEP_SECS + 1e-9,
            "alarm at t={} detected {}s late",
            a.snapshot_time,
            a.latency()
        );
    }
}

#[test]
fn streamed_attack_scenario_scores_bit_identical_to_batch_aodv() {
    let pipeline = Pipeline::new(ClassifierKind::C45, ScoreMethod::AvgProbability);
    let train = base(Protocol::Aodv, 1);
    let attacked = base(Protocol::Aodv, 3).with_attack(Attack::blackhole_at(&[200.0, 320.0]));
    assert_stream_matches_batch(&pipeline, &train, &attacked);
}

#[test]
fn streamed_attack_scenario_scores_bit_identical_to_batch_dsr() {
    let pipeline = Pipeline::new(ClassifierKind::NaiveBayes, ScoreMethod::MatchCount);
    let train = base(Protocol::Dsr, 5);
    let attacked = base(Protocol::Dsr, 7).with_attack(Attack::storm_at(&[150.0, 300.0]));
    assert_stream_matches_batch(&pipeline, &train, &attacked);
}

/// Runs `sim` under an [`OnlineMonitor`] with the given thread budget and
/// returns the report plus every alarm-sink call, in call order.
fn watch<A: Agent>(
    trained: &TrainedPipeline,
    smoothing: usize,
    sim: Simulator<A>,
    vantages: &[NodeId],
    parallelism: Parallelism,
) -> (MonitorReport, Vec<Alarm>) {
    let calls = RefCell::new(Vec::new());
    let report = OnlineMonitor::new(sim, vantages, trained.detector(), trained.discretizer())
        .with_smoothing(smoothing)
        .with_parallelism(parallelism)
        .with_alarm_sink(|a| calls.borrow_mut().push(*a))
        .run();
    (report, calls.into_inner())
}

/// The monitor before extraction moved off the simulator's thread,
/// rebuilt from public pieces: each vantage's extractor is its trace sink,
/// each step's rows are scored as soon as the step ends, and the end-of-run
/// flush is scored after them as a batch of its own. The oracle for alarm
/// order across vantages.
fn watch_inline<A: Agent>(
    trained: &TrainedPipeline,
    smoothing: usize,
    mut sim: Simulator<A>,
    vantages: &[NodeId],
) -> (MonitorReport, Vec<Alarm>) {
    let (detector, disc) = (trained.detector(), trained.discretizer());
    let mut taps = Vec::new();
    for node in (0..sim.config().n_nodes).map(NodeId) {
        if !vantages.contains(&node) {
            sim.set_sink(node, Box::new(NullSink));
            continue;
        }
        let x = Rc::new(RefCell::new(IncrementalExtractor::new()));
        let sink = Rc::clone(&x);
        sim.set_sink(
            node,
            Box::new(ForwardingSink::new(move |e: AuditEvent| {
                let mut x = sink.borrow_mut();
                match e {
                    AuditEvent::Packet(p) => x.packet(p.t, p.kind, p.dir),
                    AuditEvent::Route(r) => x.route(r.t, r.kind, r.route_len),
                    AuditEvent::Mobility(m) => x.mobility(m.t, m.velocity),
                }
            })),
        );
        taps.push((node, x, VecDeque::new(), Vec::new()));
    }
    let (mut row, mut scratch, mut alarms) = (Vec::new(), Vec::new(), Vec::new());
    let duration = sim.config().duration;
    let mut score = |now: SimTime, finish: bool| {
        for (node, x, recent, series) in &mut taps {
            let mut x = x.borrow_mut();
            if finish {
                x.finish(duration);
            } else {
                x.advance_to(now);
            }
            for r in x.drain_rows() {
                disc.transform_row_into(&r.values, &mut row);
                recent.push_back(detector.score_with(&row, &mut scratch));
                if recent.len() > smoothing {
                    recent.pop_front();
                }
                let smoothed = recent.iter().sum::<f64>() / recent.len() as f64;
                series.push((r.time, smoothed));
                if smoothed < detector.threshold() {
                    alarms.push(Alarm {
                        node: *node,
                        snapshot_time: r.time,
                        detected_at: now.as_secs(),
                        score: smoothed,
                    });
                }
            }
        }
    };
    while sim.now() < duration {
        sim.run_until((sim.now() + SimTime::from_secs(MONITOR_STEP_SECS)).min(duration));
        score(sim.now(), false);
    }
    score(duration, true);
    let series = taps
        .into_iter()
        .map(|(node, _, _, series)| NodeScoreSeries { node, series })
        .collect();
    let report = MonitorReport {
        alarms: alarms.clone(),
        series,
    };
    (report, alarms)
}

/// Every bit the monitor reports: series, alarms, then alarm-sink calls.
fn report_bits((report, calls): &(MonitorReport, Vec<Alarm>)) -> Vec<u64> {
    let mut bits = Vec::new();
    for s in &report.series {
        bits.push(u64::from(s.node.0));
        bits.push(s.series.len() as u64);
        for &(t, score) in &s.series {
            bits.extend([t.to_bits(), score.to_bits()]);
        }
    }
    for alarms in [&report.alarms, calls] {
        bits.push(alarms.len() as u64);
        for a in alarms {
            bits.push(u64::from(a.node.0));
            bits.extend([a.snapshot_time, a.detected_at, a.score].map(f64::to_bits));
        }
    }
    bits
}

#[test]
fn thread_count_is_invisible_to_the_online_monitor() {
    let pipeline = Pipeline::new(ClassifierKind::C45, ScoreMethod::AvgProbability);
    let mut alarms_seen = 0;
    for protocol in [Protocol::Aodv, Protocol::Dsr] {
        let train = base(protocol, 11).with_duration(200.0);
        let trained = pipeline.fit(&train.run_nodes(&Pipeline::default_train_nodes(train.n_nodes)));
        for duration in [0.0, 12.0, 120.0] {
            let attacked = base(protocol, 13)
                .with_duration(duration)
                .with_attack(Attack::blackhole_at(&[6.0]));
            let attacker = attacked.attacks[0].attacker;
            let vantages: Vec<NodeId> = (0..attacked.n_nodes)
                .map(NodeId)
                .filter(|&n| n != attacker)
                .take(10)
                .collect();
            let inline = match protocol {
                Protocol::Aodv => watch_inline(
                    &trained,
                    pipeline.smoothing,
                    attacked.build_aodv(),
                    &vantages,
                ),
                Protocol::Dsr => watch_inline(
                    &trained,
                    pipeline.smoothing,
                    attacked.build_dsr(),
                    &vantages,
                ),
            };
            let run = |par: Parallelism| match protocol {
                Protocol::Aodv => watch(
                    &trained,
                    pipeline.smoothing,
                    attacked.build_aodv(),
                    &vantages,
                    par,
                ),
                Protocol::Dsr => watch(
                    &trained,
                    pipeline.smoothing,
                    attacked.build_dsr(),
                    &vantages,
                    par,
                ),
            };
            let serial = run(Parallelism::serial());
            let threaded = run(Parallelism::threads(2));
            let label = format!("{} at {duration} s", protocol.name());
            assert_eq!(serial.0.series.len(), vantages.len(), "{label}");
            let snapshots = (duration / MONITOR_STEP_SECS).floor() as usize;
            for s in &serial.0.series {
                assert_eq!(s.series.len(), snapshots, "{label}: node {:?}", s.node);
            }
            assert_eq!(serial.0.alarms, serial.1, "{label}: sink saw every alarm");
            assert!(
                report_bits(&serial) == report_bits(&inline),
                "{label}: the monitor differs from scoring each step as it ends"
            );
            assert!(
                report_bits(&serial) == report_bits(&threaded),
                "{label}: 1-thread and 2-thread monitors differ"
            );
            alarms_seen += serial.1.len();
        }
    }
    assert!(alarms_seen > 0, "fixture must raise alarms");
}
