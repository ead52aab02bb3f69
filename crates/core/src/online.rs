//! Online monitoring: anomaly detection *during* a simulation run.
//!
//! [`OnlineMonitor`] is the paper's deployment posture made concrete: each
//! monitored node scores its own audit stream as it is produced. The
//! monitor couples a configured (not yet started) [`Simulator`] to one
//! [`IncrementalExtractor`] per monitored node, advances the simulation in
//! snapshot-sized steps, and runs every completed 140-feature snapshot
//! through a trained [`AnomalyDetector`] — raising alarms mid-run, with
//! the sim-time detection latency recorded on each alarm.
//!
//! # Two stages
//!
//! The simulator never calls an extractor. The monitored nodes' trace
//! sinks append `(tap, event)` records to one event log, which is handed
//! to the extraction stage in bounded chunks (their buffers recycled).
//! At each 5 s boundary the stage advances every extractor to the clock
//! and returns the rows that completed. With a thread budget of two or
//! more ([`OnlineMonitor::with_parallelism`]) the stage runs on a scoped
//! worker thread while the caller's thread simulates, so extraction
//! overlaps simulation; with one thread the same stage runs inline at
//! each hand-off. Either way the extractors see each node's events in the
//! order they happened, so the rows are the same.
//!
//! The caller scores step *k*'s rows after it has simulated step *k + 1*.
//! Each alarm still carries step *k*'s clock as `detected_at`, so series,
//! alarms and alarm-sink calls are bit-identical and in the same order at
//! every thread count; only in wall time does the alarm sink fire one
//! step later.
//!
//! Unmonitored nodes get a [`NullSink`], so a long run's memory is bounded
//! by the monitored nodes' sliding-window state: no full
//! [`NodeTrace`](manet_sim::NodeTrace) is retained anywhere.
//!
//! Scores seen by the alarm logic are smoothed with the same trailing
//! moving average the batch pipeline applies, so post-hoc scoring of the
//! same run reproduces the monitor's decisions exactly.

use crate::detector::{AnomalyDetector, Verdict};
use crate::parallel::Parallelism;
use manet_features::{EqualFrequencyDiscretizer, IncrementalExtractor, SnapshotRow};
use manet_sim::sink::NullSink;
use manet_sim::{Agent, AuditEvent, ForwardingSink, NodeId, SimTime, Simulator, TraceSink};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};

/// An anomaly raised mid-simulation by an [`OnlineMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alarm {
    /// The node whose audit stream scored anomalous.
    pub node: NodeId,
    /// The snapshot (window-end) time that scored anomalous, seconds.
    pub snapshot_time: f64,
    /// The simulation clock when the alarm was raised, seconds.
    pub detected_at: f64,
    /// The (smoothed) score that fell below the threshold.
    pub score: f64,
}

impl Alarm {
    /// Sim-time detection latency: how long after the anomalous window
    /// closed the alarm fired.
    pub fn latency(&self) -> f64 {
        self.detected_at - self.snapshot_time
    }
}

/// One monitored node's full score series from a monitored run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeScoreSeries {
    /// The monitored node.
    pub node: NodeId,
    /// `(snapshot time, smoothed score)` pairs, in time order.
    pub series: Vec<(f64, f64)>,
}

/// What a monitored run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorReport {
    /// All alarms raised, in detection order.
    pub alarms: Vec<Alarm>,
    /// Per-node score series (for time-series figures).
    pub series: Vec<NodeScoreSeries>,
}

/// Per-node scoring state.
struct Tap {
    node: NodeId,
    /// Last `<= smoothing` raw scores, oldest first.
    recent: VecDeque<f64>,
    series: Vec<(f64, f64)>,
}

/// A live alarm observer: boxed so the monitor need not be generic over
/// the closure type (see [`OnlineMonitor::with_alarm_sink`]).
type AlarmSink<'a> = Box<dyn FnMut(&Alarm) + 'a>;

/// An audit event of the monitored node with this tap index.
type Tapped = (usize, AuditEvent);

/// Completed rows of one hand-off: one list per tap, in tap order.
type StepRows = Vec<Vec<SnapshotRow>>;

/// Events per hand-off chunk: large enough that channel traffic is noise
/// next to extraction, small enough that the worker starts on a step
/// long before the simulator finishes it.
const CHUNK_EVENTS: usize = 4096;

/// Chunks queued for the worker before the simulator waits for it; with
/// the chunk being filled, the one being ingested and the spares this
/// bounds the event log's memory.
const CHUNKS_QUEUED: usize = 4;

/// Work for the extraction stage, in the order the simulator produced it.
enum Job {
    /// Monitored nodes' audit events, in the order they happened.
    Events(Vec<Tapped>),
    /// The clock reached this time: advance every extractor, return rows.
    Advance(SimTime),
    /// The run ended at this time: flush every extractor, return rows.
    Finish(SimTime),
}

/// What a job leaves behind.
enum Done {
    /// The emptied buffer of an [`Job::Events`], for reuse.
    Spent(Vec<Tapped>),
    /// The rows an [`Job::Advance`] or [`Job::Finish`] completed.
    Rows(StepRows),
}

/// The extraction stage: one incremental extractor per tap.
struct Extract {
    extractors: Vec<IncrementalExtractor>,
}

impl Extract {
    /// Applies one job. The one step function of both thread modes.
    fn apply_job(&mut self, job: Job) -> Done {
        match job {
            Job::Events(mut events) => {
                for &(tap, event) in &events {
                    let Some(x) = self.extractors.get_mut(tap) else {
                        continue;
                    };
                    match event {
                        AuditEvent::Packet(p) => x.packet(p.t, p.kind, p.dir),
                        AuditEvent::Route(r) => x.route(r.t, r.kind, r.route_len),
                        AuditEvent::Mobility(m) => x.mobility(m.t, m.velocity),
                    }
                }
                events.clear();
                Done::Spent(events)
            }
            Job::Advance(now) => Done::Rows(self.settle_and_drain(|x| x.advance_to(now))),
            Job::Finish(end) => Done::Rows(self.settle_and_drain(|x| x.finish(end))),
        }
    }

    fn settle_and_drain(&mut self, mut settle: impl FnMut(&mut IncrementalExtractor)) -> StepRows {
        self.extractors
            .iter_mut()
            .map(|x| {
                settle(x);
                x.drain_rows()
            })
            .collect()
    }

    /// The worker thread's loop: jobs in, leftovers out, until the
    /// simulator side hangs up.
    fn serve_jobs(
        mut self,
        jobs: Receiver<Job>,
        rows: Sender<StepRows>,
        spent: Sender<Vec<Tapped>>,
    ) {
        for job in jobs {
            let sent = match self.apply_job(job) {
                Done::Spent(buf) => spent.send(buf).is_ok(),
                Done::Rows(r) => rows.send(r).is_ok(),
            };
            if !sent {
                return;
            }
        }
    }
}

/// Where the event log hands its jobs.
enum Link {
    /// One thread: the stage runs inline at each hand-off.
    Inline {
        stage: Extract,
        rows: VecDeque<StepRows>,
    },
    /// Two threads: the stage runs on a worker fed through channels.
    Worker {
        jobs: SyncSender<Job>,
        rows: Receiver<StepRows>,
        spent: Receiver<Vec<Tapped>>,
    },
    /// No stage: the run has not started, or the worker hung up (it
    /// panicked). Jobs are dropped.
    Closed,
}

/// The monitored nodes' shared event log, filled by their trace sinks.
struct EventLog {
    events: Vec<Tapped>,
    /// Emptied buffers ready for reuse.
    spare: Vec<Vec<Tapped>>,
    link: Link,
}

impl EventLog {
    fn log_event(&mut self, tap: usize, event: AuditEvent) {
        self.events.push((tap, event));
        if self.events.len() >= CHUNK_EVENTS {
            self.ship_chunk();
        }
    }

    /// Hands the buffered events to the stage.
    fn ship_chunk(&mut self) {
        if self.events.is_empty() {
            return;
        }
        if let Link::Worker { spent, .. } = &self.link {
            self.spare.extend(spent.try_iter());
        }
        let fresh = self
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(CHUNK_EVENTS));
        let full = std::mem::replace(&mut self.events, fresh);
        self.send_job(Job::Events(full));
    }

    fn send_job(&mut self, job: Job) {
        match &mut self.link {
            Link::Inline { stage, rows } => match stage.apply_job(job) {
                Done::Spent(buf) => self.spare.push(buf),
                Done::Rows(r) => rows.push_back(r),
            },
            Link::Worker { jobs, .. } => {
                if jobs.send(job).is_err() {
                    self.link = Link::Closed;
                }
            }
            Link::Closed => {}
        }
    }

    /// Flushes the buffered events, then hands over `job`.
    fn hand_over(&mut self, job: Job) {
        self.ship_chunk();
        self.send_job(job);
    }

    /// The oldest rows not yet collected; `None` once the worker hung up.
    fn next_rows(&mut self) -> Option<StepRows> {
        match &mut self.link {
            Link::Inline { rows, .. } => rows.pop_front(),
            Link::Worker { rows, .. } => rows.recv().ok(),
            Link::Closed => None,
        }
    }
}

/// Couples a running [`Simulator`] to per-node extractors and a trained
/// detector; see the module docs.
pub struct OnlineMonitor<'a, A: Agent> {
    sim: Simulator<A>,
    log: Rc<RefCell<EventLog>>,
    detector: &'a AnomalyDetector,
    discretizer: &'a EqualFrequencyDiscretizer,
    smoothing: usize,
    parallelism: Parallelism,
    taps: Vec<Tap>,
    row_buf: Vec<u8>,
    /// Class-probability scratch reused across every scored snapshot.
    score_buf: Vec<f64>,
    alarms: Vec<Alarm>,
    /// Optional live observer, invoked as each alarm is raised (before
    /// the run finishes) — the hook a streaming front end uses to push
    /// alarms to subscribers instead of waiting for the report.
    sink: Option<AlarmSink<'a>>,
}

/// The snapshot cadence in seconds, which is also the monitor's step size.
pub const MONITOR_STEP_SECS: f64 = 5.0;

impl<'a, A: Agent> OnlineMonitor<'a, A> {
    /// Prepares a monitor over a configured, **not yet started** simulator.
    /// Installs an event-log sink on every node in `monitored` and a
    /// [`NullSink`] on every other node.
    ///
    /// # Panics
    ///
    /// Panics if `monitored` is empty, mentions a node twice or out of
    /// range, or if the simulation has already started.
    pub fn new(
        mut sim: Simulator<A>,
        monitored: &[NodeId],
        detector: &'a AnomalyDetector,
        discretizer: &'a EqualFrequencyDiscretizer,
    ) -> OnlineMonitor<'a, A> {
        assert!(!monitored.is_empty(), "monitor at least one node");
        let log = Rc::new(RefCell::new(EventLog {
            events: Vec::with_capacity(CHUNK_EVENTS),
            spare: Vec::new(),
            link: Link::Closed,
        }));
        let mut taps: Vec<Tap> = Vec::with_capacity(monitored.len());
        for i in 0..sim.config().n_nodes {
            let node = NodeId(i);
            if monitored.contains(&node) {
                let (tap, log) = (taps.len(), Rc::clone(&log));
                let sink = ForwardingSink::new(move |e| log.borrow_mut().log_event(tap, e));
                sim.set_sink(node, Box::new(sink));
                taps.push(Tap {
                    node,
                    recent: VecDeque::new(),
                    series: Vec::new(),
                });
            } else {
                sim.set_sink(node, Box::new(NullSink));
            }
        }
        assert_eq!(
            taps.len(),
            monitored.len(),
            "monitored nodes must be distinct and in range"
        );
        OnlineMonitor {
            sim,
            log,
            detector,
            discretizer,
            smoothing: 1,
            parallelism: Parallelism::default(),
            taps,
            row_buf: Vec::new(),
            score_buf: Vec::new(),
            alarms: Vec::new(),
            sink: None,
        }
    }

    /// Applies the batch pipeline's trailing moving-average smoothing over
    /// `k` snapshots before the threshold decision (`k = 1` is raw scores).
    pub fn with_smoothing(mut self, k: usize) -> OnlineMonitor<'a, A> {
        self.smoothing = k.max(1);
        self
    }

    /// Sets the thread budget. With two or more threads extraction runs
    /// on one worker thread beside the simulator (more are not used);
    /// with one it runs inline. The report is bit-identical either way.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> OnlineMonitor<'a, A> {
        self.parallelism = parallelism;
        self
    }

    /// Installs a live alarm observer, called once per alarm as it is
    /// raised (in detection order, before [`OnlineMonitor::run`] returns
    /// its report). A step's alarms reach it once the next step has been
    /// simulated; their `detected_at` is still the step's own clock. The
    /// final [`MonitorReport`] still contains every alarm; the sink is for
    /// streaming consumers that cannot wait for the run to end.
    pub fn with_alarm_sink(mut self, sink: impl FnMut(&Alarm) + 'a) -> OnlineMonitor<'a, A> {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Runs the simulation to its configured duration, scoring snapshots
    /// as they finalise, and reports every alarm with its latency.
    pub fn run(self) -> MonitorReport {
        let stage = Extract {
            extractors: self
                .taps
                .iter()
                .map(|_| IncrementalExtractor::new())
                .collect(),
        };
        if self.parallelism.n_threads() < 2 {
            self.log.borrow_mut().link = Link::Inline {
                stage,
                rows: VecDeque::new(),
            };
            return self.drive();
        }
        std::thread::scope(|scope| {
            let (jobs, jobs_rx) = mpsc::sync_channel(CHUNKS_QUEUED);
            let (rows_tx, rows) = mpsc::channel();
            let (spent_tx, spent) = mpsc::channel();
            self.log.borrow_mut().link = Link::Worker { jobs, rows, spent };
            let worker = scope.spawn(move || stage.serve_jobs(jobs_rx, rows_tx, spent_tx));
            // `drive` consumes the monitor and with it the event log, so
            // the job channel closes and the worker returns when the run
            // ends or unwinds.
            let report = self.drive();
            match worker.join() {
                Ok(()) => report,
                // Re-raise the worker's own panic payload, as `map_chunks`
                // does.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }

    /// The run itself: simulate step *k + 1*, then score step *k*. If the
    /// worker hung up, no rows come back and `run` re-raises its panic.
    fn drive(mut self) -> MonitorReport {
        let duration = self.sim.config().duration;
        let step = SimTime::from_secs(MONITOR_STEP_SECS);
        // The clock of the step whose rows are still with the stage.
        let mut in_flight: Option<f64> = None;
        while self.sim.now() < duration {
            let next = (self.sim.now() + step).min(duration);
            self.sim.run_until(next);
            let now = self.sim.now();
            self.log.borrow_mut().hand_over(Job::Advance(now));
            if let Some(at) = in_flight.replace(now.as_secs()) {
                self.score_next(at);
            }
        }
        // Flush windows the watermark could not prove complete (e.g. the
        // final snapshot's velocity winner). This is a hand-off of its
        // own, scored after the last step's rows: merging the two would
        // reorder alarms across taps.
        self.log.borrow_mut().hand_over(Job::Finish(duration));
        if let Some(at) = in_flight {
            self.score_next(at);
        }
        self.score_next(duration.as_secs());
        MonitorReport {
            alarms: self.alarms,
            series: self
                .taps
                .into_iter()
                .map(|t| NodeScoreSeries {
                    node: t.node,
                    series: t.series,
                })
                .collect(),
        }
    }

    /// Collects the stage's oldest rows, if the worker has not hung up,
    /// and scores them as of `now_secs`.
    fn score_next(&mut self, now_secs: f64) {
        let rows = self.log.borrow_mut().next_rows();
        if let Some(rows) = rows {
            self.score_ready(rows, now_secs);
        }
    }

    /// Scores one hand-off's rows tap by tap. Extractors are independent,
    /// so this preserves the per-tap score and alarm order of the batch
    /// pipeline.
    fn score_ready(&mut self, rows: StepRows, now_secs: f64) {
        for (tap, rows) in self.taps.iter_mut().zip(rows) {
            for row in rows {
                self.discretizer
                    .transform_row_into(&row.values, &mut self.row_buf);
                let raw = self.detector.score_with(&self.row_buf, &mut self.score_buf);
                tap.recent.push_back(raw);
                if tap.recent.len() > self.smoothing {
                    tap.recent.pop_front();
                }
                // Oldest-to-newest sum: the exact float order of the batch
                // pipeline's trailing moving average.
                let smoothed = tap.recent.iter().sum::<f64>() / tap.recent.len() as f64;
                tap.series.push((row.time, smoothed));
                if self.detector.verdict(smoothed) == Verdict::Anomaly {
                    let alarm = Alarm {
                        node: tap.node,
                        snapshot_time: row.time,
                        detected_at: now_secs,
                        score: smoothed,
                    };
                    if let Some(sink) = self.sink.as_mut() {
                        sink(&alarm);
                    }
                    self.alarms.push(alarm);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ScoreMethod;
    use cfa_ml::{AnyLearner, NaiveBayes};
    use manet_features::FeatureExtractor;
    use manet_sim::agent::FloodAgent;
    use manet_sim::app::{App, AppCtx, AppData, AppKind, FlowId};
    use manet_sim::SimConfig;

    /// A periodic constant-bit-rate source driving steady traffic.
    struct Cbr {
        node: NodeId,
        dst: NodeId,
        period: f64,
        seq: u32,
    }

    impl App for Cbr {
        fn node(&self) -> NodeId {
            self.node
        }
        fn flow(&self) -> FlowId {
            FlowId(1)
        }
        fn start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.schedule_tick(SimTime::from_secs(self.period), 0);
        }
        fn on_tick(&mut self, ctx: &mut AppCtx<'_>, _tag: u32) {
            ctx.send_data(
                self.dst,
                256,
                AppData {
                    flow: FlowId(1),
                    seq: self.seq,
                    kind: AppKind::Cbr,
                },
            );
            self.seq += 1;
            ctx.schedule_tick(SimTime::from_secs(self.period), 0);
        }
        fn on_receive(&mut self, _ctx: &mut AppCtx<'_>, _d: AppData, _s: u32, _f: NodeId) {}
    }

    fn sim_with_traffic(seed: u64, duration: f64) -> Simulator<FloodAgent> {
        sim_sampling_every(seed, duration, 5.0)
    }

    /// [`sim_with_traffic`] with mobility sampled every `interval` seconds.
    fn sim_sampling_every(seed: u64, duration: f64, interval: f64) -> Simulator<FloodAgent> {
        let mut cfg = SimConfig::builder()
            .nodes(8)
            .field(150.0, 150.0)
            .range(250.0)
            .duration_secs(duration)
            .base_loss(0.0)
            .seed(seed)
            .build();
        cfg.mobility_sample_interval = SimTime::from_secs(interval);
        let mut sim = Simulator::new(cfg, |_| FloodAgent::new());
        sim.add_app(Box::new(Cbr {
            node: NodeId(0),
            dst: NodeId(5),
            period: 0.8,
            seq: 0,
        }));
        sim
    }

    /// The batch pipeline's trailing moving average, verbatim.
    fn smooth(scores: &[f64], k: usize) -> Vec<f64> {
        if k <= 1 {
            return scores.to_vec();
        }
        scores
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let lo = i.saturating_sub(k - 1);
                let w = &scores[lo..=i];
                w.iter().sum::<f64>() / w.len() as f64
            })
            .collect()
    }

    #[test]
    fn monitor_alarms_match_post_hoc_scoring_of_the_same_run() {
        let duration = 120.0;
        let node = NodeId(5);
        let smoothing = 3;

        // Train on one run's trace, from the monitored node's vantage.
        let mut train_sim = sim_with_traffic(11, duration);
        train_sim.run();
        let train_matrix =
            FeatureExtractor::new().extract(train_sim.trace(node), SimTime::from_secs(duration));
        let disc = EqualFrequencyDiscretizer::fit(&train_matrix, 5, None, 7);
        let table = disc.transform(&train_matrix).expect("schema");
        let detector = AnomalyDetector::fit(
            &AnyLearner::Bayes(NaiveBayes::default()),
            &table,
            ScoreMethod::AvgProbability,
            0.2,
        );

        // Post-hoc reference: replay an identical run through the
        // interpreted ensemble.
        let mut batch_sim = sim_with_traffic(23, duration);
        batch_sim.run();
        let matrix =
            FeatureExtractor::new().extract(batch_sim.trace(node), SimTime::from_secs(duration));
        let batch_table = disc.transform(&matrix).expect("schema");
        let raw: Vec<f64> = batch_table
            .to_rows()
            .iter()
            .map(|r| detector.model().score(r, ScoreMethod::AvgProbability))
            .collect();
        let expected_scores = smooth(&raw, smoothing);
        let expected_alarm_times: Vec<f64> = matrix
            .times
            .iter()
            .zip(&expected_scores)
            .filter(|&(_, &s)| s < detector.threshold())
            .map(|(&t, _)| t)
            .collect();

        // Streamed: the same run, scored live.
        let report = OnlineMonitor::new(sim_with_traffic(23, duration), &[node], &detector, &disc)
            .with_smoothing(smoothing)
            .run();

        assert_eq!(report.series.len(), 1);
        let series = &report.series[0].series;
        assert_eq!(
            series.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            matrix.times,
            "one scored snapshot per batch row"
        );
        for (&(t, s), &e) in series.iter().zip(&expected_scores) {
            assert!(
                s.to_bits() == e.to_bits(),
                "smoothed score diverged at t={t}: {s} != {e}"
            );
        }
        let got_alarm_times: Vec<f64> = report.alarms.iter().map(|a| a.snapshot_time).collect();
        assert_eq!(got_alarm_times, expected_alarm_times);
        for a in &report.alarms {
            assert_eq!(a.node, node);
            assert!(
                a.latency() >= 0.0 && a.latency() <= MONITOR_STEP_SECS,
                "alarm latency {} outside one monitor step",
                a.latency()
            );
        }
    }

    #[test]
    fn alarm_sink_sees_every_alarm_live_and_in_order() {
        let duration = 120.0;
        let node = NodeId(5);
        let mut train_sim = sim_with_traffic(11, duration);
        train_sim.run();
        let m =
            FeatureExtractor::new().extract(train_sim.trace(node), SimTime::from_secs(duration));
        let disc = EqualFrequencyDiscretizer::fit(&m, 5, None, 7);
        let table = disc.transform(&m).expect("schema");
        let det = AnomalyDetector::fit(
            &AnyLearner::Bayes(NaiveBayes::default()),
            &table,
            ScoreMethod::AvgProbability,
            0.2,
        );
        let streamed: RefCell<Vec<Alarm>> = RefCell::new(Vec::new());
        let report = OnlineMonitor::new(sim_with_traffic(23, duration), &[node], &det, &disc)
            .with_smoothing(3)
            .with_alarm_sink(|a| streamed.borrow_mut().push(*a))
            .run();
        assert!(!report.alarms.is_empty(), "fixture must raise alarms");
        assert_eq!(streamed.into_inner(), report.alarms);
    }

    /// A detector trained on node 5 of a 120 s run whose threshold
    /// passes only the top tenth of training scores, so most rows alarm.
    fn loose_detector() -> (EqualFrequencyDiscretizer, AnomalyDetector) {
        let mut train_sim = sim_with_traffic(11, 120.0);
        train_sim.run();
        let m =
            FeatureExtractor::new().extract(train_sim.trace(NodeId(5)), SimTime::from_secs(120.0));
        let disc = EqualFrequencyDiscretizer::fit(&m, 5, None, 7);
        let table = disc.transform(&m).expect("schema");
        let det = AnomalyDetector::fit(
            &AnyLearner::Bayes(NaiveBayes::default()),
            &table,
            ScoreMethod::AvgProbability,
            0.9,
        );
        (disc, det)
    }

    #[test]
    #[should_panic(expected = "subscriber gone")]
    fn a_panicking_alarm_sink_unwinds_past_the_worker() {
        // The panic leaves `run` while the worker waits for jobs: it must
        // be released (the event log dropped), not joined forever.
        let (disc, det) = loose_detector();
        OnlineMonitor::new(sim_with_traffic(23, 60.0), &[NodeId(5)], &det, &disc)
            .with_parallelism(Parallelism::threads(2))
            .with_alarm_sink(|_| panic!("subscriber gone"))
            .run();
    }

    #[test]
    fn end_of_run_flush_is_scored_after_the_last_step_of_every_tap() {
        // Mobility sampled every 3 s in a 25 s run: the last step settles
        // each node's 20 s snapshot (its nearest sample is at 21 s), and
        // only the end-of-run flush emits the 25 s one (24 s ties 26 s,
        // which never comes). A loose threshold makes most rows alarm.
        let duration = 25.0;
        let (disc, det) = loose_detector();
        let monitored: Vec<NodeId> = (0..8).map(NodeId).collect();
        let run = |par: Parallelism| {
            OnlineMonitor::new(
                sim_sampling_every(23, duration, 3.0),
                &monitored,
                &det,
                &disc,
            )
            .with_parallelism(par)
            .run()
        };
        let report = run(Parallelism::serial());
        assert_eq!(report, run(Parallelism::threads(2)));
        let at_end: Vec<f64> = report
            .alarms
            .iter()
            .filter(|a| a.detected_at == duration)
            .map(|a| a.snapshot_time)
            .collect();
        let count = |t: f64| at_end.iter().filter(|&&s| s == t).count();
        assert!(count(20.0) >= 2 && count(25.0) >= 2, "fixture: {at_end:?}");
        // Every tap's last-step alarm precedes every tap's flushed one.
        assert!(at_end.windows(2).all(|w| w[0] <= w[1]), "{at_end:?}");
    }

    #[test]
    fn quiet_runs_raise_no_alarms_on_their_own_profile() {
        let duration = 100.0;
        let node = NodeId(5);
        let mut train_sim = sim_with_traffic(3, duration);
        train_sim.run();
        let m =
            FeatureExtractor::new().extract(train_sim.trace(node), SimTime::from_secs(duration));
        let disc = EqualFrequencyDiscretizer::fit(&m, 5, None, 1);
        let table = disc.transform(&m).expect("schema");
        let det = AnomalyDetector::fit(
            &AnyLearner::Bayes(NaiveBayes::default()),
            &table,
            ScoreMethod::AvgProbability,
            0.0,
        );
        // Same seed => same run: with a 0 false-alarm budget the threshold
        // sits at the minimum training score, so nothing can dip below it.
        let report = OnlineMonitor::new(sim_with_traffic(3, duration), &[node], &det, &disc).run();
        assert!(report.alarms.is_empty(), "alarms: {:?}", report.alarms);
        assert_eq!(report.series[0].series.len(), 20);
    }
}
