//! What the workloads share: the run context, repeated set-up, scenario
//! construction, training helpers, and the per-layer summary of a trace.

use crate::stats;
use crate::trace::Tracer;
use crate::Report;
use manet_cfa::core::{
    fit_threshold, AnomalyDetector, CrossFeatureModel, ModelArtifact, Parallelism, ScoreMethod,
};
use manet_cfa::features::{
    EqualFrequencyDiscretizer, FeatureExtractor, FeatureMatrix, FeatureSpec,
};
use manet_cfa::pipeline::{ClassifierKind, DynLearner, Pipeline, TrainedPipeline};
use manet_cfa::scenario::{Protocol, Scenario, TraceBundle, Transport};
use manet_cfa::sim::{Agent, NodeId, NullSink, SimTime, Simulator};
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and its median reported,
/// so work moved into set-up shows in `setup_s` without one slow start
/// deciding the number.
pub const SETUP_REPS: usize = 3;

/// Simulated seconds of normal traffic every detector is trained on: six
/// vantages, one row per 5 s each, 720 rows.
pub const TRAIN_SECS: f64 = 600.0;

/// The compromised node of every attacked scenario
/// (`Attack::DEFAULT_ATTACKER`).
pub const ATTACKER: NodeId = NodeId(7);

pub struct Ctx {
    pub seed: u64,
    /// How long the measured phase runs.
    pub budget: Duration,
    /// Thread budget handed to every API that takes one.
    pub nproc: usize,
    pub tracer: Tracer,
}

impl Ctx {
    pub fn par(&self) -> Parallelism {
        Parallelism::threads(self.nproc)
    }

    /// A scenario seed derived from the workload seed; `stream` keeps the
    /// training, held-out and monitored runs of one seed distinct.
    pub fn scenario_seed(&self, stream: u64) -> u64 {
        self.seed.wrapping_mul(16).wrapping_add(stream)
    }
}

/// Runs `build` [`SETUP_REPS`] times, each in its own root span, reports
/// the median as `setup_s`, and returns the last result. Earlier results
/// are dropped before the next build starts.
pub fn set_up<T>(ctx: &mut Ctx, report: &mut Report, mut build: impl FnMut(&mut Ctx) -> T) -> T {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let open = ctx.tracer.begin("bench:setup");
        let start = Instant::now();
        last = Some(build(ctx));
        times.push(start.elapsed().as_secs_f64());
        ctx.tracer.end(open);
    }
    report.set("setup_s", stats::median(&mut times), "s");
    report.set("rss_after_setup_mb", stats::peak_rss_mb(), "MB");
    last.expect("SETUP_REPS is positive")
}

/// Whether another repetition fits in the measured phase: one always
/// runs, and one that would end past the budget, judged by the length of
/// the last, does not start.
pub fn another_rep(ctx: &Ctx, start: Instant, times: &[Duration]) -> bool {
    times
        .last()
        .is_none_or(|&last| start.elapsed() + last <= ctx.budget)
}

/// The paper's AODV/CBR world (50 nodes on 1000 m × 1000 m) for `secs`
/// simulated seconds.
pub fn paper_world(secs: f64, seed: u64) -> Scenario {
    Scenario::paper_default(Protocol::Aodv, Transport::Cbr)
        .with_duration(secs)
        .with_seed(seed)
}

/// Every node of `scenario` except the attacker.
pub fn honest_nodes(scenario: &Scenario) -> Vec<NodeId> {
    (0..scenario.n_nodes)
        .map(NodeId)
        .filter(|&n| n != ATTACKER)
        .collect()
}

/// Simulates `scenario` and extracts one feature matrix per vantage.
/// Untraced this is `Scenario::run_nodes`; traced it is rebuilt from the
/// public pieces so simulation and extraction get their own spans.
pub fn run_matrices(ctx: &mut Ctx, scenario: &Scenario, vantages: &[NodeId]) -> Vec<FeatureMatrix> {
    if !ctx.tracer.enabled() {
        return scenario
            .run_nodes(vantages)
            .into_iter()
            .map(|b| b.matrix)
            .collect();
    }
    let tracer = &mut ctx.tracer;
    let mut sim = tracer.span("sim:build", || scenario.build_aodv());
    for i in 0..scenario.n_nodes {
        if !vantages.contains(&NodeId(i)) {
            sim.set_sink(NodeId(i), Box::new(NullSink));
        }
    }
    tracer.span("sim:run", || sim.run());
    count_sim(tracer, &sim);
    let duration = SimTime::from_secs(scenario.duration_secs);
    vantages
        .iter()
        .map(|&node| {
            let trace = sim.trace(node);
            let events =
                trace.packet_events.len() + trace.route_events.len() + trace.mobility.len();
            tracer.count("features.extract.events_ingested", events as f64);
            let matrix = tracer.span("features.extract:batch", || {
                FeatureExtractor::new().extract(trace, duration)
            });
            tracer.count("features.extract.snapshots", matrix.n_rows() as f64);
            matrix
        })
        .collect()
}

/// Adds a finished simulator's kernel counters to the trace.
pub fn count_sim<A: Agent>(tracer: &mut Tracer, sim: &Simulator<A>) {
    let (delivered, lost) = sim.frame_stats();
    tracer.count("sim.events", sim.events_processed() as f64);
    tracer.count("sim.frames_delivered", delivered as f64);
    tracer.count("sim.frames_lost", lost as f64);
}

/// Normal training bundles from the pipeline's default training vantages
/// of one simulated run — what `Pipeline::run` trains on.
pub fn normal_bundles(ctx: &mut Ctx, scenario: &Scenario) -> Vec<TraceBundle> {
    assert!(!scenario.is_attacked(), "training data must be normal");
    let nodes = Pipeline::default_train_nodes(scenario.n_nodes);
    if !ctx.tracer.enabled() {
        return scenario.run_nodes(&nodes);
    }
    let matrices = run_matrices(ctx, scenario, &nodes);
    nodes
        .iter()
        .zip(matrices)
        .map(|(&node, matrix)| TraceBundle {
            labels: vec![false; matrix.n_rows()],
            matrix,
            scenario: scenario.clone().with_monitored(node),
        })
        .collect()
}

/// The pipeline every workload trains: the paper's defaults with
/// Algorithm 3 scoring and the benchmark's thread budget.
pub fn pipeline(ctx: &Ctx, kind: ClassifierKind) -> Pipeline {
    Pipeline::new(kind, ScoreMethod::AvgProbability).with_parallelism(ctx.par())
}

pub fn train_span(kind: ClassifierKind) -> &'static str {
    match kind {
        ClassifierKind::C45 => "ml.train:c45",
        ClassifierKind::Ripper => "ml.train:ripper",
        ClassifierKind::NaiveBayes => "ml.train:nbc",
    }
}

/// Fits a pipeline, saves it, loads it back and compiles it: what a node
/// does between normal traffic and a deployable detector. Untraced this is
/// `Pipeline::fit` + `TrainedPipeline::save`; traced it is [`fit_rebuilt`].
/// Returns the artifact bytes and the loaded, compiled pipeline.
pub fn fit_and_deploy(
    ctx: &mut Ctx,
    kind: ClassifierKind,
    bundles: &[TraceBundle],
) -> (Vec<u8>, TrainedPipeline) {
    let artifact = if ctx.tracer.enabled() {
        fit_rebuilt(ctx, kind, bundles)
    } else {
        pipeline(ctx, kind).fit(bundles).to_artifact()
    };
    deploy(ctx, &artifact)
}

/// `Pipeline::fit` rebuilt from its public pieces, with a span around
/// each: discretizer fit and transform, Algorithm 1, the training-table
/// scoring and smoothing that set θ, and the artifact `save` writes.
pub fn fit_rebuilt(ctx: &mut Ctx, kind: ClassifierKind, bundles: &[TraceBundle]) -> ModelArtifact {
    let p = pipeline(ctx, kind);
    let t = &mut ctx.tracer;
    let matrix = t.span("bench:concat", || {
        let mut m = bundles[0].matrix.clone();
        for b in &bundles[1..] {
            m.rows.extend(b.matrix.rows.iter().cloned());
            m.times.extend(b.matrix.times.iter().copied());
        }
        m
    });
    let seed = bundles[0].scenario.seed;
    let disc = t.span("features.discretize:fit", || {
        EqualFrequencyDiscretizer::fit(&matrix, p.n_buckets, p.discretizer_sample, seed)
    });
    t.count("features.discretize.fits", 1.0);
    let table = t.span("features.discretize:transform", || {
        disc.transform(&matrix)
            .expect("discretizer fitted on this matrix")
    });
    t.count("features.discretize.rows", matrix.n_rows() as f64);
    let model = t.span(train_span(kind), || {
        CrossFeatureModel::train_with(&DynLearner(kind), &table, p.parallelism)
    });
    t.count("ml.train.models", 1.0);
    let scores = t.span("core.threshold:score", || {
        model.scores_with(&table, p.method, p.parallelism)
    });
    let fitted = t.span("core.threshold:fit", || {
        fit_threshold(&smooth(&scores, p.smoothing), p.false_alarm_rate)
    });
    ModelArtifact {
        spec: Some(FeatureSpec::new()),
        discretizer: disc,
        detector: AnomalyDetector::with_threshold(model, p.method, fitted.threshold),
        fitted,
        smoothing: p.smoothing.max(1) as u32,
    }
}

/// Saves an artifact, loads it back and compiles it.
pub fn deploy(ctx: &mut Ctx, artifact: &ModelArtifact) -> (Vec<u8>, TrainedPipeline) {
    let mut bytes = Vec::new();
    ctx.tracer
        .span("core.persist:save", || artifact.save(&mut bytes))
        .expect("saving to memory");
    ctx.tracer.count("core.persist.bytes", bytes.len() as f64);
    let par = ctx.par();
    let mut loaded = ctx.tracer.span("core.persist:load", || {
        let artifact = ModelArtifact::load(&mut bytes.as_slice()).expect("artifact just saved");
        TrainedPipeline::from_artifact(artifact, par)
    });
    ctx.tracer.span("core.persist:compile", || loaded.compile());
    (bytes, loaded)
}

/// Trailing moving average, in the float order `Pipeline::fit` and the
/// online monitor use.
pub fn smooth(scores: &[f64], k: usize) -> Vec<f64> {
    (0..scores.len())
        .map(|i| {
            let w = &scores[i.saturating_sub(k.max(1) - 1)..=i];
            w.iter().sum::<f64>() / w.len() as f64
        })
        .collect()
}

/// Turns the trace into per-layer metrics: each layer's share of the
/// traced wall time, its work counts, and its work per busy second.
pub fn layer_report(ctx: &Ctx, report: &mut Report) {
    let t = &ctx.tracer;
    let (layers, roots, uncovered) = t.self_times();
    let wall = roots.as_secs_f64().max(1e-9);
    let busy = |layer: &str| layers.get(layer).map_or(0.0, Duration::as_secs_f64);
    for layer in [
        "sim",
        "features.extract",
        "features.discretize",
        "ml.train",
        "core.threshold",
        "ml.score",
        "core.persist",
        "serve",
        "fleet",
        "bench",
    ] {
        report.set(format!("share.{layer}"), busy(layer) / wall, "frac");
    }
    report.set(
        "trace.accounted_frac",
        1.0 - uncovered.as_secs_f64() / wall,
        "frac",
    );
    if report.get("tracing.overhead_frac").is_none() {
        // No untraced twin ran: estimate from what a span costs to record.
        let cost = t.timed_intervals() as f64 * crate::trace::span_cost().as_secs_f64();
        report.set("tracing.overhead_frac", cost / wall, "frac");
    }
    let per_s = |work: f64, secs: f64| if secs > 0.0 { work / secs } else { 0.0 };
    let total = |name: &str| t.total(name).0.as_secs_f64();

    let sim_busy = busy("sim");
    report.set("sim.busy_s", sim_busy, "s");
    for name in ["sim.events", "sim.frames_delivered", "sim.frames_lost"] {
        report.set(name, t.counter(name), "count");
    }
    report.set(
        "sim.events_per_s",
        per_s(t.counter("sim.events"), sim_busy),
        "1/s",
    );

    let extract_busy = busy("features.extract");
    let snapshots = t.counter("features.extract.snapshots");
    report.set("features.extract.busy_s", extract_busy, "s");
    for name in [
        "features.extract.events_ingested",
        "features.extract.snapshots",
        "features.extract.retained_events_max",
    ] {
        report.set(name, t.counter(name), "count");
    }
    report.set(
        "features.extract.us_per_snapshot",
        per_s(extract_busy * 1e6, snapshots),
        "us",
    );

    let rows = t.counter("features.discretize.rows");
    report.set("features.discretize.rows", rows, "count");
    report.set(
        "features.discretize.rows_per_s",
        per_s(rows, total("features.discretize:transform")),
        "1/s",
    );
    report.set(
        "features.discretize.fits",
        t.counter("features.discretize.fits"),
        "count",
    );
    report.set(
        "features.discretize.fit_s",
        total("features.discretize:fit"),
        "s",
    );

    let single = t.counter("ml.score.single_rows");
    let batch = t.counter("ml.score.batch_rows");
    report.set("ml.score.rows", single + batch, "count");
    report.set(
        "ml.score.single_rows_per_s",
        per_s(single, total("ml.score:single")),
        "1/s",
    );
    report.set(
        "ml.score.batch_rows_per_s",
        per_s(batch, total("ml.score:batch")),
        "1/s",
    );
    report.set(
        "ml.score.alarm_share",
        per_s(t.counter("ml.score.alarms"), single + batch),
        "frac",
    );

    report.set("ml.train.models", t.counter("ml.train.models"), "count");
    for (kind, share) in [
        (ClassifierKind::C45, "ml.train.c45_share"),
        (ClassifierKind::Ripper, "ml.train.ripper_share"),
        (ClassifierKind::NaiveBayes, "ml.train.nbc_share"),
    ] {
        report.set(share, total(train_span(kind)) / wall, "frac");
    }
    report.set(
        "core.persist.bytes",
        t.counter("core.persist.bytes"),
        "count",
    );

    // The same layers in their natural units, printed for reading; zero
    // where the workload did not run the layer.
    let per = |name: &str, scale: f64| {
        let (total, n) = t.total(name);
        per_s(total.as_secs_f64() * scale, n as f64)
    };
    report.set(
        "features.discretize.ns_per_row",
        per_s(1e9, per_s(rows, total("features.discretize:transform"))),
        "ns",
    );
    report.set(
        "ml.score.single_us_per_row",
        per_s(total("ml.score:single") * 1e6, single),
        "us",
    );
    report.set(
        "ml.score.batch_us_per_row",
        per_s(total("ml.score:batch") * 1e6, batch),
        "us",
    );
    for (kind, name) in [
        (ClassifierKind::C45, "ml.train.c45_s"),
        (ClassifierKind::Ripper, "ml.train.ripper_s"),
        (ClassifierKind::NaiveBayes, "ml.train.nbc_s"),
    ] {
        report.set(name, per(train_span(kind), 1.0), "s");
    }
    report.set("core.threshold_s", busy("core.threshold"), "s");
    report.set("core.persist.save_ms", per("core.persist:save", 1e3), "ms");
    report.set("core.persist.load_ms", per("core.persist:load", 1e3), "ms");
    report.set(
        "core.persist.compile_ms",
        per("core.persist:compile", 1e3),
        "ms",
    );
    report.set("serve.load_ms", per("core.persist:serve_load", 1e3), "ms");
}
