//! `train`: the retrain path. Normal bundles are simulated during set-up;
//! each measured repetition fits C4.5, RIPPER and naive Bayes ensembles
//! (`Pipeline::fit`), saves, loads and compiles them. It is the only
//! workload where Algorithm 1 and threshold fitting dominate.

use crate::common::{
    another_rep, fit_and_deploy, normal_bundles, paper_world, pipeline, set_up, Ctx, TRAIN_SECS,
};
use crate::stats::{self, Fnv64};
use crate::Report;
use manet_cfa::core::ModelArtifact;
use manet_cfa::features::FeatureMatrix;
use manet_cfa::pipeline::{ClassifierKind, TrainedPipeline};
use std::time::Instant;

/// Rows re-scored after the timed phase to check persistence and
/// compilation.
const CHECK_ROWS: usize = 60;

pub fn run(ctx: &mut Ctx, report: &mut Report) {
    let bundles = set_up(ctx, report, |ctx| {
        normal_bundles(ctx, &paper_world(TRAIN_SECS, ctx.scenario_seed(1)))
    });
    let rows: usize = bundles.iter().map(|b| b.matrix.n_rows()).sum();
    report.set("train.rows", rows as f64, "count");

    let open = ctx.tracer.begin("bench:measure");
    let start = Instant::now();
    let mut times = Vec::new();
    let mut first: Option<Vec<Vec<u8>>> = None;
    let mut repeatable = true;
    let mut last: Vec<(Vec<u8>, TrainedPipeline)> = Vec::new();
    while another_rep(ctx, start, &times) {
        let rep = Instant::now();
        last = ClassifierKind::ALL
            .iter()
            .map(|&kind| fit_and_deploy(ctx, kind, &bundles))
            .collect();
        times.push(rep.elapsed());
        let bytes: Vec<Vec<u8>> = last.iter().map(|(b, _)| b.clone()).collect();
        match &first {
            None => first = Some(bytes),
            Some(f) => repeatable &= *f == bytes,
        }
    }
    ctx.tracer.end(open);
    report.attempted = (times.len() * ClassifierKind::ALL.len()) as u64;

    let mut secs: Vec<f64> = times.iter().map(|d| stats::secs(*d)).collect();
    let train_s = stats::median(&mut secs);
    report.set("train_s", train_s, "s");
    report.set(
        "work_per_s",
        ClassifierKind::ALL.len() as f64 / train_s,
        "1/s",
    );
    report.set("op_p50_ms", train_s * 1e3, "ms");
    let mut ms: Vec<f64> = times.iter().map(|d| stats::ms(*d)).collect();
    report.set("op_p99_ms", stats::percentile(&mut ms, 0.99), "ms");
    report.set("train.reps", times.len() as f64, "count");

    let open = ctx.tracer.begin("bench:check");
    report.check(
        repeatable,
        "every repetition writes the same three artifacts",
    );
    let sample = first_rows(&bundles[0].matrix, CHECK_ROWS);
    let mut digest = Fnv64::new();
    for ((bytes, loaded), kind) in last.iter().zip(ClassifierKind::ALL) {
        digest.bytes(bytes);
        // Reloading is lossless: the loaded pipeline saves the same bytes.
        let mut again = Vec::new();
        loaded.save(&mut again).expect("saving to memory");
        report.check(
            again == *bytes,
            format!("{} artifact survives save/load", kind.name()),
        );
        // Compiled scores equal the interpreted walk, bit for bit.
        let compiled = loaded.score_matrix_compiled(&sample);
        let interpreted = loaded.score_matrix(&sample);
        let same = compiled
            .iter()
            .zip(&interpreted)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        report.check(
            same,
            format!("{} compiled scores equal interpreted", kind.name()),
        );
    }
    if ctx.tracer.enabled() {
        check_rebuild(ctx, report, &bundles, &last, &mut secs);
    }
    ctx.tracer.end(open);
    report.checksum = digest.finish();
}

/// The traced repetitions ran `fit_rebuilt`; the public `Pipeline::fit`
/// must write the same bytes. Its time, next to the traced repetitions',
/// gives the tracing overhead.
fn check_rebuild(
    ctx: &mut Ctx,
    report: &mut Report,
    bundles: &[manet_cfa::scenario::TraceBundle],
    traced: &[(Vec<u8>, TrainedPipeline)],
    traced_secs: &mut [f64],
) {
    let open = ctx.tracer.begin("bench:reference");
    let start = Instant::now();
    let mut reference = Vec::new();
    for kind in ClassifierKind::ALL {
        let mut bytes = Vec::new();
        let fitted = pipeline(ctx, kind).fit(bundles);
        fitted.save(&mut bytes).expect("saving to memory");
        let artifact = ModelArtifact::load(&mut bytes.as_slice()).expect("artifact just saved");
        TrainedPipeline::from_artifact(artifact, ctx.par()).compile();
        reference.push(bytes);
    }
    let untraced = start.elapsed();
    ctx.tracer.end(open);
    for ((bytes, _), (kind, want)) in traced
        .iter()
        .zip(ClassifierKind::ALL.iter().zip(&reference))
    {
        report.check(
            bytes == want,
            format!("rebuilt {} fit equals Pipeline::fit", kind.name()),
        );
    }
    let traced = stats::median(traced_secs);
    report.set(
        "tracing.overhead_frac",
        traced / untraced.as_secs_f64().max(1e-9) - 1.0,
        "frac",
    );
}

fn first_rows(m: &FeatureMatrix, n: usize) -> FeatureMatrix {
    FeatureMatrix {
        names: m.names.clone(),
        times: m.times.iter().take(n).copied().collect(),
        rows: m.rows.iter().take(n).cloned().collect(),
    }
}
