//! `fleet`: corpus generation at scale. `run_fleet` simulates a 500-node
//! world at the paper's density with a black hole, for two seeds, observed
//! from two vantages each, on `nproc` threads. It is the only workload
//! where the spatial grid, the contention window and the `map_chunks`
//! fan-out matter; extraction is a few snapshots per vantage.

use crate::common::{another_rep, paper_world, run_matrices, set_up, Ctx};
use crate::stats;
use crate::Report;
use manet_cfa::fleet::{run_fleet, FleetSpec};
use manet_cfa::scenario::Attack;
use manet_cfa::sim::NodeId;
use std::time::{Duration, Instant};

const NODES: u16 = 500;
/// Simulated seconds per run: four snapshots per vantage.
const SECS: f64 = 20.0;
/// The set-up run: the same fleet over a short horizon, which builds the
/// worlds and runs route start-up without the measured traffic.
const SETUP_SECS: f64 = 1.0;
const SEEDS: u64 = 2;
const VANTAGES: [NodeId; 2] = [NodeId(0), NodeId(250)];

fn spec(ctx: &Ctx, secs: f64) -> FleetSpec {
    FleetSpec {
        base: paper_world(secs, 0)
            .with_scale(NODES)
            .with_attack(Attack::blackhole_at(&[secs / 4.0])),
        seeds: (0..SEEDS).map(|i| ctx.scenario_seed(3 + i)).collect(),
        vantages: VANTAGES.to_vec(),
        parallelism: ctx.par(),
    }
}

pub fn run(ctx: &mut Ctx, report: &mut Report) {
    set_up(ctx, report, |ctx| {
        let short = spec(ctx, SETUP_SECS);
        ctx.tracer.span("fleet:run_fleet", || run_fleet(&short));
    });
    let spec = spec(ctx, SECS);

    let open = ctx.tracer.begin("bench:measure");
    let start = Instant::now();
    let mut times: Vec<Duration> = Vec::new();
    let mut checksums = Vec::new();
    let mut result = None;
    while another_rep(ctx, start, &times) {
        let rep = Instant::now();
        let r = ctx.tracer.span("fleet:run_fleet", || run_fleet(&spec));
        times.push(rep.elapsed());
        checksums.push(r.checksum());
        result = Some(r);
    }
    ctx.tracer.end(open);
    let result = result.expect("at least one repetition");
    report.attempted = times.len() as u64 * SEEDS;

    let mut secs: Vec<f64> = times.iter().map(|d| stats::secs(*d)).collect();
    let rep_s = stats::median(&mut secs);
    report.set("sim_s_per_s", SEEDS as f64 * SECS / rep_s, "1/s");
    report.set("work_per_s", SEEDS as f64 * SECS / rep_s, "1/s");
    report.set("op_p50_ms", rep_s * 1e3, "ms");
    let mut ms: Vec<f64> = times.iter().map(|d| stats::ms(*d)).collect();
    report.set("op_p99_ms", stats::percentile(&mut ms, 0.99), "ms");
    report.set("fleet.reps", times.len() as f64, "count");
    report.set("fleet.rows", result.total_rows() as f64, "count");

    let open = ctx.tracer.begin("bench:check");
    let checksum = checksums[0];
    report.check(
        checksums.iter().all(|&c| c == checksum),
        "every repetition has the same fleet checksum",
    );
    println!("fleet checksum {checksum:016x}");
    if ctx.tracer.enabled() {
        // Each seed's `Scenario::run_nodes`, rebuilt and run serially:
        // simulation and extraction get their own spans, the matrices must
        // equal the fleet's, and the serial total against threads × wall
        // is the fan-out's parallel efficiency.
        let serial = Instant::now();
        for run in &result.runs {
            let scenario = spec.base.clone().with_seed(run.seed);
            let matrices = run_matrices(ctx, &scenario, &spec.vantages);
            let same = matrices.iter().zip(&run.bundles).all(|(m, b)| {
                m.times == b.matrix.times
                    && m.rows.iter().flatten().map(|v| v.to_bits()).eq(b
                        .matrix
                        .rows
                        .iter()
                        .flatten()
                        .map(|v| v.to_bits()))
            });
            report.check(
                same,
                format!("serial rebuild of seed {} equals the fleet's", run.seed),
            );
        }
        let serial = serial.elapsed().as_secs_f64();
        report.set("fleet.serial_s", serial, "s");
        report.set("fleet.run_s", rep_s, "s");
        report.set(
            "fleet.parallel_eff",
            serial / (ctx.nproc as f64 * rep_s),
            "frac",
        );
    }
    ctx.tracer.end(open);
    report.checksum = checksum;
}
