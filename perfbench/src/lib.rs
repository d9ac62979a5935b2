//! The workspace benchmark: four workloads drawn from the paper's
//! applications, each timed end to end from one process, with a separate
//! traced run that times every layer of the workspace from outside, around
//! the calls into its public functions.
//!
//! See `README.md` in this directory for the metric definitions and the
//! layer-to-end-to-end map.

pub mod checks;
mod fdm;
mod noise;
pub mod probe;
mod qaoa;
pub mod report;
mod service;
pub mod stats;
pub mod trace;

use ghs_circuit::{exchange_count, Circuit, QubitRelabeling};
use ghs_hubo::{random_sparse_hubo, HuboProblem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{Span, Tracer};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "qaoa_hubo_12",
    "fdm_trotter_22",
    "service_mix",
    "noise_stabilizer",
];

/// Episodes every run measures, however short `--seconds` is (two, so a
/// traced run has one traced and one untraced episode).
const MIN_EPISODES: usize = 2;

/// Command-line settings of one run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Seconds to keep starting new episodes for.
    pub seconds: f64,
    /// Traced run: record spans and report per-layer metrics.
    pub trace: bool,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Run {
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each untraced episode, in seconds.
    pub episode_s: Vec<f64>,
    /// Wall time of each traced episode, in seconds.
    pub traced_episode_s: Vec<f64>,
    /// Latency of each iteration, in milliseconds, in time order.
    pub iter_ms: Vec<f64>,
    /// Iterations per second of each untraced episode, counting every
    /// concurrent client.
    pub episode_rate: Vec<f64>,
    /// Wall time of the measured phase, in seconds.
    pub measured_s: f64,
    /// Output checks made.
    pub attempted: u64,
    /// Output checks failed.
    pub failed: u64,
    /// Spans of the last set-up (traced runs only).
    pub setup_spans: Vec<Span>,
    /// Spans of the traced episodes.
    pub spans: Vec<Span>,
    /// Per-layer metric values.
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form facts for the detail line.
    pub notes: Vec<(&'static str, String)>,
}

impl Run {
    /// Records one output check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Runs `episode` until `cfg.seconds` have passed, at least
/// [`MIN_EPISODES`] times. `episode` returns the seconds of its timed part,
/// so checks it makes afterwards stay out of the timings. In a traced run
/// every second episode records spans; the others measure the same work
/// untraced, which gives the tracing overhead.
pub fn measure(
    cfg: &Config,
    run: &mut Run,
    tracer: &mut Tracer,
    mut episode: impl FnMut(&mut Tracer, &mut Run, usize) -> f64,
) {
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_EPISODES || start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && i % 2 == 1;
        tracer.set_enabled(traced);
        let before = run.iter_ms.len();
        let seconds = episode(tracer, run, i);
        if traced {
            run.traced_episode_s.push(seconds);
        } else {
            run.episode_s.push(seconds);
            run.episode_rate
                .push((run.iter_ms.len() - before) as f64 / seconds);
        }
        i += 1;
    }
    run.measured_s = start.elapsed().as_secs_f64();
    tracer.set_enabled(false);
    run.spans = tracer.spans().to_vec();
}

/// Runs `f` `times` times, timing each; returns the last result.
pub fn repeat_setup<T>(
    run: &mut Run,
    times: usize,
    trace: bool,
    mut f: impl FnMut(&mut Tracer) -> T,
) -> T {
    let mut tracer = Tracer::new(false, Instant::now());
    let mut out = None;
    for i in 0..times {
        tracer.set_enabled(trace && i + 1 == times);
        let t0 = Instant::now();
        out = Some(f(&mut tracer));
        run.setup_s.push(t0.elapsed().as_secs_f64());
    }
    run.setup_spans = tracer.spans().to_vec();
    out.expect("at least one set-up")
}

/// The paper's resource counts and the fusion plan of a workload's main
/// circuit, exact.
pub fn circuit_layers(run: &mut Run, circuit: &Circuit) {
    let counts = circuit.counts();
    let fused = circuit.fused();
    let shard_bits = ghs_statevector::shard_count_for(circuit.num_qubits()).trailing_zeros();
    let relabeled = fused.relabeled(&QubitRelabeling::for_sharding(&fused));
    let layers = &mut run.layers;
    for (name, v) in [
        ("circuit.gates", counts.total),
        ("circuit.rotations", counts.rotations),
        ("circuit.two_qubit", counts.two_qubit),
        ("circuit.multi_controlled", counts.multi_controlled),
        ("circuit.depth", counts.depth),
        ("circuit.fused_ops", fused.ops().len()),
        (
            "circuit.exchange_ops",
            exchange_count(&relabeled, shard_bits as usize),
        ),
    ] {
        layers.insert(name, v as f64);
    }
    layers.insert("circuit.fusion_ratio", fused.fusion_ratio());
    for (kind, count) in fused.kind_histogram() {
        if let Some((name, _)) = report::PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_prefix("circuit.ops.") == Some(kind))
        {
            layers.insert(name, count as f64);
        }
    }
}

/// Seed of the monomial structure of the shared HUBO instances. `--seed`
/// varies their weights, angles and start points but not their structure,
/// so every seed does the same work and run-to-run spread is the machine's.
const HUBO_STRUCTURE_SEED: u64 = 0x4855_424f;

/// A sparse HUBO over `vars` variables with `terms` monomials of order
/// `order`: the monomials are fixed, the weights drawn from `rng`.
pub fn hubo_instance(vars: usize, order: usize, terms: usize, rng: &mut StdRng) -> HuboProblem {
    let shape = random_sparse_hubo(
        vars,
        order,
        terms,
        &mut StdRng::seed_from_u64(HUBO_STRUCTURE_SEED),
    );
    let mut problem = HuboProblem::new(vars);
    for (monomial, _) in shape.terms() {
        problem.add_term(rng.gen_range(0.5..1.5), monomial);
    }
    problem
}

/// Runs workload `name`, or says why it cannot.
pub fn run_workload(name: &str, cfg: &Config) -> Result<Run, String> {
    match name {
        "qaoa_hubo_12" => Ok(qaoa::run(cfg)),
        "fdm_trotter_22" => Ok(fdm::run(cfg)),
        "service_mix" => Ok(service::run(cfg)),
        "noise_stabilizer" => Ok(noise::run(cfg)),
        other => Err(format!(
            "unknown workload `{other}`; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}
