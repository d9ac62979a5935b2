//! `noise_stabilizer`: the trajectory and stabilizer engines.
//!
//! Two seeded `TrajectoryNoise` expectation ensembles on one Trotter step of
//! the 10-qubit (5-site) Hubbard chain — amplitude damping, which takes the
//! general Kraus path, and depolarizing noise, which takes the Pauli path —
//! and Clifford shots through `StabilizerBackend::prepare` and
//! `sample_prepared` on `syndrome_circuit(256, ROUNDS)`. An iteration is one
//! round of all three; an episode is [`ROUNDS_PER_EPISODE`] rounds.

use crate::checks;
use crate::trace::Tracer;
use crate::{measure, repeat_setup, Config, Run};
use ghs_chemistry::hubbard_chain;
use ghs_circuit::Circuit;
use ghs_core::backend::{
    Backend, DensityMatrixBackend, InitialState, StabilizerBackend, TrajectoryNoise,
};
use ghs_core::{direct_product_formula, DirectOptions, ProductFormula};
use ghs_operators::{KrausChannel, NoiseModel};
use ghs_statevector::{derive_stream_seed, GroupedPauliSum};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Hubbard sites (two spin-orbitals, so two qubits, each).
pub const SITES: usize = 5;
/// Trajectories per ensemble call.
pub const TRAJECTORIES: usize = 2;
/// Syndrome register and rounds.
pub const SYNDROME_QUBITS: usize = 256;
/// Syndrome-extraction rounds (odd, so ancillas carry the data parity).
pub const ROUNDS: usize = 3;
/// Clifford shots per round.
pub const SHOTS: usize = 128;
/// Rounds per episode.
pub const ROUNDS_PER_EPISODE: usize = 4;
/// Trotter time step.
const STEP_TIME: f64 = 0.2;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;

/// Everything a round needs, built from the seed.
pub struct Inputs {
    /// One first-order Trotter step of the Hubbard chain.
    pub step: Circuit,
    /// Half filling, as a basis state.
    pub initial: InitialState,
    /// The chain's energy observable.
    pub observable: GroupedPauliSum,
    /// Width of the interval every trajectory's energy lies in.
    pub energy_width: f64,
    /// Amplitude damping after every gate (general Kraus path).
    pub kraus: NoiseModel,
    /// Depolarizing noise after every gate (Pauli path).
    pub pauli: NoiseModel,
    /// The Clifford syndrome-extraction circuit.
    pub syndrome: Circuit,
}

/// Builds the inputs from `seed`, timing each layer call on `t`.
pub fn inputs(seed: u64, t: &mut Tracer) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let u = rng.gen_range(2.0..6.0);
    let (model, step, syndrome) = t.span("construction.build", |_| {
        let model = hubbard_chain(SITES, 1.0, u, false);
        let step = direct_product_formula(
            &model.qubit_hamiltonian(),
            STEP_TIME,
            1,
            ProductFormula::First,
            &DirectOptions::linear(),
        );
        let syndrome = ghs_bench::perf::syndrome_circuit(SYNDROME_QUBITS, ROUNDS);
        (model, step, syndrome)
    });
    let sum = model.pauli_sum();
    let observable = t.span("statevector.observable", |_| GroupedPauliSum::new(&sum));
    Inputs {
        step,
        initial: InitialState::Basis(model.hartree_fock_state()),
        observable,
        energy_width: 2.0 * sum.terms().iter().map(|(c, _)| c.abs()).sum::<f64>(),
        kraus: NoiseModel::noiseless()
            .with_all_gates(KrausChannel::amplitude_damping(rng.gen_range(0.005..0.015))),
        pauli: NoiseModel::depolarizing(rng.gen_range(0.005..0.015)),
        syndrome,
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Run {
    let mut run = Run::default();
    let inp = repeat_setup(&mut run, SETUPS, cfg.trace, |t| inputs(cfg.seed, t));

    let mut kraus_means = Vec::new();
    let mut pauli_means = Vec::new();
    let mut round = 0usize;
    let mut tracer = Tracer::new(false, Instant::now());
    measure(cfg, &mut run, &mut tracer, |t, run, _| {
        let mut elapsed = 0.0;
        for _ in 0..ROUNDS_PER_EPISODE {
            t.set_group(round as u64);
            let seed = derive_stream_seed(cfg.seed, round);
            let t0 = Instant::now();
            let kraus = t.span("core.trajectory_kraus", |_| {
                TrajectoryNoise::new(inp.kraus.clone(), TRAJECTORIES, seed).expectation(
                    &inp.initial,
                    &inp.step,
                    &inp.observable,
                )
            });
            let pauli = t.span("core.trajectory_pauli", |_| {
                TrajectoryNoise::new(inp.pauli.clone(), TRAJECTORIES, seed).expectation(
                    &inp.initial,
                    &inp.step,
                    &inp.observable,
                )
            });
            let shots = t
                .span("stabilizer.prepare", |_| {
                    StabilizerBackend.prepare(&InitialState::ZeroState, &inp.syndrome)
                })
                .map(|tableau| {
                    t.span("stabilizer.sample", |_| {
                        StabilizerBackend::sample_prepared(&tableau, SHOTS, seed)
                    })
                });
            let seconds = t0.elapsed().as_secs_f64();
            run.iter_ms.push(seconds * 1e3);
            elapsed += seconds;
            round += 1;

            kraus_means.push(kraus.unwrap_or(f64::NAN));
            pauli_means.push(pauli.unwrap_or(f64::NAN));
            run.check(matches!(&shots, Ok(s) if s.len() == SHOTS && s.iter().all(|b| checks::syndrome_parity_ok(b, ROUNDS))));
        }
        elapsed
    });

    // Output checks: every round's ensemble, and the pooled ensemble of the
    // whole run, within their Hoeffding radius of the density oracle.
    let exact = |model: &NoiseModel, t: &mut Tracer| {
        t.span("core.density", |_| {
            DensityMatrixBackend::new(model.clone()).expectation(
                &inp.initial,
                &inp.step,
                &inp.observable,
            )
        })
    };
    tracer.set_enabled(cfg.trace);
    let kraus_exact = exact(&inp.kraus, &mut tracer);
    let pauli_exact = exact(&inp.pauli, &mut tracer);
    for (means, oracle) in [(&kraus_means, kraus_exact), (&pauli_means, pauli_exact)] {
        let Ok(oracle) = oracle else {
            run.check(false);
            continue;
        };
        for &m in means {
            run.check(checks::within_hoeffding(
                m,
                oracle,
                inp.energy_width,
                TRAJECTORIES,
            ));
        }
        let pooled = means.iter().sum::<f64>() / means.len() as f64;
        run.check(checks::within_hoeffding(
            pooled,
            oracle,
            inp.energy_width,
            TRAJECTORIES * means.len(),
        ));
    }
    tracer.set_enabled(false);
    if cfg.trace {
        // The oracle is a check, not part of an episode: keep it out of the
        // per-episode self times.
        run.setup_spans
            .extend_from_slice(&tracer.spans()[run.spans.len()..]);
        let total = |name| {
            crate::trace::durations_ms(&run.spans, name)
                .iter()
                .sum::<f64>()
        };
        let ensembles = crate::trace::durations_ms(&run.spans, "core.trajectory_kraus").len();
        let trajectories = (2 * TRAJECTORIES * ensembles) as f64;
        let trajectory_s = (total("core.trajectory_kraus") + total("core.trajectory_pauli")) * 1e-3;
        let shot_s = (total("stabilizer.prepare") + total("stabilizer.sample")) * 1e-3;
        run.layers
            .insert("core.trajectories_per_s", trajectories / trajectory_s);
        run.layers.insert(
            "stabilizer.shots_per_s",
            (SHOTS * ensembles) as f64 / shot_s,
        );
        crate::circuit_layers(&mut run, &inp.step);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_per_seed() {
        let mut t = Tracer::new(false, Instant::now());
        let (a, b, c) = (inputs(3, &mut t), inputs(3, &mut t), inputs(4, &mut t));
        assert_eq!(a.step, b.step);
        assert_eq!((&a.kraus, &a.pauli), (&b.kraus, &b.pauli));
        assert_eq!(a.energy_width, b.energy_width);
        assert_eq!(a.syndrome, b.syndrome);
        assert_ne!((&a.kraus, &a.pauli), (&c.kraus, &c.pauli));
    }
}
