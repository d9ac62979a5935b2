//! `qaoa_hubo_12`: a closed-loop variational optimisation, one client.
//!
//! QAOA on a seeded random sparse order-4 HUBO over 12 variables, 3 layers,
//! with the paper's keyed-phase separator. An episode is one Adam
//! optimisation of [`ITERATIONS`] steps followed by a [`SHOTS`]-shot readout
//! of the best iterate; an iteration is one adjoint gradient plus its Adam
//! step. The 64 KB state makes every sweep microseconds long, so the cost
//! of entering a parallel region dominates.

use crate::checks;
use crate::trace::Tracer;
use crate::{measure, repeat_setup, Config, Run};
use ghs_circuit::ParameterizedCircuit;
use ghs_core::backend::{parameter_shift_gradient, Backend, FusedStatevector, InitialState};
use ghs_core::{minimize_adam, AdamOptions};
use ghs_hubo::{qaoa_parameterized, SeparatorStrategy};
use ghs_statevector::{CachedDistribution, GroupedPauliSum};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// HUBO variables (= qubits).
pub const VARS: usize = 12;
/// Monomial order.
pub const ORDER: usize = 4;
/// Monomials in the instance.
pub const TERMS: usize = 24;
/// QAOA layers.
pub const LAYERS: usize = 3;
/// Adam steps per episode.
pub const ITERATIONS: usize = 10;
/// Readout shots per episode.
pub const SHOTS: usize = 1024;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;

/// Everything an episode needs, built from the seed.
pub struct Inputs {
    /// The QAOA template over `[γ…, β…]`.
    pub template: ParameterizedCircuit,
    /// The prepared diagonal cost observable.
    pub observable: GroupedPauliSum,
    /// Start point of every episode.
    pub start: Vec<f64>,
    /// `Σ |c_k|`: no energy can exceed it in magnitude.
    pub energy_bound: f64,
}

/// Builds the inputs from `seed`, timing each layer call on `t`.
pub fn inputs(seed: u64, t: &mut Tracer) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let (template, sum) = t.span("construction.build", |_| {
        let problem = crate::hubo_instance(VARS, ORDER, TERMS, &mut rng);
        let template = qaoa_parameterized(&problem, LAYERS, SeparatorStrategy::Direct);
        (template, problem.to_pauli_sum())
    });
    let observable = t.span("statevector.observable", |_| GroupedPauliSum::new(&sum));
    // The template caches its fusion plan; planning here keeps it out of the
    // first timed gradient.
    t.span("circuit.plan", |_| {
        template.fusion_plan();
    });
    let gammas: Vec<f64> = (0..LAYERS).map(|_| rng.gen_range(0.1..0.6)).collect();
    let betas: Vec<f64> = (0..LAYERS).map(|_| rng.gen_range(0.2..0.9)).collect();
    let start = [gammas, betas].concat();
    Inputs {
        template,
        observable,
        start,
        energy_bound: sum.terms().iter().map(|(c, _)| c.abs()).sum(),
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Run {
    let mut run = Run::default();
    let zero = InitialState::ZeroState;
    let backend = FusedStatevector;
    let inp = repeat_setup(&mut run, SETUPS, cfg.trace, |t| {
        let inp = inputs(cfg.seed, t);
        // One warm-up gradient, so the timed loop starts warm.
        t.span("statevector.warm", |_| {
            backend.expectation_gradient(&zero, &inp.template, &inp.start, &inp.observable)
        })
        .expect("QAOA circuits are dense");
        inp
    });

    // Output check at the start point: adjoint engine vs the shift rule.
    let adjoint = backend.expectation_gradient(&zero, &inp.template, &inp.start, &inp.observable);
    let shift =
        parameter_shift_gradient(&backend, &zero, &inp.template, &inp.start, &inp.observable);
    run.check(matches!((&adjoint, &shift), (Ok(a), Ok(s)) if checks::gradients_agree(a, s)));

    let params = inp.template.num_params();
    let opts = AdamOptions {
        learning_rate: 0.05,
        max_iterations: ITERATIONS,
        gradient_tolerance: 0.0,
        ..AdamOptions::default()
    };
    let mut tracer = Tracer::new(false, Instant::now());
    let mut group = 0u64;
    measure(cfg, &mut run, &mut tracer, |t, run, episode| {
        let t0 = Instant::now();
        let mut marks = Vec::with_capacity(ITERATIONS + 2);
        let mut outputs = Vec::with_capacity(ITERATIONS + 1);
        let best = t.span("core.optimize", |t| {
            minimize_adam(
                |x| {
                    marks.push(Instant::now());
                    group += 1;
                    t.set_group(group);
                    let out = t.span("statevector.gradient", |_| {
                        backend.expectation_gradient(&zero, &inp.template, x, &inp.observable)
                    });
                    let out = out.unwrap_or((f64::NAN, vec![f64::NAN; params]));
                    outputs.push(out.clone());
                    out
                },
                &inp.start,
                &opts,
            )
        });
        marks.push(Instant::now());
        let state = t.span("statevector.run", |_| {
            backend.run(&zero, &inp.template.bind(&best.params))
        });
        let shots = state.map(|s| {
            let dist = t.span("statevector.alias_build", |_| {
                CachedDistribution::from_state(&s)
            });
            t.span("statevector.draw", |_| {
                dist.sample_seeded(SHOTS, episode as u64)
            })
        });
        let elapsed = t0.elapsed().as_secs_f64();

        for (w, out) in marks.windows(2).zip(&outputs) {
            run.iter_ms.push((w[1] - w[0]).as_secs_f64() * 1e3);
            run.check(checks::gradient_sane(out, params, inp.energy_bound));
        }
        let improved = best.value <= outputs[0].0;
        run.check(
            improved
                && matches!(&shots, Ok(s) if s.len() == SHOTS && checks::shots_in_range(s, VARS)),
        );
        elapsed
    });

    if cfg.trace {
        // The optimizer's own work per iteration: `core.optimize` minus the
        // gradients it called.
        let total = |name| crate::trace::durations_ms(&run.spans, name);
        let gradients = total("statevector.gradient");
        let optimize: f64 = total("core.optimize").iter().sum();
        run.layers.insert(
            "core.optimizer_ms",
            (optimize - gradients.iter().sum::<f64>()) / gradients.len().max(1) as f64,
        );
        crate::circuit_layers(&mut run, &inp.template.bind(&inp.start));
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
        assert_eq!(a.start, b.start);
        assert_eq!(a.template.bind(&a.start), b.template.bind(&b.start));
        assert_eq!(a.energy_bound, b.energy_bound);
        assert_ne!(a.template.bind(&a.start), c.template.bind(&c.start));
    }
}
