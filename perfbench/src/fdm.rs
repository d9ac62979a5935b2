//! `fdm_trotter_22`: Hamiltonian simulation of the paper's finite-difference
//! decomposition.
//!
//! A second-order direct product formula of the periodic 1-D Laplacian on
//! 2^22 nodes, fused and run on the sharded engine — the public calls
//! `FusedStatevector::run` makes at and above `SHARDED_MIN_QUBITS` = 22,
//! issued one by one so each layer can be timed. An episode allocates the
//! state, runs [`STEPS`] Trotter steps (one iteration each), then reads out
//! an expectation value and [`SHOTS`] shots. The 64 MB state makes every
//! sweep bandwidth-bound.

use crate::checks;
use crate::trace::Tracer;
use crate::{measure, repeat_setup, Config, Run};
use ghs_circuit::{Circuit, FusedCircuit, QubitRelabeling};
use ghs_core::backend::{Backend, FusedStatevector, InitialState, ReferenceStatevector};
use ghs_core::{direct_product_formula, DirectOptions, ProductFormula};
use ghs_fdm::{laplacian_1d, BoundaryCondition};
use ghs_math::c64;
use ghs_operators::{PauliString, PauliSum};
use ghs_statevector::{CachedDistribution, GroupedPauliSum, ShardedStateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Grid qubits: 2^22 nodes.
pub const QUBITS: usize = 22;
/// Register of the fused-vs-reference check.
pub const CHECK_QUBITS: usize = 10;
/// Trotter steps per episode.
pub const STEPS: usize = 1;
/// Evolution time of one Trotter step.
pub const STEP_TIME: f64 = 0.25;
/// Readout shots per episode.
pub const SHOTS: usize = 4096;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;

/// One Trotter step of `exp(−i·t·L)` on `2^k` nodes.
pub fn step_circuit(k: usize) -> Circuit {
    let laplacian = laplacian_1d(k, 1.0, BoundaryCondition::Periodic);
    direct_product_formula(
        &laplacian,
        STEP_TIME,
        1,
        ProductFormula::Second,
        &DirectOptions::linear(),
    )
}

/// Everything an episode needs, built from the seed.
pub struct Inputs {
    /// One Trotter step, as built.
    pub step: Circuit,
    /// The step, fused.
    pub fused: FusedCircuit,
    /// The sharding relabeling of the fused step.
    pub relabeling: QubitRelabeling,
    /// The node the initial delta function sits on.
    pub start_node: usize,
    /// `Σ_q Z_q + X_{n−1}`: a diagonal batch plus one flip sweep.
    pub observable: GroupedPauliSum,
}

/// Builds the inputs from `seed`, timing each layer call on `t`.
pub fn inputs(seed: u64, t: &mut Tracer) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let step = t.span("construction.build", |_| step_circuit(QUBITS));
    let fused = t.span("circuit.plan", |_| step.fused());
    let relabeling = t.span("circuit.relabel", |_| QubitRelabeling::for_sharding(&fused));
    let mut sum = PauliSum::zero(QUBITS);
    for q in 0..QUBITS {
        sum.push(c64(1.0, 0.0), single_pauli('Z', q));
    }
    sum.push(c64(0.5, 0.0), single_pauli('X', QUBITS - 1));
    let observable = t.span("statevector.observable", |_| GroupedPauliSum::new(&sum));
    Inputs {
        step,
        fused,
        relabeling,
        start_node: rng.gen_range(0..1usize << QUBITS),
        observable,
    }
}

fn single_pauli(op: char, q: usize) -> PauliString {
    let s: String = (0..QUBITS).map(|i| if i == q { op } else { 'I' }).collect();
    PauliString::parse(&s).expect("valid Pauli string")
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Run {
    let mut run = Run::default();
    let inp = repeat_setup(&mut run, SETUPS, cfg.trace, |t| inputs(cfg.seed, t));

    // Output check: the same construction on a small register, fused
    // engine against the per-gate reference.
    let small = step_circuit(CHECK_QUBITS).repeat(STEPS);
    let initial = InitialState::Basis(inp.start_node % (1 << CHECK_QUBITS));
    let fused = FusedStatevector.run(&initial, &small);
    let reference = ReferenceStatevector.run(&initial, &small);
    run.check(matches!((&fused, &reference), (Ok(a), Ok(b)) if checks::states_agree(a.amplitudes(), b.amplitudes())));

    let mut tracer = Tracer::new(false, Instant::now());
    measure(cfg, &mut run, &mut tracer, |t, run, episode| {
        t.set_group(episode as u64);
        let t0 = Instant::now();
        let mut state = t.span("statevector.alloc", |_| {
            ShardedStateVector::basis_state(QUBITS, inp.start_node)
        });
        for _ in 0..STEPS {
            let s0 = Instant::now();
            t.span("statevector.sweep", |_| {
                state.run_fused_with(&inp.fused, &inp.relabeling)
            });
            run.iter_ms.push(s0.elapsed().as_secs_f64() * 1e3);
        }
        let flat = t.span("statevector.gather", |_| state.to_state());
        let energy = t.span("statevector.expval", |_| {
            inp.observable.expectation(flat.amplitudes())
        });
        let dist = t.span("statevector.alias_build", |_| {
            CachedDistribution::from_state(&flat)
        });
        let shots = t.span("statevector.draw", |_| {
            dist.sample_seeded(SHOTS, episode as u64)
        });
        let elapsed = t0.elapsed().as_secs_f64();
        drop(state);
        run.check(
            checks::norm_is_unit(flat.norm())
                && energy.re.abs() <= QUBITS as f64 + 0.5 + 1e-9
                && checks::shots_in_range(&shots, QUBITS),
        );
        elapsed
    });

    if cfg.trace {
        let bytes = inp.fused.ops().len() as f64 * 2.0 * 16.0 * (1u64 << QUBITS) as f64;
        let sweep_ms =
            crate::stats::median(&crate::trace::durations_ms(&run.spans, "statevector.sweep"));
        run.layers.insert("statevector.bytes_computed", bytes);
        run.layers
            .insert("statevector.gbps", bytes / (sweep_ms * 1e-3) / 1e9);
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
        let (a, b) = (inputs(3, &mut t), inputs(3, &mut t));
        assert_eq!(a.start_node, b.start_node);
        assert_eq!(a.step, b.step);
        assert_eq!(a.fused, b.fused);
        assert_eq!(a.relabeling.as_slice(), b.relabeling.as_slice());
        let others: Vec<usize> = (4..8).map(|s| inputs(s, &mut t).start_node).collect();
        assert!(others.iter().any(|&n| n != a.start_node));
    }
}
