//! Gradient-engine property tests — the acceptance criteria of the adjoint
//! subsystem:
//!
//! * adjoint ≡ parameter-shift ≡ central finite differences to ≤1e-8 on
//!   random parameterized circuits (2–10 qubits, mixed rotation gate kinds
//!   including keyed phases and multi-controlled rotations), across the
//!   [`FusedStatevector`] and [`ReferenceStatevector`] backends;
//! * a zero-strength [`TrajectoryNoise`] backend (whose gradient path is the
//!   parameter-shift fallback) agrees with the reference backend's adjoint
//!   gradient;
//! * in-place rebinding (`bind_into`) and the cached-fusion-plan execution
//!   path are exact against fresh construction;
//! * gradients are deterministic: identical bit patterns across repeated
//!   evaluations.
//!
//! Circuits come from the shared seeded testkit
//! (`ghs_statevector::testkit::random_parameterized_circuit`), so a failure
//! reported here replays everywhere from its `(shape, seed)` line. The
//! nightly CI job re-runs this suite with `GHS_PROPTEST_CASES=2048`.

use gate_efficient_hs::circuit::Circuit;
use gate_efficient_hs::core::backend::{
    parameter_shift_gradient, Backend, FusedStatevector, InitialState, ReferenceStatevector,
    TrajectoryNoise,
};
use gate_efficient_hs::operators::NoiseModel;
use gate_efficient_hs::statevector::testkit::{
    random_parameterized_circuit, random_pauli_sum, PauliSumKind,
};
use gate_efficient_hs::statevector::{adjoint_gradient, GroupedPauliSum, StateVector};
use proptest::prelude::*;

/// Acceptance tolerance of the ISSUE: adjoint ≡ shift ≡ finite differences.
const GRAD_TOL: f64 = 1e-8;

/// Central finite-difference step: small enough that the `h²·E‴/6`
/// truncation stays below [`GRAD_TOL`] for the testkit's bounded affine
/// scales, large enough that the `ε/2h` cancellation noise does too.
const FD_STEP: f64 = 3e-5;

fn seeded_params(num_params: usize, seed: u64) -> Vec<f64> {
    // Deterministic, irrational-ish probe point away from symmetry axes.
    (0..num_params)
        .map(|k| 0.21 + 0.137 * k as f64 + 0.011 * (seed % 7) as f64)
        .collect()
}

fn central_differences(
    backend: &dyn Backend,
    circuit: &gate_efficient_hs::circuit::ParameterizedCircuit,
    params: &[f64],
    observable: &GroupedPauliSum,
) -> Vec<f64> {
    let zero = InitialState::ZeroState;
    let mut scratch = Circuit::new(0);
    let mut energy = |p: &[f64]| {
        circuit.bind_into(p, &mut scratch);
        backend
            .expectation(&zero, &scratch, observable)
            .expect("dense backends evaluate random circuits")
    };
    (0..params.len())
        .map(|k| {
            let mut plus = params.to_vec();
            plus[k] += FD_STEP;
            let mut minus = params.to_vec();
            minus[k] -= FD_STEP;
            (energy(&plus) - energy(&minus)) / (2.0 * FD_STEP)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance criterion: adjoint ≡ parameter-shift ≡ central finite
    /// differences to ≤1e-8 on random parameterized circuits, on both exact
    /// statevector backends.
    #[test]
    fn adjoint_equals_shift_equals_finite_differences(
        n in 2usize..=10,
        gates in 4usize..28,
        num_params in 1usize..=6,
        seed in 0u64..5_000,
    ) {
        let pc = random_parameterized_circuit(n, gates, num_params, seed);
        let sum = random_pauli_sum(n, 6, PauliSumKind::Mixed, seed ^ 0x0b5e55ed);
        let observable = GroupedPauliSum::new(&sum);
        let params = seeded_params(num_params, seed);
        let zero = InitialState::ZeroState;

        let backends: [&dyn Backend; 2] = [&FusedStatevector, &ReferenceStatevector];
        for backend in backends {
            let (e_adj, g_adj) =
                backend.expectation_gradient(&zero, &pc, &params, &observable).unwrap();
            let (e_shift, g_shift) =
                parameter_shift_gradient(backend, &zero, &pc, &params, &observable).unwrap();
            prop_assert!(
                (e_adj - e_shift).abs() < GRAD_TOL,
                "{}: energy {e_adj} vs {e_shift}", backend.name()
            );
            let fd = central_differences(backend, &pc, &params, &observable);
            for k in 0..num_params {
                prop_assert!(
                    (g_adj[k] - g_shift[k]).abs() < GRAD_TOL,
                    "{} component {k}: adjoint {} vs shift {} (n={n}, gates={gates}, seed={seed})",
                    backend.name(), g_adj[k], g_shift[k]
                );
                prop_assert!(
                    (g_adj[k] - fd[k]).abs() < GRAD_TOL,
                    "{} component {k}: adjoint {} vs fd {} (n={n}, gates={gates}, seed={seed})",
                    backend.name(), g_adj[k], fd[k]
                );
            }
        }
    }

    /// The two exact backends' adjoint gradients agree with each other to
    /// machine-level tolerance (their forward paths differ: fused kernels
    /// vs per-gate sweeps).
    #[test]
    fn fused_and_reference_gradients_agree(
        n in 2usize..=10,
        gates in 4usize..40,
        num_params in 1usize..=8,
        seed in 0u64..5_000,
    ) {
        let pc = random_parameterized_circuit(n, gates, num_params, seed);
        let sum = random_pauli_sum(n, 8, PauliSumKind::Mixed, seed ^ 0xf00d);
        let observable = GroupedPauliSum::new(&sum);
        let params = seeded_params(num_params, seed);
        let zero = InitialState::ZeroState;
        let (e_f, g_f) = FusedStatevector
            .expectation_gradient(&zero, &pc, &params, &observable)
            .unwrap();
        let (e_r, g_r) = ReferenceStatevector
            .expectation_gradient(&zero, &pc, &params, &observable)
            .unwrap();
        prop_assert!((e_f - e_r).abs() < 1e-11);
        for k in 0..num_params {
            prop_assert!(
                (g_f[k] - g_r[k]).abs() < 1e-10,
                "component {k}: fused {} vs reference {}", g_f[k], g_r[k]
            );
        }
    }

    /// A zero-strength noise backend (parameter-shift fallback, RNG-free at
    /// zero noise) reproduces the reference backend's adjoint gradient.
    #[test]
    fn zero_noise_gradient_matches_reference(
        n in 2usize..=6,
        gates in 4usize..16,
        num_params in 1usize..=4,
        seed in 0u64..2_000,
    ) {
        let pc = random_parameterized_circuit(n, gates, num_params, seed);
        let sum = random_pauli_sum(n, 5, PauliSumKind::Mixed, seed ^ 0x9071e);
        let observable = GroupedPauliSum::new(&sum);
        let params = seeded_params(num_params, seed);
        let zero = InitialState::ZeroState;
        let quiet = TrajectoryNoise::new(NoiseModel::pauli(0.0, 0.0), 3, seed);
        let (e_q, g_q) = quiet
            .expectation_gradient(&zero, &pc, &params, &observable)
            .unwrap();
        let (e_r, g_r) = ReferenceStatevector
            .expectation_gradient(&zero, &pc, &params, &observable)
            .unwrap();
        prop_assert!((e_q - e_r).abs() < GRAD_TOL);
        for k in 0..num_params {
            prop_assert!(
                (g_q[k] - g_r[k]).abs() < GRAD_TOL,
                "component {k}: quiet {} vs reference {}", g_q[k], g_r[k]
            );
        }
    }

    /// In-place rebinding and the cached fusion plan are exact: binding a
    /// scratch circuit twice and fusing through the template's plan agree
    /// with freshly-built circuits gate for gate, and the adjoint result is
    /// bit-identical across repeated evaluations (determinism contract).
    #[test]
    fn rebinding_and_plan_reuse_are_exact_and_deterministic(
        n in 2usize..=8,
        gates in 4usize..24,
        num_params in 1usize..=5,
        seed in 0u64..2_000,
    ) {
        let pc = random_parameterized_circuit(n, gates, num_params, seed);
        let sum = random_pauli_sum(n, 5, PauliSumKind::Mixed, seed ^ 0x51ab);
        let observable = GroupedPauliSum::new(&sum);
        let a = seeded_params(num_params, seed);
        let b: Vec<f64> = a.iter().map(|v| -0.5 * v + 0.3).collect();
        let mut scratch = Circuit::new(0);
        pc.bind_into(&a, &mut scratch);
        prop_assert_eq!(scratch.clone(), pc.bind(&a));
        pc.bind_into(&b, &mut scratch);
        prop_assert_eq!(scratch.clone(), pc.bind(&b));
        let planned = pc.bind_fused(&b, &mut scratch);
        prop_assert_eq!(planned, scratch.fused());

        let zero = StateVector::zero_state(n);
        let g1 = adjoint_gradient(&zero, &pc, &b, &observable);
        let g2 = adjoint_gradient(&zero, &pc, &b, &observable);
        prop_assert_eq!(g1.energy.to_bits(), g2.energy.to_bits());
        for k in 0..num_params {
            prop_assert_eq!(g1.gradient[k].to_bits(), g2.gradient[k].to_bits());
        }
    }
}
