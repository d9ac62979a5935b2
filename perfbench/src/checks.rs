//! Output checks. Each returns `true` when the output is correct; a `false`
//! counts as a failed operation in the run's result line.

use ghs_math::Complex64;
use ghs_service::JobOutput;
use ghs_stabilizer::BitString;

/// Tolerance of the adjoint-vs-parameter-shift gradient check.
pub const GRADIENT_TOL: f64 = 1e-8;
/// Tolerance on `|‖ψ‖ − 1|` after a long unitary evolution.
pub const NORM_TOL: f64 = 1e-9;
/// Tolerance of fused-vs-reference amplitudes on the small-register check.
pub const STATE_TOL: f64 = 1e-10;
/// Failure probability each Hoeffding check is allowed.
pub const HOEFFDING_DELTA: f64 = 1e-9;

/// Energy and every gradient component agree within `GRADIENT_TOL`.
pub fn gradients_agree(a: &(f64, Vec<f64>), b: &(f64, Vec<f64>)) -> bool {
    a.1.len() == b.1.len()
        && (a.0 - b.0).abs() <= GRADIENT_TOL
        && a.1
            .iter()
            .zip(&b.1)
            .all(|(x, y)| (x - y).abs() <= GRADIENT_TOL)
}

/// An energy and gradient that are finite, of the right length, with the
/// energy inside `[-bound, bound]`.
pub fn gradient_sane(out: &(f64, Vec<f64>), params: usize, bound: f64) -> bool {
    out.0.is_finite()
        && out.0.abs() <= bound + 1e-9
        && out.1.len() == params
        && out.1.iter().all(|g| g.is_finite())
}

/// The state norm is 1 within `NORM_TOL`.
pub fn norm_is_unit(norm: f64) -> bool {
    (norm - 1.0).abs() <= NORM_TOL
}

/// Two amplitude vectors agree elementwise within `STATE_TOL`.
pub fn states_agree(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (*x - *y).abs() <= STATE_TOL)
}

/// Every shot is a basis index of an `n`-qubit register.
pub fn shots_in_range(shots: &[usize], num_qubits: usize) -> bool {
    shots.iter().all(|&s| s < 1usize << num_qubits)
}

/// Hoeffding radius of the mean of `n` samples confined to an interval of
/// width `width`, at failure probability [`HOEFFDING_DELTA`].
pub fn hoeffding_radius(width: f64, n: usize) -> f64 {
    width * ((2.0 / HOEFFDING_DELTA).ln() / (2.0 * n as f64)).sqrt()
}

/// An ensemble mean of `n` trajectories lies within its Hoeffding radius of
/// the exact value.
pub fn within_hoeffding(mean: f64, exact: f64, width: f64, n: usize) -> bool {
    mean.is_finite() && (mean - exact).abs() <= hoeffding_radius(width, n)
}

/// The ancilla-parity constraint of `syndrome_circuit(n, rounds)`: data on
/// even qubits, ancillas on odd ones; each round XORs both neighbouring data
/// bits into an ancilla, so ancilla `a` reads `rounds · (d[a−1] ⊕ d[a+1])`
/// mod 2 (a missing right neighbour counts as 0).
pub fn syndrome_parity_ok(shot: &BitString, rounds: usize) -> bool {
    let n = shot.len();
    (1..n).step_by(2).all(|a| {
        let right = a + 1 < n && shot.get(a + 1);
        let expected = rounds % 2 == 1 && (shot.get(a - 1) ^ right);
        shot.get(a) == expected
    })
}

/// A service output equals the direct backend output of the same spec:
/// shots exactly, energies and gradients to 1e-12.
pub fn outputs_match(service: &JobOutput, direct: &JobOutput) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12;
    match (service, direct) {
        (JobOutput::Shots(a), JobOutput::Shots(b)) => a == b,
        (JobOutput::Expectation(a), JobOutput::Expectation(b)) => close(*a, *b),
        (
            JobOutput::Gradient {
                energy: ea,
                gradient: ga,
            },
            JobOutput::Gradient {
                energy: eb,
                gradient: gb,
            },
        ) => {
            close(*ea, *eb) && ga.len() == gb.len() && ga.iter().zip(gb).all(|(x, y)| close(*x, *y))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghs_core::backend::{Backend, InitialState, StabilizerBackend};
    use ghs_math::c64;

    #[test]
    fn gradient_checks_reject_corruption() {
        let good = (0.5, vec![0.1, -0.2, 0.3]);
        assert!(gradients_agree(&good, &good.clone()));
        let mut bad = good.clone();
        bad.1[1] += 1e-6;
        assert!(!gradients_agree(&good, &bad));
        assert!(gradient_sane(&good, 3, 1.0));
        assert!(!gradient_sane(&(f64::NAN, vec![0.0; 3]), 3, 1.0));
        assert!(!gradient_sane(&(2.0, vec![0.0; 3]), 3, 1.0));
        assert!(!gradient_sane(&good, 4, 1.0));
    }

    #[test]
    fn state_checks_reject_corruption() {
        assert!(norm_is_unit(1.0 + 1e-12));
        assert!(!norm_is_unit(1.0 + 1e-7));
        let a = vec![c64(0.6, 0.0), c64(0.0, 0.8)];
        let mut b = a.clone();
        assert!(states_agree(&a, &b));
        b[1] = c64(0.0, 0.8 + 1e-8);
        assert!(!states_agree(&a, &b));
        assert!(shots_in_range(&[0, 3], 2));
        assert!(!shots_in_range(&[0, 4], 2));
    }

    #[test]
    fn hoeffding_check_rejects_a_shifted_mean() {
        let r = hoeffding_radius(2.0, 64);
        assert!(within_hoeffding(0.3 + 0.5 * r, 0.3, 2.0, 64));
        assert!(!within_hoeffding(0.3 + 1.5 * r, 0.3, 2.0, 64));
        assert!(!within_hoeffding(f64::NAN, 0.3, 2.0, 64));
    }

    #[test]
    fn syndrome_check_accepts_real_shots_and_rejects_a_flipped_ancilla() {
        let rounds = 3;
        let circuit = ghs_bench::perf::syndrome_circuit(16, rounds);
        let shots = StabilizerBackend
            .sample_bits(&InitialState::ZeroState, &circuit, 32, 5)
            .expect("syndrome circuits are Clifford");
        assert!(shots.iter().all(|s| syndrome_parity_ok(s, rounds)));
        let flipped = BitString::from_index(16, shots[0].to_index().unwrap() ^ (1 << 14));
        assert!(!syndrome_parity_ok(&flipped, rounds));
    }

    #[test]
    fn service_output_check_rejects_any_difference() {
        let g = JobOutput::Gradient {
            energy: 1.0,
            gradient: vec![0.5],
        };
        assert!(outputs_match(&g, &g.clone()));
        let g2 = JobOutput::Gradient {
            energy: 1.0,
            gradient: vec![0.5 + 1e-9],
        };
        assert!(!outputs_match(&g, &g2));
        assert!(!outputs_match(
            &JobOutput::Shots(vec![1, 2]),
            &JobOutput::Shots(vec![1, 3])
        ));
        assert!(!outputs_match(
            &JobOutput::Expectation(0.25),
            &JobOutput::Expectation(0.25 + 1e-9)
        ));
        assert!(!outputs_match(
            &JobOutput::Expectation(0.25),
            &JobOutput::Shots(vec![])
        ));
    }
}
