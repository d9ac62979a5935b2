//! Kraus channels and gate-class noise models.
//!
//! A [`KrausChannel`] is a completely-positive trace-preserving (CPTP) map
//! `ρ ↦ Σ_k K_k ρ K_k†` given by its single-qubit Kraus operators `K_k`
//! (2×2 complex matrices satisfying `Σ_k K_k† K_k = I`). The standard
//! channels — amplitude damping, phase damping, dephasing and depolarizing —
//! have dedicated constructors; arbitrary Kraus sets go through
//! [`KrausChannel::from_kraus`], which rejects non-CPTP input.
//!
//! A [`NoiseModel`] maps *gate classes* (single-qubit vs multi-qubit) to
//! lists of channels applied to every qubit a gate touches, replacing the
//! older ad-hoc per-gate Pauli strengths. Every channel is classified once,
//! when it is built: Pauli channels (every Kraus operator proportional to
//! `I`, `X`, `Y` or `Z`) expose their probability vector through
//! [`KrausChannel::pauli_probabilities`] so trajectory engines can keep the
//! cheap Pauli-mask path; general channels fall back to norm-weighted Kraus
//! selection.
//!
//! ```
//! use ghs_operators::kraus::{KrausChannel, NoiseModel};
//!
//! let amp = KrausChannel::amplitude_damping(0.1);
//! assert!(amp.pauli_probabilities().is_none()); // not a Pauli channel
//! let dep = KrausChannel::depolarizing(0.02);
//! let p = dep.pauli_probabilities().unwrap();
//! assert!((p[0] - 0.98).abs() < 1e-12);
//!
//! let model = NoiseModel::noiseless()
//!     .with_single_qubit(dep)
//!     .with_multi_qubit(amp);
//! assert!(!model.is_noiseless());
//! assert_eq!(model.channels_for(2).len(), 1);
//! ```

use std::fmt;

use ghs_math::{c64, CMatrix, Complex64};

/// Tolerance for the CPTP completeness check `Σ K†K = I` and for the
/// Pauli-channel structure detection.
const CPTP_TOL: f64 = 1e-9;

/// Error returned by [`KrausChannel::from_kraus`] for invalid Kraus sets.
#[derive(Clone, Debug, PartialEq)]
pub enum KrausError {
    /// The Kraus set was empty.
    Empty,
    /// A Kraus operator was not a 2×2 matrix.
    NotSingleQubit {
        /// Index of the offending operator.
        index: usize,
        /// Its actual shape `(rows, cols)`.
        shape: (usize, usize),
    },
    /// A Kraus operator has a NaN or infinite entry.
    NonFinite {
        /// Index of the offending operator.
        index: usize,
    },
    /// The completeness relation `Σ K†K = I` fails beyond tolerance.
    NotTracePreserving {
        /// Largest absolute deviation of `Σ K†K` from the identity.
        deviation: f64,
    },
}

impl fmt::Display for KrausError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KrausError::Empty => write!(f, "Kraus set is empty"),
            KrausError::NotSingleQubit { index, shape } => write!(
                f,
                "Kraus operator {index} is {}x{}, expected 2x2",
                shape.0, shape.1
            ),
            KrausError::NonFinite { index } => {
                write!(f, "Kraus operator {index} has a non-finite entry")
            }
            KrausError::NotTracePreserving { deviation } => write!(
                f,
                "Kraus set is not trace preserving: |sum K'K - I| = {deviation:.3e}"
            ),
        }
    }
}

impl std::error::Error for KrausError {}

/// A single-qubit CPTP channel given by its Kraus operators.
///
/// Zero-strength constructors collapse to the trivial identity channel
/// ([`Self::is_trivial`]), which trajectory engines treat as "no noise" so
/// the zero-strength path stays RNG-free and bit-identical to noiseless
/// execution.
///
/// ```
/// use ghs_operators::kraus::KrausChannel;
///
/// assert!(KrausChannel::amplitude_damping(0.0).is_trivial());
/// let ch = KrausChannel::amplitude_damping(0.3);
/// assert_eq!(ch.ops().len(), 2);
/// // Σ K†K = I holds by construction:
/// assert!(KrausChannel::from_kraus(ch.ops().to_vec()).is_ok());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct KrausChannel {
    name: &'static str,
    ops: Vec<CMatrix>,
    /// `[p_I, p_X, p_Y, p_Z]` for a Pauli channel, fixed at construction.
    pauli: Option<[f64; 4]>,
}

fn identity_op() -> CMatrix {
    CMatrix::identity(2)
}

fn scaled(m: &CMatrix, s: f64) -> CMatrix {
    m.scale(c64(s, 0.0))
}

fn pauli_x() -> CMatrix {
    CMatrix::from_rows(&[
        &[c64(0.0, 0.0), c64(1.0, 0.0)],
        &[c64(1.0, 0.0), c64(0.0, 0.0)],
    ])
}

fn pauli_y() -> CMatrix {
    CMatrix::from_rows(&[
        &[c64(0.0, 0.0), c64(0.0, -1.0)],
        &[c64(0.0, 1.0), c64(0.0, 0.0)],
    ])
}

fn pauli_z() -> CMatrix {
    CMatrix::from_rows(&[
        &[c64(1.0, 0.0), c64(0.0, 0.0)],
        &[c64(0.0, 0.0), c64(-1.0, 0.0)],
    ])
}

/// If every Kraus operator is a nonnegative-real multiple of a Pauli,
/// the probability vector `[p_I, p_X, p_Y, p_Z]`; otherwise `None`.
fn classify_pauli(ops: &[CMatrix]) -> Option<[f64; 4]> {
    let paulis = [identity_op(), pauli_x(), pauli_y(), pauli_z()];
    let mut probs = [0.0f64; 4];
    for k in ops {
        let (i, c) = paulis.iter().enumerate().find_map(|(i, p)| {
            // Project K onto P: K = c·P ⇒ c = tr(P†K)/2, real ≥ 0.
            let c = p
                .data()
                .iter()
                .zip(k.data())
                .map(|(a, b)| a.conj() * *b)
                .sum::<Complex64>()
                / c64(2.0, 0.0);
            k.approx_eq(&p.scale(c), CPTP_TOL).then_some((i, c))
        })?;
        if c.im.abs() > CPTP_TOL || c.re < -CPTP_TOL {
            return None;
        }
        probs[i] += c.re * c.re;
    }
    Some(probs)
}

impl KrausChannel {
    /// Stores `ops` under `name` with their Pauli classification.
    fn classified(name: &'static str, ops: Vec<CMatrix>) -> Self {
        let pauli = classify_pauli(&ops);
        KrausChannel { name, ops, pauli }
    }

    /// The trivial (identity) channel: exactly one Kraus operator, `I`.
    pub fn identity() -> Self {
        Self::classified("identity", vec![identity_op()])
    }

    /// Amplitude damping with decay probability `gamma`:
    /// `K₀ = diag(1, √(1−γ))`, `K₁ = √γ |0⟩⟨1|`. `gamma = 0` yields the
    /// trivial channel.
    ///
    /// # Panics
    /// If `gamma` is outside `[0, 1]`.
    pub fn amplitude_damping(gamma: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
        if gamma == 0.0 {
            return Self::identity();
        }
        let k0 = CMatrix::from_diagonal(&[c64(1.0, 0.0), c64((1.0 - gamma).sqrt(), 0.0)]);
        let k1 = CMatrix::from_rows(&[
            &[c64(0.0, 0.0), c64(gamma.sqrt(), 0.0)],
            &[c64(0.0, 0.0), c64(0.0, 0.0)],
        ]);
        Self::classified("amplitude_damping", vec![k0, k1])
    }

    /// Phase damping with scattering probability `gamma`:
    /// `K₀ = diag(1, √(1−γ))`, `K₁ = √γ |1⟩⟨1|`. `gamma = 0` yields the
    /// trivial channel.
    ///
    /// # Panics
    /// If `gamma` is outside `[0, 1]`.
    pub fn phase_damping(gamma: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
        if gamma == 0.0 {
            return Self::identity();
        }
        let k0 = CMatrix::from_diagonal(&[c64(1.0, 0.0), c64((1.0 - gamma).sqrt(), 0.0)]);
        let k1 = CMatrix::from_diagonal(&[c64(0.0, 0.0), c64(gamma.sqrt(), 0.0)]);
        Self::classified("phase_damping", vec![k0, k1])
    }

    /// Dephasing: apply `Z` with probability `p`, i.e. Kraus operators
    /// `√(1−p)·I` and `√p·Z`. `p = 0` yields the trivial channel.
    ///
    /// # Panics
    /// If `p` is outside `[0, 1]`.
    pub fn dephasing(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
        if p == 0.0 {
            return Self::identity();
        }
        Self::classified(
            "dephasing",
            vec![
                scaled(&identity_op(), (1.0 - p).sqrt()),
                scaled(&pauli_z(), p.sqrt()),
            ],
        )
    }

    /// Depolarizing: with probability `p` apply a uniformly random
    /// non-identity Pauli (`X`, `Y` or `Z` each with probability `p/3`).
    /// `p = 0` yields the trivial channel.
    ///
    /// # Panics
    /// If `p` is outside `[0, 1]`.
    pub fn depolarizing(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
        if p == 0.0 {
            return Self::identity();
        }
        Self::classified(
            "depolarizing",
            vec![
                scaled(&identity_op(), (1.0 - p).sqrt()),
                scaled(&pauli_x(), (p / 3.0).sqrt()),
                scaled(&pauli_y(), (p / 3.0).sqrt()),
                scaled(&pauli_z(), (p / 3.0).sqrt()),
            ],
        )
    }

    /// Builds a channel from an arbitrary single-qubit Kraus set, rejecting
    /// sets that are empty, not 2×2, not finite, or that violate the
    /// completeness relation `Σ K†K = I` beyond `1e-9`.
    ///
    /// ```
    /// use ghs_math::{c64, CMatrix};
    /// use ghs_operators::kraus::KrausChannel;
    ///
    /// // Halving the state is not trace preserving:
    /// let k = CMatrix::identity(2).scale(c64(0.5, 0.0));
    /// assert!(KrausChannel::from_kraus(vec![k]).is_err());
    /// ```
    pub fn from_kraus(ops: Vec<CMatrix>) -> Result<Self, KrausError> {
        if ops.is_empty() {
            return Err(KrausError::Empty);
        }
        for (index, k) in ops.iter().enumerate() {
            if k.rows() != 2 || k.cols() != 2 {
                return Err(KrausError::NotSingleQubit {
                    index,
                    shape: (k.rows(), k.cols()),
                });
            }
            if !k
                .data()
                .iter()
                .all(|z| z.re.is_finite() && z.im.is_finite())
            {
                return Err(KrausError::NonFinite { index });
            }
        }
        let mut sum = CMatrix::zeros(2, 2);
        for k in &ops {
            let kk = k.dagger().matmul(k);
            sum.add_scaled(&kk, c64(1.0, 0.0));
        }
        let mut deviation: f64 = 0.0;
        for r in 0..2 {
            for c in 0..2 {
                let expect = if r == c { c64(1.0, 0.0) } else { c64(0.0, 0.0) };
                deviation = deviation.max((sum.get(r, c) - expect).abs());
            }
        }
        if deviation > CPTP_TOL {
            return Err(KrausError::NotTracePreserving { deviation });
        }
        Ok(Self::classified("kraus", ops))
    }

    /// The Kraus operators of the channel.
    pub fn ops(&self) -> &[CMatrix] {
        &self.ops
    }

    /// Short human-readable channel name (`"amplitude_damping"`, …).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether the channel is the identity map (single Kraus operator `I`).
    pub fn is_trivial(&self) -> bool {
        self.ops.len() == 1 && self.ops[0].approx_eq(&identity_op(), CPTP_TOL)
    }

    /// If every Kraus operator is a nonnegative-real multiple of a Pauli
    /// (`I`, `X`, `Y`, `Z`), the probability vector `[p_I, p_X, p_Y, p_Z]`;
    /// otherwise `None`. The classification is made once, when the channel
    /// is built, so trajectory engines can ask on every channel application
    /// to keep the cheap Pauli-mask sampling path.
    pub fn pauli_probabilities(&self) -> Option<[f64; 4]> {
        self.pauli
    }

    /// The 4×4 superoperator `S = Σ_k K_k ⊗ conj(K_k)` acting on the
    /// vectorised density matrix (row index as the high bit).
    pub fn superoperator(&self) -> CMatrix {
        let mut s = CMatrix::zeros(4, 4);
        for k in &self.ops {
            let kc = k.conj();
            s.add_scaled(&k.kron(&kc), c64(1.0, 0.0));
        }
        s
    }
}

/// Maps gate classes to the noise channels applied after each gate.
///
/// Every channel attached to a class is applied, in order, to **each qubit
/// the gate touches**. Trivial channels are dropped at
/// construction so [`Self::is_noiseless`] and the RNG-free zero-strength
/// contract are structural, not numerical.
///
/// ```
/// use ghs_operators::kraus::{KrausChannel, NoiseModel};
///
/// // Depolarizing + dephasing after every gate.
/// let model = NoiseModel::pauli(0.01, 0.002);
/// assert_eq!(model.channels_for(1).len(), 2);
/// assert!(NoiseModel::pauli(0.0, 0.0).is_noiseless());
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct NoiseModel {
    single_qubit: Vec<KrausChannel>,
    multi_qubit: Vec<KrausChannel>,
}

impl NoiseModel {
    /// The empty model: no channel on any gate class.
    pub fn noiseless() -> Self {
        NoiseModel::default()
    }

    /// Adds `channel` after every single-qubit gate (ignored if trivial).
    pub fn with_single_qubit(mut self, channel: KrausChannel) -> Self {
        if !channel.is_trivial() {
            self.single_qubit.push(channel);
        }
        self
    }

    /// Adds `channel` after every multi-qubit gate, per touched qubit
    /// (ignored if trivial).
    pub fn with_multi_qubit(mut self, channel: KrausChannel) -> Self {
        if !channel.is_trivial() {
            self.multi_qubit.push(channel);
        }
        self
    }

    /// Adds `channel` after every gate of either class.
    pub fn with_all_gates(self, channel: KrausChannel) -> Self {
        let cloned = channel.clone();
        self.with_single_qubit(channel).with_multi_qubit(cloned)
    }

    /// Uniform depolarizing noise of strength `p` on every gate class.
    pub fn depolarizing(p: f64) -> Self {
        NoiseModel::noiseless().with_all_gates(KrausChannel::depolarizing(p))
    }

    /// The Pauli model: depolarizing of strength
    /// `depolarizing` followed by dephasing of strength `dephasing` on every
    /// qubit touched by any gate.
    pub fn pauli(depolarizing: f64, dephasing: f64) -> Self {
        NoiseModel::noiseless()
            .with_all_gates(KrausChannel::depolarizing(depolarizing))
            .with_all_gates(KrausChannel::dephasing(dephasing))
    }

    /// The channels applied after a gate touching `gate_arity` qubits.
    pub fn channels_for(&self, gate_arity: usize) -> &[KrausChannel] {
        if gate_arity <= 1 {
            &self.single_qubit
        } else {
            &self.multi_qubit
        }
    }

    /// Whether no gate class carries any channel.
    pub fn is_noiseless(&self) -> bool {
        self.single_qubit.is_empty() && self.multi_qubit.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_cptp(ch: &KrausChannel) {
        assert!(
            KrausChannel::from_kraus(ch.ops().to_vec()).is_ok(),
            "{ch:?}"
        );
    }

    #[test]
    fn standard_channels_are_cptp() {
        for gamma in [0.0, 0.1, 0.5, 1.0] {
            assert_cptp(&KrausChannel::amplitude_damping(gamma));
            assert_cptp(&KrausChannel::phase_damping(gamma));
            assert_cptp(&KrausChannel::dephasing(gamma));
            assert_cptp(&KrausChannel::depolarizing(gamma));
        }
    }

    #[test]
    fn zero_strength_collapses_to_trivial() {
        assert!(KrausChannel::amplitude_damping(0.0).is_trivial());
        assert!(KrausChannel::phase_damping(0.0).is_trivial());
        assert!(KrausChannel::dephasing(0.0).is_trivial());
        assert!(KrausChannel::depolarizing(0.0).is_trivial());
        assert!(!KrausChannel::amplitude_damping(0.1).is_trivial());
    }

    #[test]
    fn cptp_check_rejects_bad_sets() {
        assert_eq!(KrausChannel::from_kraus(vec![]), Err(KrausError::Empty));
        let big = CMatrix::identity(4);
        assert!(matches!(
            KrausChannel::from_kraus(vec![big]),
            Err(KrausError::NotSingleQubit { index: 0, .. })
        ));
        let half = scaled(&identity_op(), 0.5);
        assert!(matches!(
            KrausChannel::from_kraus(vec![half]),
            Err(KrausError::NotTracePreserving { .. })
        ));
        // NaN slips past a max-deviation CPTP check; it must be rejected.
        let mut nan = identity_op();
        nan.set(1, 0, c64(f64::NAN, 0.0));
        assert_eq!(
            KrausChannel::from_kraus(vec![nan]),
            Err(KrausError::NonFinite { index: 0 })
        );
    }

    #[test]
    fn pauli_detection_matches_construction() {
        let dep = KrausChannel::depolarizing(0.3);
        let p = dep.pauli_probabilities().unwrap();
        assert!((p[0] - 0.7).abs() < 1e-12);
        for i in 1..4 {
            assert!((p[i] - 0.1).abs() < 1e-12);
        }
        let deph = KrausChannel::dephasing(0.2);
        let p = deph.pauli_probabilities().unwrap();
        assert!((p[0] - 0.8).abs() < 1e-12);
        assert!((p[3] - 0.2).abs() < 1e-12);
        assert!(KrausChannel::amplitude_damping(0.2)
            .pauli_probabilities()
            .is_none());
        assert!(KrausChannel::phase_damping(0.2)
            .pauli_probabilities()
            .is_none());
        // The classification is stored: a `from_kraus` copy of the
        // depolarizing set, and a clone of it, report the same numbers.
        let generic = KrausChannel::from_kraus(dep.ops().to_vec()).unwrap();
        assert_eq!(generic.pauli_probabilities(), dep.pauli_probabilities());
        assert_eq!(
            generic.clone().pauli_probabilities(),
            dep.pauli_probabilities()
        );
    }

    #[test]
    fn superoperator_preserves_trace_of_vectorised_rho() {
        // Rows 0 and 3 of S act on (ρ00, ρ11); trace preservation means the
        // sum of those two rows is (1, 0, 0, 1).
        for ch in [
            KrausChannel::amplitude_damping(0.3),
            KrausChannel::depolarizing(0.2),
            KrausChannel::phase_damping(0.4),
        ] {
            let s = ch.superoperator();
            for c in 0..4 {
                let col_sum = s.get(0, c) + s.get(3, c);
                let expect = if c == 0 || c == 3 {
                    c64(1.0, 0.0)
                } else {
                    c64(0.0, 0.0)
                };
                assert!((col_sum - expect).abs() < 1e-12, "{ch:?} col {c}");
            }
        }
    }

    #[test]
    fn noise_model_routes_by_arity() {
        let model = NoiseModel::noiseless()
            .with_single_qubit(KrausChannel::depolarizing(0.1))
            .with_multi_qubit(KrausChannel::amplitude_damping(0.2))
            .with_multi_qubit(KrausChannel::dephasing(0.05));
        assert_eq!(model.channels_for(1).len(), 1);
        assert_eq!(model.channels_for(2).len(), 2);
        assert_eq!(model.channels_for(3).len(), 2);
        assert!(!model.is_noiseless());
        assert!(NoiseModel::noiseless().is_noiseless());
        // Trivial channels are dropped structurally.
        assert!(NoiseModel::pauli(0.0, 0.0).is_noiseless());
        assert!(NoiseModel::depolarizing(0.0).is_noiseless());
    }
}
