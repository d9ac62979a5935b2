//! Pluggable simulation backends.
//!
//! Every execution path of the workspace used to be hard-wired to one dense
//! state-vector sweep ([`StateVector::run_fused`]). The [`Backend`] trait
//! turns that choice into an abstraction: circuit execution, expectation
//! values and shot sampling are entry points of an interchangeable engine,
//! and the application layers (`measurement`, `trotter`, `ghs_hubo`,
//! `ghs_chemistry`, the benchmark binaries) are written against the trait.
//!
//! Six backends ship today:
//!
//! * [`FusedStatevector`] — the production dense path: gate fusion +
//!   specialized kernels (PR 2), exact to machine precision. Above
//!   [`SHARDED_MIN_QUBITS`] qubits it transparently executes through the
//!   sharded engine (identical results, bit for bit);
//! * [`ShardedStatevector`] — the dense scale path: the amplitude array is
//!   split into cache-sized shards, hot qubits are relabeled intra-shard,
//!   and runs of shard-local fused ops are applied per shard while it is
//!   cache-hot ([`ghs_statevector::ShardedStateVector`]);
//! * [`ReferenceStatevector`] — one sweep per gate, the slow oracle the
//!   property tests compare everything against;
//! * [`TrajectoryNoise`] — seeded noise trajectories under a
//!   [`NoiseModel`] of Kraus channels, averaged over a trajectory batch:
//!   Pauli channels (depolarizing, dephasing) take the cheap mask path,
//!   general channels do norm-weighted Kraus selection per trajectory;
//! * [`DensityMatrixBackend`] — the exact noise oracle: evolves the full
//!   density matrix under the same `NoiseModel` via superoperator
//!   application of fused blocks, capped at
//!   [`DensityMatrixBackend::MAX_QUBITS`] qubits by its quadratic memory;
//! * [`StabilizerBackend`] — the Clifford scale path: an Aaronson–Gottesman
//!   tableau ([`ghs_stabilizer::StabilizerState`]) in `O(n²)` bits instead
//!   of `O(2^n)` amplitudes, running Clifford circuits at thousands of
//!   qubits. Non-Clifford gates are rejected with a typed
//!   [`BackendError::UnsupportedCircuit`].
//!
//! The trait is **not statevector-shaped**: entry points take an
//! [`InitialState`] (zero / basis / dense amplitudes) so that non-dense
//! backends never materialize `2^n` amplitudes, and every entry point
//! returns `Result<_, `[`BackendError`]`>` so that engines with a
//! restricted vocabulary fail with typed errors instead of panicking.
//! [`Backend::capabilities`] describes each engine's envelope (register
//! cap, Clifford-only, stochastic, gradient support) so schedulers like
//! `ghs_service` can reject infeasible jobs at admission.
//!
//! # Prepare, then execute
//!
//! Every backend has exactly one execution path, split in two:
//!
//! * [`Backend::prepare`] builds the reusable [`Prepared`] artifact of a
//!   circuit: the fusion plan ([`FusedStatevector`] from 10 qubits), the
//!   plan plus the sharded engine's qubit relabeling ([`ShardedStatevector`],
//!   and [`FusedStatevector`] from [`SHARDED_MIN_QUBITS`]), or the evolved
//!   tableau ([`StabilizerBackend`]). The reference, noise and density
//!   backends prepare nothing. Plans depend only on the gate structure, so
//!   every binding of a template shares one; a tableau is the final state
//!   itself, so it also depends on the initial state and every angle
//!   ([`Backend::prepares_state`]);
//! * [`Backend::execute`] runs the circuit with a prepared artifact and
//!   reads one [`Readout`] off the result: the dense state, the
//!   probabilities, a Pauli-sum or sparse expectation, or seeded shots.
//!
//! Every other entry point ([`Backend::run`], [`Backend::probabilities`],
//! [`Backend::expectation`], [`Backend::sample`], …) is `prepare` followed
//! by `execute`; a scheduler that caches prepared artifacts (the job
//! service does) calls `execute` alone on a hit and gets bit-identical
//! results by construction. The three deterministic pure-state engines
//! implement [`StatevectorEngine`] instead of [`Backend`]: they only say how
//! they plan and how they evolve a state, and share every readout and the
//! adjoint gradient.
//!
//! Dense backends sample through the **batched shot engine**: the
//! pre-measurement distribution is computed once, cached in an alias table
//! and every shot drawn in `O(1)` from rayon-parallel, deterministically
//! seeded chunks ([`CachedDistribution`]). The stabilizer backend samples
//! natively instead: one tableau collapse per shot, each shot on its own
//! derived RNG stream.
//!
//! Observables go through the **matrix-free grouped Pauli engine**:
//! [`Backend::expectation`] takes a preprocessed [`GroupedPauliSum`] and
//! evaluates `⟨ψ|H|ψ⟩` directly from the strings' X/Z bitmasks — one
//! amplitude sweep per group on the dense engines, a per-string tableau
//! read-off on the stabilizer engine. [`Backend::expectation_sparse`] keeps
//! the sparse mat-vec path alive as the correctness oracle.
//!
//! Determinism guarantee: for a fixed backend configuration and fixed
//! `seed`, [`Backend::sample`] / [`Backend::sample_bits`] return
//! bit-identical shot vectors across runs, thread counts and machines.
//!
//! ```
//! use ghs_circuit::Circuit;
//! use ghs_core::backend::{Backend, FusedStatevector, InitialState};
//!
//! // A Bell pair only ever reads |00⟩ or |11⟩, split evenly.
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! let backend = FusedStatevector;
//! let zero = InitialState::ZeroState;
//! let shots = backend.sample(&zero, &bell, 4096, 7).unwrap();
//! assert!(shots.iter().all(|&s| s == 0b00 || s == 0b11));
//! let ones = shots.iter().filter(|&&s| s == 0b11).count();
//! assert!((ones as f64 / 4096.0 - 0.5).abs() < 0.05);
//! // Seeded sampling is bit-identical across runs.
//! assert_eq!(shots, backend.sample(&zero, &bell, 4096, 7).unwrap());
//! ```

use ghs_circuit::{Circuit, FusionPlan, Gate, ParameterizedCircuit, QubitRelabeling};
use ghs_math::{Complex64, SparseMatrix};
use ghs_operators::kraus::{KrausChannel, NoiseModel};
use ghs_stabilizer::{BitString, StabilizerState, STABILIZER_DENSE_MAX_QUBITS};
use ghs_statevector::fused::FUSED_MIN_DIM;
use ghs_statevector::{
    adjoint_gradient, derive_stream_seed, CachedDistribution, DensityMatrix, GroupedPauliSum,
    ShardedStateVector, StateVector, SHARDED_MIN_QUBITS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::f64::consts::{FRAC_PI_2, SQRT_2};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A typed backend failure: the engine cannot serve the request, and says
/// why in machine-readable form. Returned by every [`Backend`] entry point
/// and by [`backend_by_name`]; `ghs_service` threads it through job results
/// as a typed failure output instead of panicking a worker.
///
/// ```
/// use ghs_core::backend::{backend_by_name, BackendError, InitialState};
/// use ghs_circuit::Circuit;
///
/// // Unknown names are a typed error, not an Option.
/// let err = backend_by_name("tensor-network").err().unwrap();
/// assert!(matches!(err, BackendError::UnknownName(_)));
///
/// // The stabilizer backend rejects non-Clifford circuits the same way.
/// let backend = backend_by_name("stabilizer").unwrap();
/// let mut c = Circuit::new(2);
/// c.h(0).rz(1, 0.3);
/// let err = backend
///     .sample(&InitialState::ZeroState, &c, 16, 0)
///     .unwrap_err();
/// assert!(matches!(err, BackendError::UnsupportedCircuit { .. }));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// No backend is registered under this selection name.
    UnknownName(String),
    /// The circuit contains a gate outside the backend's vocabulary (e.g. a
    /// non-Clifford gate handed to the stabilizer engine).
    UnsupportedCircuit {
        /// Display form of the first offending gate.
        gate: String,
        /// The rejecting backend's [`Backend::name`].
        backend: &'static str,
    },
    /// The register is wider than the backend (or the requested output
    /// representation) supports.
    RegisterTooLarge {
        /// Requested register size.
        qubits: usize,
        /// The backend's cap for this entry point.
        max_qubits: usize,
        /// The rejecting backend's [`Backend::name`].
        backend: &'static str,
    },
    /// The initial state cannot be used with this backend or circuit (wrong
    /// register size, basis index out of range, or dense amplitudes handed
    /// to a non-dense engine).
    InitialStateMismatch {
        /// The rejecting backend's [`Backend::name`].
        backend: &'static str,
        /// Human-readable cause.
        detail: String,
    },
    /// The backend has no dense `2^n`-amplitude representation to return
    /// (the stabilizer tableau's `run` / sparse-observable entry points).
    DenseStateUnavailable {
        /// The rejecting backend's [`Backend::name`].
        backend: &'static str,
    },
    /// The engine panicked while executing the request. Callers that own
    /// worker threads (the `ghs_service` pool) catch the unwind at the job
    /// boundary and report it as this typed failure, so one bad job cannot
    /// take down its worker or poison shared state for unrelated jobs.
    ExecutionPanicked {
        /// The panic message, when the payload carried one.
        detail: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::UnknownName(name) => {
                write!(f, "no backend is registered under the name \"{name}\"")
            }
            BackendError::UnsupportedCircuit { gate, backend } => {
                write!(f, "backend {backend} cannot simulate gate {gate}")
            }
            BackendError::RegisterTooLarge {
                qubits,
                max_qubits,
                backend,
            } => write!(
                f,
                "backend {backend} caps this entry point at {max_qubits} qubits, got {qubits}"
            ),
            BackendError::InitialStateMismatch { backend, detail } => {
                write!(f, "initial state rejected by backend {backend}: {detail}")
            }
            BackendError::DenseStateUnavailable { backend } => {
                write!(f, "backend {backend} has no dense statevector output")
            }
            BackendError::ExecutionPanicked { detail } => {
                write!(f, "backend execution panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// The state a backend starts from — the plain-data form that does **not**
/// force `2^n` amplitudes into existence. `ZeroState` and `Basis` are
/// symbolic (a tableau backend prepares them in `O(n)`); `Dense` carries
/// explicit amplitudes for the dense engines, shared by `Arc` so cloning a
/// job spec never copies the register.
///
/// ```
/// use ghs_core::backend::{Backend, FusedStatevector, InitialState};
/// use ghs_statevector::StateVector;
/// use ghs_circuit::Circuit;
///
/// let mut c = Circuit::new(2);
/// c.x(0);
/// // The default is |0…0⟩; explicit basis states and dense amplitudes
/// // migrate via `From`.
/// let from_dense = InitialState::from(&StateVector::basis_state(2, 0b01));
/// let symbolic = InitialState::basis(0b01);
/// let a = FusedStatevector.run(&from_dense, &c).unwrap();
/// let b = FusedStatevector.run(&symbolic, &c).unwrap();
/// assert_eq!(a.amplitudes(), b.amplitudes());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub enum InitialState {
    /// The all-zeros computational-basis state `|0…0⟩`.
    #[default]
    ZeroState,
    /// The computational-basis state `|index⟩` (bit `q` of `index` is
    /// qubit `q`).
    Basis(usize),
    /// Explicit dense amplitudes, shared without copying.
    Dense(Arc<StateVector>),
}

impl InitialState {
    /// The basis state `|index⟩` in symbolic form.
    pub fn basis(index: usize) -> Self {
        InitialState::Basis(index)
    }

    /// The basis-state index when the initial state is symbolic
    /// (`ZeroState` → `0`), `None` for dense amplitudes. Schedulers use
    /// this to key caches without hashing a register.
    pub fn basis_index(&self) -> Option<usize> {
        match self {
            InitialState::ZeroState => Some(0),
            InitialState::Basis(i) => Some(*i),
            InitialState::Dense(_) => None,
        }
    }

    /// Checks that the initial state fits an `n`-qubit register — basis
    /// index in range, dense register of the right size — and reports a
    /// mismatch as a typed error under the calling backend's name.
    pub(crate) fn check(
        &self,
        num_qubits: usize,
        backend: &'static str,
    ) -> Result<(), BackendError> {
        let detail = match self {
            InitialState::Basis(index)
                if num_qubits < usize::BITS as usize && *index >= (1usize << num_qubits) =>
            {
                format!("basis index {index} out of range for {num_qubits} qubits")
            }
            InitialState::Dense(state) if state.num_qubits() != num_qubits => format!(
                "dense initial state has {} qubits, circuit has {num_qubits}",
                state.num_qubits()
            ),
            _ => return Ok(()),
        };
        Err(BackendError::InitialStateMismatch { backend, detail })
    }

    /// Materializes the dense `2^n` statevector for an `n`-qubit register —
    /// the adapter the dense backends call. Validates the basis index / the
    /// dense register size and reports mismatches as typed errors under the
    /// calling backend's name.
    pub fn to_statevector(
        &self,
        num_qubits: usize,
        backend: &'static str,
    ) -> Result<StateVector, BackendError> {
        self.check(num_qubits, backend)?;
        Ok(match self {
            InitialState::ZeroState => StateVector::zero_state(num_qubits),
            InitialState::Basis(index) => StateVector::basis_state(num_qubits, *index),
            InitialState::Dense(state) => (**state).clone(),
        })
    }
}

impl From<&StateVector> for InitialState {
    /// Migration shim for dense call sites: wraps a copy of the register.
    fn from(state: &StateVector) -> Self {
        InitialState::Dense(Arc::new(state.clone()))
    }
}

impl From<StateVector> for InitialState {
    fn from(state: StateVector) -> Self {
        InitialState::Dense(Arc::new(state))
    }
}

impl From<Arc<StateVector>> for InitialState {
    fn from(state: Arc<StateVector>) -> Self {
        InitialState::Dense(state)
    }
}

/// A backend's execution envelope, as plain data. Schedulers consult it
/// **before** queueing work (the job service's admission check), so
/// infeasible jobs fail at submission with a typed error instead of inside
/// a worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// Largest register the backend accepts.
    pub max_qubits: usize,
    /// The backend only runs Clifford circuits (see
    /// `ghs_circuit::Gate::is_clifford`).
    pub clifford_only: bool,
    /// Outputs are ensemble averages over a stochastic process (noise
    /// trajectories), not exact functionals of one pure state.
    pub stochastic: bool,
    /// [`Backend::expectation_gradient`] is supported.
    pub supports_gradients: bool,
}

impl Capabilities {
    /// The envelope of a deterministic dense statevector engine: registers
    /// up to [`Capabilities::DENSE_MAX_QUBITS`], any circuit, exact
    /// outputs, adjoint/shift gradients.
    pub const fn statevector() -> Self {
        Capabilities {
            max_qubits: Self::DENSE_MAX_QUBITS,
            clifford_only: false,
            stochastic: false,
            supports_gradients: true,
        }
    }

    /// Register cap of the dense engines: beyond this, `2^n` amplitudes
    /// (16 bytes each) exceed any plausible host memory.
    pub const DENSE_MAX_QUBITS: usize = 32;
}

/// A backend's reusable artifact for one circuit, built by
/// [`Backend::prepare`] and consumed by [`Backend::execute`]. Shared, not
/// copied: one value serves any number of executions on any number of
/// threads (the sharded relabeling is filled in once, by the first).
#[derive(Debug)]
pub enum Prepared {
    /// Nothing worth keeping: execution starts from the circuit alone.
    Nothing,
    /// The fusion plan of the circuit's gate structure, shared by every
    /// binding of a template.
    Plan(FusionPlan),
    /// The fusion plan plus the sharded engine's qubit relabeling. The
    /// relabeling is scored from the first binding executed and then pinned:
    /// the sharded engine is bit-identical under *any* relabeling, so every
    /// binding of the template may share it.
    Sharded {
        /// The fusion plan of the gate structure.
        plan: FusionPlan,
        /// The layout, filled in by the first execution.
        relabeling: OnceLock<QubitRelabeling>,
    },
    /// The stabilizer state after the whole circuit — for one initial state
    /// and one binding (see [`Backend::prepares_state`]).
    Tableau(StabilizerState),
}

/// What [`Backend::execute`] reads off the evolved state.
#[derive(Clone, Copy, Debug)]
pub enum Readout<'a> {
    /// The final dense state ([`Backend::run`]).
    State,
    /// Computational-basis probabilities ([`Backend::probabilities`]).
    Probabilities,
    /// `⟨ψ|H|ψ⟩` of a grouped Pauli sum ([`Backend::expectation`]).
    Expectation(&'a GroupedPauliSum),
    /// `⟨ψ|A|ψ⟩` of a sparse matrix ([`Backend::expectation_sparse`]).
    SparseExpectation(&'a SparseMatrix),
    /// `shots` seeded computational-basis outcomes ([`Backend::sample`]).
    Shots {
        /// Number of shots to draw.
        shots: usize,
        /// Seed of the shot streams.
        seed: u64,
    },
}

/// The answer of [`Backend::execute`] to one [`Readout`].
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Answers [`Readout::State`].
    State(StateVector),
    /// Answers [`Readout::Probabilities`].
    Probabilities(Vec<f64>),
    /// Answers [`Readout::Expectation`] and [`Readout::SparseExpectation`].
    Value(f64),
    /// Answers [`Readout::Shots`] as dense indices, when the register fits a
    /// machine word.
    Shots(Vec<usize>),
    /// Answers [`Readout::Shots`] as packed bit strings, for registers
    /// wider than a machine word.
    BitShots(Vec<BitString>),
}

/// An interchangeable circuit-execution engine.
///
/// The trait is object-safe: application code that should stay agnostic of
/// the engine takes `&dyn Backend`. A backend implements
/// [`Backend::prepare`] (when it has anything worth preparing) and
/// [`Backend::execute`], its one execution path; every other entry point is
/// `prepare` followed by `execute`. Non-dense backends (the stabilizer
/// tableau) answer the readouts they cannot serve with typed errors.
pub trait Backend {
    /// Stable identifier (used in logs, benchmarks and selection tables).
    fn name(&self) -> &'static str;

    /// The engine's execution envelope (see [`Capabilities`]). The default
    /// is the dense statevector envelope.
    fn capabilities(&self) -> Capabilities {
        Capabilities::statevector()
    }

    /// Whether [`Backend::prepare`] evolves the state itself (the stabilizer
    /// tableau), so that its artifact depends on the initial state and on
    /// every angle, not only on the gate structure. A cache of prepared
    /// artifacts keys them accordingly; such a backend needs no cached
    /// sampling distribution, since its artifact already skips the
    /// simulation.
    fn prepares_state(&self) -> bool {
        false
    }

    /// Builds the reusable artifact of executing `circuit` from `initial`
    /// (see [`Prepared`]). The default prepares nothing.
    fn prepare(
        &self,
        _initial: &InitialState,
        _circuit: &Circuit,
    ) -> Result<Prepared, BackendError> {
        Ok(Prepared::Nothing)
    }

    /// Executes `circuit` from `initial` with an artifact from
    /// [`Backend::prepare`] and answers `readout` — the backend's one
    /// execution path. The artifact must come from a circuit of the same
    /// gate structure (and, when [`Backend::prepares_state`] holds, the same
    /// initial state and angles); an artifact of another backend is
    /// replaced by a fresh one.
    ///
    /// Stochastic backends answer [`Readout::State`] with **one**
    /// trajectory (drawn from the backend's own seed) and every other
    /// readout with the ensemble average.
    fn execute(
        &self,
        prepared: &Prepared,
        initial: &InitialState,
        circuit: &Circuit,
        readout: Readout<'_>,
    ) -> Result<Outcome, BackendError>;

    /// Evolves the initial state through `circuit` and returns the final
    /// dense state (one trajectory on stochastic backends). Non-dense
    /// backends return [`BackendError::DenseStateUnavailable`].
    fn run(&self, initial: &InitialState, circuit: &Circuit) -> Result<StateVector, BackendError> {
        let prepared = self.prepare(initial, circuit)?;
        match self.execute(&prepared, initial, circuit, Readout::State)? {
            Outcome::State(state) => Ok(state),
            other => unreachable!("a state readout answered with {other:?}"),
        }
    }

    /// Measurement probabilities of the evolved state in the computational
    /// basis (ensemble-averaged for stochastic backends).
    fn probabilities(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<Vec<f64>, BackendError> {
        let prepared = self.prepare(initial, circuit)?;
        match self.execute(&prepared, initial, circuit, Readout::Probabilities)? {
            Outcome::Probabilities(probs) => Ok(probs),
            other => unreachable!("a probability readout answered with {other:?}"),
        }
    }

    /// Expectation value `⟨ψ|H|ψ⟩` of a Hermitian Pauli-sum observable on
    /// the evolved state (ensemble-averaged for stochastic backends).
    ///
    /// This is the production observable path: the preprocessed
    /// [`GroupedPauliSum`] is evaluated **matrix-free** in one amplitude
    /// sweep per group of strings on the dense engines, and read per string
    /// straight off the tableau on the stabilizer engine. Prepare the
    /// observable once (it only depends on the Hamiltonian) and reuse it
    /// across evaluations; the sparse path survives as
    /// [`Backend::expectation_sparse`], the correctness oracle of the
    /// property tests.
    fn expectation(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        observable: &GroupedPauliSum,
    ) -> Result<f64, BackendError> {
        let prepared = self.prepare(initial, circuit)?;
        match self.execute(
            &prepared,
            initial,
            circuit,
            Readout::Expectation(observable),
        )? {
            Outcome::Value(value) => Ok(value),
            other => unreachable!("an expectation readout answered with {other:?}"),
        }
    }

    /// Expectation value `⟨ψ|A|ψ⟩` of a Hermitian sparse-matrix observable
    /// on the evolved state (ensemble-averaged for stochastic backends).
    ///
    /// Slow-oracle path: a generic sparse mat-vec plus an inner product.
    /// Production code should expand the observable over Pauli strings and
    /// use [`Backend::expectation`]; this entry point is kept as the oracle
    /// the matrix-free engine is property-tested against, and for operators
    /// with no convenient Pauli expansion.
    fn expectation_sparse(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        observable: &SparseMatrix,
    ) -> Result<f64, BackendError> {
        let prepared = self.prepare(initial, circuit)?;
        let readout = Readout::SparseExpectation(observable);
        match self.execute(&prepared, initial, circuit, readout)? {
            Outcome::Value(value) => Ok(value),
            other => unreachable!("an expectation readout answered with {other:?}"),
        }
    }

    /// Draws `shots` computational-basis outcomes as dense indices. On the
    /// dense engines this is the batched shot engine: the pre-measurement
    /// distribution is computed **once**, cached in an alias table, and
    /// every shot costs `O(1)` — `O(2^n + shots)` total, bit-identical for
    /// a fixed `seed`. Registers wider than a machine word cannot be
    /// indexed; use [`Backend::sample_bits`] there.
    fn sample(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<usize>, BackendError> {
        let n = circuit.num_qubits();
        if n > usize::BITS as usize {
            return Err(BackendError::RegisterTooLarge {
                qubits: n,
                max_qubits: usize::BITS as usize,
                backend: self.name(),
            });
        }
        let prepared = self.prepare(initial, circuit)?;
        match self.execute(&prepared, initial, circuit, Readout::Shots { shots, seed })? {
            Outcome::Shots(indices) => Ok(indices),
            other => unreachable!("a shot readout on {n} qubits answered with {other:?}"),
        }
    }

    /// Draws `shots` computational-basis outcomes as packed
    /// [`BitString`]s — the wide-register form of [`Backend::sample`], and
    /// the native shot path of the stabilizer engine (per-shot tableau
    /// collapse on derived RNG streams). For registers that fit a `usize`
    /// the two entry points see the same outcomes.
    fn sample_bits(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<BitString>, BackendError> {
        let n = circuit.num_qubits();
        let prepared = self.prepare(initial, circuit)?;
        match self.execute(&prepared, initial, circuit, Readout::Shots { shots, seed })? {
            Outcome::Shots(indices) => Ok(indices
                .into_iter()
                .map(|index| BitString::from_index(n, index))
                .collect()),
            Outcome::BitShots(bits) => Ok(bits),
            other => unreachable!("a shot readout answered with {other:?}"),
        }
    }

    /// Energy `⟨ψ(θ)|H|ψ(θ)⟩` **and its full parameter gradient** for a
    /// parameterized circuit bound at `params`.
    ///
    /// The default implementation is the **parameter-shift rule**
    /// ([`parameter_shift_gradient`]), evaluated through
    /// [`Backend::expectation`]: exact (to machine precision) for every
    /// differentiable gate kind of the IR, including the four-term rule for
    /// controlled rotations, and valid for *any* backend that can run the
    /// bound circuits — on a stochastic backend it differentiates the
    /// ensemble-averaged energy. Its cost is two to four full circuit
    /// executions **per bound gate**.
    ///
    /// The deterministic state-vector engines ([`StatevectorEngine`]) use
    /// the adjoint method instead ([`ghs_statevector::adjoint_gradient`]):
    /// one forward and one reverse sweep for the whole gradient, `O(P)`
    /// inner products — the CI perf gate enforces its ≥5× advantage at 20+
    /// parameters.
    ///
    /// ```
    /// use ghs_circuit::ParameterizedCircuit;
    /// use ghs_core::backend::{Backend, FusedStatevector, InitialState};
    /// use ghs_math::c64;
    /// use ghs_operators::{PauliString, PauliSum};
    /// use ghs_statevector::GroupedPauliSum;
    ///
    /// // E(θ) = ⟨0|RY(θ)† Z RY(θ)|0⟩ = cos θ.
    /// let mut pc = ParameterizedCircuit::new(1, 1);
    /// pc.ry_p(0, 0, 1.0);
    /// let mut sum = PauliSum::zero(1);
    /// sum.push(c64(1.0, 0.0), PauliString::parse("Z").unwrap());
    /// let obs = GroupedPauliSum::new(&sum);
    /// let (e, g) = FusedStatevector
    ///     .expectation_gradient(&InitialState::ZeroState, &pc, &[0.6], &obs)
    ///     .unwrap();
    /// assert!((e - 0.6f64.cos()).abs() < 1e-12);
    /// assert!((g[0] + 0.6f64.sin()).abs() < 1e-12);
    /// ```
    fn expectation_gradient(
        &self,
        initial: &InitialState,
        circuit: &ParameterizedCircuit,
        params: &[f64],
        observable: &GroupedPauliSum,
    ) -> Result<(f64, Vec<f64>), BackendError> {
        parameter_shift_gradient(self, initial, circuit, params, observable)
    }
}

/// Reads `readout` off a probability vector: the probabilities themselves,
/// or seeded shots drawn from their alias table — the batched shot engine
/// of every backend that samples from a distribution.
fn read_probabilities(probs: Vec<f64>, readout: Readout<'_>) -> Outcome {
    match readout {
        Readout::Shots { shots, seed } => {
            Outcome::Shots(CachedDistribution::from_probabilities(probs).sample_seeded(shots, seed))
        }
        _ => Outcome::Probabilities(probs),
    }
}

/// The per-gate shift rule of one differentiable gate kind: `(coefficient,
/// shift)` pairs such that `dE/dθ = Σ_i c_i · E(θ + s_i)`.
///
/// Plain rotations and (keyed) phase gates generate two eigenvalue
/// differences `{0, ±1}` — the classic two-term `±π/2` rule. Controlled
/// rotations have generator eigenvalues `{0, ±1/2}`, whose differences
/// `{±1/2, ±1}` need the four-term rule. Global phases do not move the
/// energy at all.
fn shift_rule(gate: &Gate) -> Vec<(f64, f64)> {
    match gate {
        Gate::GlobalPhase(_) => vec![],
        Gate::Rx { .. }
        | Gate::Ry { .. }
        | Gate::Rz { .. }
        | Gate::Phase { .. }
        | Gate::KeyedPhase { .. } => vec![(0.5, FRAC_PI_2), (-0.5, -FRAC_PI_2)],
        Gate::McRx { controls, .. } | Gate::McRy { controls, .. } | Gate::McRz { controls, .. } => {
            if controls.is_empty() {
                return vec![(0.5, FRAC_PI_2), (-0.5, -FRAC_PI_2)];
            }
            // f'(0) = c₊·[f(π/2) − f(−π/2)] − c₋·[f(3π/2) − f(−3π/2)]
            // with c± = (√2 ± 1)/(4√2) — exact for frequencies {1/2, 1}.
            let c_plus = (SQRT_2 + 1.0) / (4.0 * SQRT_2);
            let c_minus = (SQRT_2 - 1.0) / (4.0 * SQRT_2);
            vec![
                (c_plus, FRAC_PI_2),
                (-c_plus, -FRAC_PI_2),
                (-c_minus, 3.0 * FRAC_PI_2),
                (c_minus, -3.0 * FRAC_PI_2),
            ]
        }
        other => panic!("gate {other} has no differentiable angle"),
    }
}

/// Energy and gradient of a parameterized circuit by the **parameter-shift
/// rule** through an arbitrary backend: for every binding of `circuit`, the
/// binding's shift-rule combination of shifted energies, chain rule through
/// the affine scale included. It is the [`Backend::expectation_gradient`]
/// default, the oracle the adjoint engine is property-tested against, and
/// the benchmark baseline of the gradient perf workloads (backends that use
/// the adjoint method stay reachable through this function).
pub fn parameter_shift_gradient<B: Backend + ?Sized>(
    backend: &B,
    initial: &InitialState,
    circuit: &ParameterizedCircuit,
    params: &[f64],
    observable: &GroupedPauliSum,
) -> Result<(f64, Vec<f64>), BackendError> {
    let mut scratch = circuit.bind(params);
    let energy = backend.expectation(initial, &scratch, observable)?;
    let mut gradient = vec![0.0f64; circuit.num_params()];
    for (bi, binding) in circuit.bindings().iter().enumerate() {
        let mut dtheta = 0.0;
        for (coeff, shift) in shift_rule(&circuit.template().gates()[binding.gate]) {
            circuit.bind_shifted_into(params, bi, shift, &mut scratch);
            dtheta += coeff * backend.expectation(initial, &scratch, observable)?;
        }
        gradient[binding.expr.param] += binding.expr.scale * dtheta;
    }
    Ok((energy, gradient))
}

/// A deterministic pure-state engine. It only says how it plans a circuit
/// and how it evolves a dense state; the blanket [`Backend`] impl gives
/// every such engine the same readouts (the batched shot engine included)
/// and the same adjoint gradient.
pub trait StatevectorEngine {
    /// The engine's [`Backend::name`].
    const NAME: &'static str;

    /// The engine's [`Backend::prepare`]; the initial state never matters.
    fn plan(&self, circuit: &Circuit) -> Prepared;

    /// Evolves `initial` through `circuit` with an artifact from
    /// [`StatevectorEngine::plan`].
    fn evolve(
        &self,
        prepared: &Prepared,
        initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<StateVector, BackendError>;
}

impl<E: StatevectorEngine> Backend for E {
    fn name(&self) -> &'static str {
        E::NAME
    }

    fn prepare(
        &self,
        _initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<Prepared, BackendError> {
        Ok(self.plan(circuit))
    }

    fn execute(
        &self,
        prepared: &Prepared,
        initial: &InitialState,
        circuit: &Circuit,
        readout: Readout<'_>,
    ) -> Result<Outcome, BackendError> {
        let state = self.evolve(prepared, initial, circuit)?;
        Ok(match readout {
            Readout::State => Outcome::State(state),
            Readout::Expectation(observable) => {
                Outcome::Value(state.expectation_grouped(observable).re)
            }
            Readout::SparseExpectation(observable) => {
                Outcome::Value(state.expectation_sparse(observable).re)
            }
            Readout::Probabilities | Readout::Shots { .. } => read_probabilities(
                state.amplitudes().iter().map(|a| a.norm_sqr()).collect(),
                readout,
            ),
        })
    }

    /// Adjoint-mode gradient: one forward sweep, one reverse sweep, `O(P)`
    /// masked inner products — instead of the default's `O(P)` full
    /// simulations (see [`ghs_statevector::adjoint_gradient`]). The sweeps
    /// are layout-independent, so every engine shares the flat one.
    fn expectation_gradient(
        &self,
        initial: &InitialState,
        circuit: &ParameterizedCircuit,
        params: &[f64],
        observable: &GroupedPauliSum,
    ) -> Result<(f64, Vec<f64>), BackendError> {
        let init = initial.to_statevector(circuit.num_qubits(), E::NAME)?;
        let r = adjoint_gradient(&init, circuit, params, observable);
        Ok((r.energy, r.gradient))
    }
}

/// The production backend: fused gate-application engine (one cache-friendly
/// sweep per fused op, specialized diagonal/permutation/sparse/dense
/// kernels). Exact to machine precision; agrees with
/// [`ReferenceStatevector`] to `1e-12` on random circuits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusedStatevector;

impl StatevectorEngine for FusedStatevector {
    const NAME: &'static str = "fused-statevector";

    /// Below 10 qubits fusing costs more than the per-gate sweep it
    /// replaces, so nothing is planned. From [`SHARDED_MIN_QUBITS`] qubits,
    /// where the flat sweep turns memory-bound, the plan is the sharded
    /// engine's. The two paths are bit-identical (the sharded engine
    /// replays the flat kernels' per-amplitude arithmetic and returns
    /// amplitudes in logical order), so the crossover is unobservable.
    fn plan(&self, circuit: &Circuit) -> Prepared {
        let n = circuit.num_qubits();
        if n >= SHARDED_MIN_QUBITS {
            ShardedStatevector.plan(circuit)
        } else if (1usize << n) >= FUSED_MIN_DIM {
            Prepared::Plan(circuit.fusion_plan())
        } else {
            Prepared::Nothing
        }
    }

    fn evolve(
        &self,
        prepared: &Prepared,
        initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<StateVector, BackendError> {
        if let Prepared::Sharded { .. } = prepared {
            return ShardedStatevector.evolve(prepared, initial, circuit);
        }
        let mut state = initial.to_statevector(circuit.num_qubits(), Self::NAME)?;
        match prepared {
            Prepared::Plan(plan) => state.apply_fused(&plan.emit(circuit)),
            _ => state.run_fused(circuit),
        }
        Ok(state)
    }
}

/// The dense scale backend: executes through
/// [`ghs_statevector::ShardedStateVector`] — amplitudes split into
/// cache-sized shards, hot qubits relabeled intra-shard
/// ([`ghs_circuit::QubitRelabeling`]), and consecutive shard-local fused ops
/// cache-blocked per shard. Bit-identical to [`FusedStatevector`] on every
/// circuit, for every shard count (`GHS_SHARD_COUNT`); intended for the
/// 24–30 qubit range where the flat sweep is memory-bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardedStatevector;

impl StatevectorEngine for ShardedStatevector {
    const NAME: &'static str = "sharded-statevector";

    fn plan(&self, circuit: &Circuit) -> Prepared {
        Prepared::Sharded {
            plan: circuit.fusion_plan(),
            relabeling: OnceLock::new(),
        }
    }

    /// Symbolic initial states start straight in the shard layout, so no
    /// flat copy of the register is ever built on the way in.
    fn evolve(
        &self,
        prepared: &Prepared,
        initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<StateVector, BackendError> {
        let Prepared::Sharded { plan, relabeling } = prepared else {
            return self.evolve(&self.plan(circuit), initial, circuit);
        };
        let n = circuit.num_qubits();
        initial.check(n, Self::NAME)?;
        let mut state = match initial {
            InitialState::ZeroState => ShardedStateVector::zero_state(n),
            InitialState::Basis(index) => ShardedStateVector::basis_state(n, *index),
            InitialState::Dense(dense) => ShardedStateVector::from_state(dense),
        };
        let fused = plan.emit(circuit);
        let relabeling = relabeling.get_or_init(|| QubitRelabeling::for_sharding(&fused));
        state.run_fused_with(&fused, relabeling);
        Ok(state.to_state())
    }
}

/// The reference backend: one full sweep per gate, no fusion. Slow but
/// obviously correct — the oracle the property tests pit every other backend
/// against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReferenceStatevector;

impl StatevectorEngine for ReferenceStatevector {
    const NAME: &'static str = "reference-statevector";

    fn plan(&self, _circuit: &Circuit) -> Prepared {
        Prepared::Nothing
    }

    fn evolve(
        &self,
        _prepared: &Prepared,
        initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<StateVector, BackendError> {
        let mut state = initial.to_statevector(circuit.num_qubits(), Self::NAME)?;
        state.run_unfused(circuit);
        Ok(state)
    }
}

/// Domain tag of the noise-trajectory RNG streams. It keeps trajectory
/// streams disjoint from the shot-chunk streams of
/// [`CachedDistribution::sample_seeded`] even when a caller passes the same
/// value as backend seed and sampling seed — otherwise the coin flips that
/// shaped trajectory `k`'s noise would reappear as the draws of shot chunk
/// `k`, correlating shots with the ensemble they sample from.
const TRAJECTORY_DOMAIN: u64 = 0x0074_7261_6a65_6374; // "traject"

/// Seeded Kraus-channel trajectory ensembles under a [`NoiseModel`] of CPTP
/// channels — the quantum-trajectory unravelling of the noisy circuit
/// (Dalibard, Castin & Mølmer, PRL 68, 580 (1992)).
///
/// After every gate, each channel the model attaches to the gate's class is
/// sampled once per touched qubit from the trajectory's own RNG stream:
///
/// * **Pauli channels** (every Kraus operator proportional to a Pauli,
///   classified once when the channel is built) keep the cheap mask path —
///   one coin flip, then a Pauli gate application;
/// * **general channels** (amplitude/phase damping, user Kraus sets) do
///   norm-weighted Kraus selection: branch `k` is chosen with probability
///   `‖K_k ψ‖²` and the state re-normalised — the standard quantum-
///   trajectory unravelling, whose ensemble average converges to the
///   density-matrix oracle ([`DensityMatrixBackend`]).
///
/// A noiseless model consumes no RNG at all, so every trajectory is the
/// per-gate reference sweep and the backend agrees with
/// [`ReferenceStatevector`] **bit-exactly** (a property test enforces this).
///
/// ```
/// use ghs_circuit::Circuit;
/// use ghs_core::backend::{Backend, InitialState, TrajectoryNoise};
/// use ghs_operators::kraus::{KrausChannel, NoiseModel};
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let model = NoiseModel::noiseless().with_all_gates(KrausChannel::amplitude_damping(0.05));
/// let backend = TrajectoryNoise::new(model, 64, 7);
/// let probs = backend.probabilities(&InitialState::ZeroState, &bell).unwrap();
/// assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-10);
/// // Deterministic for a fixed configuration.
/// assert_eq!(
///     probs,
///     backend.probabilities(&InitialState::ZeroState, &bell).unwrap()
/// );
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrajectoryNoise {
    /// Gate-class → channel map applied after every gate.
    pub model: NoiseModel,
    /// Number of trajectories averaged by the ensemble entry points.
    pub trajectories: usize,
    /// Master seed; trajectory `t` uses the stream derived from `(seed, t)`.
    pub seed: u64,
}

impl TrajectoryNoise {
    /// A trajectory ensemble of `trajectories` seeded runs under `model`.
    pub fn new(model: NoiseModel, trajectories: usize, seed: u64) -> Self {
        TrajectoryNoise {
            model,
            trajectories,
            seed,
        }
    }

    /// Number of trajectories, never below one. A noiseless model makes
    /// every trajectory the same RNG-free sweep, so the ensemble collapses
    /// to a single simulation.
    fn ensemble(&self) -> usize {
        if self.model.is_noiseless() {
            1
        } else {
            self.trajectories.max(1)
        }
    }

    /// Samples one channel application on `qubit`. Pauli channels use the
    /// cheap mask path (gate application, no renormalisation); general
    /// channels select a Kraus branch by its norm weight.
    fn sample_channel(
        state: &mut StateVector,
        qubit: usize,
        channel: &KrausChannel,
        rng: &mut StdRng,
    ) {
        if let Some([_, px, py, pz]) = channel.pauli_probabilities() {
            // Cheap mask path. The RNG call pattern is fixed: one `gen_bool`
            // per channel, plus a uniform `gen_range(0..3)` only when the
            // error part is spread evenly over X/Y/Z. Seeded outputs of the
            // `noisy` backend, the examples and the determinism checks are
            // pinned to this stream.
            let p_err = px + py + pz;
            if p_err <= 0.0 || !rng.gen_bool(p_err.min(1.0)) {
                return;
            }
            let weights = [px, py, pz];
            let nonzero = weights.iter().filter(|w| **w > 0.0).count();
            let choice = if nonzero == 1 {
                weights.iter().position(|w| *w > 0.0).unwrap()
            } else if (px - py).abs() < 1e-15 && (py - pz).abs() < 1e-15 {
                rng.gen_range(0..3u32) as usize
            } else {
                let mut u: f64 = rng.gen_range(0.0..1.0) * p_err;
                let mut idx = 2;
                for (i, w) in weights.iter().enumerate() {
                    if u < *w {
                        idx = i;
                        break;
                    }
                    u -= *w;
                }
                idx
            };
            let pauli = match choice {
                0 => Gate::X(qubit),
                1 => Gate::Y(qubit),
                _ => Gate::Z(qubit),
            };
            state.apply_gate(&pauli);
            return;
        }
        // General channel: branch k fires with probability ‖K_k ψ‖².
        // CPTP guarantees the weights sum to 1; the last branch absorbs
        // round-off.
        let u: f64 = rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        let ops = channel.ops();
        for (k, op) in ops.iter().enumerate() {
            let mut candidate = state.clone();
            candidate.apply_controlled_single_qubit(qubit, &[], op);
            let w = candidate.norm();
            acc += w * w;
            if u < acc || k + 1 == ops.len() {
                candidate.normalize();
                *state = candidate;
                return;
            }
        }
    }

    /// Runs one noise trajectory on the stream derived from `(seed, index)`
    /// under the [`TRAJECTORY_DOMAIN`] tag.
    fn trajectory(&self, initial: &StateVector, circuit: &Circuit, index: usize) -> StateVector {
        let mut rng =
            StdRng::seed_from_u64(derive_stream_seed(self.seed ^ TRAJECTORY_DOMAIN, index));
        let mut s = initial.clone();
        for gate in circuit.gates() {
            s.apply_gate(gate);
            let touched = gate.qubits();
            let channels = self.model.channels_for(touched.len());
            for q in touched {
                for channel in channels {
                    Self::sample_channel(&mut s, q, channel, &mut rng);
                }
            }
        }
        s
    }
}

impl Backend for TrajectoryNoise {
    fn name(&self) -> &'static str {
        "trajectory-noise"
    }

    /// A statevector envelope with the stochastic flag raised: every output
    /// is a seeded trajectory-ensemble average.
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            stochastic: true,
            ..Capabilities::statevector()
        }
    }

    fn execute(
        &self,
        _prepared: &Prepared,
        initial: &InitialState,
        circuit: &Circuit,
        readout: Readout<'_>,
    ) -> Result<Outcome, BackendError> {
        let init = initial.to_statevector(circuit.num_qubits(), self.name())?;
        let t = self.ensemble();
        let trajectory = |index| self.trajectory(&init, circuit, index);
        let mean = |value: &dyn Fn(&StateVector) -> f64| {
            (0..t).map(|index| value(&trajectory(index))).sum::<f64>() / t as f64
        };
        // `State` is trajectory 0; every other readout averages the whole
        // ensemble in trajectory order (shots are drawn from the averaged
        // distribution).
        Ok(match readout {
            Readout::State => Outcome::State(trajectory(0)),
            Readout::Expectation(observable) => {
                Outcome::Value(mean(&|s| s.expectation_grouped(observable).re))
            }
            Readout::SparseExpectation(observable) => {
                Outcome::Value(mean(&|s| s.expectation_sparse(observable).re))
            }
            Readout::Probabilities | Readout::Shots { .. } => {
                let mut acc = vec![0.0f64; init.dim()];
                for index in 0..t {
                    let state = trajectory(index);
                    for (a, amp) in acc.iter_mut().zip(state.amplitudes()) {
                        *a += amp.norm_sqr();
                    }
                }
                let inv = 1.0 / t as f64;
                for a in &mut acc {
                    *a *= inv;
                }
                read_probabilities(acc, readout)
            }
        })
    }
}

/// The exact noisy-simulation oracle: evolves the full density matrix `ρ`
/// under the same [`NoiseModel`] the trajectory backend samples, via
/// superoperator application of fused blocks
/// ([`ghs_statevector::DensityMatrix`]).
///
/// Outputs are **exact** ensemble averages — what [`TrajectoryNoise`] must
/// converge to as `trajectories → ∞` (the CI noise-accuracy gate enforces
/// the statistical bound). The quadratic memory cost caps admission at
/// [`DensityMatrixBackend::MAX_QUBITS`] qubits through
/// [`Capabilities::max_qubits`], checked by the job service like any other
/// envelope.
///
/// [`Backend::run`] is a typed [`BackendError::DenseStateUnavailable`]: a
/// mixed state has no pure `2^n`-amplitude representation. Expectations,
/// probabilities, sampling and (shift-rule) gradients all work.
///
/// ```
/// use ghs_circuit::Circuit;
/// use ghs_core::backend::{Backend, DensityMatrixBackend, InitialState};
/// use ghs_operators::kraus::NoiseModel;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let exact = DensityMatrixBackend::new(NoiseModel::depolarizing(0.1));
/// let probs = exact.probabilities(&InitialState::ZeroState, &bell).unwrap();
/// assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// // Noise leaks probability outside the two ideal Bell outcomes.
/// assert!(probs[0b01] > 0.0 && probs[0b10] > 0.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DensityMatrixBackend {
    /// Noise channels applied during evolution (noiseless by default, which
    /// makes the backend an exact small-register statevector oracle).
    pub model: NoiseModel,
}

impl DensityMatrixBackend {
    /// Register cap: the vectorised `ρ` holds `4^n` amplitudes, so 12
    /// qubits already cost 256 MiB. Enforced at admission through
    /// [`Capabilities::max_qubits`].
    pub const MAX_QUBITS: usize = 12;

    /// A density-matrix oracle evolving under `model`.
    pub fn new(model: NoiseModel) -> Self {
        DensityMatrixBackend { model }
    }

    /// Evolves the initial state's density matrix through `circuit` under
    /// the backend's noise model — the shared path behind every trait entry
    /// point, also usable directly when the caller wants `ρ` itself.
    pub fn evolve(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<DensityMatrix, BackendError> {
        let n = circuit.num_qubits();
        if n > Self::MAX_QUBITS {
            return Err(BackendError::RegisterTooLarge {
                qubits: n,
                max_qubits: Self::MAX_QUBITS,
                backend: self.name(),
            });
        }
        // Basis states skip the dense `2^n` register and the `O(4^n)` outer product.
        initial.check(n, self.name())?;
        let mut rho = match initial {
            InitialState::ZeroState => DensityMatrix::basis_state(n, 0),
            InitialState::Basis(index) => DensityMatrix::basis_state(n, *index),
            InitialState::Dense(psi) => DensityMatrix::from_statevector(psi),
        };
        rho.evolve(circuit, &self.model);
        Ok(rho)
    }
}

impl Backend for DensityMatrixBackend {
    fn name(&self) -> &'static str {
        "density-matrix"
    }

    /// Exact (non-stochastic) envelope with the quadratic-memory register
    /// cap; gradients go through the default shift rule over exact noisy
    /// expectations.
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            max_qubits: Self::MAX_QUBITS,
            ..Capabilities::statevector()
        }
    }

    /// Evolves `ρ` and reads it off: the exact diagonal for probabilities
    /// (and the shots drawn from it), `tr(ρH)` through the vectorised mask
    /// sweep, `tr(ρA)` on the sparse oracle path. [`Readout::State`] is
    /// always a typed error: a mixed state has no dense pure-state output.
    fn execute(
        &self,
        _prepared: &Prepared,
        initial: &InitialState,
        circuit: &Circuit,
        readout: Readout<'_>,
    ) -> Result<Outcome, BackendError> {
        if let Readout::State = readout {
            return Err(BackendError::DenseStateUnavailable {
                backend: self.name(),
            });
        }
        let rho = self.evolve(initial, circuit)?;
        Ok(match readout {
            Readout::Expectation(observable) => Outcome::Value(rho.expectation_grouped(observable)),
            Readout::SparseExpectation(observable) => {
                Outcome::Value(rho.expectation_sparse(observable).re)
            }
            _ => read_probabilities(rho.probabilities(), readout),
        })
    }
}

/// Shots per parallel work unit of the stabilizer shot path. Each shot owns
/// a full tableau clone and collapse, so units are small; determinism does
/// not depend on the chunking (every shot derives its own RNG stream).
const STABILIZER_SHOT_CHUNK: usize = 16;

/// Domain tag separating the stabilizer per-shot streams from the dense
/// alias-table chunk streams and the noise-trajectory streams when a caller
/// reuses one seed across backends.
const STABILIZER_SHOT_DOMAIN: u64 = 0x0073_7461_6273_6d70; // "stabsmp"

/// The Clifford scale backend: an Aaronson–Gottesman stabilizer tableau
/// ([`ghs_stabilizer::StabilizerState`]) — `O(n²)` bits of state and
/// `O(n)` per gate instead of `O(2^n)` amplitudes, running Clifford
/// circuits at thousands of qubits.
///
/// What it serves, and how:
///
/// * [`Backend::sample_bits`] — the native shot path: the circuit is
///   conjugated into the tableau **once**, then every shot collapses a
///   clone of the prepared tableau under measurement, on its own RNG
///   stream derived from `(seed, shot)` — bit-identical across runs and
///   thread counts;
/// * [`Backend::sample`] — same outcomes as dense indices, for registers
///   that fit a machine word;
/// * [`Backend::expectation`] — Pauli-sum expectations read term by term
///   straight off the tableau (each string is exactly `0` or `±1`);
/// * [`Backend::probabilities`] — exact dyadic probabilities by branching
///   the measurement tree, capped at
///   [`STABILIZER_DENSE_MAX_QUBITS`] qubits (the output itself is `2^n`).
///
/// Everything outside the Clifford vocabulary is a typed error:
/// non-Clifford gates ([`BackendError::UnsupportedCircuit`]), dense initial
/// states ([`BackendError::InitialStateMismatch`]), dense state output
/// ([`BackendError::DenseStateUnavailable`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StabilizerBackend;

impl StabilizerBackend {
    /// Register cap: tableau memory is `n²/2` bytes, so 16 384 qubits cost
    /// 128 MiB — well past "thousands of qubits" while still bounding
    /// admission.
    pub const MAX_QUBITS: usize = 1 << 14;

    /// Conjugates `circuit` into a tableau starting from `initial` — the
    /// backend's [`Backend::prepare`], which `ghs_service` caches per
    /// circuit structure, initial state and angles. Symbolic initial states
    /// only; the first non-Clifford gate aborts with a typed error.
    pub fn prepare(
        &self,
        initial: &InitialState,
        circuit: &Circuit,
    ) -> Result<StabilizerState, BackendError> {
        let n = circuit.num_qubits();
        if n > Self::MAX_QUBITS {
            return Err(BackendError::RegisterTooLarge {
                qubits: n,
                max_qubits: Self::MAX_QUBITS,
                backend: self.name(),
            });
        }
        let mut state = match initial {
            InitialState::ZeroState => StabilizerState::zero_state(n),
            InitialState::Basis(index) => {
                if n < usize::BITS as usize && *index >= (1usize << n) {
                    return Err(BackendError::InitialStateMismatch {
                        backend: self.name(),
                        detail: format!("basis index {index} out of range for {n} qubits"),
                    });
                }
                StabilizerState::basis_state(n, *index)
            }
            InitialState::Dense(_) => {
                return Err(BackendError::InitialStateMismatch {
                    backend: self.name(),
                    detail: "the tableau engine cannot ingest dense amplitudes".to_string(),
                })
            }
        };
        state
            .apply_circuit(circuit)
            .map_err(|e| BackendError::UnsupportedCircuit {
                gate: e.gate,
                backend: self.name(),
            })?;
        Ok(state)
    }

    /// Draws `shots` outcomes from a prepared tableau: shot `k` clones the
    /// tableau and measures every qubit under the RNG stream derived from
    /// `(seed, k)`. Chunks run rayon-parallel, but the output depends only
    /// on `(tableau, shots, seed)` — bit-identical across thread counts.
    pub fn sample_prepared(tableau: &StabilizerState, shots: usize, seed: u64) -> Vec<BitString> {
        let n = tableau.num_qubits();
        let mut out: Vec<BitString> = vec![BitString::zeros(0); shots];
        let fill = |base: usize, chunk: &mut [BitString]| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                let mut rng = StdRng::seed_from_u64(derive_stream_seed(
                    seed ^ STABILIZER_SHOT_DOMAIN,
                    base + k,
                ));
                let mut shot_state = tableau.clone();
                *slot = shot_state.measure_all(&mut rng);
            }
        };
        if shots > STABILIZER_SHOT_CHUNK {
            out.par_chunks_mut(STABILIZER_SHOT_CHUNK)
                .enumerate()
                .for_each(|(ci, chunk)| fill(ci * STABILIZER_SHOT_CHUNK, chunk));
        } else {
            fill(0, &mut out);
        }
        debug_assert!(out.iter().all(|s| s.len() == n));
        out
    }
}

impl Backend for StabilizerBackend {
    fn name(&self) -> &'static str {
        "stabilizer-tableau"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            max_qubits: Self::MAX_QUBITS,
            clifford_only: true,
            stochastic: false,
            supports_gradients: false,
        }
    }

    fn prepares_state(&self) -> bool {
        true
    }

    /// The tableau after the whole circuit ([`StabilizerBackend::prepare`]).
    fn prepare(&self, initial: &InitialState, circuit: &Circuit) -> Result<Prepared, BackendError> {
        StabilizerBackend::prepare(self, initial, circuit).map(Prepared::Tableau)
    }

    /// Reads the prepared tableau off (see the type docs). Shots come back
    /// as dense indices while the register fits a machine word, as bit
    /// strings beyond.
    fn execute(
        &self,
        prepared: &Prepared,
        initial: &InitialState,
        circuit: &Circuit,
        readout: Readout<'_>,
    ) -> Result<Outcome, BackendError> {
        let Prepared::Tableau(tableau) = prepared else {
            let prepared = Backend::prepare(self, initial, circuit)?;
            return self.execute(&prepared, initial, circuit, readout);
        };
        let n = tableau.num_qubits();
        let word = usize::BITS as usize;
        let too_large = |max_qubits| BackendError::RegisterTooLarge {
            qubits: n,
            max_qubits,
            backend: self.name(),
        };
        match readout {
            Readout::State | Readout::SparseExpectation(_) => {
                Err(BackendError::DenseStateUnavailable {
                    backend: self.name(),
                })
            }
            Readout::Probabilities if n > STABILIZER_DENSE_MAX_QUBITS => {
                Err(too_large(STABILIZER_DENSE_MAX_QUBITS))
            }
            Readout::Probabilities => Ok(Outcome::Probabilities(tableau.basis_probabilities())),
            Readout::Expectation(_) if n > word => Err(too_large(word)),
            Readout::Expectation(observable) => {
                let mut acc = Complex64::ZERO;
                for (coeff, x_mask, z_mask) in observable.string_masks() {
                    acc += coeff * tableau.expectation_dense_masks(x_mask, z_mask);
                }
                Ok(Outcome::Value(acc.re))
            }
            Readout::Shots { shots, seed } => {
                let bits = Self::sample_prepared(tableau, shots, seed);
                Ok(if n <= word {
                    Outcome::Shots(
                        bits.iter()
                            .map(|b| b.to_index().expect("register fits a machine word"))
                            .collect(),
                    )
                } else {
                    Outcome::BitShots(bits)
                })
            }
        }
    }
}

/// Declarative description of a backend — the plain-data form a job
/// submission or a config file carries, turned into a live [`Backend`] with
/// [`BackendSpec::build`]. Unlike a boxed trait object it is `Clone`,
/// comparable and printable, which is what queued job specs need.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum BackendSpec {
    /// The fusion-accelerated statevector backend ([`FusedStatevector`]).
    #[default]
    Fused,
    /// The sharded cache-blocked statevector backend
    /// ([`ShardedStatevector`]).
    Sharded,
    /// The gate-by-gate reference backend ([`ReferenceStatevector`]).
    Reference,
    /// The Clifford stabilizer-tableau backend ([`StabilizerBackend`]).
    Stabilizer,
    /// A Kraus-channel trajectory ensemble ([`TrajectoryNoise`]).
    Trajectory {
        /// Gate-class → channel map applied after every gate.
        model: NoiseModel,
        /// Trajectories averaged by the ensemble entry points.
        trajectories: usize,
        /// Master seed for the trajectory streams.
        seed: u64,
    },
    /// The exact density-matrix oracle ([`DensityMatrixBackend`]).
    Density {
        /// Gate-class → channel map applied after every gate.
        model: NoiseModel,
    },
}

impl BackendSpec {
    /// Instantiates the described backend.
    pub fn build(&self) -> Box<dyn Backend + Send + Sync> {
        match self {
            BackendSpec::Fused => Box::new(FusedStatevector),
            BackendSpec::Sharded => Box::new(ShardedStatevector),
            BackendSpec::Reference => Box::new(ReferenceStatevector),
            BackendSpec::Stabilizer => Box::new(StabilizerBackend),
            BackendSpec::Trajectory {
                model,
                trajectories,
                seed,
            } => Box::new(TrajectoryNoise::new(model.clone(), *trajectories, *seed)),
            BackendSpec::Density { model } => Box::new(DensityMatrixBackend::new(model.clone())),
        }
    }

    /// Stable display name, matching [`backend_by_name`]'s vocabulary.
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::Fused => "fused",
            BackendSpec::Sharded => "sharded",
            BackendSpec::Reference => "reference",
            BackendSpec::Stabilizer => "stabilizer",
            BackendSpec::Trajectory { .. } => "trajectory",
            BackendSpec::Density { .. } => "density",
        }
    }
}

/// Looks a backend up by its selection name (see the README's backend
/// table): `"fused"`, `"sharded"`, `"reference"`, `"stabilizer"`,
/// `"noisy"` and `"trajectory"` (both [`TrajectoryNoise`] with depolarizing
/// `1%`, 10 trajectories, seed 0), or `"density"` (the exact noiseless
/// density-matrix oracle). Unknown names are a typed
/// [`BackendError::UnknownName`].
pub fn backend_by_name(name: &str) -> Result<Box<dyn Backend>, BackendError> {
    match name {
        "fused" => Ok(Box::new(FusedStatevector)),
        "sharded" => Ok(Box::new(ShardedStatevector)),
        "reference" => Ok(Box::new(ReferenceStatevector)),
        "stabilizer" => Ok(Box::new(StabilizerBackend)),
        "noisy" | "trajectory" => Ok(Box::new(TrajectoryNoise::new(
            NoiseModel::depolarizing(0.01),
            10,
            0,
        ))),
        "density" => Ok(Box::new(DensityMatrixBackend::default())),
        other => Err(BackendError::UnknownName(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ghz_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c
    }

    #[test]
    fn fused_and_reference_agree_on_run() {
        let mut rng = StdRng::seed_from_u64(3);
        let initial = InitialState::from(StateVector::random_state(6, &mut rng));
        let c = ghz_circuit(6);
        let f = FusedStatevector.run(&initial, &c).unwrap();
        let r = ReferenceStatevector.run(&initial, &c).unwrap();
        assert!(f.distance(&r) < 1e-12);
    }

    #[test]
    fn sharded_backend_is_bit_identical_to_fused() {
        let mut rng = StdRng::seed_from_u64(17);
        let initial = InitialState::from(StateVector::random_state(7, &mut rng));
        let c = ghz_circuit(7);
        let f = FusedStatevector.run(&initial, &c).unwrap();
        let s = ShardedStatevector.run(&initial, &c).unwrap();
        assert_eq!(f.amplitudes(), s.amplitudes());
        let zero = InitialState::ZeroState;
        assert_eq!(
            FusedStatevector.sample(&zero, &c, 512, 5).unwrap(),
            ShardedStatevector.sample(&zero, &c, 512, 5).unwrap()
        );
        assert_eq!(
            backend_by_name("sharded").unwrap().name(),
            "sharded-statevector"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let c = ghz_circuit(5);
        let zero = InitialState::ZeroState;
        let a = FusedStatevector.sample(&zero, &c, 2000, 11).unwrap();
        let b = FusedStatevector.sample(&zero, &c, 2000, 11).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| s == 0 || s == 0b11111));
    }

    #[test]
    fn zero_noise_trajectories_match_reference_exactly() {
        let mut rng = StdRng::seed_from_u64(8);
        let initial = InitialState::from(StateVector::random_state(5, &mut rng));
        let c = ghz_circuit(5);
        let noisy = TrajectoryNoise::new(NoiseModel::pauli(0.0, 0.0), 4, 99);
        let r = ReferenceStatevector.run(&initial, &c).unwrap();
        assert_eq!(
            noisy.run(&initial, &c).unwrap(),
            r,
            "zero noise must be RNG-free"
        );
        let probs = noisy.probabilities(&initial, &c).unwrap();
        for (p, amp) in probs.iter().zip(r.amplitudes()) {
            assert!((p - amp.norm_sqr()).abs() < 1e-15);
        }
    }

    #[test]
    fn noise_decoheres_the_ghz_state() {
        // With noise on, the GHZ sampling distribution leaks outside the two
        // ideal outcomes.
        let c = ghz_circuit(5);
        let zero = InitialState::ZeroState;
        let noisy = TrajectoryNoise::new(NoiseModel::pauli(0.2, 0.0), 20, 7);
        let probs = noisy.probabilities(&zero, &c).unwrap();
        let ideal_mass = probs[0] + probs[0b11111];
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        assert!(ideal_mass < 0.999, "noise left the state untouched");
    }

    #[test]
    fn noisy_ensemble_quantities_are_deterministic() {
        let c = ghz_circuit(4);
        let zero = InitialState::ZeroState;
        let noisy = TrajectoryNoise::new(NoiseModel::pauli(0.05, 0.02), 6, 21);
        let probs = noisy.probabilities(&zero, &c).unwrap();
        assert_eq!(probs, noisy.probabilities(&zero, &c).unwrap());
        let shots = noisy.sample(&zero, &c, 500, 3).unwrap();
        assert_eq!(shots, noisy.sample(&zero, &c, 500, 3).unwrap());
        // The Pauli-trajectory stream, pinned bit for bit: any change to the
        // Pauli path's RNG call pattern or probabilities breaks these.
        let (a, b) = (0x3fcf_ffff_ffff_fffd_u64, 0x3fb5_5555_5555_5554_u64);
        let pinned = [a, 0, b, b, 0, 0, 0, b, b, 0, 0, 0, b, b, 0, a];
        assert_eq!(
            probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            pinned
        );
        let digits: String = shots.iter().map(|s| format!("{s:x}")).collect();
        assert_eq!(digits, PINNED_SHOTS.concat());
    }

    /// `sample(.., 500, 3)` of the pinned Pauli-trajectory configuration,
    /// one hex digit per 4-qubit shot.
    const PINNED_SHOTS: [&str; 10] = [
        "df0000020f0ff8ddf8d2f3f807f2cc8ff030d77df23dc3f22f",
        "00f80728f30f70d88dfd0cdff3ffff0ff207f88fd70cf07c87",
        "00ffc0f888dcf000c7020ff7037f0008f8080f7d8220ddfcc0",
        "0d0cffd2dff7708f7220fff2fc22cf00f0fff700c070f7dfdf",
        "0070f03cf23003dcf0df00027ff0ffff008f82d2707f0dc03f",
        "ff323807f30230fffcfcf072fdcdff002f8fd80d0dcff2f002",
        "c033f070f70300f88f2c03f08733c0dff88c38d8dff7d3022f",
        "8282f8f7dc03f2cc0dffff822c3d00f000dd22f82dcdf28f80",
        "ff0f20d0ff0270703dc0283fffc3f020dfc70f0fdf0f0f0d00",
        "70730c7333020f20cfcf8020238802f22070dfc7ff70d0fff0",
    ];

    #[test]
    fn adjoint_and_shift_gradients_agree_on_all_gate_kinds() {
        use ghs_circuit::ControlBit;
        use ghs_operators::{PauliString, PauliSum};
        // A circuit touching every differentiable kind, including a
        // controlled rotation (exercising the four-term shift rule).
        let mut pc = ParameterizedCircuit::new(3, 4);
        pc.h_fixed(0).h_fixed(1).h_fixed(2);
        pc.rx_p(0, 0, 1.0)
            .ry_p(1, 1, -0.8)
            .rz_p(2, 2, 0.6)
            .phase_p(1, 3, 1.1)
            .keyed_phase_p(vec![ControlBit::one(0), ControlBit::zero(2)], 0, 0.9)
            .mcry_p(vec![ControlBit::one(0)], 2, 1, 0.7)
            .mcrz_p(vec![ControlBit::one(1), ControlBit::zero(0)], 2, 2, -1.2);
        let mut sum = PauliSum::zero(3);
        sum.push(ghs_math::c64(0.7, 0.0), PauliString::parse("ZIZ").unwrap());
        sum.push(ghs_math::c64(-0.5, 0.0), PauliString::parse("XYI").unwrap());
        sum.push(ghs_math::c64(0.4, 0.0), PauliString::parse("IXX").unwrap());
        let obs = GroupedPauliSum::new(&sum);
        let zero = InitialState::ZeroState;
        let params = [0.31, -0.62, 0.47, 1.05];

        let (e_adj, g_adj) = FusedStatevector
            .expectation_gradient(&zero, &pc, &params, &obs)
            .unwrap();
        let (e_ref, g_ref) = ReferenceStatevector
            .expectation_gradient(&zero, &pc, &params, &obs)
            .unwrap();
        let (e_shift, g_shift) =
            parameter_shift_gradient(&FusedStatevector, &zero, &pc, &params, &obs).unwrap();
        assert!((e_adj - e_shift).abs() < 1e-12);
        assert!((e_adj - e_ref).abs() < 1e-12);
        for k in 0..4 {
            assert!(
                (g_adj[k] - g_shift[k]).abs() < 1e-10,
                "component {k}: adjoint {} vs shift {}",
                g_adj[k],
                g_shift[k]
            );
            assert!((g_adj[k] - g_ref[k]).abs() < 1e-10);
        }
    }

    #[test]
    fn noisy_backend_falls_back_to_parameter_shift() {
        use ghs_operators::{PauliString, PauliSum};
        let mut pc = ParameterizedCircuit::new(2, 2);
        pc.h_fixed(0);
        pc.ry_p(0, 0, 1.0)
            .mcrx_p(vec![ghs_circuit::ControlBit::one(0)], 1, 1, 0.9);
        let mut sum = PauliSum::zero(2);
        sum.push(ghs_math::c64(1.0, 0.0), PauliString::parse("ZZ").unwrap());
        let obs = GroupedPauliSum::new(&sum);
        let zero = InitialState::ZeroState;
        let params = [0.4, -0.8];
        // Zero-strength noise is RNG-free: its shift gradient must equal the
        // reference backend's adjoint gradient to tight tolerance.
        let quiet = TrajectoryNoise::new(NoiseModel::pauli(0.0, 0.0), 3, 7);
        let (e_q, g_q) = quiet
            .expectation_gradient(&zero, &pc, &params, &obs)
            .unwrap();
        let (e_r, g_r) = ReferenceStatevector
            .expectation_gradient(&zero, &pc, &params, &obs)
            .unwrap();
        assert!((e_q - e_r).abs() < 1e-12);
        for k in 0..2 {
            assert!((g_q[k] - g_r[k]).abs() < 1e-10, "component {k}");
        }
        // At non-zero strength the gradient is of the *ensemble* energy:
        // still deterministic for a fixed configuration.
        let noisy = TrajectoryNoise::new(NoiseModel::pauli(0.05, 0.0), 4, 11);
        let a = noisy
            .expectation_gradient(&zero, &pc, &params, &obs)
            .unwrap();
        let b = noisy
            .expectation_gradient(&zero, &pc, &params, &obs)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn expectation_through_trait_object() {
        // Object safety: drive a `&dyn Backend` end to end, through both the
        // matrix-free path and the sparse oracle.
        use ghs_operators::{PauliString, PauliSum};
        let backend: Box<dyn Backend> = backend_by_name("fused").unwrap();
        let mut c = Circuit::new(1);
        c.h(0);
        let mut sum = PauliSum::zero(1);
        sum.push(ghs_math::c64(1.0, 0.0), PauliString::parse("X").unwrap());
        let grouped = GroupedPauliSum::new(&sum);
        let zero = InitialState::ZeroState;
        let e = backend.expectation(&zero, &c, &grouped).unwrap();
        assert!((e - 1.0).abs() < 1e-12, "⟨+|X|+⟩ = 1, got {e}");
        let x = SparseMatrix::from_dense(&ghs_circuit::matrices::x(), 0.0);
        let oracle = backend.expectation_sparse(&zero, &c, &x).unwrap();
        assert!(
            (e - oracle).abs() < 1e-12,
            "matrix-free {e} vs oracle {oracle}"
        );
        assert!(matches!(
            backend_by_name("unknown"),
            Err(BackendError::UnknownName(_))
        ));
    }

    #[test]
    fn stabilizer_backend_samples_wide_ghz_registers() {
        let n = 256;
        let c = ghz_circuit(n);
        let backend = backend_by_name("stabilizer").unwrap();
        let shots = backend
            .sample_bits(&InitialState::ZeroState, &c, 64, 5)
            .unwrap();
        assert_eq!(shots.len(), 64);
        let mut seen = [false; 2];
        for s in &shots {
            let ones = s.count_ones();
            assert!(ones == 0 || ones == n, "GHZ shot mixed: {ones} ones");
            seen[usize::from(ones == n)] = true;
        }
        assert!(seen[0] && seen[1], "64 GHZ shots never split");
        // Bit-identical reruns under the same seed.
        assert_eq!(
            shots,
            backend
                .sample_bits(&InitialState::ZeroState, &c, 64, 5)
                .unwrap()
        );
    }

    #[test]
    fn stabilizer_typed_errors_cover_every_unsupported_request() {
        let backend = StabilizerBackend;
        let zero = InitialState::ZeroState;
        let mut non_clifford = Circuit::new(2);
        non_clifford.h(0).rz(1, 0.4);
        assert!(matches!(
            backend.sample(&zero, &non_clifford, 8, 0),
            Err(BackendError::UnsupportedCircuit { .. })
        ));
        let bell = ghz_circuit(2);
        assert!(matches!(
            backend.run(&zero, &bell),
            Err(BackendError::DenseStateUnavailable { .. })
        ));
        let dense = InitialState::from(StateVector::zero_state(2));
        assert!(matches!(
            backend.sample(&dense, &bell, 8, 0),
            Err(BackendError::InitialStateMismatch { .. })
        ));
        let wide = ghz_circuit(STABILIZER_DENSE_MAX_QUBITS + 1);
        assert!(matches!(
            backend.probabilities(&zero, &wide),
            Err(BackendError::RegisterTooLarge { .. })
        ));
    }

    #[test]
    fn capabilities_describe_each_backend() {
        assert!(!FusedStatevector.capabilities().clifford_only);
        assert!(FusedStatevector.capabilities().supports_gradients);
        assert!(backend_by_name("noisy").unwrap().capabilities().stochastic);
        let caps = StabilizerBackend.capabilities();
        assert!(caps.clifford_only && !caps.supports_gradients);
        assert!(caps.max_qubits >= 1000, "must admit 1000-qubit registers");
        let density_caps = DensityMatrixBackend::default().capabilities();
        assert_eq!(density_caps.max_qubits, DensityMatrixBackend::MAX_QUBITS);
        assert!(!density_caps.stochastic && density_caps.supports_gradients);
    }

    #[test]
    fn zero_strength_kraus_trajectories_match_reference_exactly() {
        let mut rng = StdRng::seed_from_u64(23);
        let initial = InitialState::from(StateVector::random_state(5, &mut rng));
        let c = ghz_circuit(5);
        // Zero-strength constructors collapse to trivial channels, which the
        // model drops: the backend must be RNG-free and bit-identical to the
        // reference path.
        let model = NoiseModel::noiseless()
            .with_all_gates(KrausChannel::amplitude_damping(0.0))
            .with_all_gates(KrausChannel::phase_damping(0.0))
            .with_all_gates(KrausChannel::depolarizing(0.0));
        assert!(model.is_noiseless());
        let quiet = TrajectoryNoise::new(model, 4, 99);
        let r = ReferenceStatevector.run(&initial, &c).unwrap();
        assert_eq!(quiet.run(&initial, &c).unwrap(), r);
    }

    #[test]
    fn general_kraus_trajectories_are_deterministic_and_normalised() {
        let c = ghz_circuit(4);
        let zero = InitialState::ZeroState;
        let model = NoiseModel::noiseless()
            .with_all_gates(KrausChannel::amplitude_damping(0.1))
            .with_single_qubit(KrausChannel::phase_damping(0.05));
        let noisy = TrajectoryNoise::new(model, 8, 13);
        let a = noisy.probabilities(&zero, &c).unwrap();
        let b = noisy.probabilities(&zero, &c).unwrap();
        assert_eq!(a, b, "seeded ensembles must be deterministic");
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        // Amplitude damping pulls weight towards |0…0⟩ relative to |1…1⟩.
        assert!(a[0] > a[0b1111]);
    }

    #[test]
    fn density_backend_is_exact_oracle_on_noiseless_circuits() {
        use ghs_operators::{PauliString, PauliSum};
        let c = ghz_circuit(4);
        let zero = InitialState::ZeroState;
        let mut sum = PauliSum::zero(4);
        sum.push(ghs_math::c64(0.8, 0.0), PauliString::parse("ZZII").unwrap());
        sum.push(
            ghs_math::c64(-0.3, 0.0),
            PauliString::parse("XXXX").unwrap(),
        );
        let obs = GroupedPauliSum::new(&sum);
        let exact = DensityMatrixBackend::default();
        let dense = FusedStatevector.expectation(&zero, &c, &obs).unwrap();
        let mixed = exact.expectation(&zero, &c, &obs).unwrap();
        assert!((dense - mixed).abs() < 1e-10, "dense {dense} vs ρ {mixed}");
        // A dense initial state takes the outer-product arm.
        let psi = InitialState::from(StateVector::random_state(4, &mut StdRng::seed_from_u64(4)));
        let dense = FusedStatevector.expectation(&psi, &c, &obs).unwrap();
        let mixed = exact.expectation(&psi, &c, &obs).unwrap();
        assert!((dense - mixed).abs() < 1e-10, "dense {dense} vs ρ {mixed}");
        // Typed errors: no dense state, and a hard register cap.
        assert!(matches!(
            exact.run(&zero, &c),
            Err(BackendError::DenseStateUnavailable { .. })
        ));
        let wide = ghz_circuit(DensityMatrixBackend::MAX_QUBITS + 1);
        assert!(matches!(
            exact.probabilities(&zero, &wide),
            Err(BackendError::RegisterTooLarge { .. })
        ));
    }

    #[test]
    fn basis_initial_state_matches_dense_preparation() {
        let c = ghz_circuit(4);
        let symbolic = FusedStatevector
            .run(&InitialState::basis(0b1010), &c)
            .unwrap();
        let dense = FusedStatevector
            .run(&InitialState::from(StateVector::basis_state(4, 0b1010)), &c)
            .unwrap();
        assert_eq!(symbolic.amplitudes(), dense.amplitudes());
        // Out-of-range indices are typed errors on every engine.
        assert!(matches!(
            FusedStatevector.run(&InitialState::basis(16), &c),
            Err(BackendError::InitialStateMismatch { .. })
        ));
        assert!(matches!(
            StabilizerBackend.sample(&InitialState::basis(16), &c, 4, 0),
            Err(BackendError::InitialStateMismatch { .. })
        ));
    }
}
