//! The typed job vocabulary: what a submission carries and what comes back.
//!
//! A [`JobSpec`] is plain data — circuit source, request kind, backend
//! description, seed — so it can be cloned, queued, logged and replayed. The
//! heavyweight pieces (circuits, templates, observables) travel behind
//! [`Arc`], so a thousand-job VQE stream shares one template and one
//! observable allocation across every spec.

use std::borrow::Cow;
use std::sync::Arc;

use ghs_circuit::{Circuit, Gate, ParameterizedCircuit, StructuralKey};
use ghs_core::{BackendError, BackendSpec, ExtrapolationMethod, InitialState};
use ghs_operators::PauliSum;
use ghs_stabilizer::{BitString, STABILIZER_DENSE_MAX_QUBITS};

/// Ticket identifying a submitted job; redeemed with `Service::wait`.
pub type JobId = u64;

/// The circuit a job executes: either a fully-specified concrete circuit or
/// a parameterized template plus the binding vector. The template form is
/// the one the executor batches: every binding of a template shares its
/// cached prepared value.
#[derive(Clone)]
pub enum CircuitSource {
    /// A concrete, fully-bound circuit.
    Concrete(Arc<Circuit>),
    /// A parameterized template to bind at `params`.
    Template {
        /// The shared ansatz template.
        template: Arc<ParameterizedCircuit>,
        /// The parameter vector to bind (`template.num_params()` entries).
        params: Vec<f64>,
    },
}

impl CircuitSource {
    /// Register size of the underlying circuit.
    pub fn num_qubits(&self) -> usize {
        match self {
            CircuitSource::Concrete(c) => c.num_qubits(),
            CircuitSource::Template { template, .. } => template.num_qubits(),
        }
    }

    /// The executable circuit: the concrete circuit itself, or the
    /// template freshly bound at `params`, fixed angles included.
    pub(crate) fn bind(&self) -> Cow<'_, Circuit> {
        match self {
            CircuitSource::Concrete(c) => Cow::Borrowed(c),
            CircuitSource::Template { template, params } => Cow::Owned(template.bind(params)),
        }
    }

    /// The angle-invariant structural key (identical for every binding of a
    /// template) — the plan-cache key.
    pub fn structural_key(&self) -> StructuralKey {
        match self {
            CircuitSource::Concrete(c) => c.structural_key(),
            CircuitSource::Template { template, .. } => template.structural_key(),
        }
    }

    /// First gate outside the Clifford vocabulary, if any — what the
    /// admission check of a Clifford-only backend reports. A template is
    /// classified on its structure (a parameterized rotation is non-Clifford
    /// whatever its binding).
    pub fn first_non_clifford(&self) -> Option<&Gate> {
        match self {
            CircuitSource::Concrete(c) => c.first_non_clifford(),
            CircuitSource::Template { template, .. } => template.template().first_non_clifford(),
        }
    }
}

impl std::fmt::Debug for CircuitSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitSource::Concrete(c) => f
                .debug_struct("Concrete")
                .field("qubits", &c.num_qubits())
                .field("gates", &c.len())
                .finish(),
            CircuitSource::Template { template, params } => f
                .debug_struct("Template")
                .field("qubits", &template.num_qubits())
                .field("gates", &template.len())
                .field("params", params)
                .finish(),
        }
    }
}

impl From<Circuit> for CircuitSource {
    fn from(circuit: Circuit) -> Self {
        CircuitSource::Concrete(Arc::new(circuit))
    }
}

impl From<Arc<Circuit>> for CircuitSource {
    fn from(circuit: Arc<Circuit>) -> Self {
        CircuitSource::Concrete(circuit)
    }
}

impl From<(Arc<ParameterizedCircuit>, Vec<f64>)> for CircuitSource {
    fn from((template, params): (Arc<ParameterizedCircuit>, Vec<f64>)) -> Self {
        CircuitSource::Template { template, params }
    }
}

/// What to compute on the evolved state.
#[derive(Clone)]
pub enum JobRequest {
    /// Energy `⟨ψ|H|ψ⟩` of a Pauli-sum observable (prepared and cached as a
    /// `GroupedPauliSum` by the service).
    Expectation {
        /// The observable, shared across the job stream.
        observable: Arc<PauliSum>,
    },
    /// Energy **and** full parameter gradient (adjoint method on the
    /// state-vector backends). Requires a [`CircuitSource::Template`].
    Gradient {
        /// The observable being differentiated.
        observable: Arc<PauliSum>,
    },
    /// `shots` seeded computational-basis outcomes through the batched shot
    /// engine.
    Sample {
        /// Number of shots to draw.
        shots: usize,
    },
    /// The full pre-measurement probability vector.
    Probabilities,
    /// Zero-noise-extrapolated energy: the observable is measured on
    /// globally folded circuits at every `λ` in `lambdas` and the curve
    /// extrapolated back to zero noise
    /// ([`ghs_core::mitigation::zero_noise_extrapolation`]). On a noiseless
    /// backend this reproduces the plain expectation.
    MitigatedExpectation {
        /// The observable, shared across the job stream.
        observable: Arc<PauliSum>,
        /// Odd global-folding factors, at least two, strictly increasing.
        lambdas: Vec<usize>,
        /// How the folded-energy curve is extrapolated to `λ = 0`.
        method: ExtrapolationMethod,
    },
}

impl std::fmt::Debug for JobRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobRequest::Expectation { observable } => f
                .debug_struct("Expectation")
                .field("terms", &observable.num_terms())
                .finish(),
            JobRequest::Gradient { observable } => f
                .debug_struct("Gradient")
                .field("terms", &observable.num_terms())
                .finish(),
            JobRequest::Sample { shots } => f.debug_struct("Sample").field("shots", shots).finish(),
            JobRequest::Probabilities => write!(f, "Probabilities"),
            JobRequest::MitigatedExpectation {
                observable,
                lambdas,
                method,
            } => f
                .debug_struct("MitigatedExpectation")
                .field("terms", &observable.num_terms())
                .field("lambdas", lambdas)
                .field("method", method)
                .finish(),
        }
    }
}

/// A complete job submission. Construct with the request-specific
/// constructors, then refine with the builder methods; the defaults are the
/// fused backend, seed `0`, initial state `|0…0⟩` and submitter `0`.
///
/// ```
/// use std::sync::Arc;
/// use ghs_circuit::Circuit;
/// use ghs_math::c64;
/// use ghs_operators::{PauliString, PauliSum};
/// use ghs_service::JobSpec;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let mut zz = PauliSum::zero(2);
/// zz.push(c64(1.0, 0.0), PauliString::parse("ZZ").unwrap());
///
/// // ⟨ZZ⟩ on a Bell pair, then 100 seeded shots of the same circuit.
/// let energy_job = JobSpec::expectation(bell.clone(), Arc::new(zz));
/// let sample_job = JobSpec::sample(bell, 100).with_seed(7);
/// assert_eq!(energy_job.circuit.num_qubits(), 2);
/// assert_eq!(sample_job.seed, 7);
/// ```
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The circuit (concrete or template + bindings).
    pub circuit: CircuitSource,
    /// What to compute.
    pub request: JobRequest,
    /// Which backend executes the job.
    pub backend: BackendSpec,
    /// Seed for every stochastic element (shot drawing, noise trajectories).
    /// Results are a pure function of the spec and this seed — never of
    /// worker count or scheduling.
    pub seed: u64,
    /// The state the job starts from: symbolic (`ZeroState` / `Basis`) or
    /// explicit dense amplitudes behind an [`Arc`].
    pub initial: InitialState,
    /// Fairness lane: jobs from different submitters are served round-robin.
    pub submitter: usize,
}

impl JobSpec {
    fn new(circuit: CircuitSource, request: JobRequest) -> Self {
        Self {
            circuit,
            request,
            backend: BackendSpec::Fused,
            seed: 0,
            initial: InitialState::ZeroState,
            submitter: 0,
        }
    }

    /// An expectation-value job.
    pub fn expectation(circuit: impl Into<CircuitSource>, observable: Arc<PauliSum>) -> Self {
        Self::new(circuit.into(), JobRequest::Expectation { observable })
    }

    /// An energy-plus-gradient job on a bound template.
    pub fn gradient(
        template: Arc<ParameterizedCircuit>,
        params: Vec<f64>,
        observable: Arc<PauliSum>,
    ) -> Self {
        Self::new(
            CircuitSource::Template { template, params },
            JobRequest::Gradient { observable },
        )
    }

    /// A seeded sampling job.
    pub fn sample(circuit: impl Into<CircuitSource>, shots: usize) -> Self {
        Self::new(circuit.into(), JobRequest::Sample { shots })
    }

    /// A probability-vector job.
    pub fn probabilities(circuit: impl Into<CircuitSource>) -> Self {
        Self::new(circuit.into(), JobRequest::Probabilities)
    }

    /// A zero-noise-extrapolated expectation job with the conventional
    /// `λ ∈ {1, 3, 5}` folding ladder and Richardson extrapolation. Override
    /// the ladder or method by constructing
    /// [`JobRequest::MitigatedExpectation`] directly.
    pub fn mitigated_expectation(
        circuit: impl Into<CircuitSource>,
        observable: Arc<PauliSum>,
    ) -> Self {
        Self::new(
            circuit.into(),
            JobRequest::MitigatedExpectation {
                observable,
                lambdas: vec![1, 3, 5],
                method: ExtrapolationMethod::Richardson,
            },
        )
    }

    /// Sets the seed of every stochastic element.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the backend.
    pub fn on_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Starts from the computational-basis state `|index⟩`.
    pub fn starting_at(mut self, index: usize) -> Self {
        self.initial = InitialState::Basis(index);
        self
    }

    /// Starts from an arbitrary [`InitialState`] (symbolic or dense).
    pub fn with_initial(mut self, initial: impl Into<InitialState>) -> Self {
        self.initial = initial.into();
        self
    }

    /// Tags the job with a fairness lane.
    pub fn from_submitter(mut self, submitter: usize) -> Self {
        self.submitter = submitter;
        self
    }

    /// Checks the spec's internal consistency **and** its feasibility on the
    /// selected backend ([`ghs_core::Capabilities`]), so workers never have
    /// to: a job that passes admission can only fail for reasons the
    /// capability vocabulary does not describe.
    pub(crate) fn validate(&self) -> Result<(), SubmitError> {
        let n = self.circuit.num_qubits();
        let invalid = |why: String| Err(SubmitError::Invalid(why));
        match &self.initial {
            InitialState::ZeroState => {}
            InitialState::Basis(index) => {
                if n < usize::BITS as usize && *index >= (1usize << n) {
                    return invalid(format!(
                        "initial basis index {index} out of range for {n} qubits"
                    ));
                }
            }
            InitialState::Dense(state) => {
                if state.num_qubits() != n {
                    return invalid(format!(
                        "dense initial state has {} qubits, circuit has {n}",
                        state.num_qubits()
                    ));
                }
            }
        }
        if let CircuitSource::Template { template, params } = &self.circuit {
            if params.len() != template.num_params() {
                return invalid(format!(
                    "template expects {} parameters, got {}",
                    template.num_params(),
                    params.len()
                ));
            }
        }
        match &self.request {
            JobRequest::Expectation { observable }
            | JobRequest::Gradient { observable }
            | JobRequest::MitigatedExpectation { observable, .. } => {
                if observable.num_qubits() != n {
                    return invalid(format!(
                        "observable acts on {} qubits, circuit on {n}",
                        observable.num_qubits()
                    ));
                }
                if matches!(self.request, JobRequest::Gradient { .. })
                    && !matches!(self.circuit, CircuitSource::Template { .. })
                {
                    return invalid("gradient jobs need a parameterized template".to_string());
                }
            }
            JobRequest::Sample { .. } | JobRequest::Probabilities => {}
        }
        if let JobRequest::MitigatedExpectation { lambdas, .. } = &self.request {
            if lambdas.len() < 2 {
                return invalid("mitigated expectations need at least two folding factors".into());
            }
            if lambdas.iter().any(|l| l % 2 == 0) {
                return invalid(format!("folding factors must be odd, got {lambdas:?}"));
            }
            if lambdas.windows(2).any(|w| w[0] >= w[1]) {
                return invalid(format!(
                    "folding factors must be strictly increasing, got {lambdas:?}"
                ));
            }
        }
        self.admit()
    }

    /// The capability half of admission: reject jobs the selected backend's
    /// [`ghs_core::Capabilities`] envelope cannot serve, with the same typed
    /// [`BackendError`] the backend itself would raise at execution time.
    fn admit(&self) -> Result<(), SubmitError> {
        let caps = self.backend.build().capabilities();
        let backend = self.backend.name();
        let n = self.circuit.num_qubits();
        if n > caps.max_qubits {
            return Err(SubmitError::Unsupported(BackendError::RegisterTooLarge {
                qubits: n,
                max_qubits: caps.max_qubits,
                backend,
            }));
        }
        if matches!(self.request, JobRequest::Gradient { .. }) && !caps.supports_gradients {
            return Err(SubmitError::Invalid(format!(
                "backend {backend} does not support gradient jobs"
            )));
        }
        if caps.clifford_only {
            if let Some(gate) = self.circuit.first_non_clifford() {
                return Err(SubmitError::Unsupported(BackendError::UnsupportedCircuit {
                    gate: gate.to_string(),
                    backend,
                }));
            }
            if matches!(self.initial, InitialState::Dense(_)) {
                return Err(SubmitError::Unsupported(
                    BackendError::InitialStateMismatch {
                        backend,
                        detail: "the tableau engine cannot ingest dense amplitudes".to_string(),
                    },
                ));
            }
            if matches!(self.request, JobRequest::Probabilities) && n > STABILIZER_DENSE_MAX_QUBITS
            {
                return Err(SubmitError::Unsupported(BackendError::RegisterTooLarge {
                    qubits: n,
                    max_qubits: STABILIZER_DENSE_MAX_QUBITS,
                    backend,
                }));
            }
        }
        Ok(())
    }
}

/// The typed payload of a finished job, matching the [`JobRequest`] kind.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutput {
    /// `⟨ψ|H|ψ⟩`.
    Expectation(f64),
    /// Energy and its full parameter gradient.
    Gradient {
        /// `⟨ψ(θ)|H|ψ(θ)⟩`.
        energy: f64,
        /// `∂E/∂θ_k` for every template parameter.
        gradient: Vec<f64>,
    },
    /// Computational-basis outcomes, one per shot, as dense indices.
    Shots(Vec<usize>),
    /// Computational-basis outcomes, one per shot, as packed bit strings —
    /// the wide-register form returned by the stabilizer backend when the
    /// register does not fit a machine word.
    BitShots(Vec<BitString>),
    /// The full probability vector, indexed by basis state.
    Probabilities(Vec<f64>),
    /// The zero-noise-extrapolated energy, alongside the measured folding
    /// curve it was read off.
    MitigatedExpectation {
        /// The `λ → 0` extrapolated energy.
        mitigated: f64,
        /// The unmitigated energy (the smallest-`λ` measurement).
        raw: f64,
        /// The measured energy at each requested folding factor.
        energies: Vec<f64>,
    },
    /// The backend could not serve the job: the typed reason, threaded
    /// through from [`ghs_core::backend::Backend`] instead of panicking a
    /// worker. Only failure modes outside the admission vocabulary land
    /// here (admission rejects everything [`ghs_core::Capabilities`]
    /// describes, at submission).
    Failed(BackendError),
}

/// A finished job: the ticket it was submitted under and its typed output.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// The ticket returned by `Service::submit`.
    pub id: JobId,
    /// The computed payload.
    pub output: JobOutput,
}

/// Why a submission was not accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue (or the in-flight bound) is full — backpressure.
    /// Only returned by the non-blocking `Service::try_submit`; the blocking
    /// `Service::submit` waits for space instead.
    QueueFull,
    /// The service is shutting down and accepts no further work.
    ShuttingDown,
    /// The spec is internally inconsistent (wrong parameter count,
    /// mismatched observable register, gradient without a template, …).
    Invalid(String),
    /// The selected backend's [`ghs_core::Capabilities`] cannot serve the
    /// job (non-Clifford circuit on the stabilizer backend, register over
    /// the backend's cap, dense initial state on a tableau engine) — the
    /// typed error the backend would raise, caught at admission.
    Unsupported(BackendError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::Invalid(why) => write!(f, "invalid job spec: {why}"),
            SubmitError::Unsupported(err) => write!(f, "unsupported job: {err}"),
        }
    }
}

impl std::error::Error for SubmitError {}
