//! The batched job executor: a pool of persistent workers stealing from the
//! fair multi-queue, executing jobs through the shared artifact cache.
//!
//! # Determinism
//!
//! Every job's output is a pure function of its own [`JobSpec`] (including
//! its seed) — workers share read-only artifacts (prepared values,
//! observables, distributions) but never accumulate state across jobs that
//! could leak into a result. Scheduling, worker count and cache hits
//! therefore change *when* a job runs, never *what* it returns: a seeded job
//! stream yields bit-identical results on one worker, sixteen workers, or
//! with caching disabled.
//!
//! # One execution path
//!
//! The service owns no execution code: each job runs on the backend its
//! spec builds, through that backend's own entry points. A job binds its
//! circuit fresh. Gradient and mitigated-expectation jobs then call the
//! backend once; every other job looks up (or has the backend build) the
//! cached [`ghs_core::Prepared`] value of its circuit and hands it to
//! [`Backend::execute`] — the path a direct backend call takes, so cached
//! and direct results are bit-identical by construction. Basis-initial
//! sampling jobs check the distribution cache first, so a hit skips
//! preparation and execution altogether. A job's cost is emission and
//! sweeps; a fresh bind and a fresh state cost microseconds against them,
//! and keep workers stateless.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ghs_core::{zero_noise_extrapolation, Backend, BackendError, Outcome, Readout};
use ghs_statevector::CachedDistribution;
#[cfg(test)]
use {
    ghs_core::{BackendSpec, DensityMatrixBackend, InitialState, TrajectoryNoise},
    ghs_statevector::GroupedPauliSum,
};

use crate::cache::{angle_bits, ArtifactKey, CacheStats, PlanCache};
use crate::job::{CircuitSource, JobId, JobOutput, JobRequest, JobResult, JobSpec, SubmitError};
use crate::queue::FairQueue;

/// Sizing and fairness knobs of a [`Service`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads; `0` means one per available hardware thread.
    pub workers: usize,
    /// Bound on *queued* jobs — pushes beyond it block (or fail, for
    /// `try_submit`) until workers drain the queue.
    pub queue_capacity: usize,
    /// Bound on queued **plus running** jobs — the total admission window.
    pub max_in_flight: usize,
    /// Per-map capacity of the plan cache; `0` disables caching.
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 256,
            max_in_flight: 512,
            cache_capacity: 64,
        }
    }
}

impl ServiceConfig {
    /// A single-worker configuration: jobs run strictly in the fair queue's
    /// pop order. The reference setup for determinism comparisons.
    pub fn serial() -> Self {
        Self {
            workers: 1,
            ..Self::default()
        }
    }
}

/// Everything guarded by the queue lock.
struct QueueState {
    fair: FairQueue<(JobId, JobSpec)>,
    running: usize,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    /// Signalled when work arrives (or shutdown begins): wakes workers.
    work_cv: Condvar,
    /// Signalled when admission space frees up: wakes blocked submitters.
    space_cv: Condvar,
    done: Mutex<HashMap<JobId, JobOutput>>,
    /// Signalled when a job finishes: wakes waiters.
    done_cv: Condvar,
    cache: PlanCache,
    next_id: AtomicU64,
    max_in_flight: usize,
}

/// The batched job service (see the crate docs for the full tour).
///
/// ```
/// use std::sync::Arc;
/// use ghs_circuit::ParameterizedCircuit;
/// use ghs_math::c64;
/// use ghs_operators::{PauliString, PauliSum};
/// use ghs_service::{JobOutput, JobSpec, Service, ServiceConfig};
///
/// // E(θ) = ⟨0|RY(θ)† Z RY(θ)|0⟩ = cos θ, evaluated as a job stream: the
/// // template and observable are prepared once, every further binding
/// // reuses the cached artifacts.
/// let mut ansatz = ParameterizedCircuit::new(1, 1);
/// ansatz.ry_p(0, 0, 1.0);
/// let ansatz = Arc::new(ansatz);
/// let mut z = PauliSum::zero(1);
/// z.push(c64(1.0, 0.0), PauliString::parse("Z").unwrap());
/// let z = Arc::new(z);
///
/// let service = Service::new(ServiceConfig::default());
/// let id = service
///     .submit(JobSpec::expectation((ansatz.clone(), vec![0.6]), z.clone()))
///     .unwrap();
/// let result = service.wait(id);
/// let JobOutput::Expectation(e) = result.output else { panic!() };
/// assert!((e - 0.6f64.cos()).abs() < 1e-12);
/// ```
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the worker pool described by `config`.
    pub fn new(config: ServiceConfig) -> Self {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let mut service = Self::build(&config);
        service.workers = (0..workers)
            .map(|_| {
                let shared = service.shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        service
    }

    /// A service with **no workers**: submissions queue but never run. Lets
    /// tests exercise backpressure (`try_submit` → `QueueFull`) and fairness
    /// deterministically, without racing a live pool.
    #[doc(hidden)]
    pub fn new_paused(config: ServiceConfig) -> Self {
        Self::build(&config)
    }

    fn build(config: &ServiceConfig) -> Self {
        assert!(config.max_in_flight > 0, "max_in_flight must be non-zero");
        Self {
            shared: Arc::new(Shared {
                queue: Mutex::new(QueueState {
                    fair: FairQueue::new(config.queue_capacity),
                    running: 0,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                space_cv: Condvar::new(),
                done: Mutex::new(HashMap::new()),
                done_cv: Condvar::new(),
                cache: PlanCache::new(config.cache_capacity),
                next_id: AtomicU64::new(0),
                max_in_flight: config.max_in_flight,
            }),
            workers: Vec::new(),
        }
    }

    /// Number of live worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job, **blocking** while the admission window (queue
    /// capacity or in-flight bound) is full. Returns the ticket to redeem
    /// with [`Service::wait`].
    ///
    /// ```
    /// use ghs_circuit::Circuit;
    /// use ghs_service::{JobOutput, JobSpec, Service, ServiceConfig};
    ///
    /// let mut bell = Circuit::new(2);
    /// bell.h(0).cx(0, 1);
    /// let service = Service::new(ServiceConfig::serial());
    /// let id = service.submit(JobSpec::sample(bell, 64).with_seed(11)).unwrap();
    /// let JobOutput::Shots(shots) = service.wait(id).output else { panic!() };
    /// // A Bell pair only ever measures |00⟩ or |11⟩.
    /// assert!(shots.iter().all(|&s| s == 0b00 || s == 0b11));
    /// ```
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.admit(spec, true)
    }

    /// Non-blocking [`Service::submit`]: fails with [`SubmitError::QueueFull`]
    /// instead of waiting when the admission window is full.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.admit(spec, false)
    }

    fn admit(&self, spec: JobSpec, block: bool) -> Result<JobId, SubmitError> {
        spec.validate()?;
        let shared = &self.shared;
        let mut q = shared.queue.lock().unwrap();
        loop {
            if q.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            let window_full = q.fair.len() + q.running >= shared.max_in_flight;
            if !window_full && !q.fair.is_full() {
                break;
            }
            if !block {
                return Err(SubmitError::QueueFull);
            }
            q = shared.space_cv.wait(q).unwrap();
        }
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let submitter = spec.submitter;
        q.fair
            .push(submitter, (id, spec))
            .unwrap_or_else(|_| unreachable!("space was checked under the lock"));
        drop(q);
        shared.work_cv.notify_one();
        Ok(id)
    }

    /// Blocks until job `id` finishes and returns its result. Each ticket is
    /// redeemable once.
    pub fn wait(&self, id: JobId) -> JobResult {
        let shared = &self.shared;
        let mut done = shared.done.lock().unwrap();
        loop {
            if let Some(output) = done.remove(&id) {
                return JobResult { id, output };
            }
            done = shared.done_cv.wait(done).unwrap();
        }
    }

    /// Submits every spec (validating all of them up front) and waits for
    /// all results, returned **in submission order** regardless of worker
    /// scheduling.
    pub fn run_batch(&self, specs: &[JobSpec]) -> Result<Vec<JobResult>, SubmitError> {
        for spec in specs {
            spec.validate()?;
        }
        let ids: Vec<JobId> = specs
            .iter()
            .map(|spec| self.submit(spec.clone()))
            .collect::<Result<_, _>>()?;
        Ok(ids.into_iter().map(|id| self.wait(id)).collect())
    }

    /// Snapshot of the shared plan cache's hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        self.shared.space_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (id, spec) = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.fair.pop() {
                    q.running += 1;
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.work_cv.wait(q).unwrap();
            }
        };
        // Queue space freed by the pop: wake one blocked submitter.
        shared.space_cv.notify_one();

        // A panicking job must not take the worker down (the pool would
        // silently shrink) or leave waiters blocked forever: catch the
        // unwind and report it as a typed failure. Workers hold no state of
        // their own, and the shared caches only ever mutate under their own
        // short locks, which recover from poisoning (see
        // `cache::lock_recover`).
        let output = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(&shared.cache, &spec)
        }))
        .unwrap_or_else(|payload| {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            JobOutput::Failed(BackendError::ExecutionPanicked { detail })
        });

        {
            let mut q = shared.queue.lock().unwrap();
            q.running -= 1;
        }
        // The in-flight window shrank too.
        shared.space_cv.notify_one();
        let mut done = shared.done.lock().unwrap();
        done.insert(id, output);
        shared.done_cv.notify_all();
    }
}

/// Runs one job on the backend its spec builds. Typed backend failures
/// become [`JobOutput::Failed`] instead of unwinding a worker.
fn run_job(cache: &PlanCache, spec: &JobSpec) -> JobOutput {
    let backend = spec.backend.build();
    let result = match &spec.request {
        JobRequest::Gradient { observable } => {
            let CircuitSource::Template { template, params } = &spec.circuit else {
                unreachable!("validated at submission");
            };
            let grouped = cache.observable(observable);
            backend
                .expectation_gradient(&spec.initial, template, params, &grouped)
                .map(|(energy, gradient)| JobOutput::Gradient { energy, gradient })
        }
        // Mitigation drives the whole backend: folded circuits at several
        // noise scales, each measured through the backend's entry points.
        JobRequest::MitigatedExpectation {
            observable,
            lambdas,
            method,
        } => {
            let grouped = cache.observable(observable);
            let circuit = spec.circuit.bind();
            zero_noise_extrapolation(
                &*backend,
                &spec.initial,
                &circuit,
                &grouped,
                lambdas,
                *method,
            )
            .map(|result| JobOutput::MitigatedExpectation {
                mitigated: result.mitigated,
                raw: result.raw(),
                energies: result.energies,
            })
        }
        _ => execute(cache, spec, &*backend),
    };
    result.unwrap_or_else(JobOutput::Failed)
}

/// The path of every expectation, sampling and probability job: bind, check
/// the distribution cache (basis-initial samples only), look up or build
/// the prepared value, execute.
fn execute(
    cache: &PlanCache,
    spec: &JobSpec,
    backend: &dyn Backend,
) -> Result<JobOutput, BackendError> {
    let circuit = spec.circuit.bind();
    let initial = &spec.initial;
    let structure = spec.circuit.structural_key();
    let key = |execution| ArtifactKey {
        backend: spec.backend.clone(),
        structure,
        execution,
    };
    // Dense initial states have no compact cache identity: they skip every
    // cache keyed by the execution.
    let execution = || {
        initial
            .basis_index()
            .map(|index| (index, angle_bits(&circuit)))
    };
    let prepare = || {
        let build = || backend.prepare(initial, &circuit);
        if !backend.prepares_state() {
            cache.prepared(key(None), build)
        } else if let Some(execution) = execution() {
            cache.prepared(key(Some(execution)), build)
        } else {
            build().map(Arc::new)
        }
    };

    // The seed drives only the draw, so repeated jobs with distinct seeds
    // share one alias table and still get independent, deterministic
    // streams.
    if let JobRequest::Sample { shots } = spec.request {
        if let (false, Some(execution)) = (backend.prepares_state(), execution()) {
            let dist = cache.distribution(key(Some(execution)), || {
                match backend.execute(&*prepare()?, initial, &circuit, Readout::Probabilities)? {
                    Outcome::Probabilities(probs) => {
                        Ok(CachedDistribution::from_probabilities(probs))
                    }
                    other => unreachable!("a probability readout answered with {other:?}"),
                }
            })?;
            return Ok(JobOutput::Shots(dist.sample_seeded(shots, spec.seed)));
        }
    }

    let grouped;
    let readout = match &spec.request {
        JobRequest::Expectation { observable } => {
            grouped = cache.observable(observable);
            Readout::Expectation(&grouped)
        }
        JobRequest::Sample { shots } => Readout::Shots {
            shots: *shots,
            seed: spec.seed,
        },
        JobRequest::Probabilities => Readout::Probabilities,
        JobRequest::Gradient { .. } | JobRequest::MitigatedExpectation { .. } => {
            unreachable!("run by `run_job`")
        }
    };
    Ok(
        match backend.execute(&*prepare()?, initial, &circuit, readout)? {
            Outcome::Value(energy) => JobOutput::Expectation(energy),
            Outcome::Probabilities(probs) => JobOutput::Probabilities(probs),
            Outcome::Shots(shots) => JobOutput::Shots(shots),
            Outcome::BitShots(bits) => JobOutput::BitShots(bits),
            Outcome::State(_) => unreachable!("no job reads the dense state"),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use ghs_circuit::Circuit;
    use ghs_math::c64;
    use ghs_operators::{PauliString, PauliSum};
    use ghs_statevector::StateVector;
    use std::sync::Arc;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    fn zz() -> Arc<PauliSum> {
        let mut sum = PauliSum::zero(2);
        sum.push(c64(1.0, 0.0), PauliString::parse("ZZ").unwrap());
        Arc::new(sum)
    }

    #[test]
    fn paused_service_reports_queue_full_deterministically() {
        let service = Service::new_paused(ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            max_in_flight: 2,
            cache_capacity: 8,
        });
        let spec = JobSpec::expectation(bell(), zz());
        service.try_submit(spec.clone()).unwrap();
        service.try_submit(spec.clone()).unwrap();
        assert_eq!(
            service.try_submit(spec.clone()),
            Err(SubmitError::QueueFull)
        );
        // The in-flight bound also gates admission, independently of raw
        // queue capacity.
        let windowed = Service::new_paused(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            max_in_flight: 1,
            cache_capacity: 8,
        });
        windowed.try_submit(spec.clone()).unwrap();
        assert_eq!(windowed.try_submit(spec), Err(SubmitError::QueueFull));
    }

    #[test]
    fn invalid_specs_are_rejected_at_submission() {
        let service = Service::new_paused(ServiceConfig::serial());
        // Observable register mismatch.
        let mut wide = PauliSum::zero(3);
        wide.push(c64(1.0, 0.0), PauliString::parse("ZZZ").unwrap());
        let err = service
            .try_submit(JobSpec::expectation(bell(), Arc::new(wide)))
            .unwrap_err();
        assert!(matches!(err, SubmitError::Invalid(_)));
        // Gradient on a concrete circuit.
        let err = service
            .try_submit(JobSpec {
                request: crate::job::JobRequest::Gradient { observable: zz() },
                ..JobSpec::expectation(bell(), zz())
            })
            .unwrap_err();
        assert!(matches!(err, SubmitError::Invalid(_)));
        // Initial basis index out of range.
        let err = service
            .try_submit(JobSpec::probabilities(bell()).starting_at(4))
            .unwrap_err();
        assert!(matches!(err, SubmitError::Invalid(_)));
    }

    #[test]
    fn bell_expectation_and_probabilities_are_exact() {
        let service = Service::new(ServiceConfig::serial());
        let batch = service
            .run_batch(&[
                JobSpec::expectation(bell(), zz()),
                JobSpec::probabilities(bell()),
                JobSpec::probabilities(bell()).starting_at(1),
            ])
            .unwrap();
        let JobOutput::Expectation(e) = batch[0].output else {
            panic!("wrong output kind");
        };
        assert!((e - 1.0).abs() < 1e-12);
        let JobOutput::Probabilities(p) = &batch[1].output else {
            panic!("wrong output kind");
        };
        assert!((p[0] - 0.5).abs() < 1e-12 && (p[3] - 0.5).abs() < 1e-12);
        // |01⟩ input: H ⊗ CX maps it into the odd-parity Bell pair.
        let JobOutput::Probabilities(p) = &batch[2].output else {
            panic!("wrong output kind");
        };
        assert!((p[1] - 0.5).abs() < 1e-12 && (p[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn panicking_job_fails_typed_and_does_not_wedge_the_worker() {
        // One worker: if the panic killed or wedged it, the follow-up job
        // could never complete and `wait` would block forever.
        let service = Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        // Admission checks a dense initial state's size, not its norm, and
        // the alias-table sampler rejects an all-zero distribution with a
        // panic at execution time — exactly the class of failure the worker
        // must absorb instead of unwinding.
        let zero_amplitudes = StateVector::from_amplitudes(2, vec![c64(0.0, 0.0); 4]);
        let bad = JobSpec::sample(bell(), 16).with_initial(zero_amplitudes);
        let id = service.submit(bad).unwrap();
        let result = service.wait(id);
        assert!(
            matches!(
                result.output,
                JobOutput::Failed(BackendError::ExecutionPanicked { .. })
            ),
            "expected a typed panic failure, got {:?}",
            result.output
        );
        // The same (sole) worker keeps serving jobs afterwards, through the
        // same shared caches.
        let good = service.submit(JobSpec::expectation(bell(), zz())).unwrap();
        let JobOutput::Expectation(e) = service.wait(good).output else {
            panic!("wrong output kind");
        };
        assert!((e - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mitigated_expectation_jobs_run_on_every_backend_family() {
        use ghs_operators::kraus::{KrausChannel, NoiseModel};

        let service = Service::new(ServiceConfig::serial());
        let model = NoiseModel::noiseless().with_all_gates(KrausChannel::depolarizing(0.01));
        let specs = [
            // Noiseless fused backend: mitigation is the identity.
            JobSpec::mitigated_expectation(bell(), zz()),
            // Exact density oracle under depolarizing noise.
            JobSpec::mitigated_expectation(bell(), zz()).on_backend(BackendSpec::Density {
                model: model.clone(),
            }),
            // Stochastic trajectory ensemble under the same model.
            JobSpec::mitigated_expectation(bell(), zz()).on_backend(BackendSpec::Trajectory {
                model,
                trajectories: 200,
                seed: 13,
            }),
        ];
        let results = service.run_batch(&specs).unwrap();
        for result in &results {
            let JobOutput::MitigatedExpectation {
                mitigated,
                raw,
                energies,
            } = &result.output
            else {
                panic!("wrong output kind: {:?}", result.output);
            };
            assert_eq!(energies.len(), 3);
            assert!(mitigated.is_finite() && raw.is_finite());
        }
        let JobOutput::MitigatedExpectation { mitigated, raw, .. } = results[0].output else {
            unreachable!()
        };
        assert!((mitigated - 1.0).abs() < 1e-10 && (raw - 1.0).abs() < 1e-10);
        // On the exact noisy oracle, extrapolation improves over raw.
        let JobOutput::MitigatedExpectation { mitigated, raw, .. } = results[1].output else {
            unreachable!()
        };
        assert!((mitigated - 1.0).abs() < (raw - 1.0).abs());

        // Validation rejects malformed folding ladders.
        let bad = JobSpec {
            request: crate::job::JobRequest::MitigatedExpectation {
                observable: zz(),
                lambdas: vec![1, 2],
                method: ghs_core::ExtrapolationMethod::Linear,
            },
            ..JobSpec::expectation(bell(), zz())
        };
        assert!(matches!(
            service.try_submit(bad),
            Err(SubmitError::Invalid(_))
        ));
    }

    #[test]
    fn trajectory_and_density_jobs_match_their_backends() {
        use ghs_operators::kraus::NoiseModel;

        let service = Service::new(ServiceConfig::serial());
        let model = NoiseModel::pauli(0.05, 0.02);
        let spec = JobSpec::expectation(bell(), zz()).on_backend(BackendSpec::Trajectory {
            model: model.clone(),
            trajectories: 24,
            seed: 17,
        });
        let JobOutput::Expectation(via_service) =
            service.wait(service.submit(spec).unwrap()).output
        else {
            panic!("wrong output kind");
        };
        let direct = TrajectoryNoise::new(model.clone(), 24, 17)
            .expectation(
                &InitialState::ZeroState,
                &bell(),
                &GroupedPauliSum::new(&zz()),
            )
            .unwrap();
        assert_eq!(via_service, direct, "service must be bit-identical");

        let spec = JobSpec::probabilities(bell()).on_backend(BackendSpec::Density {
            model: model.clone(),
        });
        let JobOutput::Probabilities(p) = service.wait(service.submit(spec).unwrap()).output else {
            panic!("wrong output kind");
        };
        let direct = DensityMatrixBackend::new(model)
            .probabilities(&InitialState::ZeroState, &bell())
            .unwrap();
        assert_eq!(p, direct);
        // Admission enforces the density register cap before any worker runs.
        let wide = JobSpec::probabilities(Circuit::new(13)).on_backend(BackendSpec::Density {
            model: ghs_operators::kraus::NoiseModel::noiseless(),
        });
        assert!(matches!(
            service.try_submit(wide),
            Err(SubmitError::Unsupported(
                BackendError::RegisterTooLarge { .. }
            ))
        ));
    }

    #[test]
    fn drop_with_outstanding_jobs_shuts_down_cleanly() {
        let service = Service::new(ServiceConfig::default());
        for s in 0..32 {
            service
                .submit(JobSpec::sample(bell(), 16).with_seed(s))
                .unwrap();
        }
        // Dropping joins the workers: they drain the queue before exiting,
        // and no thread is left blocked on a condvar.
        drop(service);
    }
}
