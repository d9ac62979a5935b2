//! `service_mix`: the job service under a closed loop of [`CLIENTS`]
//! clients, each submitting one job, waiting for it, then submitting the
//! next — the way optimiser frontends call the service.
//!
//! The seeded mix (exact shares, shuffled per block of 20) reads the plan cache (hits on the shared template and on
//! repeated sampling circuits) and writes it (misses and evictions from
//! fresh HUBO topologies) in one stream:
//!
//! * ~40% expectations on a shared 12-qubit QAOA template, fresh angles;
//! * ~15% adjoint gradients on the same template;
//! * ~30% repeated-circuit sampling, served by the distribution cache;
//! * ~15% expectations on a fresh HUBO instance (plan and observable miss).
//!
//! An iteration is one job, submit to result; an episode is a block of
//! [`BLOCK`] consecutive jobs of one client.

use crate::checks;
use crate::trace::Tracer;
use crate::{repeat_setup, Config, Run};
use ghs_circuit::{Circuit, ParameterizedCircuit};
use ghs_core::backend::BackendError;
use ghs_hubo::{qaoa_parameterized, random_sparse_hubo, SeparatorStrategy};
use ghs_operators::PauliSum;
use ghs_service::{CircuitSource, JobOutput, JobRequest, JobSpec, Service, ServiceConfig};
use ghs_statevector::GroupedPauliSum;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients (the box has two hardware threads).
pub const CLIENTS: usize = 2;
/// Register size of every job.
pub const QUBITS: usize = 12;
/// QAOA layers of the shared template.
const LAYERS: usize = 3;
/// QAOA layers of a fresh-topology job.
const FRESH_LAYERS: usize = 2;
/// Distinct repeated sampling circuits.
const SAMPLERS: usize = 4;
/// Shots per sampling job.
const SHOTS: usize = 1024;
/// Jobs per client per episode.
pub const BLOCK: usize = 32;
/// Every this many jobs per client, the output is re-computed by a direct
/// backend call and compared.
const VERIFY_EVERY: usize = 8;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 15;

/// The four job kinds of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Expectation on the shared template.
    Expectation,
    /// Adjoint gradient on the shared template.
    Gradient,
    /// Repeated-circuit sampling.
    Sample,
    /// Expectation on a fresh HUBO topology.
    Fresh,
}

impl Kind {
    fn metric(self) -> &'static str {
        match self {
            Kind::Expectation => "service.job.expectation_p50_ms",
            Kind::Gradient => "service.job.gradient_p50_ms",
            Kind::Sample => "service.job.sample_p50_ms",
            Kind::Fresh => "service.job.fresh_p50_ms",
        }
    }
}

/// State shared by every client's job stream.
pub struct Shared {
    template: Arc<ParameterizedCircuit>,
    observable: Arc<PauliSum>,
    samplers: Vec<Arc<Circuit>>,
}

/// The mix, per [`MIX_BLOCK`] jobs: 8 expectations, 3 gradients, 6 samples
/// and 3 fresh topologies (40/15/30/15%). Each client shuffles one block at a
/// time, so every seed runs exactly the same mix in a different order.
const MIX: [(Kind, usize); 4] = [
    (Kind::Expectation, 8),
    (Kind::Gradient, 3),
    (Kind::Sample, 6),
    (Kind::Fresh, 3),
];
/// Jobs per shuffled block of the mix.
const MIX_BLOCK: usize = 20;

/// One client's seeded job generator.
pub struct JobStream {
    rng: StdRng,
    shared: Arc<Shared>,
    client: usize,
    pending: Vec<Kind>,
}

impl JobStream {
    /// The stream of `client` under `seed`.
    pub fn new(seed: u64, client: usize, shared: Arc<Shared>) -> Self {
        let stream_seed = seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Self {
            rng: StdRng::seed_from_u64(stream_seed),
            shared,
            client,
            pending: Vec::with_capacity(MIX_BLOCK),
        }
    }

    /// The next job.
    pub fn next_job(&mut self) -> (Kind, JobSpec) {
        let rng = &mut self.rng;
        if self.pending.is_empty() {
            for (kind, count) in MIX {
                self.pending.extend(std::iter::repeat_n(kind, count));
            }
            for i in (1..self.pending.len()).rev() {
                self.pending.swap(i, rng.gen_range(0..=i));
            }
        }
        let kind = self.pending.pop().expect("a refilled block");
        let angles = |rng: &mut StdRng, layers: usize| -> Vec<f64> {
            (0..2 * layers).map(|_| rng.gen_range(0.1..0.9)).collect()
        };
        let spec = match kind {
            Kind::Expectation => {
                let source = (self.shared.template.clone(), angles(rng, LAYERS));
                JobSpec::expectation(source, self.shared.observable.clone())
            }
            Kind::Gradient => JobSpec::gradient(
                self.shared.template.clone(),
                angles(rng, LAYERS),
                self.shared.observable.clone(),
            ),
            Kind::Sample => {
                let circuit = self.shared.samplers[rng.gen_range(0..SAMPLERS)].clone();
                JobSpec::sample(circuit, SHOTS).with_seed(rng.gen_range(0..u64::MAX))
            }
            Kind::Fresh => {
                let problem = random_sparse_hubo(QUBITS, 4, 2 * QUBITS, rng);
                let template = Arc::new(qaoa_parameterized(
                    &problem,
                    FRESH_LAYERS,
                    SeparatorStrategy::Direct,
                ));
                let source = (template, angles(rng, FRESH_LAYERS));
                JobSpec::expectation(source, Arc::new(problem.to_pauli_sum()))
            }
        };
        (kind, spec.from_submitter(self.client))
    }
}

/// Builds the shared template, its observable and the sampling circuits.
pub fn shared_inputs(seed: u64, t: &mut Tracer) -> Shared {
    let mut rng = StdRng::seed_from_u64(seed);
    t.span("construction.build", |_| {
        let problem = crate::hubo_instance(QUBITS, 4, 2 * QUBITS, &mut rng);
        let template = qaoa_parameterized(&problem, LAYERS, SeparatorStrategy::Direct);
        let samplers = (0..SAMPLERS)
            .map(|_| {
                let angles: Vec<f64> = (0..2 * LAYERS).map(|_| rng.gen_range(0.1..0.9)).collect();
                Arc::new(template.bind(&angles))
            })
            .collect();
        Shared {
            template: Arc::new(template),
            observable: Arc::new(problem.to_pauli_sum()),
            samplers,
        }
    })
}

/// The output a direct backend call gives for `spec` — what the service
/// must reproduce.
pub fn direct(spec: &JobSpec) -> Result<JobOutput, BackendError> {
    let backend = spec.backend.build();
    let bound = match &spec.circuit {
        CircuitSource::Concrete(c) => (**c).clone(),
        CircuitSource::Template { template, params } => template.bind(params),
    };
    match (&spec.request, &spec.circuit) {
        (JobRequest::Expectation { observable }, _) => backend
            .expectation(&spec.initial, &bound, &GroupedPauliSum::new(observable))
            .map(JobOutput::Expectation),
        (JobRequest::Gradient { observable }, CircuitSource::Template { template, params }) => {
            backend
                .expectation_gradient(
                    &spec.initial,
                    template,
                    params,
                    &GroupedPauliSum::new(observable),
                )
                .map(|(energy, gradient)| JobOutput::Gradient { energy, gradient })
        }
        (JobRequest::Sample { shots }, _) => backend
            .sample(&spec.initial, &bound, *shots, spec.seed)
            .map(JobOutput::Shots),
        _ => unreachable!("the mix only generates expectation, gradient and sample jobs"),
    }
}

/// A finished job as one client saw it.
struct Record {
    kind: Kind,
    latency_ms: f64,
    done: Instant,
    sane: bool,
    kept: Option<(JobSpec, JobOutput)>,
}

/// One client's log.
#[derive(Default)]
struct ClientLog {
    records: Vec<Record>,
    blocks_s: Vec<f64>,
    traced_blocks_s: Vec<f64>,
}

fn sane(kind: Kind, out: &JobOutput, params: usize) -> bool {
    match (kind, out) {
        (Kind::Expectation | Kind::Fresh, JobOutput::Expectation(e)) => e.is_finite(),
        (Kind::Gradient, JobOutput::Gradient { energy, gradient }) => {
            energy.is_finite() && gradient.len() == params && gradient.iter().all(|g| g.is_finite())
        }
        (Kind::Sample, JobOutput::Shots(s)) => {
            s.len() == SHOTS && checks::shots_in_range(s, QUBITS)
        }
        _ => false,
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Run {
    let mut run = Run::default();
    let (service, shared) = repeat_setup(&mut run, SETUPS, cfg.trace, |t| {
        let service = t.span("service.start", |_| Service::new(ServiceConfig::default()));
        let shared = Arc::new(shared_inputs(cfg.seed, t));
        // Fill the caches the measured stream reuses: the template's plan
        // and observable, and every sampling circuit's distribution.
        let mut warm = vec![JobSpec::expectation(
            (shared.template.clone(), vec![0.5; 2 * LAYERS]),
            shared.observable.clone(),
        )];
        warm.extend(
            shared
                .samplers
                .iter()
                .map(|c| JobSpec::sample(c.clone(), SHOTS)),
        );
        t.span("service.warm", |_| service.run_batch(&warm))
            .expect("warm-up jobs are valid");
        (service, shared)
    });
    let params = shared.template.num_params();
    run.notes
        .push(("service_workers", service.num_workers().to_string()));

    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(cfg.seconds);
    let client = |c: usize| {
        let mut stream = JobStream::new(cfg.seed, c, shared.clone());
        let mut tracer = Tracer::new(false, origin);
        let mut log = ClientLog::default();
        let mut block = 0usize;
        while block < 2 || Instant::now() < deadline {
            let traced = cfg.trace && block % 2 == 1;
            tracer.set_enabled(traced);
            let b0 = Instant::now();
            for j in 0..BLOCK {
                let index = block * BLOCK + j;
                let (kind, spec) = stream.next_job();
                tracer.set_group(((c as u64) << 32) | index as u64);
                let keep = index.is_multiple_of(VERIFY_EVERY);
                let kept_spec = keep.then(|| spec.clone());
                let t0 = Instant::now();
                let output = tracer.span("bench.job", |t| {
                    let id = t.span("service.submit", |_| service.submit(spec));
                    id.map(|id| t.span("service.wait", |_| service.wait(id)).output)
                });
                let done = Instant::now();
                // A refused submission fails the job's check.
                let output = output.ok();
                log.records.push(Record {
                    kind,
                    latency_ms: (done - t0).as_secs_f64() * 1e3,
                    done,
                    sane: output.as_ref().is_some_and(|o| sane(kind, o, params)),
                    kept: kept_spec.zip(output),
                });
            }
            let seconds = b0.elapsed().as_secs_f64();
            if traced {
                log.traced_blocks_s.push(seconds);
            } else {
                log.blocks_s.push(seconds);
            }
            block += 1;
        }
        tracer.set_enabled(false);
        (log, tracer)
    };
    let logs: Vec<(ClientLog, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client(c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let stats = service.cache_stats();
    drop(service);

    let mut tracer = Tracer::new(false, origin);
    let mut overhead_ms = Vec::new();
    let mut per_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last_done = origin;
    for (log, client_tracer) in logs {
        tracer.absorb(client_tracer);
        // Both clients run blocks at once, so a block's rate counts both.
        run.episode_rate
            .extend(log.blocks_s.iter().map(|s| (CLIENTS * BLOCK) as f64 / s));
        run.episode_s.extend(log.blocks_s);
        run.traced_episode_s.extend(log.traced_blocks_s);
        for r in log.records {
            run.iter_ms.push(r.latency_ms);
            run.check(r.sane);
            last_done = last_done.max(r.done);
            per_kind
                .entry(r.kind.metric())
                .or_default()
                .push(r.latency_ms);
            if let Some((spec, output)) = r.kept {
                let t0 = Instant::now();
                let expected = direct(&spec);
                overhead_ms.push(r.latency_ms - t0.elapsed().as_secs_f64() * 1e3);
                run.check(matches!(&expected, Ok(e) if checks::outputs_match(&output, e)));
            }
        }
    }
    run.measured_s = (last_done - origin).as_secs_f64();
    run.spans = tracer.spans().to_vec();

    if cfg.trace {
        for (metric, latencies) in &per_kind {
            run.layers.insert(metric, crate::stats::median(latencies));
        }
        let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        run.layers.insert(
            "service.plan_hit_ratio",
            ratio(stats.plan_hits, stats.plan_misses),
        );
        run.layers.insert(
            "service.observable_hit_ratio",
            ratio(stats.observable_hits, stats.observable_misses),
        );
        run.layers.insert(
            "service.distribution_hit_ratio",
            ratio(stats.distribution_hits, stats.distribution_misses),
        );
        run.layers
            .insert("service.evictions", stats.evictions as f64);
        run.layers
            .insert("service.overhead_ms", crate::stats::median(&overhead_ms));
        crate::circuit_layers(&mut run, &shared.samplers[0]);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What identifies a generated job: kind, circuit structure, bindings,
    /// request shape and seed.
    fn fingerprint(kind: Kind, spec: &JobSpec) -> String {
        let params = match &spec.circuit {
            CircuitSource::Concrete(c) => format!("{:?}", c.gates()),
            CircuitSource::Template { params, .. } => format!("{params:?}"),
        };
        let request = match &spec.request {
            JobRequest::Sample { shots } => format!("sample {shots}"),
            JobRequest::Expectation { observable } => {
                format!("expect {}", observable.terms().len())
            }
            JobRequest::Gradient { .. } => "gradient".to_string(),
            _ => "other".to_string(),
        };
        format!(
            "{kind:?} {:?} {params} {request} {} {}",
            spec.circuit.structural_key(),
            spec.seed,
            spec.submitter
        )
    }

    fn stream(seed: u64, client: usize, jobs: usize) -> Vec<String> {
        let shared = Arc::new(shared_inputs(seed, &mut Tracer::new(false, Instant::now())));
        let mut s = JobStream::new(seed, client, shared);
        (0..jobs)
            .map(|_| {
                let (kind, spec) = s.next_job();
                fingerprint(kind, &spec)
            })
            .collect()
    }

    #[test]
    fn job_streams_are_deterministic_per_seed_and_client() {
        let a = stream(3, 0, 60);
        assert_eq!(a, stream(3, 0, 60));
        assert_ne!(a, stream(3, 1, 60));
        assert_ne!(a, stream(4, 0, 60));
    }

    #[test]
    fn the_mix_has_every_kind() {
        let shared = Arc::new(shared_inputs(9, &mut Tracer::new(false, Instant::now())));
        let mut s = JobStream::new(9, 0, shared);
        let kinds: Vec<Kind> = (0..200).map(|_| s.next_job().0).collect();
        for kind in [Kind::Expectation, Kind::Gradient, Kind::Sample, Kind::Fresh] {
            let share = kinds.iter().filter(|&&k| k == kind).count() as f64 / 200.0;
            assert!(share > 0.05, "{kind:?} makes up {share}");
        }
    }

    #[test]
    fn direct_execution_matches_the_service() {
        let shared = Arc::new(shared_inputs(5, &mut Tracer::new(false, Instant::now())));
        let mut s = JobStream::new(5, 0, shared);
        let service = Service::new(ServiceConfig::default());
        for _ in 0..12 {
            let (_, spec) = s.next_job();
            let direct = direct(&spec).expect("direct execution succeeds");
            let served = service
                .wait(service.submit(spec).expect("valid spec"))
                .output;
            assert!(checks::outputs_match(&served, &direct));
        }
    }
}
