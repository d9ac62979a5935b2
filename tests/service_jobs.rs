//! Job-service integration tests — the acceptance criteria of the batched
//! service layer:
//!
//! * the structural plan-cache key is **angle-invariant**: rebinding a
//!   template never changes it, while any gate/support/topology edit does
//!   (random circuits from the shared seeded testkit);
//! * cached execution is **exact**: every job kind returns bit-identical
//!   results to a direct call into the backend layer, warm or cold;
//! * the cache **evicts** under a small capacity bound without affecting
//!   results, and a warm re-run of a stream adds zero misses;
//! * seeded results are **scheduling-independent**: a concurrent submit
//!   storm across several OS threads and workers returns bit-identical
//!   outputs to serial single-worker execution of the same specs.
//!
//! The determinism CI matrix re-runs this suite with
//! `GHS_PARALLEL_THRESHOLD` forced to `0` and `usize::MAX` and with
//! `GHS_SHARD_COUNT` forced to 1 / 4 / 64 (the sharded backend must not
//! let the shard layout leak into any output); the nightly job re-runs it
//! with `GHS_PROPTEST_CASES=2048`.

use std::sync::Arc;

use gate_efficient_hs::circuit::Circuit;
use gate_efficient_hs::core::backend::{Backend, FusedStatevector, InitialState};
use gate_efficient_hs::service::{JobOutput, JobSpec, Service, ServiceConfig};
use gate_efficient_hs::statevector::testkit::{
    random_circuit, random_parameterized_circuit, random_pauli_sum, PauliSumKind,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Rebinding never changes the key: every binding of a template — and
    /// the template itself — hash to one structural key.
    #[test]
    fn rebinding_a_template_never_changes_the_structural_key(
        n in 2usize..=6,
        gates in 1usize..30,
        num_params in 1usize..6,
        seed in 0u64..2_000,
    ) {
        let pc = random_parameterized_circuit(n, gates, num_params, seed);
        let key = pc.structural_key();
        for binding in 0..3u64 {
            let params: Vec<f64> = (0..num_params)
                .map(|k| 0.1 + 0.37 * (binding as f64) + 0.11 * k as f64)
                .collect();
            prop_assert_eq!(pc.bind(&params).structural_key(), key);
        }
    }

    /// Any topology edit changes the key: appending a gate, dropping the
    /// last gate, and moving a gate's support are all distinguishable.
    #[test]
    fn structural_edits_always_change_the_key(
        n in 2usize..=6,
        gates in 1usize..30,
        seed in 0u64..2_000,
    ) {
        let c = random_circuit(n, gates, seed);
        let key = c.structural_key();

        let mut appended = c.clone();
        appended.h(0);
        prop_assert_ne!(appended.structural_key(), key);

        let mut widened = Circuit::new(n + 1);
        for gate in c.gates() {
            widened.push(gate.clone());
        }
        prop_assert_ne!(widened.structural_key(), key);

        let mut moved = c.clone();
        moved.h(0);
        let mut moved_other = c.clone();
        moved_other.h(1);
        prop_assert_ne!(moved.structural_key(), moved_other.structural_key());
    }

    /// Every job kind returns bit-identical results to a direct call into
    /// the backend layer, on a cold cache and on a warm one.
    #[test]
    fn service_outputs_match_direct_backend_calls(
        n in 2usize..=6,
        gates in 1usize..30,
        seed in 0u64..2_000,
    ) {
        let circuit = Arc::new(random_circuit(n, gates, seed));
        let observable = Arc::new(random_pauli_sum(n, 6, PauliSumKind::Mixed, seed ^ 0xab));
        let template = Arc::new(random_parameterized_circuit(n, gates, 3, seed ^ 0xcd));
        let params = vec![0.3, -0.7, 1.1];

        let jobs = vec![
            JobSpec::expectation(circuit.clone(), observable.clone()),
            JobSpec::sample(circuit.clone(), 64).with_seed(seed),
            JobSpec::probabilities(circuit.clone()).starting_at(1),
            JobSpec::gradient(template.clone(), params.clone(), observable.clone()),
        ];
        for config in [ServiceConfig::serial(), ServiceConfig::default()] {
            let service = Service::new(config);
            let results = service.run_batch(&jobs).expect("valid jobs");

            let zero = InitialState::ZeroState;
            let grouped =
                gate_efficient_hs::statevector::GroupedPauliSum::new(&observable);
            let energy = FusedStatevector.expectation(&zero, &circuit, &grouped).unwrap();
            prop_assert_eq!(&results[0].output, &JobOutput::Expectation(energy));

            let shots = FusedStatevector.sample(&zero, &circuit, 64, seed).unwrap();
            prop_assert_eq!(&results[1].output, &JobOutput::Shots(shots));

            let one = InitialState::basis(1);
            let probs = FusedStatevector.probabilities(&one, &circuit).unwrap();
            prop_assert_eq!(&results[2].output, &JobOutput::Probabilities(probs));

            let (e, g) = FusedStatevector.expectation_gradient(
                &zero, &template, &params, &grouped,
            ).unwrap();
            prop_assert_eq!(
                &results[3].output,
                &JobOutput::Gradient { energy: e, gradient: g }
            );
        }
    }
}

/// Sharded-backend jobs return bit-identical outputs to fused-backend jobs
/// for every job kind, at whatever `GHS_SHARD_COUNT` the determinism matrix
/// forces, and the plan cache tracks sharding relabelings per structure.
#[test]
fn sharded_jobs_match_fused_jobs_bit_for_bit() {
    use gate_efficient_hs::core::backend::BackendSpec;
    // 10 qubits: above `FUSED_MIN_DIM`, so the fused reference path runs
    // the same fused kernels the sharded engine replays bit-for-bit.
    let circuit = Arc::new(random_circuit(10, 40, 31));
    let observable = Arc::new(random_pauli_sum(10, 6, PauliSumKind::Mixed, 32));
    let service = Service::new(ServiceConfig::default());
    let jobs = vec![
        JobSpec::sample(circuit.clone(), 128)
            .with_seed(4)
            .on_backend(BackendSpec::Sharded),
        JobSpec::sample(circuit.clone(), 128).with_seed(4),
        JobSpec::expectation(circuit.clone(), observable.clone()).on_backend(BackendSpec::Sharded),
        JobSpec::expectation(circuit.clone(), observable.clone()),
        JobSpec::probabilities(circuit.clone())
            .starting_at(3)
            .on_backend(BackendSpec::Sharded),
        JobSpec::probabilities(circuit.clone()).starting_at(3),
    ];
    let results = service.run_batch(&jobs).expect("valid jobs");
    assert_eq!(results[0].output, results[1].output, "sample outputs");
    assert_eq!(results[2].output, results[3].output, "expectation outputs");
    assert_eq!(results[4].output, results[5].output, "probability outputs");
    // The sharded jobs resolved a relabeling through the plan cache: one
    // miss for the structure, hits on re-use.
    let stats = service.cache_stats();
    assert!(
        stats.relabeling_misses > 0,
        "no relabeling traffic: {stats:?}"
    );
}

/// A capacity-2 plan cache cycling through three topologies must evict —
/// and still return the same answers as an unbounded cache.
#[test]
fn eviction_under_a_small_capacity_bound_preserves_results() {
    let circuits: Vec<Arc<Circuit>> = (0..3)
        .map(|k| Arc::new(random_circuit(5, 12 + 4 * k, 90 + k as u64)))
        .collect();
    let jobs: Vec<JobSpec> = (0..4)
        .flat_map(|round| {
            circuits
                .iter()
                .map(move |c| JobSpec::sample(c.clone(), 32).with_seed(round))
        })
        .collect();

    let small = Service::new(ServiceConfig {
        cache_capacity: 2,
        ..ServiceConfig::default()
    });
    let large = Service::new(ServiceConfig::default());
    let a = small.run_batch(&jobs).expect("valid jobs");
    let b = large.run_batch(&jobs).expect("valid jobs");
    assert_eq!(
        a.iter().map(|r| &r.output).collect::<Vec<_>>(),
        b.iter().map(|r| &r.output).collect::<Vec<_>>()
    );
    let stats = small.cache_stats();
    assert!(
        stats.evictions > 0,
        "three topologies through a capacity-2 cache must evict, got {stats:?}"
    );
    assert_eq!(large.cache_stats().evictions, 0);
}

/// A warm service re-running the exact same stream adds zero cache misses:
/// every plan, prepared observable and sampling distribution is served from
/// the cache.
#[test]
fn warm_rerun_adds_zero_cache_misses() {
    // 10 qubits: at the fusion crossover, so the plan cache is in play
    // (below it the service applies gates directly and caches only
    // sampling distributions).
    let circuit = Arc::new(random_circuit(10, 20, 7));
    let observable = Arc::new(random_pauli_sum(10, 5, PauliSumKind::Mixed, 8));
    let jobs = vec![
        JobSpec::expectation(circuit.clone(), observable.clone()),
        JobSpec::sample(circuit.clone(), 128).with_seed(1),
        JobSpec::sample(circuit.clone(), 128).with_seed(2),
    ];
    let service = Service::new(ServiceConfig::default());
    service.run_batch(&jobs).expect("valid jobs");
    let first = service.cache_stats();
    service.run_batch(&jobs).expect("valid jobs");
    let second = service.cache_stats();
    assert_eq!(second.plan_misses, first.plan_misses);
    assert_eq!(second.observable_misses, first.observable_misses);
    assert_eq!(second.distribution_misses, first.distribution_misses);
    assert!(second.plan_hits > first.plan_hits);
    assert!(second.distribution_hits > first.distribution_hits);
}

/// The mixed spec stream the storm test pushes through the service: same
/// shape as a variational frontend — shared templates rebound per job,
/// repeated sampling circuits under fresh seeds, a handful of gradients.
fn storm_stream() -> Vec<JobSpec> {
    let circuit = Arc::new(random_circuit(6, 24, 11));
    let observable = Arc::new(random_pauli_sum(6, 6, PauliSumKind::Mixed, 12));
    let template = Arc::new(random_parameterized_circuit(6, 24, 4, 13));
    let mut jobs = Vec::new();
    for k in 0..12u64 {
        jobs.push(JobSpec::sample(circuit.clone(), 96).with_seed(k));
        let params: Vec<f64> = (0..4)
            .map(|p| 0.2 + 0.05 * (k as f64) + 0.3 * p as f64)
            .collect();
        jobs.push(JobSpec::expectation(
            (template.clone(), params.clone()),
            observable.clone(),
        ));
        if k % 4 == 0 {
            jobs.push(JobSpec::gradient(
                template.clone(),
                params,
                observable.clone(),
            ));
        }
    }
    jobs
}

/// Concurrent submit storm: four OS threads hammering a four-worker service
/// from distinct fairness lanes produce bit-identical outputs to serial
/// single-worker execution of the same specs — results are a pure function
/// of `(spec, seed)`, never of scheduling.
#[test]
fn concurrent_submit_storm_is_bit_identical_to_serial_execution() {
    let jobs = storm_stream();
    let serial = Service::new(ServiceConfig::serial())
        .run_batch(&jobs)
        .expect("valid stream");

    let storm = Service::new(ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    });
    let chunk = jobs.len().div_ceil(4);
    let mut outputs: Vec<Option<JobOutput>> = vec![None; jobs.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .enumerate()
            .map(|(lane, slice)| {
                let storm = &storm;
                scope.spawn(move || {
                    let ids: Vec<_> = slice
                        .iter()
                        .map(|spec| {
                            storm
                                .submit(spec.clone().from_submitter(lane))
                                .expect("valid spec")
                        })
                        .collect();
                    ids.into_iter()
                        .map(|id| storm.wait(id).output)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (lane, handle) in handles.into_iter().enumerate() {
            for (offset, output) in handle.join().expect("no panic").into_iter().enumerate() {
                outputs[lane * chunk + offset] = Some(output);
            }
        }
    });

    for (k, (reference, stormed)) in serial.iter().zip(&outputs).enumerate() {
        assert_eq!(
            Some(&reference.output),
            stormed.as_ref(),
            "job {k} differs between serial and storm execution"
        );
    }
}

/// Two templates with one structure (hence one structural key) that differ
/// only in a fixed `Ry` angle: each job runs with its own template's fixed
/// angle, on every dense backend, even when the second follows the first on
/// the same worker.
#[test]
fn same_structure_templates_keep_their_own_fixed_angles() {
    use gate_efficient_hs::circuit::{Gate, ParameterizedCircuit};
    use gate_efficient_hs::core::backend::BackendSpec;
    use gate_efficient_hs::statevector::GroupedPauliSum;

    let template = |fixed: f64| {
        let mut pc = ParameterizedCircuit::new(3, 1);
        pc.push_fixed(Gate::Ry {
            qubit: 0,
            theta: fixed,
        });
        pc.cx_fixed(0, 1).ry_p(2, 0, 1.0).cx_fixed(1, 2);
        Arc::new(pc)
    };
    let (a, b) = (template(0.3), template(1.9));
    assert_eq!(a.structural_key(), b.structural_key());
    let observable = Arc::new(random_pauli_sum(3, 6, PauliSumKind::Mixed, 21));
    let grouped = GroupedPauliSum::new(&observable);
    let params = vec![0.7];
    let zero = InitialState::ZeroState;

    for spec in [
        BackendSpec::Fused,
        BackendSpec::Sharded,
        BackendSpec::Reference,
    ] {
        let backend = spec.build();
        let service = Service::new(ServiceConfig::serial());
        for template in [&a, &b] {
            let bound = template.bind(&params);
            let source = (template.clone(), params.clone());
            let jobs = [
                JobSpec::expectation(source.clone(), observable.clone()).on_backend(spec.clone()),
                JobSpec::probabilities(source).on_backend(spec.clone()),
            ];
            let results = service.run_batch(&jobs).expect("valid jobs");

            let JobOutput::Expectation(energy) = results[0].output else {
                panic!("wrong output kind: {:?}", results[0].output);
            };
            let direct = backend.expectation(&zero, &bound, &grouped).unwrap();
            assert!(
                (energy - direct).abs() < 1e-12,
                "{}: service {energy} vs direct {direct}",
                spec.name()
            );

            let JobOutput::Probabilities(probs) = &results[1].output else {
                panic!("wrong output kind: {:?}", results[1].output);
            };
            let direct = backend.probabilities(&zero, &bound).unwrap();
            for (p, q) in probs.iter().zip(&direct) {
                assert!((p - q).abs() < 1e-12, "{}: {p} vs {q}", spec.name());
            }
        }
    }
}

/// A default-backend job at `SHARDED_MIN_QUBITS` takes the fused backend's
/// crossover to the sharded engine: bit-identical to the direct call, and
/// visible as relabeling traffic in the cache ledger.
#[test]
fn fused_jobs_take_the_sharded_crossover() {
    use gate_efficient_hs::operators::{PauliString, PauliSum};
    use gate_efficient_hs::statevector::{GroupedPauliSum, SHARDED_MIN_QUBITS};

    let n = SHARDED_MIN_QUBITS;
    let mut circuit = Circuit::new(n);
    circuit.h(0).cx(0, n - 1).ry(n / 2, 0.4).cz(n / 2, 1);
    let circuit = Arc::new(circuit);
    let mut observable = PauliSum::zero(n);
    let zz: String = (0..n)
        .map(|q| if q == 0 || q == n - 1 { 'Z' } else { 'I' })
        .collect();
    observable.push(
        gate_efficient_hs::math::c64(1.0, 0.0),
        PauliString::parse(&zz).unwrap(),
    );
    let x: String = (0..n).map(|q| if q == n / 2 { 'X' } else { 'I' }).collect();
    observable.push(
        gate_efficient_hs::math::c64(0.5, 0.0),
        PauliString::parse(&x).unwrap(),
    );
    let observable = Arc::new(observable);

    let service = Service::new(ServiceConfig::serial());
    let job = JobSpec::expectation(circuit.clone(), observable.clone());
    let JobOutput::Expectation(energy) = service.wait(service.submit(job).unwrap()).output else {
        panic!("wrong output kind");
    };
    let direct = FusedStatevector
        .expectation(
            &InitialState::ZeroState,
            &circuit,
            &GroupedPauliSum::new(&observable),
        )
        .unwrap();
    assert_eq!(energy.to_bits(), direct.to_bits(), "{energy} vs {direct}");
    let stats = service.cache_stats();
    assert!(
        stats.relabeling_misses > 0,
        "no relabeling traffic: {stats:?}"
    );
}
