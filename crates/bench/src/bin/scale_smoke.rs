//! Memory-ceiling smoke for the sharded statevector engine.
//!
//! Runs a 24-qubit ladder workload **directly on
//! [`ShardedStateVector`]** — no `Backend::run` copies, no alias table, no
//! flat `to_state()` bridge — and reads the result through the O(1)
//! boundaries (`norm`, per-index `probability`). Total live memory is the
//! engine's one shard-tiled amplitude buffer (`2^24` amplitudes = 256 MiB)
//! plus per-op scratch; the engine never materializes a second full `2^n`
//! buffer.
//!
//! CI runs this binary under `ulimit -v` sized for a single flat copy plus
//! scratch (see the `memory-ceiling` job): an accidental full-state clone
//! anywhere on the execution path aborts the allocator and fails the step.
//! CI runs it single-threaded (`GHS_PARALLEL_THRESHOLD=usize::MAX`) so
//! thread stacks and extra malloc arenas stay out of the address-space
//! budget; the default threshold fits the same budget on a small machine.
//!
//! Usage: `scale_smoke [--qubits 24] [--layers 3]`

use ghs_bench::perf::ladder_circuit;
use ghs_statevector::ShardedStateVector;
use std::time::Instant;

fn arg_value(args: &[String], flag: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n = arg_value(&args, "--qubits").unwrap_or(24);
    let layers = arg_value(&args, "--layers").unwrap_or(3);

    let circuit = ladder_circuit(n, layers);
    println!(
        "scale_smoke: {n} qubits ({} MB of amplitudes), ladder x{layers} ({} gates)",
        ((1usize << n) * 16) >> 20,
        circuit.len()
    );

    let t0 = Instant::now();
    let mut state = ShardedStateVector::zero_state(n);
    println!(
        "  shards: {} x {} amplitudes",
        state.num_shards(),
        state.shard_len()
    );
    state.run(&circuit);
    let elapsed = t0.elapsed().as_secs_f64();

    // Logical-order boundaries only: norm sweeps in place, probability is a
    // single amplitude read. No full-state copy is ever made.
    let norm = state.norm();
    let p0 = state.probability(0);
    println!("  ran in {elapsed:.2} s; norm = {norm:.15}; P(|0...0>) = {p0:.6e}");

    // A CX/RZ ladder on |0...0> only moves phases and permutes basis
    // states: the state stays normalized and the |0...0> amplitude keeps
    // unit probability. Both checks would catch a mangled kernel.
    assert!((norm - 1.0).abs() < 1e-10, "norm drifted: {norm}");
    assert!((p0 - 1.0).abs() < 1e-10, "ladder moved |0...0>: {p0}");
    println!("scale_smoke OK");
}
