//! Sharded statevector engine for the 24–30 qubit range.
//!
//! [`crate::StateVector`] replays runs of small-span ops one cache tile at a
//! time, but every op whose support reaches a high bit (a low-numbered
//! qubit) spans more than a tile and sweeps the whole array — at 24 qubits
//! that is 256 MB of DRAM traffic per op, and the dense engine becomes
//! memory-bound (`bench/baseline.json`: ~1.8k gates/sec at 20 qubits vs
//! ~28k at 16). [`ShardedStateVector`] keeps the amplitudes in one flat
//! buffer of `2^s` equal aligned **shards** — the qHiPSTER/Intel-QS
//! distributed-amplitude scheme collapsed into one process, where a shard
//! is simply a tile of shared memory — and relabels qubits per circuit so
//! that few ops leave a shard:
//!
//! * the **top `s` bits** of the (physical) basis index select the shard,
//!   the remaining `local_bits` address an amplitude inside it;
//! * an op whose support lies entirely in the low `local_bits` positions is
//!   **shard-local**: consecutive runs of shard-local ops are applied one
//!   shard at a time while the shard is cache-hot (cache blocking), so a run
//!   of `k` ops costs one DRAM sweep instead of `k`;
//! * an op that touches shard-index bits sweeps the whole buffer through
//!   the flat engine's laned, index-space-parallel sweep — the same run
//!   loop as [`crate::StateVector::apply_fused`], with the shard length as
//!   its tile;
//! * a [`QubitRelabeling`] chosen per circuit maps hot qubits away from the
//!   shard-index positions so such full sweeps are rare; every output
//!   boundary ([`ShardedStateVector::to_state`],
//!   [`ShardedStateVector::probabilities`],
//!   [`ShardedStateVector::amplitude`], …) reads amplitudes in **logical**
//!   order, un-permuting the relabeling.
//!
//! Every kernel replays the flat engine's per-amplitude arithmetic in the
//! same order, so evolving a state through this engine is bit-identical to
//! [`crate::StateVector::apply_fused`] for any shard count and any
//! relabeling — the existing property suites double as the oracle, and
//! seeded sampling from the recovered state is byte-identical across
//! `GHS_SHARD_COUNT` settings.
//!
//! The engine evolves in place with `O(1)` extra memory (a stack gather
//! buffer of at most `2^MAX_DENSE_QUBITS` amplitudes): it never materializes
//! a second full `2^n` buffer. CI proves this by running a 24-qubit workload
//! under a `ulimit -v` sized for one flat copy plus scratch.

use crate::fused::apply_ops;
use crate::kernels::sweep_parallel;
use crate::state::StateVector;
use ghs_circuit::{Circuit, FusedCircuit, QubitRelabeling};
use ghs_math::Complex64;
use std::sync::OnceLock;

/// Default shard size in amplitudes (`2^15` = 512 KiB of `Complex64`): small
/// enough that a whole shard stays L2-resident while a run of shard-local
/// ops replays over it (measured best on a 2 MB-L2 part across a
/// 512 KB–16 MB sweep), large enough that per-shard dispatch is noise.
const DEFAULT_SHARD_AMPS: usize = 1 << 15;

/// Register size at which [`crate::StateVector`]-based backends cross over
/// to the sharded engine: above ~22 qubits the flat sweep is memory-bound
/// and cache-blocked sharded execution wins even single-threaded.
pub const SHARDED_MIN_QUBITS: usize = 22;

/// Forced shard count from the `GHS_SHARD_COUNT` environment variable (read
/// once per process), or `None` to size shards automatically. Values are
/// clamped to `[1, 2^n]` and rounded down to a power of two at use sites;
/// unparsable or missing values fall back to the automatic policy. CI's
/// determinism matrix re-runs the seeded suites with this forced to 1, 4
/// and 64 and requires byte-identical output.
pub fn forced_shard_count() -> Option<usize> {
    static COUNT: OnceLock<Option<usize>> = OnceLock::new();
    *COUNT.get_or_init(|| {
        std::env::var("GHS_SHARD_COUNT")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&c| c >= 1)
    })
}

/// Shard count the engine picks for an `n`-qubit register: the forced count
/// when `GHS_SHARD_COUNT` is set, otherwise `2^n / DEFAULT_SHARD_AMPS`;
/// always a power of two in `[1, 2^n]`.
pub fn shard_count_for(num_qubits: usize) -> usize {
    let dim = 1usize << num_qubits;
    let raw = forced_shard_count()
        .unwrap_or_else(|| (dim / DEFAULT_SHARD_AMPS).max(1))
        .clamp(1, dim);
    // Round down to a power of two so shard boundaries align with qubits.
    1usize << (usize::BITS - 1 - raw.leading_zeros())
}

/// A pure state stored as one amplitude buffer of `2^s` fixed-size shards
/// under a logical→physical [`QubitRelabeling`].
///
/// Construct with [`ShardedStateVector::zero_state`] /
/// [`ShardedStateVector::basis_state`] (shard count from
/// [`shard_count_for`], i.e. the `GHS_SHARD_COUNT` knob or the automatic
/// policy of `2^15`-amplitude = 512 KiB shards) or the explicit-layout
/// constructors used by the property tests. Evolve with
/// [`ShardedStateVector::run`] — which fuses, picks the relabeling, and
/// applies — and read results through the logical-order boundaries. See the
/// module docs for the sharding scheme.
pub struct ShardedStateVector {
    num_qubits: usize,
    local_bits: usize,
    relabeling: QubitRelabeling,
    /// Amplitudes in physical index order; shard `s` is the aligned tile
    /// `[s << local_bits, (s + 1) << local_bits)`.
    amps: Vec<Complex64>,
    /// `Some(logical_index)` while the state is a pristine basis state, so
    /// re-basing under a new relabeling is O(1) instead of a full permute.
    basis_hint: Option<usize>,
}

impl ShardedStateVector {
    /// The all-zeros state `|0…0⟩` with the default shard layout.
    pub fn zero_state(num_qubits: usize) -> Self {
        Self::basis_state(num_qubits, 0)
    }

    /// The computational-basis state `|index⟩` with the default shard
    /// layout.
    pub fn basis_state(num_qubits: usize, index: usize) -> Self {
        Self::basis_state_with(num_qubits, index, shard_count_for(num_qubits))
    }

    /// Basis state with an explicit shard count (clamped to `[1, 2^n]` and
    /// rounded down to a power of two) — the property-test entry point for
    /// forcing shard layouts without touching `GHS_SHARD_COUNT`.
    pub fn basis_state_with(num_qubits: usize, index: usize, shard_count: usize) -> Self {
        let dim = 1usize << num_qubits;
        assert!(index < dim, "basis index out of range");
        let mut amps = vec![Complex64::ZERO; dim];
        amps[index] = Complex64::ONE;
        Self {
            num_qubits,
            local_bits: (dim / normalize_count(shard_count, dim)).trailing_zeros() as usize,
            relabeling: QubitRelabeling::identity(num_qubits),
            amps,
            basis_hint: Some(index),
        }
    }

    /// Copies a flat state into the default shard layout (identity
    /// relabeling). This allocates a full second copy — it is the bridge
    /// from `Backend`-style APIs, not the memory-ceiling path.
    pub fn from_state(state: &StateVector) -> Self {
        Self::from_state_with(state, shard_count_for(state.num_qubits()))
    }

    /// Copies a flat state into an explicit shard count.
    pub fn from_state_with(state: &StateVector, shard_count: usize) -> Self {
        let dim = state.dim();
        Self {
            num_qubits: state.num_qubits(),
            local_bits: (dim / normalize_count(shard_count, dim)).trailing_zeros() as usize,
            relabeling: QubitRelabeling::identity(state.num_qubits()),
            amps: state.amplitudes().to_vec(),
            basis_hint: None,
        }
    }

    /// Register size.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Dimension `2^n`.
    pub fn dim(&self) -> usize {
        1usize << self.num_qubits
    }

    /// Number of shards (a power of two).
    pub fn num_shards(&self) -> usize {
        self.amps.len() >> self.local_bits
    }

    /// Amplitudes per shard (a power of two).
    pub fn shard_len(&self) -> usize {
        1usize << self.local_bits
    }

    /// The logical→physical relabeling the amplitudes are currently stored
    /// under.
    pub fn relabeling(&self) -> &QubitRelabeling {
        &self.relabeling
    }

    /// Fuses the circuit, picks its sharding relabeling
    /// ([`QubitRelabeling::for_sharding`]) and applies it. The one-stop
    /// execution entry point; callers that cache fusion plans use
    /// [`ShardedStateVector::run_fused_with`] instead.
    pub fn run(&mut self, circuit: &Circuit) {
        let fused = circuit.fused();
        let relabeling = QubitRelabeling::for_sharding(&fused);
        self.run_fused_with(&fused, &relabeling);
    }

    /// Applies a **logically-labeled** fused circuit under an explicit
    /// relabeling: re-bases the stored amplitudes to the new layout, maps
    /// the circuit with [`FusedCircuit::relabeled`] and applies it. Any
    /// relabeling is correct — outputs are always read in logical order —
    /// but [`QubitRelabeling::for_sharding`] minimizes the ops that touch
    /// shard-index bits.
    pub fn run_fused_with(&mut self, fused: &FusedCircuit, relabeling: &QubitRelabeling) {
        self.rebase(relabeling);
        if relabeling.is_identity() {
            self.apply_relabeled(fused);
        } else {
            self.apply_relabeled(&fused.relabeled(relabeling));
        }
    }

    /// Applies a fused circuit **already expressed in this state's physical
    /// labels** (i.e. pre-mapped with [`FusedCircuit::relabeled`] under
    /// [`ShardedStateVector::relabeling`]) through the flat engine's run
    /// loop with one shard per tile: runs of shard-local ops are
    /// cache-blocked per shard, ops on shard-index bits sweep the whole
    /// buffer. In-place: no allocation beyond a stack gather buffer.
    fn apply_relabeled(&mut self, fused: &FusedCircuit) {
        self.basis_hint = None;
        let (tile, parallel) = (self.shard_len(), sweep_parallel(self.dim()));
        apply_ops(&mut self.amps, fused, tile, parallel);
    }

    /// Moves the stored amplitudes to a new relabeling. O(1) for pristine
    /// basis states (the common case: every `Backend::run` starts from a
    /// basis state); a full permuting copy otherwise — which allocates a
    /// second buffer and is therefore avoided on the memory-ceiling path.
    fn rebase(&mut self, target: &QubitRelabeling) {
        if *target == self.relabeling {
            return;
        }
        if let Some(index) = self.basis_hint {
            self.amps[self.relabeling.permute_index(index)] = Complex64::ZERO;
            self.amps[target.permute_index(index)] = Complex64::ONE;
            self.relabeling = target.clone();
            return;
        }
        // Compose old→new on bit positions: logical bit p maps to
        // old_bits[p] in the current layout and new_bits[p] in the target.
        let old_bits = self.relabeling.bit_mapping();
        let new_bits = target.bit_mapping();
        let mut move_bit = vec![0usize; self.num_qubits];
        for p in 0..self.num_qubits {
            move_bit[old_bits[p]] = new_bits[p];
        }
        let mut fresh = vec![Complex64::ZERO; self.amps.len()];
        for (old, &a) in self.amps.iter().enumerate() {
            let mut new = 0usize;
            for (src, &dst) in move_bit.iter().enumerate() {
                if old >> src & 1 == 1 {
                    new |= 1 << dst;
                }
            }
            fresh[new] = a;
        }
        self.amps = fresh;
        self.relabeling = target.clone();
    }

    /// Amplitude of the **logical** basis state `index`, un-permuting the
    /// relabeling.
    pub fn amplitude(&self, index: usize) -> Complex64 {
        self.amps[self.relabeling.permute_index(index)]
    }

    /// Probability of measuring the logical basis state `index`.
    pub fn probability(&self, index: usize) -> f64 {
        self.amplitude(index).norm_sqr()
    }

    /// Euclidean norm, accumulated in logical index order so the value is
    /// identical for every shard count and relabeling.
    pub fn norm(&self) -> f64 {
        self.fold_logical(0.0f64, |acc, a| acc + a.norm_sqr())
            .sqrt()
    }

    /// Probabilities of all basis states, in logical order — the exact
    /// `f64` sequence the flat engine would produce.
    pub fn probabilities(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        self.fold_logical((), |(), a| out.push(a.norm_sqr()));
        out
    }

    /// Copies out a flat [`StateVector`] in logical amplitude order. The
    /// bridge back to `Backend`-style APIs (expectations, cached sampling);
    /// allocates the full `2^n` buffer, so the memory-ceiling path reads
    /// through [`ShardedStateVector::amplitude`] / `probability` instead.
    pub fn to_state(&self) -> StateVector {
        let mut amps = Vec::with_capacity(self.dim());
        self.fold_logical((), |(), a| amps.push(a));
        StateVector::from_amplitudes(self.num_qubits, amps)
    }

    /// Folds over amplitudes in logical index order.
    fn fold_logical<T, F: FnMut(T, Complex64) -> T>(&self, init: T, mut f: F) -> T {
        if self.relabeling.is_identity() {
            return self.amps.iter().fold(init, |acc, &a| f(acc, a));
        }
        let mut acc = init;
        let bits = self.relabeling.bit_mapping();
        for logical in 0..self.dim() {
            let mut physical = 0usize;
            for (src, &dst) in bits.iter().enumerate() {
                if logical >> src & 1 == 1 {
                    physical |= 1 << dst;
                }
            }
            acc = f(acc, self.amps[physical]);
        }
        acc
    }
}

/// Clamps a requested shard count to `[1, dim]` and rounds down to a power
/// of two.
fn normalize_count(requested: usize, dim: usize) -> usize {
    let c = requested.clamp(1, dim);
    1usize << (usize::BITS - 1 - c.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::random_circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shard_count_normalization() {
        assert_eq!(normalize_count(1, 1 << 10), 1);
        assert_eq!(normalize_count(3, 1 << 10), 2);
        assert_eq!(normalize_count(64, 1 << 4), 16);
        assert_eq!(normalize_count(0, 1 << 4), 1);
        assert_eq!(normalize_count(usize::MAX, 1 << 6), 64);
    }

    #[test]
    fn basis_state_lands_in_the_right_shard() {
        let s = ShardedStateVector::basis_state_with(6, 37, 8);
        assert_eq!(s.num_shards(), 8);
        assert_eq!(s.shard_len(), 8);
        assert_eq!(s.amplitude(37), Complex64::ONE);
        assert_eq!(s.probability(36), 0.0);
        assert!((s.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn sharded_matches_flat_at_every_count() {
        for n in 2..=9usize {
            let c = random_circuit(n, 40, 5 + n as u64);
            let mut flat = StateVector::zero_state(n);
            flat.apply_fused(&c.fused());
            for count in [1usize, 2, 8, 1 << n] {
                let mut sharded = ShardedStateVector::basis_state_with(n, 0, count);
                sharded.run(&c);
                assert_eq!(
                    sharded.to_state().amplitudes(),
                    flat.amplitudes(),
                    "n={n} count={count} drifted from the flat engine"
                );
            }
        }
    }

    #[test]
    fn cross_shard_outputs_are_bit_identical_across_counts() {
        // Tiny shards force every kernel across shard boundaries, through
        // the full-buffer sweep (index-space parallel from 2^12 amplitudes
        // at the default threshold); the recovered amplitudes must equal
        // the single-shard run bit for bit.
        for n in 3..=14usize {
            let c = random_circuit(n, 60, 77 + n as u64);
            let mut one = ShardedStateVector::basis_state_with(n, 1, 1);
            one.run(&c);
            let reference = one.to_state();
            for count in [2usize, 4, 1 << (n - 1)] {
                let mut many = ShardedStateVector::basis_state_with(n, 1, count);
                many.run(&c);
                let got = many.to_state();
                assert_eq!(
                    got.amplitudes(),
                    reference.amplitudes(),
                    "n={n} count={count} drifted from the single-shard run"
                );
            }
        }
    }

    #[test]
    fn from_state_round_trips_under_relabeling() {
        let mut rng = StdRng::seed_from_u64(11);
        let s0 = StateVector::random_state(6, &mut rng);
        let c = random_circuit(6, 30, 3);
        let mut sharded = ShardedStateVector::from_state_with(&s0, 4);
        sharded.run(&c);
        let mut flat = s0.clone();
        flat.apply_fused(&c.fused());
        assert!(sharded.to_state().distance(&flat) < 1e-12);
    }
}
