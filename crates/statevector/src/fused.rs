//! Application kernels for fused circuits.
//!
//! [`StateVector::apply_circuit`] pays one full sweep over all `2^n`
//! amplitudes per gate. The engine here executes a [`FusedCircuit`] instead:
//! every fused op is lowered once to the shared `Prepared` base-offset form
//! (`crate::kernels`), and one run loop (`apply_ops`, shared with
//! [`crate::ShardedStateVector`], which passes its shard length as the tile)
//! then:
//!
//! * **cache-blocks runs of small-span ops** — consecutive ops whose span
//!   fits one tile are replayed over a single tile at a time, so a run of
//!   `r` ops costs one pass over the state instead of `r`, with every
//!   intermediate amplitude staying cache-hot;
//! * sweeps the whole array through `Prepared::apply_sweep` for an op
//!   spanning more than a tile, which parallelizes over group *index space*
//!   (ranges of group ranks) rather than slicing the amplitude array — so an
//!   op whose support includes qubit 0 (the most significant bit, whose
//!   groups interleave across the entire state) fans out across worker
//!   threads like any other op;
//! * processes four groups per iteration in the hot inner loops, in split
//!   real/imaginary SIMD lanes ([`ghs_math::C64x4`]), with scalar remainder
//!   paths that are bit-identical by construction (see `crate::kernels`).
//!
//! [`StateVector::run_fused`] is the default execution path of the
//! workspace; [`StateVector::run_unfused`] keeps the per-gate path alive as
//! the correctness oracle (see `tests/property_based.rs`).

use crate::kernels::{sweep_parallel, Prepared};
use crate::state::StateVector;
use ghs_circuit::{Circuit, FusedCircuit, Gate};
use ghs_math::Complex64;
use rayon::prelude::*;

/// State dimension below which [`StateVector::run_fused`] falls back to the
/// per-gate path: fusing costs more than it saves on tiny registers. Shared
/// with the adjoint gradient engine (whose forward sweep makes the same
/// crossover choice) and with the fused backend's `prepare`, which plans
/// only registers at or above it, so a prepared execution stays
/// bit-identical to `run_fused` at every register size.
pub const FUSED_MIN_DIM: usize = 1 << 10;

/// Amplitudes per cache tile for replaying runs of small-span fused ops:
/// 2¹³ amplitudes = 128 KiB, sized so one tile plus the gather buffers stays
/// resident in L2 while a whole run of ops streams over it.
pub(crate) const TILE_AMPS: usize = 1 << 13;

/// Replays `run` over the amplitudes one tile at a time. Each tile sees
/// every op of the run before the next tile is touched; `base` resolves
/// control masks on bits above the tile.
fn apply_run_tiled(amps: &mut [Complex64], tile: usize, parallel: bool, run: &[Prepared]) {
    if parallel && amps.len() > tile {
        amps.par_chunks_mut(tile)
            .enumerate()
            .for_each(|(ti, chunk)| {
                let base = ti * tile;
                for op in run {
                    op.apply_local(base, chunk);
                }
            });
    } else {
        for (ti, chunk) in amps.chunks_mut(tile).enumerate() {
            let base = ti * tile;
            for op in run {
                op.apply_local(base, chunk);
            }
        }
    }
}

/// Applies `fused` to a physical amplitude array: runs of ops whose span
/// fits `tile` (a power of two dividing `amps.len()`) are replayed one tile
/// at a time, every wider op sweeps the whole array, and the global phase
/// comes last. The one run loop of the flat and sharded engines.
pub(crate) fn apply_ops(amps: &mut [Complex64], fused: &FusedCircuit, tile: usize, parallel: bool) {
    let n = fused.num_qubits();
    assert_eq!(amps.len(), 1usize << n, "register size mismatch");
    let phase = fused.global_phase();
    // The phase has span 1, so it joins the trailing tiled run when there
    // is one instead of costing a sweep of its own.
    let prepared: Vec<Prepared> = fused
        .ops()
        .iter()
        .map(|op| Prepared::build(n, op))
        .chain((phase != 0.0).then(|| Prepared::from_gate(n, &Gate::GlobalPhase(phase))))
        .collect();
    let mut rest = &prepared[..];
    while let Some(op) = rest.first() {
        if op.span <= tile {
            let end = rest
                .iter()
                .position(|p| p.span > tile)
                .unwrap_or(rest.len());
            apply_run_tiled(amps, tile, parallel, &rest[..end]);
            rest = &rest[end..];
        } else {
            op.apply_sweep(amps, parallel);
            rest = &rest[1..];
        }
    }
}

impl StateVector {
    /// Applies a pre-fused circuit (see [`Circuit::fused`]).
    ///
    /// Fuse once and reuse the [`FusedCircuit`] when applying the same
    /// circuit to many states (e.g. columns of a unitary, QAOA sweeps).
    pub fn apply_fused(&mut self, fused: &FusedCircuit) {
        let dim = self.dim();
        apply_ops(
            self.amplitudes_mut(),
            fused,
            TILE_AMPS.min(dim),
            sweep_parallel(dim),
        );
    }

    /// Fuses the circuit and applies it: the default execution path.
    ///
    /// Below 10 qubits the fusion pass itself costs more than the per-gate
    /// simulation it accelerates (its cost is independent of the state
    /// dimension), so small registers fall back to [`Self::run_unfused`] —
    /// the same crossover [`crate::circuit_unitary`] uses. Call
    /// [`Self::apply_fused`] with a pre-fused circuit to force the fused
    /// engine at any size (and to amortise fusion across repeated
    /// applications).
    pub fn run_fused(&mut self, circuit: &Circuit) {
        if self.dim() >= FUSED_MIN_DIM {
            self.apply_fused(&circuit.fused());
        } else {
            self.apply_circuit(circuit);
        }
    }

    /// Applies the circuit gate by gate, one sweep per gate: the slow,
    /// obviously-correct oracle against which the fused path is property
    /// tested.
    pub fn run_unfused(&mut self, circuit: &Circuit) {
        self.apply_circuit(circuit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghs_circuit::ControlBit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mixed_circuit(n: usize, seed: u64) -> Circuit {
        // A deterministic mix that exercises every kernel class.
        let mut c = Circuit::new(n);
        let angle = |i: usize| 0.1 + 0.37 * (i as f64) + seed as f64 * 0.013;
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        for q in 0..n {
            c.rz(q, angle(q));
        }
        c.swap(0, n - 1)
            .cz(0, 1)
            .cp(1, n - 1, 0.6)
            .keyed_z(vec![ControlBit::one(0), ControlBit::zero(n - 1)])
            .mcry(
                vec![ControlBit::one(0), ControlBit::zero(1)],
                n - 1,
                angle(1),
            )
            .global_phase(0.3)
            .y(1)
            .rx(0, angle(2))
            .ry(n - 2, angle(3))
            .sdg(1)
            .x(n - 1);
        c
    }

    #[test]
    fn fused_matches_unfused_on_mixed_circuits() {
        for n in 2..=8 {
            let c = mixed_circuit(n.max(3), n as u64);
            let mut rng = StdRng::seed_from_u64(n as u64);
            let s0 = StateVector::random_state(c.num_qubits(), &mut rng);
            let mut fused = s0.clone();
            // apply_fused rather than run_fused: the engine itself must be
            // exercised even below the run_fused size crossover.
            fused.apply_fused(&c.fused());
            let mut unfused = s0.clone();
            unfused.run_unfused(&c);
            assert!(
                fused.distance(&unfused) < 1e-12,
                "n={n}: distance {}",
                fused.distance(&unfused)
            );
        }
    }

    #[test]
    fn reordered_plans_never_lose_blocks_and_emit_the_same_unitary() {
        // The commutation-aware schedule may regroup gates across blocks,
        // but it must (a) never produce more blocks than the in-order scan
        // — plan_fusion keeps whichever plan is smaller, so the fusion
        // ratio is non-decreasing — and (b) emit the same unitary: on
        // random states the two emissions must agree to 1e-12.
        use ghs_circuit::{plan_fusion, plan_fusion_in_order, FusionOptions};
        let mut rng = StdRng::seed_from_u64(57);
        let opts = FusionOptions::default();
        for n in 2..=10usize {
            let c = crate::testkit::random_circuit(n, 50, 400 + n as u64);
            let reordered = plan_fusion(&c, &opts);
            let in_order = plan_fusion_in_order(&c, &opts);
            assert!(
                reordered.num_blocks() <= in_order.num_blocks(),
                "n={n}: reordering lost blocks ({} > {})",
                reordered.num_blocks(),
                in_order.num_blocks()
            );
            let s0 = StateVector::random_state(n, &mut rng);
            let mut a = s0.clone();
            a.apply_fused(&reordered.emit(&c));
            let mut b = s0.clone();
            b.apply_fused(&in_order.emit(&c));
            assert!(
                a.distance(&b) < 1e-12,
                "n={n}: reordered emission drifted by {}",
                a.distance(&b)
            );
        }
    }

    #[test]
    fn relabeled_unsorted_supports_are_bit_identical_on_permuted_amplitudes() {
        // Pins the unsorted-support invariant: [`FusedCircuit::relabeled`]
        // maps every op's qubit list element-wise, so relabeled supports
        // are generally NOT ascending, and the kernels must address
        // amplitudes purely through bit positions (the scatter table) —
        // never by assuming the planner's sorted order. Reversal unsorts
        // every multi-qubit support; the relabeled run must land on the
        // permuted amplitudes bit for bit, as the relabeling contract
        // promises.
        use ghs_circuit::QubitRelabeling;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(41);
        for n in 2..=8usize {
            let c = crate::testkit::random_circuit(n, 40, 900 + n as u64);
            let fused = c.fused();
            // Fisher–Yates: a seeded random permutation of the labels.
            let mut shuffled: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                shuffled.swap(i, j);
            }
            for relabeling in [
                QubitRelabeling::new((0..n).rev().collect()),
                QubitRelabeling::new(shuffled.clone()),
            ] {
                let s0 = StateVector::random_state(n, &mut rng);
                let mut flat = s0.clone();
                flat.apply_fused(&fused);
                let mut permuted_amps = vec![Complex64::ZERO; 1 << n];
                for (l, a) in s0.amplitudes().iter().enumerate() {
                    permuted_amps[relabeling.permute_index(l)] = *a;
                }
                let mut permuted = StateVector::from_amplitudes(n, permuted_amps);
                permuted.apply_fused(&fused.relabeled(&relabeling));
                for (l, a) in flat.amplitudes().iter().enumerate() {
                    let b = permuted.amplitudes()[relabeling.permute_index(l)];
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits()),
                        "n={n} index {l} drifted under relabeling {:?}",
                        relabeling.as_slice()
                    );
                }
            }
        }
    }

    #[test]
    fn fused_matches_above_parallel_threshold() {
        let n = 13; // crosses the default 4096-amplitude threshold
        let c = mixed_circuit(n, 7);
        let mut rng = StdRng::seed_from_u64(99);
        let s0 = StateVector::random_state(n, &mut rng);
        let mut fused = s0.clone();
        fused.run_fused(&c);
        let mut unfused = s0.clone();
        unfused.run_unfused(&c);
        assert!(fused.distance(&unfused) < 1e-11);
    }

    #[test]
    fn forced_parallel_serial_and_tiled_sweeps_are_bit_identical() {
        // The determinism contract at the GHS_PARALLEL_THRESHOLD extremes:
        // forcing every sweep parallel, forcing every sweep serial, and the
        // production tiled replay must agree bit for bit — SIMD-laned
        // kernels included, since the lanes mirror scalar operation order
        // exactly (see `ghs_math` SIMD docs).
        let n = 14; // two TILE_AMPS tiles, above the default rayon threshold
        let c = mixed_circuit(n, 31);
        let fused = c.fused();
        let mut rng = StdRng::seed_from_u64(77);
        let s0 = StateVector::random_state(n, &mut rng);
        let prepared: Vec<Prepared> = fused
            .ops()
            .iter()
            .map(|op| Prepared::build(n, op))
            .collect();
        let mut serial = s0.clone();
        let mut parallel = s0.clone();
        for p in &prepared {
            p.apply_sweep(serial.amplitudes_mut(), false);
            p.apply_sweep(parallel.amplitudes_mut(), true);
        }
        // Match apply_fused's trailing global-phase pass on both copies.
        if fused.global_phase() != 0.0 {
            let ph = Complex64::cis(fused.global_phase());
            for s in [&mut serial, &mut parallel] {
                for a in s.amplitudes_mut() {
                    *a *= ph;
                }
            }
        }
        let mut tiled = s0.clone();
        tiled.apply_fused(&fused);
        for (i, ((s, p), t)) in serial
            .amplitudes()
            .iter()
            .zip(parallel.amplitudes())
            .zip(tiled.amplitudes())
            .enumerate()
        {
            assert_eq!(s.re.to_bits(), p.re.to_bits(), "re drift at {i} (parallel)");
            assert_eq!(s.im.to_bits(), p.im.to_bits(), "im drift at {i} (parallel)");
            assert_eq!(s.re.to_bits(), t.re.to_bits(), "re drift at {i} (tiled)");
            assert_eq!(s.im.to_bits(), t.im.to_bits(), "im drift at {i} (tiled)");
        }
    }

    #[test]
    fn fused_matches_across_multiple_tiles() {
        // 2^14 amplitudes = two TILE_AMPS tiles: the run replay must resolve
        // cross-tile controls and high-bit supports correctly.
        let n = 14;
        let c = mixed_circuit(n, 21);
        let mut rng = StdRng::seed_from_u64(5);
        let s0 = StateVector::random_state(n, &mut rng);
        let mut fused = s0.clone();
        fused.apply_fused(&c.fused());
        let mut unfused = s0.clone();
        unfused.run_unfused(&c);
        assert!(fused.distance(&unfused) < 1e-11);
    }

    #[test]
    fn wide_diagonal_and_wide_control_passthrough() {
        let n = 12;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        // Keyed phase over 11 qubits: wider than the diagonal window → must
        // still be exact through the passthrough kernel.
        c.keyed_z((0..n - 1).map(ControlBit::one).collect());
        // McX with 9 controls: wider than the dense window.
        c.mcx((0..n - 3).map(ControlBit::one).collect(), n - 1);
        let mut rng = StdRng::seed_from_u64(3);
        let s0 = StateVector::random_state(n, &mut rng);
        let mut fused = s0.clone();
        fused.run_fused(&c);
        let mut unfused = s0.clone();
        unfused.run_unfused(&c);
        assert!(fused.distance(&unfused) < 1e-12);
    }

    #[test]
    fn high_bit_supports_run_exact_at_scale() {
        // Ops whose support includes qubit 0 (the most significant bit) take
        // the index-space sweep path; pin it against the oracle above the
        // parallel threshold, where the old engine fell back to one thread.
        let n = 13;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c.cx(1, 0) // permutation support spanning the MSB
            .rz(0, 0.7)
            .swap(0, n - 1)
            .mcry(
                vec![ControlBit::one(n - 1), ControlBit::zero(n - 2)],
                0,
                0.4,
            )
            .cp(0, 1, 0.9);
        let mut rng = StdRng::seed_from_u64(31);
        let s0 = StateVector::random_state(n, &mut rng);
        let mut fused = s0.clone();
        fused.apply_fused(&c.fused());
        let mut unfused = s0.clone();
        unfused.run_unfused(&c);
        assert!(fused.distance(&unfused) < 1e-12);
    }

    #[test]
    fn contradictory_controls_match_no_state() {
        // The same qubit required to be both |0⟩ and |1⟩: identity, on both
        // paths (regression test for the mask-fold control check).
        let n = 3;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c.keyed_phase(vec![ControlBit::one(0), ControlBit::zero(0)], 1.0);
        c.mcx(vec![ControlBit::one(1), ControlBit::zero(1)], 2);
        let mut rng = StdRng::seed_from_u64(17);
        let s0 = StateVector::random_state(n, &mut rng);
        let mut fused = s0.clone();
        fused.apply_fused(&c.fused());
        let mut unfused = s0.clone();
        unfused.run_unfused(&c);
        assert!(fused.distance(&unfused) < 1e-12);
        // And both equal just the H layer (the contradictory gates are no-ops).
        let mut h_only = Circuit::new(n);
        for q in 0..n {
            h_only.h(q);
        }
        let mut expect = s0.clone();
        expect.run_unfused(&h_only);
        assert!(unfused.distance(&expect) < 1e-12);
    }

    #[test]
    fn evolve_leaves_original_untouched() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let s0 = StateVector::zero_state(2);
        let s1 = crate::state::evolve(&s0, &c);
        assert!((s0.probability(0) - 1.0).abs() < 1e-12);
        assert!((s1.probability(0b11) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reusing_a_fused_circuit_across_states() {
        let c = mixed_circuit(5, 1);
        let fused = c.fused();
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s0 = StateVector::random_state(5, &mut rng);
            let mut a = s0.clone();
            a.apply_fused(&fused);
            let mut b = s0.clone();
            b.run_unfused(&c);
            assert!(a.distance(&b) < 1e-12);
        }
    }
}
