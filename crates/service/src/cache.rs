//! The shared artifact cache: what lets repeated circuit structures skip
//! preparation, repeated observables skip grouping, and repeated sampling
//! executions skip simulation.
//!
//! Three capacity-bounded LRU maps, shared by every worker and all served by
//! one lookup-or-build path:
//!
//! * **prepared values** — (backend, [`StructuralKey`]) → the backend's
//!   [`Prepared`] artifact ([`ghs_core::Backend::prepare`]): a fusion plan,
//!   or a plan plus the sharded engine's qubit relabeling. A plan depends
//!   only on gate structure, never on angles, so every binding of a
//!   template (and every concrete circuit with the same topology) shares
//!   one. A stabilizer tableau is the final state itself, so its key also
//!   carries the initial basis state and the exact angle bits; every shot
//!   collapses its own clone, so sharing it across workers is sound.
//!   Backends that prepare nothing leave an empty marker.
//! * **observables** — content fingerprint of a [`PauliSum`] →
//!   [`GroupedPauliSum`]. Observable preparation depends only on the
//!   Hamiltonian, so VQE/QAOA streams prepare each observable once.
//! * **distributions** — (backend, structural key, initial basis state,
//!   exact angle bits) → [`CachedDistribution`]. A repeated
//!   *fully-specified* circuit lets sampling jobs skip preparation and
//!   execution altogether and draw shots straight from the cached alias
//!   table; distinct seeds still give independent, deterministic streams.
//!
//! A capacity of `0` disables caching — every lookup is a miss and nothing
//! is stored. The cold leg of the `service_mixed_throughput` benchmark runs
//! in exactly that mode.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ghs_circuit::{Circuit, StructuralKey};
use ghs_core::{BackendError, BackendSpec, Prepared};
use ghs_operators::PauliSum;
use ghs_statevector::{CachedDistribution, GroupedPauliSum};

/// Locks a cache map, recovering from mutex poisoning.
///
/// A worker thread that panics mid-job (the service converts the panic into
/// a failed job, it does not crash) may have been holding one of these locks
/// at unwind time, which poisons the mutex. Every critical section in this
/// module is pure LRU bookkeeping — short, allocation-light, and with no
/// multi-step invariant that a mid-section unwind could tear — so the map
/// contents are still sound and the right response is to keep serving them,
/// not to propagate the panic to every later job on an unrelated worker.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Minimal LRU over a small `Vec`: exact recency via a monotone tick. The
/// capacities in play are tens of entries, where a linear scan beats any
/// pointer-chasing structure.
struct Lru<K, V> {
    capacity: usize,
    tick: u64,
    entries: Vec<(K, V, u64)>,
}

impl<K: PartialEq, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            entries: Vec::new(),
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries
            .iter_mut()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, last_used)| {
                *last_used = tick;
                v.clone()
            })
    }

    /// Inserts (or refreshes) an entry; returns `true` when an older entry
    /// was evicted to make room.
    fn insert(&mut self, key: K, value: V) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.tick += 1;
        if let Some(entry) = self.entries.iter_mut().find(|(k, _, _)| *k == key) {
            entry.1 = value;
            entry.2 = self.tick;
            return false;
        }
        let mut evicted = false;
        if self.entries.len() >= self.capacity {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, t))| *t)
                .map(|(i, _)| i)
                .expect("capacity > 0 and full");
            self.entries.swap_remove(oldest);
            evicted = true;
        }
        self.entries.push((key, value, self.tick));
        evicted
    }
}

/// Identity of a prepared value or a distribution: the backend that built
/// it, the circuit's structure and — for artifacts of one fully-specified
/// execution — the initial basis state and the exact bit patterns of every
/// angle in the bound circuit. Angle bits (not approximate equality) keep
/// the cache sound: a hit reproduces the exact result bit for bit.
#[derive(Clone, PartialEq)]
pub(crate) struct ArtifactKey {
    pub backend: BackendSpec,
    pub structure: StructuralKey,
    pub execution: Option<(usize, Vec<u64>)>,
}

/// The exact angle bit patterns of a bound circuit, in gate order.
pub(crate) fn angle_bits(circuit: &Circuit) -> Vec<u64> {
    circuit
        .gates()
        .iter()
        .filter_map(|g| g.angle().map(f64::to_bits))
        .collect()
}

/// Content fingerprint of a Pauli sum (FNV-1a over register size, term
/// count, coefficient bits and string masks): equal sums share one prepared
/// [`GroupedPauliSum`] even when held behind different allocations.
fn observable_fingerprint(sum: &PauliSum) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut word = |w: u64| h = (h ^ w).wrapping_mul(PRIME);
    word(sum.num_qubits() as u64);
    word(sum.num_terms() as u64);
    for &(coeff, ref string) in sum.terms() {
        word(coeff.re.to_bits());
        word(coeff.im.to_bits());
        let (x_mask, z_mask) = string.masks();
        word(x_mask as u64);
        word(z_mask as u64);
    }
    h
}

/// Counters over the cache's whole lifetime; see [`PlanCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fusion-plan lookups served from the cache.
    pub plan_hits: u64,
    /// Fusion-plan lookups that had to plan from scratch.
    pub plan_misses: u64,
    /// Prepared-observable lookups served from the cache.
    pub observable_hits: u64,
    /// Prepared-observable lookups that had to prepare from scratch.
    pub observable_misses: u64,
    /// Sampling jobs that skipped execution via a cached distribution.
    pub distribution_hits: u64,
    /// Sampling jobs that had to execute and build the alias table.
    pub distribution_misses: u64,
    /// Sharded-layout lookups served from the cache.
    pub relabeling_hits: u64,
    /// Sharded-layout lookups that had to score the fused circuit.
    pub relabeling_misses: u64,
    /// Stabilizer jobs that reused a cached prepared tableau.
    pub tableau_hits: u64,
    /// Stabilizer jobs that had to conjugate the circuit into a tableau.
    pub tableau_misses: u64,
    /// Entries evicted under the capacity bound, across all maps.
    pub evictions: u64,
}

/// A `[misses, hits]` counter pair, indexed by whether the lookup hit.
type Tally = [AtomicU64; 2];

#[derive(Default)]
struct Counters {
    plans: Tally,
    observables: Tally,
    distributions: Tally,
    relabelings: Tally,
    tableaus: Tally,
    evictions: AtomicU64,
}

/// The shared artifact cache (see the module docs). All methods take `&self`
/// and are safe to call from every worker concurrently.
pub struct PlanCache {
    plans: Mutex<Lru<ArtifactKey, Arc<Prepared>>>,
    observables: Mutex<Lru<u64, Arc<GroupedPauliSum>>>,
    distributions: Mutex<Lru<ArtifactKey, Arc<CachedDistribution>>>,
    counters: Counters,
}

impl PlanCache {
    /// A cache whose maps each hold at most `capacity` entries
    /// (`0` disables caching entirely).
    pub fn new(capacity: usize) -> Self {
        Self {
            plans: Mutex::new(Lru::new(capacity)),
            observables: Mutex::new(Lru::new(capacity)),
            distributions: Mutex::new(Lru::new(capacity)),
            counters: Counters::default(),
        }
    }

    /// The one lookup path of every map: the entry under `key` when
    /// resident, otherwise `build`'s value, stored (counting any eviction).
    /// Returns whether the lookup hit. Building happens outside the map
    /// lock, so a slow build never blocks unrelated lookups; two workers
    /// racing on one miss both build and one insert wins — harmless, since
    /// equal keys build interchangeable values.
    fn lookup_or_build<K: PartialEq, V: Clone>(
        &self,
        map: &Mutex<Lru<K, V>>,
        key: K,
        build: impl FnOnce() -> Result<V, BackendError>,
    ) -> Result<(V, bool), BackendError> {
        if let Some(value) = lock_recover(map).get(&key) {
            return Ok((value, true));
        }
        let value = build()?;
        if lock_recover(map).insert(key, value.clone()) {
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok((value, false))
    }

    /// The backend's prepared value under `key`, built on a miss. Counted
    /// by what it holds: a plan, a plan plus a relabeling, or a tableau.
    pub(crate) fn prepared(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> Result<Prepared, BackendError>,
    ) -> Result<Arc<Prepared>, BackendError> {
        let (prepared, hit) = self.lookup_or_build(&self.plans, key, || build().map(Arc::new))?;
        let c = &self.counters;
        let tallies: &[&Tally] = match *prepared {
            Prepared::Nothing => &[],
            Prepared::Plan(_) => &[&c.plans],
            Prepared::Sharded { .. } => &[&c.plans, &c.relabelings],
            Prepared::Tableau(_) => &[&c.tableaus],
        };
        for tally in tallies {
            tally[usize::from(hit)].fetch_add(1, Ordering::Relaxed);
        }
        Ok(prepared)
    }

    /// The prepared grouped form of `sum`: cached by content fingerprint,
    /// prepared on miss.
    pub(crate) fn observable(&self, sum: &PauliSum) -> Arc<GroupedPauliSum> {
        let key = observable_fingerprint(sum);
        let (observable, hit) = self
            .lookup_or_build(&self.observables, key, || {
                Ok(Arc::new(GroupedPauliSum::new(sum)))
            })
            .expect("grouping an observable cannot fail");
        self.counters.observables[usize::from(hit)].fetch_add(1, Ordering::Relaxed);
        observable
    }

    /// The pre-measurement distribution of a fully-specified execution
    /// under `key`, built on a miss.
    pub(crate) fn distribution(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> Result<CachedDistribution, BackendError>,
    ) -> Result<Arc<CachedDistribution>, BackendError> {
        let (dist, hit) =
            self.lookup_or_build(&self.distributions, key, || build().map(Arc::new))?;
        self.counters.distributions[usize::from(hit)].fetch_add(1, Ordering::Relaxed);
        Ok(dist)
    }

    /// Snapshot of the lifetime hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        let load = |tally: &Tally, hit: bool| tally[usize::from(hit)].load(Ordering::Relaxed);
        CacheStats {
            plan_hits: load(&c.plans, true),
            plan_misses: load(&c.plans, false),
            observable_hits: load(&c.observables, true),
            observable_misses: load(&c.observables, false),
            distribution_hits: load(&c.distributions, true),
            distribution_misses: load(&c.distributions, false),
            relabeling_hits: load(&c.relabelings, true),
            relabeling_misses: load(&c.relabelings, false),
            tableau_hits: load(&c.tableaus, true),
            tableau_misses: load(&c.tableaus, false),
            evictions: c.evictions.load(Ordering::Relaxed),
        }
    }
}

/// The fused backend's plan for `circuit`, planned at any register size —
/// the unit tests' probe of the shared lookup path.
#[cfg(test)]
impl PlanCache {
    fn plan(&self, circuit: &Circuit, key: StructuralKey) -> Arc<Prepared> {
        let key = ArtifactKey {
            backend: BackendSpec::Fused,
            structure: key,
            execution: None,
        };
        self.prepared(key, || Ok(Prepared::Plan(circuit.fusion_plan())))
            .expect("planning cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghs_circuit::Circuit;

    fn topology(rotated: usize) -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(rotated, 0.5);
        c
    }

    #[test]
    fn plan_lookups_hit_after_the_first_miss() {
        let cache = PlanCache::new(8);
        let c = topology(2);
        let key = c.structural_key();
        let a = cache.plan(&c, key);
        let b = cache.plan(&c, key);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.plan_misses, stats.plan_hits), (1, 1));
    }

    #[test]
    fn eviction_under_a_small_capacity_bound() {
        let cache = PlanCache::new(2);
        let circuits: Vec<Circuit> = (0..3).map(topology).collect();
        for c in &circuits {
            cache.plan(c, c.structural_key());
        }
        // Third insert evicts the least recently used (the first).
        assert_eq!(cache.stats().evictions, 1);
        // 1 and 2 are resident; 0 was evicted and misses again.
        cache.plan(&circuits[2], circuits[2].structural_key());
        cache.plan(&circuits[1], circuits[1].structural_key());
        assert_eq!(cache.stats().plan_hits, 2);
        cache.plan(&circuits[0], circuits[0].structural_key());
        let stats = cache.stats();
        assert_eq!(stats.plan_misses, 4);
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn poisoned_maps_recover_and_keep_serving() {
        let cache = Arc::new(PlanCache::new(8));
        let c = topology(1);
        let key = c.structural_key();
        cache.plan(&c, key);
        // Poison the plans mutex: a thread panics while holding the lock,
        // as a worker unwinding mid-lookup would.
        let poisoner = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.plans.lock().unwrap();
            panic!("poisoning the plan map");
        })
        .join();
        assert!(cache.plans.lock().is_err(), "mutex should be poisoned");
        // Lookups recover the map instead of propagating the panic: the
        // resident entry still hits.
        cache.plan(&c, key);
        let stats = cache.stats();
        assert_eq!((stats.plan_misses, stats.plan_hits), (1, 1));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        let c = topology(0);
        let key = c.structural_key();
        cache.plan(&c, key);
        cache.plan(&c, key);
        let stats = cache.stats();
        assert_eq!(stats.plan_hits, 0);
        assert_eq!(stats.plan_misses, 2);
        assert_eq!(stats.evictions, 0);
    }
}
