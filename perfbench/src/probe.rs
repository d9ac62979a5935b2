//! Machine probe, run at the end of every run: the streaming-triad memory
//! bandwidth that `statevector.roofline_frac` divides by, the cost of
//! entering a parallel region of the `rayon` shim, and the effective values
//! of the engine's threading knobs.

use rayon::prelude::*;
use std::time::Instant;

/// Each triad array is at least this many times the last-level cache.
pub const TRIAD_LLC_FACTOR: usize = 4;

/// LLC size assumed when the cache hierarchy cannot be read.
const FALLBACK_LLC_BYTES: usize = 32 << 20;

/// Timed triad passes (after one discarded warm-up pass).
const TRIAD_PASSES: usize = 3;

/// Parallel regions entered to time region entry.
const REGION_SAMPLES: usize = 400;

/// What the probe measured.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Total last-level cache in bytes, summed over cache instances.
    pub llc_bytes: usize,
    /// Bytes of each of the three triad arrays.
    pub triad_array_bytes: usize,
    /// Median streaming-triad bandwidth in GB/s (24 bytes per element).
    pub triad_gbps: f64,
    /// Median cost of entering and leaving one parallel region, in µs.
    pub region_entry_us: f64,
    /// `ghs_statevector::parallel_threshold()`.
    pub parallel_threshold: usize,
    /// `ghs_statevector::shard_count_for(22)`.
    pub shard_count_22: usize,
    /// Raw `GHS_PARALLEL_THRESHOLD` / `GHS_SHARD_COUNT` values, if set.
    pub env: [(&'static str, Option<String>); 2],
}

/// Runs the whole probe.
pub fn probe() -> Machine {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let llc_bytes = llc_bytes().unwrap_or(FALLBACK_LLC_BYTES);
    let elems = (TRIAD_LLC_FACTOR * llc_bytes).div_ceil(8);
    Machine {
        nproc,
        llc_bytes,
        triad_array_bytes: elems * 8,
        triad_gbps: triad_gbps(elems, nproc),
        region_entry_us: region_entry_us(nproc),
        parallel_threshold: ghs_statevector::parallel_threshold(),
        shard_count_22: ghs_statevector::shard_count_for(22),
        env: ["GHS_PARALLEL_THRESHOLD", "GHS_SHARD_COUNT"].map(|k| (k, std::env::var(k).ok())),
    }
}

/// Sum of the highest-level cache over its distinct instances, from the
/// kernel's cache description (the source `lscpu` reports).
fn llc_bytes() -> Option<usize> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let read = |path: String| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let mut best: Option<(usize, Vec<(String, usize)>)> = None;
    for cpu in 0..cpus {
        for index in 0.. {
            let dir = format!("/sys/devices/system/cpu/cpu{cpu}/cache/index{index}");
            let Some(level) = read(format!("{dir}/level")) else {
                break;
            };
            if read(format!("{dir}/type")).as_deref() == Some("Instruction") {
                continue;
            }
            let level: usize = level.parse().ok()?;
            let size = parse_size(&read(format!("{dir}/size"))?)?;
            let shared = read(format!("{dir}/shared_cpu_list")).unwrap_or_default();
            match &mut best {
                Some((l, _)) if *l > level => {}
                Some((l, inst)) if *l == level => {
                    if !inst.iter().any(|(s, _)| *s == shared) {
                        inst.push((shared, size));
                    }
                }
                _ => best = Some((level, vec![(shared, size)])),
            }
        }
    }
    best.map(|(_, inst)| inst.iter().map(|(_, s)| s).sum())
}

/// Parses sysfs cache sizes such as `307200K` or `4M`.
fn parse_size(s: &str) -> Option<usize> {
    let (digits, unit) = s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()));
    let scale = match unit {
        "" => 1,
        "K" => 1 << 10,
        "M" => 1 << 20,
        "G" => 1 << 30,
        _ => return None,
    };
    Some(digits.parse::<usize>().ok()? * scale)
}

/// STREAM triad `a = b + s·c` over `elems`-long arrays split across
/// `threads`. The first pass faults the pages in and is discarded.
fn triad_gbps(elems: usize, threads: usize) -> f64 {
    let mut a = vec![0.0f64; elems];
    let mut b = vec![0.0f64; elems];
    let mut c = vec![0.0f64; elems];
    let chunk = elems.div_ceil(threads);
    std::thread::scope(|scope| {
        for (bs, cs) in b.chunks_mut(chunk).zip(c.chunks_mut(chunk)) {
            scope.spawn(move || {
                bs.fill(1.0);
                cs.fill(2.0);
            });
        }
    });
    let mut pass = |scalar: f64| {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((xs, ys), zs) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((x, y), z) in xs.iter_mut().zip(ys).zip(zs) {
                        *x = y + scalar * z;
                    }
                });
            }
        });
        t0.elapsed().as_secs_f64()
    };
    pass(3.0);
    let times: Vec<f64> = (0..TRIAD_PASSES).map(|i| pass(3.0 + i as f64)).collect();
    assert!(
        std::hint::black_box(a[elems / 2]) >= 1.0 + 2.0 * 3.0,
        "triad result lost"
    );
    24.0 * elems as f64 / crate::stats::median(&times) / 1e9
}

/// Median wall time of one near-empty `par_chunks_mut` region that hands a
/// chunk to every thread — the fixed cost a kernel pays to go parallel.
fn region_entry_us(threads: usize) -> f64 {
    let mut data = vec![0u64; threads.max(2)];
    let samples: Vec<f64> = (0..REGION_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            data.par_chunks_mut(1).for_each(|c| c[0] += 1);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    std::hint::black_box(&data);
    crate::stats::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("307200K"), Some(300 << 20));
        assert_eq!(parse_size("4M"), Some(4 << 20));
        assert_eq!(parse_size("12"), Some(12));
        assert_eq!(parse_size("1T"), None);
    }

    #[test]
    fn small_triad_and_region_probe_report_positive_rates() {
        assert!(triad_gbps(1 << 16, 2) > 0.0);
        assert!(region_entry_us(2) > 0.0);
    }
}
