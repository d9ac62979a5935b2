//! Metric names, units and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the metric lists of
//! `BENCHMARK.json`; a test keeps the two in step.

use crate::probe::Machine;
use crate::stats::{summarize, windowed_tail, Summary};
use crate::trace::{self, Span};
use crate::Run;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("iter_p50_ms", "ms"),
    ("iter_tail_ms", "ms"),
    ("iters_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// a workload does not call reports `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("machine.nproc", "count"),
    ("machine.llc_mb", "MB"),
    ("machine.triad_array_mb", "MB"),
    ("machine.triad_gbps", "GB/s"),
    ("rayon.region_entry_us", "us"),
    ("statevector.parallel_threshold", "count"),
    ("statevector.shard_count_22", "count"),
    ("construction.build_ms", "ms"),
    ("circuit.gates", "count"),
    ("circuit.rotations", "count"),
    ("circuit.two_qubit", "count"),
    ("circuit.multi_controlled", "count"),
    ("circuit.depth", "count"),
    ("circuit.plan_ms", "ms"),
    ("circuit.fused_ops", "count"),
    ("circuit.fusion_ratio", "ratio"),
    ("circuit.exchange_ops", "count"),
    ("circuit.ops.diag", "count"),
    ("circuit.ops.perm", "count"),
    ("circuit.ops.sparse", "count"),
    ("circuit.ops.dense", "count"),
    ("circuit.ops.ctrl-dense", "count"),
    ("circuit.ops.gate", "count"),
    ("statevector.alloc_ms", "ms"),
    ("statevector.sweep_ms", "ms"),
    ("statevector.bytes_computed", "bytes"),
    ("statevector.gbps", "GB/s"),
    ("statevector.roofline_frac", "fraction"),
    ("statevector.gradient_ms", "ms"),
    ("statevector.expval_ms", "ms"),
    ("statevector.alias_build_ms", "ms"),
    ("statevector.draw_ms", "ms"),
    ("core.optimizer_ms", "ms"),
    ("core.trajectory_kraus_ms", "ms"),
    ("core.trajectory_pauli_ms", "ms"),
    ("core.density_ms", "ms"),
    ("core.trajectories_per_s", "1/s"),
    ("service.submit_ms", "ms"),
    ("service.wait_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.plan_hit_ratio", "fraction"),
    ("service.observable_hit_ratio", "fraction"),
    ("service.distribution_hit_ratio", "fraction"),
    ("service.evictions", "count"),
    ("service.job.expectation_p50_ms", "ms"),
    ("service.job.gradient_p50_ms", "ms"),
    ("service.job.sample_p50_ms", "ms"),
    ("service.job.fresh_p50_ms", "ms"),
    ("stabilizer.prepare_ms", "ms"),
    ("stabilizer.sample_ms", "ms"),
    ("stabilizer.shots_per_s", "1/s"),
    ("self.bench_ms", "ms"),
    ("self.construction_ms", "ms"),
    ("self.circuit_ms", "ms"),
    ("self.statevector_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.service_ms", "ms"),
    ("self.stabilizer_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Fills the per-layer metrics every workload shares: the machine probe,
/// span medians (`<span>_ms` is the median duration of spans named
/// `<span>`, set-up spans included), self time per layer per traced episode
/// (set-up excluded), and tracing overhead.
pub fn common_layers(run: &mut Run, machine: &Machine) {
    let layers = &mut run.layers;
    let mb = |b: usize| b as f64 / (1u64 << 20) as f64;
    layers.insert("machine.nproc", machine.nproc as f64);
    layers.insert("machine.llc_mb", mb(machine.llc_bytes));
    layers.insert("machine.triad_array_mb", mb(machine.triad_array_bytes));
    layers.insert("machine.triad_gbps", machine.triad_gbps);
    layers.insert("rayon.region_entry_us", machine.region_entry_us);
    layers.insert(
        "statevector.parallel_threshold",
        machine.parallel_threshold as f64,
    );
    layers.insert("statevector.shard_count_22", machine.shard_count_22 as f64);
    if let Some(gbps) = layers.get("statevector.gbps").copied() {
        layers.insert("statevector.roofline_frac", gbps / machine.triad_gbps);
    }

    let all: Vec<Span> = run.setup_spans.iter().chain(&run.spans).cloned().collect();
    for (name, _) in PER_LAYER {
        if let Some(span) = name.strip_suffix("_ms") {
            let d = trace::durations_ms(&all, span);
            if !d.is_empty() {
                layers.insert(name, crate::stats::median(&d));
            }
        }
    }
    let episodes = run.traced_episode_s.len().max(1) as f64;
    for (layer, ms) in trace::self_time_ms(&run.spans) {
        if let Some((name, _)) = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_prefix("self.") == Some(&format!("{layer}_ms")))
        {
            layers.insert(name, ms / episodes);
        }
    }
    layers.insert("trace.spans", run.spans.len() as f64);
    layers.insert(
        "trace.overhead_ms",
        1e3 * (crate::stats::median(&run.traced_episode_s) - crate::stats::median(&run.episode_s)),
    );
}

/// The end-to-end metric values of an untraced run.
pub fn end_to_end(run: &Run, peak_rss_mb: f64) -> BTreeMap<&'static str, f64> {
    let (iters, _) = windowed_tail(&run.iter_ms);
    let ok = run.attempted.saturating_sub(run.failed) as f64 / run.attempted.max(1) as f64;
    BTreeMap::from([
        ("setup_s", crate::stats::median(&run.setup_s)),
        ("wall_s", crate::stats::median(&run.episode_s)),
        ("peak_rss_mb", peak_rss_mb),
        ("ok_frac", ok),
        ("iter_p50_ms", iters.median),
        ("iter_tail_ms", iters.tail),
        ("iters_per_s", crate::stats::median(&run.episode_rate)),
    ])
}

/// Peak resident set size of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with every metric of `names` (missing values print as `0`).
pub fn result_line(run: &Run, names: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed
    )
}

/// A detail line for humans and archives: sample counts and percentiles
/// behind every timing (each span name's too, in a traced run), the machine
/// description and the threading knobs.
pub fn detail_line(workload: &str, seed: u64, run: &Run, machine: &Machine) -> String {
    let series = |name: &str, s: Summary| {
        format!(
            "\"{name}\": {{\"count\": {}, \"median\": {}, \"tail_pct\": {}, \"tail\": {}}}",
            s.count,
            json_number(s.median),
            json_number(s.tail_pct),
            json_number(s.tail)
        )
    };
    let env: Vec<String> = machine
        .env
        .iter()
        .map(|(k, v)| match v {
            Some(v) => format!("\"{k}\": \"{}\"", v.escape_default()),
            None => format!("\"{k}\": null"),
        })
        .collect();
    let notes: Vec<String> = run
        .notes
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.escape_default()))
        .collect();
    let (windowed, windows) = windowed_tail(&run.iter_ms);
    // Every span name of a traced run, with the ms series behind its median.
    let all: Vec<Span> = run.setup_spans.iter().chain(&run.spans).cloned().collect();
    let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let spans: Vec<String> = names
        .iter()
        .map(|n| series(&format!("{n}_ms"), summarize(&trace::durations_ms(&all, n))))
        .collect();
    format!(
        "{{\"detail\": {{\"workload\": \"{workload}\", \"seed\": {seed}, {}, {}, {}, {}, \
         \"tail_windows\": {}, {}, \"measured_s\": {}, \"machine\": {{\"nproc\": {}, \"llc_bytes\": {}, \
         \"triad_array_bytes\": {}, \"triad_gbps\": {}, \"region_entry_us\": {}, \
         \"parallel_threshold\": {}, \"shard_count_22\": {}, {}}}, \"notes\": {{{}}}, \
         \"spans\": {{{}}}}}}}",
        series("setup_s", summarize(&run.setup_s)),
        series("episode_s", summarize(&run.episode_s)),
        series("iter_ms", summarize(&run.iter_ms)),
        series("iter_ms_windowed", windowed),
        windows,
        series("traced_episode_s", summarize(&run.traced_episode_s)),
        json_number(run.measured_s),
        machine.nproc,
        machine.llc_bytes,
        machine.triad_array_bytes,
        json_number(machine.triad_gbps),
        json_number(machine.region_entry_us),
        machine.parallel_threshold,
        machine.shard_count_22,
        env.join(", "),
        notes.join(", "),
        spans.join(", ")
    )
}

/// Finite numbers print with every digit Rust keeps; anything else as `0`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}

/// Writes span lists as JSON lines, one span per line, into `path`; ids
/// run on across the lists and parent links follow them.
pub fn write_spans(path: &std::path::Path, lists: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut offset = 0;
    for spans in lists {
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (p + offset).to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"group\": {}}}",
                i + offset,
                s.name,
                s.start_ns,
                s.end_ns,
                s.group
            )?;
        }
        offset += spans.len();
    }
    out.flush()
}
