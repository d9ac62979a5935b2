//! `ghs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from one process and prints, as its last line, a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics for `--trace 0`, the per-layer metrics for
//! `--trace 1`. The line before it carries the detail behind the numbers.
//! A traced run also writes its spans to `.bench_trace/<workload>-<seed>.jsonl`.

use ghs_perfbench::{probe, report, run_workload, Config};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<(String, Config), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{value}` for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        Config {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("ghs_perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = match run_workload(&workload, &cfg) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("ghs_perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Read before the probe, whose triad arrays dwarf every workload.
    let peak_rss_mb = report::peak_rss_mb().unwrap_or(0.0);
    let machine = probe::probe();

    println!(
        "{}",
        report::detail_line(&workload, cfg.seed, &run, &machine)
    );
    if cfg.trace {
        report::common_layers(&mut run, &machine);
        let path = PathBuf::from(".bench_trace").join(format!("{workload}-{}.jsonl", cfg.seed));
        if let Err(e) = report::write_spans(&path, &[&run.setup_spans, &run.spans]) {
            eprintln!("ghs_perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "{}",
            report::result_line(&run, report::PER_LAYER, &run.layers)
        );
    } else {
        let values = report::end_to_end(&run, peak_rss_mb);
        println!("{}", report::result_line(&run, report::END_TO_END, &values));
    }
    ExitCode::SUCCESS
}
