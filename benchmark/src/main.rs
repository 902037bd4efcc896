//! End-to-end and per-layer benchmark of the TigerVector reproduction.
//!
//! ```text
//! e2ebench --workload <topk_merged|hybrid_gsql|fresh_mixed> --seed <n> \
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! The untraced run (`--trace 0`) prints every end-to-end metric; the traced
//! run (`--trace 1`) prints every per-layer metric and writes its spans to
//! `benchmark/out/`. Both check the answers and exit non-zero when a
//! correctness gate fails. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod fresh;
mod hybrid;
mod run;
mod topk;
mod trace;
mod util;

use run::{Args, Report};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["topk_merged", "hybrid_gsql", "fresh_mixed"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn provenance(args: &Args) -> serde_json::Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    serde_json::json!({
        "workload": args.workload.clone(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "kernel_info": tv_bench::kernel_info(),
        "layout_info": tv_bench::layout_info(),
        "planner_info": tv_bench::planner_info(),
        "storage_info": tv_bench::storage_info(),
    })
}

/// The end-to-end metrics, `(name, value, unit)`.
fn end_to_end(r: &Report) -> Vec<(&'static str, f64, &'static str)> {
    let success = if r.attempted == 0 {
        0.0
    } else {
        1.0 - r.failed as f64 / r.attempted as f64
    };
    vec![
        ("qps", r.qps, "1/s"),
        ("p50_ms", r.p50_ms, "ms"),
        ("p99_ms", r.p99_ms, "ms"),
        ("recall_at_10", r.recall, "frac"),
        ("setup_s", r.setup_s, "s"),
        ("resident_mb", r.resident_mb, "MB"),
        ("success_rate", success, "frac"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "topk_merged" => topk::run(&args),
        "hybrid_gsql" => hybrid::run(&args),
        _ => fresh::run(&args),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let prov = provenance(&args);
    println!("provenance {prov}");
    println!(
        "reads {} (tail quantile p{:.1}), commits {} (tail quantile p{:.1}), recall samples {}",
        report.reads,
        report.p99_q * 100.0,
        report.commits,
        report.commit_q * 100.0,
        report.recall_samples
    );
    for note in &report.notes {
        println!("{note}");
    }
    let error_rate = if report.attempted == 0 {
        0.0
    } else {
        report.failed as f64 / report.attempted as f64
    };
    println!(
        "error_rate {error_rate:.6} frac ({} of {} operations failed)",
        report.failed, report.attempted
    );
    // Only `fresh_mixed` writes. Its commit figures are printed, not
    // declared: a declared metric must be reported on every workload, and a
    // commit probe on the read-only workloads measured the host (see
    // README.md).
    if report.commits > 0 && !args.trace {
        println!("commit_p50_us {:.6} us", report.commit_p50_us);
        println!("commit_p99_us {:.6} us", report.commit_p99_us);
    }

    let metrics = if args.trace {
        trace::layer_metrics(&report.layers, &report.extra)
    } else {
        end_to_end(&report)
    };
    for (name, value, unit) in &metrics {
        println!("{name} {value:.6} {unit}");
    }
    if args.trace {
        let path = std::path::Path::new("benchmark/out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_spans(&path, &prov.to_string(), &report.spans) {
            Ok(()) => println!("spans {} written to {}", report.spans.len(), path.display()),
            Err(e) => eprintln!("e2ebench: writing spans to {}: {e}", path.display()),
        }
    }
    for v in &report.violations {
        eprintln!("e2ebench: correctness gate: {v}");
    }
    let correct = report.violations.is_empty();
    let mut m = serde_json::Map::new();
    for (name, value, unit) in &metrics {
        m.insert(
            (*name).to_string(),
            serde_json::json!({"value": *value, "unit": *unit}),
        );
    }
    let out = serde_json::json!({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": serde_json::Value::Object(m),
    });
    println!("{out}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
