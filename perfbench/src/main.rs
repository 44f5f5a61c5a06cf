//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rmat-ooc --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (or `all` of them, each in its own process), checks
//! every answer against the serial oracle, prints a table of everything it
//! measured and, as the last line, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The exit
//! code is 1 when any answer is wrong or any operation failed. See
//! `perfbench/README.md` for what each workload and metric means.

mod check;
mod common;
mod grid_resume;
mod probe;
mod rmat_ooc;
mod serve_mix;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Report, RunCfg};
use serve_mix::Load;

const WORKLOADS: [&str; 3] = ["rmat-ooc", "grid-zeta3-resume", "serve-mix"];

/// End-to-end metrics, reported by every workload (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("sim_s", "s"),
    ("peak_rss_mb", "MB"),
];

const SERVE_LAYER: [(&str, &str); 11] = [
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("goodput_qps", "1/s"),
    ("queue_wait_ms", "ms"),
    ("drain_ms", "ms"),
    ("batch_size", "count"),
    ("batches", "count"),
    ("bfs_p50_ms", "ms"),
    ("sssp_p50_ms", "ms"),
    ("rejected", "count"),
    ("generator_late_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`); a layer a workload does not exercise
/// reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 37] = [
        ("graph.gen_ms", "ms"),
        ("graph.layout_ms", "ms"),
        ("graph.raw_ns_per_edge", "ns"),
        ("graph.decode_ns_per_edge", "ns"),
        ("graph.compression_ratio", "ratio"),
        ("session.build_ms", "ms"),
        ("session.plan_ms", "ms"),
        ("session.shards", "count"),
        ("query.bfs_ms", "ms"),
        ("query.sssp_ms", "ms"),
        ("query.pagerank_ms", "ms"),
        ("query.cc_ms", "ms"),
        ("query.outside_kernel_ms", "ms"),
        ("host.gather_ms", "ms"),
        ("host.apply_ms", "ms"),
        ("host.scatter_ms", "ms"),
        ("host.activate_ms", "ms"),
        ("host.kernel_ms", "ms"),
        ("host.kernel_wall_ms", "ms"),
        ("host.workers_busy", "count"),
        ("host.imbalance", "ratio"),
        ("proc.cpu_s", "s"),
        ("movement.h2d_mb", "MB"),
        ("movement.d2h_mb", "MB"),
        ("movement.copy_ops", "count"),
        ("sim.kernel_launches", "count"),
        ("sim.memcpy_s", "s"),
        ("sim.kernel_s", "s"),
        ("frontier.skip_ratio", "ratio"),
        ("durable.checkpoint_writes", "count"),
        ("durable.checkpoint_mb", "MB"),
        ("durable.delta_mb", "MB"),
        ("durable.killed_run_ms", "ms"),
        ("durable.resume_ms", "ms"),
        ("observe.decisions", "count"),
        ("trace.overhead_solve_ms", "ms"),
        ("trace.overhead_p50_ms", "ms"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for rate in ["lo", "hi"] {
        out.extend(
            SERVE_LAYER
                .iter()
                .map(|(n, u)| (format!("serve.{rate}.{n}"), *u)),
        );
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    load: Load,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed N --seconds S --trace <0|1> \
         [--rate-lo QPS] [--rate-hi QPS] [--sssp-one-in N] [--limit-ms MS]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        load: Load::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next()?;
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().ok()?,
            "--seconds" => a.seconds = v.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--rate-lo" => a.load.rate_lo = v.parse().ok().filter(|r: &f64| *r > 0.0)?,
            "--rate-hi" => a.load.rate_hi = v.parse().ok().filter(|r: &f64| *r > 0.0)?,
            "--sssp-one-in" => a.load.sssp_one_in = v.parse().ok().filter(|n: &u64| *n > 0)?,
            "--limit-ms" => a.load.limit_ms = v.parse().ok().filter(|l: &f64| *l > 0.0)?,
            _ => return None,
        }
    }
    (a.workload == "all" || WORKLOADS.contains(&a.workload.as_str())).then_some(a)
}

fn threads_for(workload: &str) -> usize {
    match workload {
        "rmat-ooc" => rmat_ooc::THREADS,
        "grid-zeta3-resume" => grid_resume::THREADS,
        _ => serve_mix::THREADS,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    if args.workload == "all" {
        return run_all();
    }
    // Pin the host worker count once, before any graph exists; nothing
    // later in the process changes it.
    std::env::set_var("RAYON_NUM_THREADS", threads_for(&args.workload).to_string());
    let threads = rayon::current_num_threads();

    let work_dir = PathBuf::from(".perfbench_out").join(format!(
        "{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: work_dir.clone(),
    };
    let mut report: Report = match args.workload.as_str() {
        "rmat-ooc" => rmat_ooc::run(&cfg),
        "grid-zeta3-resume" => grid_resume::run(&cfg),
        _ => serve_mix::run(&cfg, &args.load),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    report.metrics.set("host.threads", threads as f64, "count");
    report.metrics.set(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );

    println!(
        "workload {} seed {} ({} s window, trace {}), {threads} host thread(s)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for (name, (value, unit)) in report.metrics.iter() {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    if args.trace {
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let dir = PathBuf::from(".perfbench_out");
        let trace_path = dir.join(format!("trace-{stem}.json"));
        let table_path = dir.join(format!("selftime-{stem}.txt"));
        let (json, rows) = report.trace.take().unwrap_or_default();
        let table = trace::self_time_table(&rows);
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&trace_path, json))
            .and_then(|()| std::fs::write(&table_path, &table));
        match written {
            Ok(()) => println!(
                "  spans: {} and {}",
                trace_path.display(),
                table_path.display()
            ),
            Err(e) => println!("  spans not written: {e}"),
        }
        print!("{table}");
    }

    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in &wanted {
        let value = match report.metrics.get(name) {
            Some((v, _)) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("error: workload {} did not measure {name}", args.workload);
                return ExitCode::from(3);
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run every workload in a child process of its own (each pins its own
/// thread count), pass their output through, and summarize.
fn run_all() -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("error: cannot locate this executable");
        return ExitCode::from(2);
    };
    let passed: Vec<String> = {
        let mut out = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                out.push(a);
            }
        }
        out
    };
    let (mut attempted, mut failed, mut all_ok) = (0u64, 0u64, true);
    let mut parts = Vec::new();
    for w in WORKLOADS {
        let out = match std::process::Command::new(&exe)
            .args(["--workload", w])
            .args(&passed)
            .output()
        {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: cannot run workload {w}: {e}");
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        all_ok &= out.status.success();
        let last = stdout.lines().last().unwrap_or("");
        let count = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|r| r.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|n| n.parse().ok())
                .unwrap_or(0)
        };
        attempted += count("attempted");
        failed += count("failed");
        let metrics = last
            .split_once("\"metrics\": ")
            .map_or("{}", |(_, m)| m.strip_suffix('}').unwrap_or("{}"));
        parts.push(format!("\"{w}\": {metrics}"));
    }
    let correct = all_ok && failed == 0 && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        parts.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unit `BENCHMARK.json` gives metric `name`, if it lists it.
    fn listed_unit<'a>(json: &'a str, name: &str) -> Option<&'a str> {
        let at = json.find(&format!("\"name\": \"{name}\""))?;
        let rest = &json[at..];
        let u = rest.find("\"unit\": \"")? + "\"unit\": \"".len();
        rest[u..].split('"').next()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let mut expected: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        expected.extend(per_layer());
        for (name, unit) in &expected {
            assert_eq!(listed_unit(&json, name), Some(*unit), "metric {name}");
        }
        let listed = json.matches("\"name\": \"").count();
        assert_eq!(
            listed,
            expected.len() + WORKLOADS.len(),
            "metric or workload count"
        );
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
    }
}
