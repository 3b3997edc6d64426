//! The benchmark's command line. One invocation runs one workload once:
//!
//! ```text
//! bench_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints a header of machine and input facts, every metric by name and
//! unit, and as the last line one JSON object. `--repeat N` runs a workload
//! N times in fresh processes and reports the run-to-run spread; `--all`
//! runs every workload once; `--check` runs every workload at a tiny scale
//! for correctness only.

use std::process::{Command, ExitCode};

use bench_ledger::calib::{normalised, NOMINAL_NS};
use bench_ledger::harness::{Outcome, RunCfg};
use bench_ledger::stats::{
    self, median, pct_name, percentile, quartiles, relative_spread, Permille, P50,
};
use bench_ledger::{run_workload, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: Option<String>,
    cfg: RunCfg,
    repeat: usize,
    fixed_seed: bool,
    all: bool,
}

const USAGE: &str = "usage: bench_ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       bench_ledger --workload <name> --repeat N [--fixed-seed] [--seed N] [--seconds S]
       bench_ledger --all [--seed N] [--seconds S] [--trace 0|1]
       bench_ledger --check [--workload <name>]
workloads: ingest-bulk hunt-catalog query-events query-paths stream-detect";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        cfg: RunCfg { seed: 1, seconds: 20.0, trace: false, check: false, corrupt: false },
        repeat: 0,
        fixed_seed: false,
        all: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: bad value `{v}`");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.cfg.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                args.cfg.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?
            }
            "--trace" => args.cfg.trace = flag01(&value()?).ok_or(bad("not 0|1"))?,
            "--corrupt" => args.cfg.corrupt = flag01(&value()?).ok_or(bad("not 0|1"))?,
            "--repeat" => args.repeat = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--fixed-seed" => args.fixed_seed = true,
            "--all" => args.all = true,
            "--check" => args.cfg.check = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`"));
        }
    } else if !args.all && !args.cfg.check {
        return Err("--workload, --all or --check is required".to_string());
    }
    if !(args.cfg.seconds > 0.0 && args.cfg.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

fn flag01(v: &str) -> Option<bool> {
    match v {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

/// Output of a helper command, or "unknown" (no git checkout, no rustc).
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_machine_facts() {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!("# nproc: {nproc}");
    println!(
        "# default_pool_threads: {} (the engine's default; every workload but query-paths runs at it)",
        threatraptor::common::pool::Pool::from_env().threads()
    );
    println!("# rustc: {}", tool_output("rustc", &["--version"]));
    println!("# commit: {}", tool_output("git", &["rev-parse", "HEAD"]));
    println!("# load: closed loop, one client, one process");
}

/// Throughput, median and tail of op latencies given in ns.
fn latency_stats(lat_ns: &[f64], units: f64, tail_pct: Permille) -> [f64; 3] {
    let lat = stats::sorted_f64(lat_ns);
    let busy_s = lat.iter().sum::<f64>() / 1e9;
    [units / busy_s, percentile(&lat, P50) / 1e3, percentile(&lat, tail_pct) / 1e3]
}

/// The percentile a run reports as `op_tail_us`.
fn tail_pct(out: &Outcome) -> Permille {
    stats::supported_tail(out.ops.len(), out.tail_pct)
}

/// The end-to-end metrics of a run, in [`END_TO_END`] order; times are
/// speed-normalised (see `calib`).
fn end_to_end(out: &Outcome) -> Vec<f64> {
    let [throughput, p50, tail] =
        latency_stats(&normalised(&out.ops, &out.calib), out.units, tail_pct(out));
    vec![
        median(&out.setup_s),
        throughput,
        p50,
        tail,
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        out.peak_rss_mb,
    ]
}

fn run_one(workload: &str, cfg: &RunCfg) -> ExitCode {
    println!("# workload: {workload}");
    println!("# seed: {} seconds: {} trace: {}", cfg.seed, cfg.seconds, cfg.trace as u8);
    print_machine_facts();
    let out = run_workload(workload, cfg).expect("workload name was validated");
    println!("# inputs_digest: {:#018x}", out.inputs_digest);
    for (k, v) in &out.facts {
        println!("# {k}: {v}");
    }
    let (n, tail_pct) = (out.ops.len(), tail_pct(&out));
    println!(
        "# op samples: {n}; op_tail_us is {} ({} samples beyond; the workload's own: {})",
        pct_name(tail_pct),
        stats::samples_beyond(n, tail_pct),
        pct_name(out.tail_pct),
    );
    println!("# setup samples: {}", out.setup_s.len());
    println!("# throughput unit: {}/s over the time ops were outstanding", out.unit);
    let raw: Vec<f64> = out.ops.iter().map(|o| o.ns as f64).collect();
    let [throughput, p50, tail] = latency_stats(&raw, out.units, tail_pct);
    println!(
        "# raw (not speed-normalised): setup_s {:.4} throughput_per_s {throughput:.4} \
         op_p50_us {p50:.4} op_tail_us {tail:.4}",
        median(&out.setup_raw_s)
    );
    println!(
        "# calib: {} kernel samples, median {:.0} ns against nominal {NOMINAL_NS:.0} ns",
        out.calib.samples(),
        out.calib.median_ns()
    );
    for why in &out.failures {
        println!("# FAILED: {why}");
    }

    let metrics: Vec<(&str, &str, f64)> = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, out.layer.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END.iter().zip(end_to_end(&out)).map(|(&(n, u), v)| (n, u, v)).collect()
    };
    for (name, unit, value) in &metrics {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload at a tiny scale: correctness checks only, no timings.
fn run_check(only: Option<&str>, cfg: &RunCfg) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for workload in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == **w)) {
        for trace in [false, true] {
            let cfg = RunCfg { trace, ..cfg.clone() };
            let out = run_workload(workload, &cfg).expect("known workload");
            let mode = if trace { "decomposed" } else { "facade" };
            println!(
                "check {workload:<14} {mode:<10} attempted {:>5} failed {} digest {:#018x}",
                out.attempted, out.failed, out.inputs_digest
            );
            for why in &out.failures {
                println!("  FAILED: {why}");
            }
            if out.failed > 0 || out.attempted == 0 {
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

/// Runs one workload once in a fresh process of this binary; returns
/// whether it succeeded and its stdout.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> (bool, String) {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("spawn a child run");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

/// `"name": {"value": X` out of a result line this binary printed.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// `name -> bound` of the end-to-end metrics, from `BENCHMARK.json`.
fn bounds() -> Vec<(String, f64)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap_or_default();
    END_TO_END
        .iter()
        .filter_map(|(name, _)| {
            let entry = &json[json.find(&format!("\"name\": \"{name}\""))?..];
            let entry = &entry[..entry.find('}')?];
            let bound = &entry[entry.find("\"bound\": ")? + 9..];
            Some((name.to_string(), bound.trim().parse().ok()?))
        })
        .collect()
}

fn run_repeat(workload: &str, args: &Args) -> ExitCode {
    let bounds = bounds();
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut ok = true;
    for i in 0..args.repeat {
        let seed = if args.fixed_seed { args.cfg.seed } else { args.cfg.seed + i as u64 };
        let (success, stdout) = child(workload, seed, args.cfg.seconds, false);
        let line = stdout.lines().last().unwrap_or_default();
        println!("# run {i} seed {seed}: {line}");
        ok &= success;
        for ((name, _), v) in END_TO_END.iter().zip(&mut values) {
            v.extend(metric_in(line, name));
        }
    }
    println!(
        "{:<20} {:>14} {:>14} {:>14} {:>9} {:>8}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for ((name, unit), v) in END_TO_END.iter().zip(&values) {
        if v.len() < 2 {
            println!("{name:<20} needs two runs that printed it");
            ok = false;
            continue;
        }
        let [q1, q2, q3] = quartiles(v);
        let spread = relative_spread(v);
        let bound = bounds.iter().find(|(n, _)| n == name).map(|b| b.1);
        // The driver does not hold `setup_s` to its spread.
        let over = *name != "setup_s" && bound.is_some_and(|b| spread > b);
        println!(
            "{name:<20} {q1:>14.4} {q2:>14.4} {q3:>14.4} {:>8.2}% {:>7}% {unit}{}",
            spread * 100.0,
            bound.map_or("?".to_string(), |b| format!("{:.3}", b * 100.0)),
            if over { "  OVER BOUND" } else { "" }
        );
        ok &= !over;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_all(args: &Args) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for workload in WORKLOADS {
        // A fresh process per workload: peak memory is that workload's own.
        let (success, stdout) = child(workload, args.cfg.seed, args.cfg.seconds, args.cfg.trace);
        print!("{stdout}");
        if !success {
            code = ExitCode::FAILURE;
        }
    }
    code
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Guard rails: the engine's knobs stay at their defaults, and only an
    // optimised build is measured.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("RAPTOR_"))
    {
        eprintln!("bench_ledger: refusing to run with {} set", k.to_string_lossy());
        return ExitCode::from(2);
    }
    if cfg!(debug_assertions) && !args.cfg.check {
        eprintln!("bench_ledger: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    match (&args.workload, args.cfg.check, args.all, args.repeat) {
        (only, true, _, _) => run_check(only.as_deref(), &args.cfg),
        (_, _, true, _) => run_all(&args),
        (Some(w), _, _, 0) => run_one(w, &args.cfg),
        (Some(w), _, _, _) => run_repeat(w, &args),
        (None, ..) => unreachable!("parse_args requires a workload here"),
    }
}
