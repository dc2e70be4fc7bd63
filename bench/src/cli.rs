//! The `ledger` command line.

use crate::cell::CellCtx;
use crate::constants::{Scale, FULL, QUICK};
use crate::harness::{cell_main, run, RunArgs, RunResult};
use crate::json::{self, Value};
use crate::manifest::{self, check_manifest, check_result, END_TO_END, RUN_SECONDS};
use crate::stats::Sample;
use crate::workloads::{find, Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
       ledger all      [--seed N] [--seconds S] [--trace 0|1] [--quick]
       ledger check
       ledger noise    [--runs N] [--seconds S]
       ledger manifest
workloads: compile-corpus mutator-calls gc-destroy serve-requests
The last line of standard output is the result as one JSON object.";

struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: `{v}` is not a valid value")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// `--trace 0|1`; a bare `--trace` means 1.
    fn trace(&self) -> Result<bool, String> {
        match self.value("--trace") {
            Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) if !v.starts_with("--") => Err(format!("--trace: `{v}` is not 0 or 1")),
            _ => Ok(self.has("--trace")),
        }
    }

    fn scale(&self) -> Scale {
        if self.has("--quick") {
            QUICK
        } else {
            FULL
        }
    }

    /// The workload `--workload` names.
    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.value("--workload").ok_or("--workload is missing")?;
        find(name).ok_or_else(|| format!("unknown workload `{name}`"))
    }

    fn run_args(&self, workload: &'static Workload) -> Result<RunArgs, String> {
        let scale = self.scale();
        // `--quick` also shortens the run unless `--seconds` says otherwise.
        let default_seconds = if scale == QUICK { 1.0 } else { f64::from(RUN_SECONDS) };
        let seconds: f64 = self.parsed("--seconds", default_seconds)?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds: {seconds} is not within 0 to 60"));
        }
        Ok(RunArgs {
            workload,
            seed: self.parsed("--seed", 1)?,
            seconds,
            trace: self.trace()?,
            scale,
        })
    }
}

/// Entry point; `args` excludes the program name.
#[must_use]
pub fn main(args: Vec<String>) -> ExitCode {
    match dispatch(&Flags(args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn print_result(result: &RunResult) {
    print!("{}", result.text);
    println!("{}", result.to_json_line());
}

fn dispatch(flags: &Flags) -> Result<ExitCode, String> {
    match flags.0.first().map(String::as_str) {
        Some("cell") => {
            let cell = flags.value("--cell").ok_or("cell: --cell is missing")?;
            let ctx = CellCtx {
                scale: flags.scale(),
                seed: flags.parsed("--seed", 1)?,
                trace: flags.trace()?,
                expected: Vec::new(),
            };
            cell_main(flags.workload()?, cell, ctx);
            Ok(ExitCode::SUCCESS)
        }
        Some("manifest") => {
            print!("{}", manifest::render());
            Ok(ExitCode::SUCCESS)
        }
        Some("check") => Ok(check()),
        Some("noise") => noise(flags.parsed("--runs", 3)?, flags.parsed("--seconds", RUN_SECONDS)?),
        Some("all") => {
            let mut all_correct = true;
            for workload in &WORKLOADS {
                let result = run(&flags.run_args(workload)?);
                print_result(&result);
                all_correct &= result.correct;
            }
            Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        _ => {
            // The result line carries `correct`; the exit code says the
            // benchmark itself ran.
            print_result(&run(&flags.run_args(flags.workload()?)?));
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// `ledger check`: the committed manifest against the contract and
/// this crate, then a fresh `--quick` result of every workload, traced
/// and untraced, against the manifest.
fn check() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("bench/ has a parent");
    let mut errors = match std::fs::read_to_string(root.join("BENCHMARK.json")) {
        Ok(text) => check_manifest(&text, root),
        Err(e) => vec![format!("BENCHMARK.json: {e}")],
    };
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let result = run(&RunArgs { workload, seed: 1, seconds: 1.0, trace, scale: QUICK });
            let what = format!("{} --trace {}", workload.name, u8::from(trace));
            errors.extend(
                check_result(&result.to_json_line(), trace)
                    .into_iter()
                    .map(|e| format!("{what}: {e}")),
            );
            errors.extend(result.failures.iter().map(|f| format!("{what}: failed op: {f}")));
            println!("checked {what}: {} metric(s)", result.metrics.len());
        }
    }
    for e in &errors {
        println!("check: {e}");
    }
    if errors.is_empty() {
        println!("check: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `ledger noise`: the whole benchmark `runs` times, each with another
/// seed, as the driver does; prints each end-to-end metric's spread
/// (interquartile distance over the median) beside its bound.
fn noise(runs: u64, seconds: u32) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find the ledger binary: {e}"))?;
    let mut within = true;
    println!(
        "| workload | metric | median | spread | bound | verdict | every run, seeds 1 to {runs} |"
    );
    println!("|---|---|---|---|---|---|---|");
    for workload in WORKLOADS.iter().map(|w| w.name) {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for seed in 1..=runs {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output()
                .map_err(|e| format!("cannot run {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("");
            let result = json::parse(line).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
            if result.get("correct") != Some(&Value::Bool(true)) {
                println!("{workload} seed {seed}: not correct");
                within = false;
            }
            for (name, ..) in END_TO_END {
                let value = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{workload} seed {seed}: no `{name}`"))?;
                values.entry(name).or_default().push(value);
            }
        }
        for (name, unit, _, bound) in END_TO_END {
            let runs = values.remove(name).unwrap_or_default();
            let each: Vec<String> = runs.iter().map(|v| format!("{v:.4}")).collect();
            let sample = Sample::new(runs);
            // The driver does not hold set-up time to its spread.
            let ok = name == "setup_s" || sample.spread() <= bound;
            within &= ok;
            println!(
                "| {workload} | {name} | {:.4} {unit} | {:.2} % | {:.0} % | {} | {} |",
                sample.median(),
                100.0 * sample.spread(),
                100.0 * bound,
                match (ok, sample.spread() <= bound / 3.0) {
                    (true, true) => "steady",
                    (true, false) => "within",
                    (false, _) => "OVER",
                },
                each.join(" ")
            );
        }
    }
    Ok(if within { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
