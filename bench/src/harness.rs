//! The parent side of a run: set-up, one child process per op, the
//! watchdog, and the arithmetic from reports to the result line.

use crate::cell::CellCtx;
use crate::constants::{host_threads, Scale, OP_DEADLINE_SECS, QUICK, SETUP_REPEATS};
use crate::json;
use crate::manifest::metric_units;
use crate::report::{escape, unescape, Report};
use crate::span::chrome_trace;
use crate::stats::Sample;
use crate::workloads::{CellPlan, Cells, Metrics, Workload};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of measuring.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// What one run found.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every op's output matched the reference and no op failed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// `(name, value, unit)` in manifest order.
    pub metrics: Vec<(String, f64, String)>,
    /// One reproduction line per failed op.
    pub failures: Vec<String>,
    /// The human-readable account of the run.
    pub text: String,
}

impl RunResult {
    /// The result line of the builder's contract.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json::quote(name),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Where traces go: `bench/out/`.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The arguments that make `ledger` run one op of `cell` (the
/// reference outcomes go in on stdin, one escaped line each).
fn cell_args(args: &RunArgs, cell: &str) -> Vec<String> {
    let mut out: Vec<String> =
        ["cell", "--workload", args.workload.name, "--cell", cell].map(String::from).into();
    out.extend(["--seed".to_string(), args.seed.to_string()]);
    out.extend(["--trace".to_string(), u8::from(args.trace).to_string()]);
    if args.scale == QUICK {
        out.push("--quick".to_string());
    }
    out
}

/// Runs `command` to completion with `input` on its stdin and returns
/// its stdout, or why there is none: it could not start, outlived
/// `deadline` (and was killed), or exited with a failure.
fn run_child(mut command: Command, input: &str, deadline: Duration) -> Result<String, String> {
    let mut child = command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the child: {e}"))?;
    // A cell reads all of stdin before it prints, so writing first
    // cannot deadlock; a child that died early just breaks the pipe.
    if let Some(mut stdin) = child.stdin.take() {
        let _ = stdin.write_all(input.as_bytes());
    }
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        let _ = tx.send(text);
    });
    let text = rx.recv_timeout(deadline);
    if text.is_err() {
        let _ = child.kill();
    }
    let status = child.wait();
    let _ = reader.join();
    match (text, status) {
        (Err(_), _) => {
            Err(format!("no result within the {:.1} s deadline (killed)", deadline.as_secs_f64()))
        }
        (Ok(_), Err(e)) => Err(format!("cannot wait for the child: {e}")),
        (Ok(_), Ok(status)) if !status.success() => Err(format!("the child died ({status})")),
        (Ok(text), Ok(_)) => Ok(text),
    }
}

/// Runs one op of a cell in a child process under the deadline. A
/// child that dies, hangs or prints nonsense is one failed op, with the
/// line that reruns it.
fn spawn_cell(args: &RunArgs, cell: &str, expected_lines: &str) -> Report {
    std::env::current_exe()
        .map_err(|e| format!("cannot find the ledger binary: {e}"))
        .and_then(|exe| {
            let mut command = Command::new(exe);
            command.args(cell_args(args, cell));
            run_child(command, expected_lines, Duration::from_secs_f64(OP_DEADLINE_SECS))
        })
        .and_then(|text| Report::from_lines(&text))
        .unwrap_or_else(|why| {
            let mut r = Report { attempted: 1, ..Report::default() };
            r.fail(format!("{why}; rerun: ledger {}", cell_args(args, cell).join(" ")));
            r
        })
}

/// Keeps every hardware thread the cells may use busy for the scale's
/// `host_warmup_ms`. The host this was written on has two states: once
/// both of its processors have been busy for about two seconds, a
/// wake-up of one thread by another costs several times what it costs
/// after a few idle seconds (`par` ops: 0.85 s against 0.19 s), while
/// threads that do not wait for each other run twice as fast. Busy
/// processes keep the state they find, so without this a run inherits
/// it from whatever ran before; this puts every run in the first
/// state, the one a long series of runs is in anyway.
fn warm_host(scale: &Scale) {
    let threads = host_threads();
    if threads < 2 {
        return;
    }
    let until = Instant::now() + Duration::from_millis(scale.host_warmup_ms);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

/// Runs the cells for `--seconds`, one op per child, always picking
/// the cell furthest behind its share. Interleaved, because this kind
/// of host slows down for a second or two at a time: a burst then
/// costs every cell a few ops, which their medians shrug off, where
/// back-to-back cells would hand one cell the whole burst. Every cell
/// gets at least one op.
fn run_cells(args: &RunArgs, plans: &[CellPlan], expected_lines: &str) -> Cells {
    let mut cells: Vec<(Report, f64)> = plans.iter().map(|_| (Report::default(), 0.0)).collect();
    let start = Instant::now();
    loop {
        // Past the end, only a cell that has no op yet still runs.
        let over = start.elapsed().as_secs_f64() >= args.seconds;
        let behind = |i: &usize| cells[*i].1 / plans[*i].share;
        let Some(next) = (0..plans.len())
            .filter(|&i| !over || cells[i].0.attempted == 0)
            .min_by(|a, b| behind(a).total_cmp(&behind(b)))
        else {
            break;
        };
        let t0 = Instant::now();
        let report = spawn_cell(args, plans[next].name, expected_lines);
        cells[next].1 += t0.elapsed().as_secs_f64();
        cells[next].0.merge(report);
    }
    plans.iter().zip(cells).map(|(plan, cell)| (plan.name.to_string(), cell.0)).collect()
}

/// Runs one workload.
#[must_use]
pub fn run(args: &RunArgs) -> RunResult {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "m3gc ledger: workload {} seed {} seconds {} trace {} host threads {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_threads()
    );
    let _ = writeln!(text, "sizes: {:?}", args.scale);

    // Set-up: inputs and reference outcomes, several times over.
    let mut setup_times = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        expected = (args.workload.setup)(&args.scale, args.seed);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let setup = Sample::new(setup_times);

    let expected_lines: String = expected.iter().map(|e| escape(e) + "\n").collect();
    let plans = (args.workload.cells)(args.trace);
    warm_host(&args.scale);
    let cells = run_cells(args, &plans, &expected_lines);
    for plan in &plans {
        describe(&mut text, plan.name, &cells[plan.name]);
    }

    let mut metrics = Metrics::default();
    let mut failures = (args.workload.metrics)(&cells, &mut metrics);
    failures.extend(cells.values().flat_map(|r| r.failures.iter().cloned()));
    let attempted = cells.values().map(|r| r.attempted).sum::<u64>().max(1);
    let failed = (failures.len() as u64).min(attempted);
    metrics.set("setup_s", setup.median());
    metrics.set("harness.ops_attempted", attempted as f64);
    metrics.set("harness.ops_failed", failed as f64);
    let peak = metrics.0.get("peak_rss_mb").copied().unwrap_or(0.0);
    metrics.set("harness.peak_rss_mb", peak);

    let wanted = metric_units(args.trace);
    let width = wanted.iter().map(|m| m.0.len()).max().unwrap_or(0);
    let _ = writeln!(text, "setup_s: median of {} set-ups", setup.len());
    let listed: Vec<(String, f64, String)> = wanted
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.0.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(text, "  {name:<width$}  {value:>16.4} {unit}");
            (name.to_string(), value, unit.to_string())
        })
        .collect();
    // An end-to-end metric that reads 0 means its cell never finished.
    let hollow = !args.trace && listed.iter().any(|m| m.1 <= 0.0);
    if hollow {
        failures.push(format!("{}: an end-to-end metric is 0", args.workload.name));
    }
    for f in &failures {
        let _ = writeln!(text, "FAILED {f}");
    }
    if args.trace {
        let groups: Vec<_> =
            cells.iter().map(|(name, r)| (name.clone(), r.spans.clone())).collect();
        let path = out_dir().join(format!("trace-{}-seed{}.json", args.workload.name, args.seed));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, chrome_trace(&groups)));
        let _ = match written {
            Ok(()) => writeln!(text, "spans written to {}", path.display()),
            Err(e) => writeln!(text, "spans not written to {}: {e}", path.display()),
        };
    }
    RunResult {
        correct: failures.is_empty(),
        attempted,
        failed: if hollow { failed.max(1) } else { failed },
        metrics: listed,
        failures,
        text,
    }
}

/// One line per series that varies: median, quartiles and the tail
/// percentile that has ten samples beyond it, with the sample count.
/// Counters that read the same on every op share one line.
fn describe(text: &mut String, cell: &str, report: &Report) {
    let _ = writeln!(
        text,
        "cell {cell}: {} op(s), {} failed, {} span(s)",
        report.attempted,
        report.failures.len(),
        report.spans.len()
    );
    let mut constant = Vec::new();
    for name in report.series.keys() {
        let s = report.sampled(name);
        if s.percentile(0.0) == s.percentile(100.0) {
            constant.push(format!("{name}={}", s.median()));
            continue;
        }
        let (q1, q3) = s.quartiles();
        let tail = s.tail().map_or(String::new(), |(p, v)| format!(" p{p} {v:.6}"));
        let _ = writeln!(
            text,
            "  {name:<28} median {:<12.6} q1 {q1:<12.6} q3 {q3:<12.6}{tail} n={}",
            s.median(),
            s.len()
        );
    }
    if !constant.is_empty() {
        let _ = writeln!(text, "  on every op: {}", constant.join(" "));
    }
}

/// The child side: reads the reference outcomes from stdin, runs the
/// cell, prints its report.
pub fn cell_main(workload: &Workload, cell: &str, mut ctx: CellCtx) {
    let mut input = String::new();
    std::io::stdin().read_to_string(&mut input).expect("stdin holds the reference outcomes");
    ctx.expected = input.lines().map(unescape).collect();
    let mut report = (workload.run_cell)(cell, &ctx);
    report.sample("peak_rss_kb", crate::cell::peak_rss_kb());
    print!("{}", report.to_lines());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.args(["-c", script]);
        c
    }

    #[test]
    fn a_child_that_hangs_is_killed_at_its_deadline() {
        let t0 = Instant::now();
        // `exec`: the shell must not leave a grandchild holding the pipe
        // (cells are single processes).
        let err = run_child(sh("exec sleep 30"), "", Duration::from_millis(200)).unwrap_err();
        assert!(err.contains("deadline (killed)"), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(10), "the watchdog did not kill the child");
    }

    #[test]
    fn a_child_that_dies_is_reported_not_propagated() {
        let err = run_child(sh("echo partial; exit 3"), "", Duration::from_secs(10)).unwrap_err();
        assert!(err.contains("died"), "{err}");
        assert!(run_child(Command::new("/no/such/binary"), "", Duration::from_secs(1)).is_err());
    }

    #[test]
    fn a_child_gets_its_input_and_returns_its_output() {
        let out = run_child(sh("cat"), "ok 42\\n\n", Duration::from_secs(10)).unwrap();
        assert_eq!(out, "ok 42\\n\n");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics: vec![("setup_s".into(), 0.25, "s".into())],
            failures: Vec::new(),
            text: String::new(),
        };
        let v = json::parse(&result.to_json_line()).unwrap();
        assert_eq!(v.keys(), ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(json::Value::as_f64), Some(0.25));
    }
}
