//! `--quick` smoke of all four workloads through the `ledger` binary:
//! the result line meets the manifest, every output is checked, and a
//! wrong output is a failed op, not a crash.

use m3gc_ledger::json::{self, Value};
use m3gc_ledger::manifest::check_result;
use m3gc_ledger::report::Report;
use m3gc_ledger::workloads::WORKLOADS;
use std::io::Write;
use std::process::{Command, Stdio};

fn ledger(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger")).args(args).output().expect("ledger runs");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

fn result_of(stdout: &str) -> Value {
    json::parse(stdout.lines().last().expect("a result line")).expect("the last line is json")
}

#[test]
fn quick_untraced_run_of_every_workload() {
    for workload in WORKLOADS.iter().map(|w| w.name) {
        let (ok, stdout) =
            ledger(&["--workload", workload, "--quick", "--seed", "3", "--trace", "0"]);
        assert!(ok, "{workload} exited with a failure:\n{stdout}");
        let line = stdout.lines().last().unwrap();
        assert_eq!(check_result(line, false), Vec::<String>::new(), "{workload}:\n{stdout}");
        let result = result_of(&stdout);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{workload}:\n{stdout}");
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        for (name, _) in m3gc_ledger::manifest::metric_units(false) {
            let v = result.get("metrics").unwrap().get(name).unwrap().get("value").unwrap();
            assert!(v.as_f64().unwrap() > 0.0, "{workload}: end-to-end metric {name} is 0");
        }
    }
}

#[test]
fn quick_traced_run_of_every_workload() {
    for workload in WORKLOADS.iter().map(|w| w.name) {
        let (ok, stdout) =
            ledger(&["--workload", workload, "--quick", "--seed", "4", "--trace", "1"]);
        assert!(ok, "{workload} exited with a failure:\n{stdout}");
        let line = stdout.lines().last().unwrap();
        assert_eq!(check_result(line, true), Vec::<String>::new(), "{workload}:\n{stdout}");
        assert_eq!(result_of(&stdout).get("correct"), Some(&Value::Bool(true)), "{stdout}");

        let path = m3gc_ledger::harness::out_dir().join(format!("trace-{workload}-seed4.json"));
        let trace = json::parse(&std::fs::read_to_string(&path).expect("a trace file")).unwrap();
        let names: Vec<&str> = trace
            .get("traceEvents")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        assert!(names.contains(&"op"), "{workload}: no op span in {}", path.display());
        if workload == "compile-corpus" {
            // Layer dominance: the runtime layers do no measured work here.
            let stray: Vec<_> = names
                .iter()
                .filter(|n| ["vm.", "jit.", "runtime."].iter().any(|l| n.starts_with(l)))
                .collect();
            assert!(stray.is_empty(), "compile-corpus recorded {stray:?}");
            assert!(names.contains(&"opt.o2") && names.contains(&"core.decode_all"));
        } else {
            assert!(names.contains(&"runtime.run") && names.contains(&"vm.load"));
        }
    }
}

#[test]
fn a_wrong_output_is_a_failed_op() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["cell", "--workload", "gc-destroy", "--cell", "semi", "--quick"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(b"ok not what destroy prints\\n\n").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "a wrong output must not take the cell down");
    let report = Report::from_lines(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(report.attempted, 1);
    assert_eq!(report.failures.len(), 1);
    let failure = &report.failures[0];
    assert!(failure.contains("gc-destroy semi seed 1: wrong output"), "{failure}");
    assert!(failure.contains("reference says"), "{failure}");
}

#[test]
fn usage_errors_exit_with_2() {
    for args in [&["--workload", "no-such"][..], &["--seconds", "5"], &["--workload"]] {
        let status = Command::new(env!("CARGO_BIN_EXE_ledger"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}
