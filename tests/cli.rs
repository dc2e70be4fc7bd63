//! The `m3c` binary's exit codes: 0 with the program's output, 2 for a
//! usage error (contradictory options included, whether `m3c` or
//! [`RuntimeOptions::check`](m3gc::runtime::RuntimeOptions::check) finds
//! them), 1 with an `m3c: …` message for a compile or runtime error. No
//! input may end in a panic (101) or an abort (134).

use std::path::Path;
use std::process::Command;

/// Runs `m3c <cmd> takl.m3 <args>` and returns (exit code, stdout,
/// stderr).
fn m3c(cmd: &str, args: &[&str]) -> (i32, String, String) {
    let takl = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/programs/takl.m3");
    let out = Command::new(env!("CARGO_BIN_EXE_m3c"))
        .arg(cmd)
        .arg(takl)
        .args(args)
        .output()
        .expect("m3c starts");
    let code = out.status.code().unwrap_or_else(|| panic!("{cmd} {args:?}: killed by a signal"));
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    (code, text(out.stdout), text(out.stderr))
}

#[test]
fn a_legal_run_prints_its_output() {
    let (code, out, err) = m3c("run", &["--heap", "20000"]);
    assert_eq!((code, out.as_str()), (0, "7\n"), "{err}");
}

#[test]
fn contradictory_options_are_usage_errors() {
    let cases: [(&str, &[&str], &str); 9] = [
        // Regions and green slots under a sequential collector.
        ("run", &["--region-words", "64", "--threads", "2"], "--region-words"),
        ("run", &["--gc", "gen", "--region-words", "64"], "--gc gen"),
        ("run", &["--green", "3"], "--green"),
        // A nursery the generational machine cannot lay out.
        ("run", &["--gc", "gen", "--nursery", "0"], "--nursery 0"),
        // Serve runs the parallel runtime.
        ("serve", &["--gc", "gen"], "--gc gen"),
        ("serve", &["--gc", "cms"], "--gc cms"),
        ("serve", &["--nursery", "8"], "--nursery"),
        // Heaps no address space holds.
        ("run", &["--heap", "4611686018427387904"], "--heap"),
        ("run", &["--heap", "100000000000000"], "--heap"),
    ];
    for (cmd, args, names) in cases {
        let (code, out, err) = m3c(cmd, args);
        assert_eq!(code, 2, "{cmd} {args:?}: {err}");
        assert!(out.is_empty(), "{cmd} {args:?}: {out}");
        let first = err.lines().next().unwrap_or_default();
        assert!(first.starts_with("m3c: ") && first.contains(names), "{cmd} {args:?}: {err}");
    }
}

#[test]
fn an_unservable_handler_is_a_runtime_error() {
    for (entry, says) in
        [("Nope", "no procedure is named `Nope`"), ("Mas", "handler `Mas` takes 3 arguments")]
    {
        let (code, out, err) = m3c("serve", &["--entry", entry, "--requests", "1"]);
        assert_eq!(code, 1, "--entry {entry}: {err}");
        assert!(out.is_empty(), "--entry {entry}: {out}");
        assert!(err.starts_with("m3c: cannot serve: ") && err.contains(says), "{err}");
    }
}
