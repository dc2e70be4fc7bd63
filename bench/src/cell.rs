//! What every cell shares: its context, the time-boxed op loop, the
//! independent reference and the comparison of a run's outcome with it.

use crate::constants::{Scale, FUEL};
use crate::report::Report;
use m3gc_runtime::scheduler::ExecError;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a cell's child process is told: sizes, seed and the reference
/// outcomes computed in set-up. It runs one op (a traced run adds the
/// same op again with spans, so the two can be compared) and exits.
#[derive(Debug, Clone)]
pub struct CellCtx {
    /// Input sizes.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    /// Record spans and run the per-layer side measurements.
    pub trace: bool,
    /// Reference outcomes, in the order the workload's set-up made them.
    pub expected: Vec<String>,
}

/// Runs `ops` ops, turning a panic into a failed op with `what` as its
/// reproduction line.
pub fn guarded(
    report: &mut Report,
    what: &str,
    ops: u64,
    op: impl FnOnce(&mut Report) -> Result<(), String>,
) {
    report.attempted += ops;
    match catch_unwind(AssertUnwindSafe(|| op(report))) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => report.fail(format!("{what}: {e}")),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            report.fail(format!("{what}: panicked: {msg}"));
        }
    }
}

/// The independent reference: the *unoptimised* IR under the
/// interpreter that never collects. Returns the outcome in the form
/// [`outcome_of`] gives VM runs: `ok <output>`, `trap <kind>`, or
/// `skip <why>` when the reference itself ran out of fuel.
#[must_use]
pub fn reference(source: &str, fuel: u64) -> String {
    let program = match m3gc_frontend::compile_to_ir(source) {
        Ok(p) => p,
        Err(d) => return format!("skip frontend rejected the program: {d}"),
    };
    let mut interp = m3gc_ir::interp::Interp::new(&program);
    interp.set_fuel(fuel);
    match interp.run() {
        Ok(out) => format!("ok {}", out.output),
        Err(m3gc_ir::interp::Trap::OutOfFuel) => "skip reference out of fuel".to_string(),
        Err(t) => format!("trap {t:?}"),
    }
}

/// Normalises a VM run for comparison with [`reference`]. The trap
/// kinds of the two machines carry the same variant names.
#[must_use]
pub fn outcome_of(result: Result<&str, &ExecError>) -> String {
    match result {
        Ok(output) => format!("ok {output}"),
        Err(ExecError::Trap(m3gc_vm::machine::VmTrap::OutOfMemory)) => {
            "skip vm heap exhausted".to_string()
        }
        Err(ExecError::OutOfFuel) => "skip vm out of fuel".to_string(),
        Err(ExecError::Trap(t)) => format!("trap {t:?}"),
        Err(e) => format!("error {e}"),
    }
}

/// Compares an outcome with the reference.
///
/// # Errors
///
/// Describes the difference (clipped, so a wrong 200k-line output stays
/// readable).
pub fn check_outcome(got: &str, expected: &str) -> Result<(), String> {
    if got == expected {
        return Ok(());
    }
    let clip = |s: &str| -> String {
        let short: String = s.chars().take(120).collect();
        if short.len() < s.len() {
            format!("{short:?}… ({} bytes)", s.len())
        } else {
            format!("{short:?}")
        }
    };
    Err(format!("wrong output: got {}, reference says {}", clip(got), clip(expected)))
}

/// Sequential runtime options shared by the interpreter cells.
#[must_use]
pub fn seq_options(semi_words: usize) -> m3gc_runtime::RuntimeOptions {
    m3gc_runtime::RuntimeOptions::new()
        .semi_words(semi_words)
        .stack_words(crate::constants::STACK_WORDS)
        .max_threads(2)
        .fuel(FUEL)
}

/// Peak resident set of this process, KiB (`VmHWM`); `0` where
/// `/proc` is absent.
#[must_use]
pub fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// Microseconds as a float.
#[must_use]
pub fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_turns_panics_and_errors_into_failed_ops() {
        let mut r = Report::default();
        guarded(&mut r, "cell x op 1", 1, |_| panic!("index 3 of 2"));
        guarded(&mut r, "cell x op 2", 1, |_| Err("wrong output".to_string()));
        guarded(&mut r, "cell x op 3", 1, |r| {
            r.sample("op_s", 1.0);
            Ok(())
        });
        assert_eq!(r.attempted, 3);
        assert_eq!(r.failures.len(), 2);
        assert!(r.failures[0].contains("cell x op 1: panicked: index 3 of 2"), "{:?}", r.failures);
        assert_eq!(r.series["op_s"], [1.0]);
    }

    #[test]
    fn reference_and_vm_outcomes_share_a_form() {
        let src = "MODULE T; BEGIN PutInt(6 * 7); PutLn(); END T.";
        assert_eq!(reference(src, 1000), "ok 42\n");
        assert_eq!(outcome_of(Ok("42\n")), "ok 42\n");
        let nil = "MODULE T; TYPE R = REF RECORD x: INTEGER END; VAR r: R; \
                   BEGIN r := NIL; PutInt(r.x); END T.";
        assert_eq!(reference(nil, 1000), "trap NilError");
        let trap = ExecError::Trap(m3gc_vm::machine::VmTrap::NilError);
        assert_eq!(outcome_of(Err(&trap)), "trap NilError");
        let spin = "MODULE T; VAR i: INTEGER; BEGIN i := 0; WHILE i >= 0 DO i := 0; END; END T.";
        assert!(reference(spin, 1000).starts_with("skip"));
        assert!(check_outcome("ok 1", "ok 2").unwrap_err().contains("reference says"));
    }
}
