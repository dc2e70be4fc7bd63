//! The differential executor.
//!
//! Each fuzz case runs once through the reference (the unoptimized IR
//! under the never-collecting interpreter) and then through the full VM
//! matrix: {o0, o2} × all six table encodings × {semispace,
//! generational}, every VM run under gc torture (`force_every_allocs=1`)
//! with shadow mode and the precision oracle armed. All conclusive runs
//! must agree on output and trap kind; a stale-pointer trap, an oracle
//! violation or a scheduler failure is a bug regardless of what the
//! reference did.
//!
//! Resource exhaustion (interpreter fuel, VM fuel, VM heap) is
//! *inconclusive*, not a failure: the reference heap never fills while
//! the VM's does, so those runs are simply skipped.

use m3gc_compiler::{compile, run_module_par_opts, run_module_serve, Options};
use m3gc_core::encode::Scheme;
use m3gc_runtime::scheduler::ExecError;
use m3gc_runtime::{GcStrategy, RuntimeOptions, ServeLoad};
use m3gc_vm::machine::VmTrap;

/// Trap kinds shared by the reference interpreter and the VM, for
/// cross-implementation comparison (the Display strings differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapKind {
    /// NIL dereference.
    Nil,
    /// Subscript out of range.
    Range,
    /// Assertion failure.
    Assert,
    /// Call-depth / stack-region exhaustion.
    StackOverflow,
    /// Address outside every region (always a compiler bug).
    Wild,
}

/// Outcome of one run, normalized for comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Ran to completion with this output.
    Ok(String),
    /// Deterministic language-level trap.
    Trap(TrapKind),
    /// Resource exhaustion — not comparable, skip.
    Inconclusive(String),
    /// Unconditional failure: missed-pointer trap, oracle violation,
    /// stuck thread, decode error, or a frontend rejection of a
    /// generated program.
    Hard(String),
}

/// Heap words per semispace for fuzz runs — small enough that torture
/// collections exercise real evacuation, large enough that the generated
/// programs' live sets fit.
pub const FUZZ_SEMI_WORDS: usize = 1 << 12;

/// Runs the reference semantics: unoptimized IR, never collects.
#[must_use]
pub fn run_reference(source: &str) -> RunStatus {
    let prog = match m3gc_frontend::compile_to_ir(source) {
        Ok(p) => p,
        Err(d) => return RunStatus::Hard(format!("frontend rejected generated program: {d}")),
    };
    match m3gc_ir::interp::run_program(&prog) {
        Ok(out) => RunStatus::Ok(out.output),
        Err(t) => match t {
            m3gc_ir::interp::Trap::NilError => RunStatus::Trap(TrapKind::Nil),
            m3gc_ir::interp::Trap::RangeError => RunStatus::Trap(TrapKind::Range),
            m3gc_ir::interp::Trap::AssertError => RunStatus::Trap(TrapKind::Assert),
            m3gc_ir::interp::Trap::StackOverflow => RunStatus::Trap(TrapKind::StackOverflow),
            m3gc_ir::interp::Trap::WildAddress => RunStatus::Trap(TrapKind::Wild),
            m3gc_ir::interp::Trap::OutOfFuel => {
                RunStatus::Inconclusive("reference fuel".to_string())
            }
        },
    }
}

/// Runs one configuration of [`config_matrix`]; `ropts.strategy` picks
/// the executor (the sequential scheduler for semispace and
/// generational heaps, the parallel runtime for `par` and `cms`).
#[must_use]
pub fn run_config(source: &str, options: &Options, ropts: RuntimeOptions) -> RunStatus {
    let module = match compile(source, options) {
        Ok(m) => m,
        Err(d) => return RunStatus::Hard(format!("compiler rejected generated program: {d}")),
    };
    let result = match ropts.strategy {
        GcStrategy::Semispace | GcStrategy::Generational => {
            let machine = ropts.build_machine(module);
            match m3gc_runtime::Executor::try_new(machine, ropts) {
                Ok(mut ex) => ex.run_main().map(|out| out.output),
                Err(e) => return RunStatus::Hard(format!("gc-map decode failed: {e}")),
            }
        }
        GcStrategy::Parallel | GcStrategy::Cms => {
            run_module_par_opts(module, ropts).map(|out| out.output)
        }
    };
    result.map_or_else(status_of_error, RunStatus::Ok)
}

/// Maps an execution error to a [`RunStatus`], shared by the
/// single-threaded and parallel runners.
fn status_of_error(e: ExecError) -> RunStatus {
    match e {
        ExecError::Trap(t) => match t {
            VmTrap::NilError => RunStatus::Trap(TrapKind::Nil),
            VmTrap::RangeError => RunStatus::Trap(TrapKind::Range),
            VmTrap::AssertError => RunStatus::Trap(TrapKind::Assert),
            VmTrap::StackOverflow => RunStatus::Trap(TrapKind::StackOverflow),
            VmTrap::WildAddress => RunStatus::Trap(TrapKind::Wild),
            VmTrap::OutOfMemory => RunStatus::Inconclusive("vm heap".to_string()),
            VmTrap::StalePointer => RunStatus::Hard(format!("missed pointer: {t}")),
            VmTrap::BadProc => RunStatus::Hard(format!("vm trap: {t}")),
        },
        ExecError::OutOfFuel => RunStatus::Inconclusive("vm fuel".to_string()),
        e @ (ExecError::StuckThread { .. }
        | ExecError::Oracle(_)
        | ExecError::GcWorkerPanic { .. }
        | ExecError::MutatorPanic { .. }) => RunStatus::Hard(e.to_string()),
    }
}

/// Runs one configuration under the *allocation-service* executor: 2 OS
/// scheduler threads multiplexing 8 green-thread requests, each request
/// allocating into a tiny per-request region, under torture with the
/// precision oracle armed. Interleaved requests share module globals, so
/// outputs are nondeterministic — callers compare nothing and treat only
/// hard failures (stale pointers, oracle violations, stuck threads) as
/// bugs. This is the differential check that region reclamation and the
/// generalized evacuation set never drop an escaping object.
#[must_use]
pub fn run_serve_vm(source: &str, options: &Options) -> RunStatus {
    let module = match compile(source, options) {
        Ok(m) => m,
        Err(d) => return RunStatus::Hard(format!("compiler rejected generated program: {d}")),
    };
    let ropts = RuntimeOptions::new()
        .semi_words(FUZZ_SEMI_WORDS)
        .stack_words(1 << 15)
        .serve(64, 8)
        .threads(2)
        .gc_workers(2)
        .torture(true)
        .oracle(true);
    let load = ServeLoad { requests: 16, burst: 4, entry: None };
    match run_module_serve(module, ropts, load) {
        Ok(out) => RunStatus::Ok(out.outputs.concat()),
        Err(e) => status_of_error(e),
    }
}

/// Runs per program: [`config_matrix`] plus the serve run.
#[must_use]
pub fn configs_per_program() -> usize {
    config_matrix().len() + 1
}

/// Every compared configuration, each under torture with shadow mode and
/// the precision oracle armed, as `(label, compiler options, runtime
/// options)`:
///
/// * sequential: {o0, o2} × all six encodings × {semispace,
///   generational}, plus JIT twins at the default encoding — every
///   program also runs natively on both heap shapes, and the twin pair
///   must agree on output and trap kind exactly. (The encoding schemes
///   only vary table bytes, which the JIT never reads, so twinning the
///   whole scheme sweep would re-test identical native code.)
/// * parallel: a single mutator (generated programs mutate module
///   globals, which parallel mutators share, so only one keeps output
///   deterministic) with 2 and 4 gc workers — the handshake, snapshot
///   stack walk and work-stealing copy — plus a tiny-TLAB configuration
///   (refill and retire on nearly every allocation) and a JIT twin.
/// * concurrent marking: {o0, o2} with 2 evacuation workers and 2
///   markers. Torture forces a snapshot/final pause pair around nearly
///   every allocation, so the SATB barrier, the black-allocation window
///   and the final-pause drain run on every program and every cycle is
///   checked against full STW reachability by the shadow verifier; and
///   JIT twins (the full-helper store barrier in native code).
#[must_use]
pub fn config_matrix() -> Vec<(String, Options, RuntimeOptions)> {
    let base = RuntimeOptions::new().semi_words(FUZZ_SEMI_WORDS).torture(true).oracle(true);
    let seq = base.stack_words(1 << 14).max_threads(4);
    let heaps = [("semi", seq), ("gen", seq.strategy(GcStrategy::Generational))];
    let mut out = Vec::new();
    for (olabel, opts) in [("o0", Options::o0()), ("o2", Options::o2())] {
        for scheme in Scheme::TABLE2 {
            for (hlabel, ropts) in heaps {
                out.push((format!("{olabel}/{scheme}/{hlabel}"), opts.with_scheme(scheme), ropts));
            }
        }
        for (hlabel, ropts) in heaps {
            out.push((format!("{olabel}/{hlabel}/jit"), opts, ropts.jit(true)));
        }
    }
    let (o0, o2) = (Options::o0(), Options::o2());
    let par = base.strategy(GcStrategy::Parallel).stack_words(1 << 15).threads(1);
    let cms = par.strategy(GcStrategy::Cms).gc_workers(2).conc_workers(2);
    for (label, opts, ropts) in [
        ("o2/par-w2", o2, par.gc_workers(2)),
        ("o0/par-w4", o0, par.gc_workers(4)),
        ("o2/par-w2/tlab8", o2, par.gc_workers(2).tlab_words(8)),
        ("o2/par-w2/jit", o2, par.gc_workers(2).jit(true)),
        ("o2/cms-w2m2", o2, cms),
        ("o0/cms-w2m2", o0, cms),
        ("o2/cms-w2m2/jit", o2, cms.jit(true)),
        ("o0/cms-w2m2/jit", o0, cms.jit(true)),
    ] {
        out.push((label.to_string(), opts, ropts));
    }
    out
}

/// Checks one program across the whole matrix. Returns `true` if the
/// case was conclusive, `false` if the reference run was inconclusive
/// and nothing could be compared.
///
/// # Errors
///
/// Returns a description of the first discrepancy or hard failure.
pub fn check_program(source: &str) -> Result<bool, String> {
    let reference = run_reference(source);
    match &reference {
        RunStatus::Hard(msg) => return Err(format!("[reference] {msg}")),
        RunStatus::Inconclusive(_) => return Ok(false), // nothing to compare against
        _ => {}
    }
    for (label, opts, ropts) in config_matrix() {
        match run_config(source, &opts, ropts) {
            RunStatus::Hard(msg) => return Err(format!("[{label}] {msg}")),
            RunStatus::Inconclusive(_) => continue,
            got => {
                if got != reference {
                    return Err(format!(
                        "[{label}] diverged from reference: got {got:?}, expected {reference:?}"
                    ));
                }
            }
        }
    }
    // Serve mode: interleaved requests race on module globals, so output
    // and trap kind are nondeterministic — only hard failures count.
    if let RunStatus::Hard(msg) = run_serve_vm(source, &Options::o2()) {
        return Err(format!("[o2/serve-t2g8] {msg}"));
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reproduction lines in ROADMAP/CHANGES quote these labels.
    #[test]
    fn matrix_labels_are_stable() {
        let mut expected = Vec::new();
        for o in ["o0", "o2"] {
            for scheme in [
                "full-info",
                "full-info+packing",
                "delta-main",
                "delta-main+previous",
                "delta-main+packing",
                "delta-main+previous+packing",
            ] {
                expected.extend([format!("{o}/{scheme}/semi"), format!("{o}/{scheme}/gen")]);
            }
            expected.extend([format!("{o}/semi/jit"), format!("{o}/gen/jit")]);
        }
        expected.extend(
            [
                "o2/par-w2",
                "o0/par-w4",
                "o2/par-w2/tlab8",
                "o2/par-w2/jit",
                "o2/cms-w2m2",
                "o0/cms-w2m2",
                "o2/cms-w2m2/jit",
                "o0/cms-w2m2/jit",
            ]
            .map(String::from),
        );
        let labels: Vec<String> = config_matrix().into_iter().map(|c| c.0).collect();
        assert_eq!(labels, expected);
        assert_eq!(configs_per_program(), 37);
    }
}
