//! The differential executor.
//!
//! Each fuzz case is compiled once at o0 and once at o2. Both modules'
//! tables are first proven lossless under all six table encodings — a
//! static check that needs no run (`m3gc_core::decode::check_lossless`).
//! The case then runs once through the reference (the unoptimized IR
//! under the never-collecting interpreter) and through the VM matrix,
//! every row on a copy of one of the two modules: {o0, o2} ×
//! {semispace, generational} on one encoding rotated by the case seed,
//! JIT twins, the parallel and concurrent-marking collectors, and the
//! serve run — 17 runs, every VM run under gc torture
//! (`force_every_allocs=1`) with shadow mode and the precision oracle
//! armed. All conclusive runs must agree on output and trap kind; a
//! stale-pointer trap, an oracle violation or a scheduler failure is a
//! bug regardless of what the reference did.
//!
//! Resource exhaustion (interpreter fuel, VM fuel, VM heap) is
//! *inconclusive*, not a failure: the reference heap never fills while
//! the VM's does, so those runs are simply skipped.

use m3gc_compiler::{compile, run_module_par_opts, run_module_serve, Options};
use m3gc_core::decode::check_lossless;
use m3gc_core::encode::{encode_module, Scheme};
use m3gc_runtime::scheduler::ExecError;
use m3gc_runtime::{GcStrategy, RuntimeOptions, ServeLoad};
use m3gc_vm::machine::VmTrap;
use m3gc_vm::module::VmModule;

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
            m3gc_ir::interp::Trap::OutOfMemory => {
                RunStatus::Inconclusive("reference heap".to_string())
            }
            m3gc_ir::interp::Trap::OutOfFuel => {
                RunStatus::Inconclusive("reference fuel".to_string())
            }
        },
    }
}

/// Runs one configuration of [`config_matrix`] on `module`;
/// `ropts.strategy` picks the executor (the sequential scheduler for
/// semispace and generational heaps, the parallel runtime for `par` and
/// `cms`).
#[must_use]
pub fn run_config(module: VmModule, ropts: RuntimeOptions) -> RunStatus {
    if let Err(e) = ropts.check() {
        return status_of_error(e.into());
    }
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
        e @ (ExecError::Options(_)
        | ExecError::Serve(_)
        | ExecError::StuckThread { .. }
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
pub fn run_serve_vm(module: VmModule) -> RunStatus {
    let ropts = RuntimeOptions::new()
        .strategy(GcStrategy::Parallel)
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
    config_matrix(0).len() + 1
}

/// The two optimization levels every case is compiled at, once each;
/// [`config_matrix`] rows index this array.
#[must_use]
pub fn opt_levels() -> [(&'static str, Options); 2] {
    [("o0", Options::o0()), ("o2", Options::o2())]
}

/// Every compared configuration for the case with seed `case_seed`, each
/// under torture with shadow mode and the precision oracle armed, as
/// `(label, index into [`opt_levels`], table encoding, runtime options)`:
///
/// * sequential: {o0, o2} × {semispace, generational}, each on one table
///   encoding picked from the case seed alone, so any six consecutive
///   case seeds run every (opt, heap) pair under all six encodings and
///   every decoder serves live collections across a campaign (that every
///   encoding is lossless is proven statically for every case, see
///   [`check_program`]). Plus JIT twins at the default encoding — every
///   program also runs natively on both heap shapes, and the twin pair
///   must agree on output and trap kind exactly. (The encoding schemes
///   only vary table bytes, which the JIT never reads, so rotating them
///   under the twins would re-test identical native code.)
/// * parallel: a single mutator (generated programs mutate module
///   globals, which parallel mutators share, so only one keeps output
///   deterministic) with 2 and 4 gc workers — the handshake, snapshot
///   stack walk and work-stealing copy — plus a tiny-TLAB configuration
///   (refill and retire on nearly every allocation) and a JIT twin.
/// * concurrent marking: {o0, o2} with 2 evacuation workers (the
///   coordinator is the one marker). Torture forces a snapshot/final
///   pause pair around nearly every allocation, so the SATB barrier, the
///   black-allocation window and the final-pause drain run on every
///   program and every cycle is checked against full STW reachability by
///   the shadow verifier; and JIT twins (the full-helper store barrier in
///   native code).
#[must_use]
pub fn config_matrix(case_seed: u64) -> Vec<(String, usize, Scheme, RuntimeOptions)> {
    let base = RuntimeOptions::new().semi_words(FUZZ_SEMI_WORDS).torture(true).oracle(true);
    let seq = base.stack_words(1 << 14);
    let heaps = [("semi", seq), ("gen", seq.strategy(GcStrategy::Generational))];
    let default = Scheme::DELTA_MAIN_PP;
    let mut out = Vec::new();
    for (opt, (olabel, _)) in opt_levels().into_iter().enumerate() {
        for (heap, (hlabel, ropts)) in heaps.into_iter().enumerate() {
            let n = Scheme::TABLE2.len();
            let scheme = Scheme::TABLE2[((case_seed % n as u64) as usize + 2 * opt + heap) % n];
            out.push((format!("{olabel}/{scheme}/{hlabel}"), opt, scheme, ropts));
        }
        for (hlabel, ropts) in heaps {
            out.push((format!("{olabel}/{hlabel}/jit"), opt, default, ropts.jit(true)));
        }
    }
    let par = base.strategy(GcStrategy::Parallel).stack_words(1 << 15).threads(1);
    let cms = par.strategy(GcStrategy::Cms).gc_workers(2);
    for (label, opt, ropts) in [
        ("o2/par-w2", 1, par.gc_workers(2)),
        ("o0/par-w4", 0, par.gc_workers(4)),
        ("o2/par-w2/tlab8", 1, par.gc_workers(2).tlab_words(8)),
        ("o2/par-w2/jit", 1, par.gc_workers(2).jit(true)),
        ("o2/cms-w2", 1, cms),
        ("o0/cms-w2", 0, cms),
        ("o2/cms-w2/jit", 1, cms.jit(true)),
        ("o0/cms-w2/jit", 0, cms.jit(true)),
    ] {
        out.push((label.to_string(), opt, default, ropts));
    }
    out
}

/// Checks the program generated from `case_seed` (whose rendered source
/// is `source`). It compiles once per [`opt_levels`] entry and proves
/// both modules' tables lossless under all six encodings
/// ([`check_lossless`], which needs no reference run), then runs the
/// reference and every [`config_matrix`] row on a copy of the matching
/// module, its tables re-encoded in the row's scheme. Returns `true` if
/// the case was conclusive, `false` if the reference run was
/// inconclusive and no run could be compared.
///
/// # Errors
///
/// Returns the first discrepancy or hard failure, prefixed with the
/// `[label]` of the configuration that found it.
pub fn check_program(source: &str, case_seed: u64) -> Result<bool, String> {
    let mut modules = Vec::with_capacity(2);
    for (olabel, opts) in opt_levels() {
        let module = compile(source, &opts)
            .map_err(|d| format!("[{olabel}] compiler rejected generated program: {d}"))?;
        for scheme in Scheme::TABLE2 {
            let encoded = encode_module(&module.logical_maps, scheme);
            check_lossless(&module.logical_maps, &encoded, case_seed)
                .map_err(|e| format!("[{olabel}/tables] {e}"))?;
        }
        modules.push(module);
    }
    let reference = run_reference(source);
    match &reference {
        RunStatus::Hard(msg) => return Err(format!("[reference] {msg}")),
        RunStatus::Inconclusive(_) => return Ok(false), // nothing to compare against
        _ => {}
    }
    for (label, opt, scheme, ropts) in config_matrix(case_seed) {
        let mut module = modules[opt].clone();
        module.gc_maps = encode_module(&module.logical_maps, scheme);
        match run_config(module, ropts) {
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
    let o2 = modules.swap_remove(1);
    if let RunStatus::Hard(msg) = run_serve_vm(o2) {
        return Err(format!("[o2/serve-t2g8] {msg}"));
    }
    Ok(true)
}

/// Whether a shrink candidate's result is the failure `detail` reports:
/// the candidate must fail, and first in the same `[label]`. The caller
/// checks the candidate under the same case seed, so its rotated
/// encodings match too; together they keep a deterministic failure from
/// being minimized into a different one, such as a nondeterministic
/// `o2/serve-t2g8` stop.
#[must_use]
pub fn same_failure(detail: &str, candidate: &Result<bool, String>) -> bool {
    fn label(d: &str) -> Option<&str> {
        d.split_once(']').map(|(l, _)| l)
    }
    matches!(candidate, Err(got) if label(got).is_some_and(|l| label(detail) == Some(l)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reproduction lines in ROADMAP/CHANGES quote these labels; the
    /// sequential rows name the encoding the case seed picked.
    #[test]
    fn matrix_labels_are_stable() {
        let fixed = [
            "o2/par-w2",
            "o0/par-w4",
            "o2/par-w2/tlab8",
            "o2/par-w2/jit",
            "o2/cms-w2",
            "o0/cms-w2",
            "o2/cms-w2/jit",
            "o0/cms-w2/jit",
        ];
        for (case_seed, [o0_semi, o0_gen, o2_semi, o2_gen]) in [
            (0, ["full-info", "full-info+packing", "delta-main", "delta-main+previous"]),
            (5141, ["delta-main+previous+packing", "full-info", "full-info+packing", "delta-main"]),
        ] {
            let mut expected = vec![
                format!("o0/{o0_semi}/semi"),
                format!("o0/{o0_gen}/gen"),
                "o0/semi/jit".to_string(),
                "o0/gen/jit".to_string(),
                format!("o2/{o2_semi}/semi"),
                format!("o2/{o2_gen}/gen"),
                "o2/semi/jit".to_string(),
                "o2/gen/jit".to_string(),
            ];
            expected.extend(fixed.map(String::from));
            let labels: Vec<String> = config_matrix(case_seed).into_iter().map(|c| c.0).collect();
            assert_eq!(labels, expected, "case seed {case_seed}");
        }
        assert_eq!(configs_per_program(), 17);
    }

    /// The rotation hides no encoding from any (opt, heap) pair for long:
    /// six consecutive case seeds run each pair under all six.
    #[test]
    fn six_consecutive_seeds_run_every_pair_under_every_scheme() {
        for first in [0, 1, 5141, u64::MAX - 5] {
            let mut seen = std::collections::HashSet::new();
            for case_seed in first..=first + 5 {
                for (label, opt, scheme, ropts) in config_matrix(case_seed) {
                    if label.split('/').nth(1) == Some(&scheme.to_string()) {
                        seen.insert((opt, ropts.strategy == GcStrategy::Generational, scheme));
                    }
                }
            }
            assert_eq!(seen.len(), 2 * 2 * Scheme::TABLE2.len(), "from case seed {first}");
        }
    }

    #[test]
    fn a_shrink_candidate_must_fail_first_in_the_same_configuration() {
        let detail = "[o2/full-info/semi] tidy root Reg { .. }: value 1 is outside the live heap";
        let same = Err("[o2/full-info/semi] diverged from reference".to_string());
        assert!(same_failure(detail, &same));
        for other in [
            Err("[o2/serve-t2g8] tidy root Reg { .. }: value 2 is outside".to_string()),
            Err("[o2/full-info/gen] tidy root Reg { .. }: value 1".to_string()),
            Err("no label".to_string()),
            Ok(true),
            Ok(false),
        ] {
            assert!(!same_failure(detail, &other), "{other:?}");
        }
    }
}
