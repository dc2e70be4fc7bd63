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
use m3gc_vm::machine::{HeapStrategy, VmTrap};
use m3gc_vm::DEFAULT_TLAB_WORDS;

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

/// Runs one VM configuration under torture with shadow mode and the
/// precision oracle.
#[must_use]
pub fn run_vm(source: &str, options: &Options, heap: HeapStrategy, jit: bool) -> RunStatus {
    let module = match compile(source, options) {
        Ok(m) => m,
        Err(d) => return RunStatus::Hard(format!("compiler rejected generated program: {d}")),
    };
    let mut ropts = RuntimeOptions::new()
        .semi_words(FUZZ_SEMI_WORDS)
        .stack_words(1 << 14)
        .max_threads(4)
        .torture(true)
        .oracle(true)
        .jit(jit);
    if let HeapStrategy::Generational { nursery_words, promote_age } = heap {
        ropts = ropts
            .strategy(GcStrategy::Generational)
            .nursery_words(nursery_words)
            .promote_age(promote_age);
    }
    let machine = ropts.build_machine(module);
    let mut ex = match m3gc_runtime::Executor::try_new(machine, ropts) {
        Ok(ex) => ex,
        Err(e) => return RunStatus::Hard(format!("gc-map decode failed: {e}")),
    };
    match ex.run_main() {
        Ok(out) => RunStatus::Ok(out.output),
        Err(e) => status_of_error(e),
    }
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

/// Runs one configuration under the *parallel* runtime: a single
/// mutator (generated programs mutate module globals, which parallel
/// mutators share, so only one keeps output deterministic) with
/// `workers` gc workers, under torture with shadow mode and the
/// precision oracle — the parallel handshake, snapshot stack walk and
/// work-stealing copy all differentially checked against the reference.
#[must_use]
pub fn run_par_vm(
    source: &str,
    options: &Options,
    workers: usize,
    tlab_words: usize,
    jit: bool,
) -> RunStatus {
    let module = match compile(source, options) {
        Ok(m) => m,
        Err(d) => return RunStatus::Hard(format!("compiler rejected generated program: {d}")),
    };
    let ropts = RuntimeOptions::new()
        .strategy(GcStrategy::Parallel)
        .semi_words(FUZZ_SEMI_WORDS)
        .stack_words(1 << 15)
        .threads(1)
        .gc_workers(workers)
        .tlab_words(tlab_words)
        .torture(true)
        .oracle(true)
        .jit(jit);
    match run_module_par_opts(module, ropts) {
        Ok(out) => RunStatus::Ok(out.output),
        Err(e) => status_of_error(e),
    }
}

/// Runs one configuration under the *concurrent-marking* collector: a
/// single mutator with `workers` evacuation workers and `conc_workers`
/// background markers, under torture with shadow mode and the precision
/// oracle. Torture forces a full snapshot/final pause pair around nearly
/// every allocation, so the SATB write barrier, the black-allocation
/// window and the final-pause drain are all exercised on every program,
/// and every cycle is differentially checked against full STW
/// reachability by the shadow verifier.
#[must_use]
pub fn run_cms_vm(
    source: &str,
    options: &Options,
    workers: usize,
    conc_workers: usize,
    jit: bool,
    conc_evac: bool,
) -> RunStatus {
    let module = match compile(source, options) {
        Ok(m) => m,
        Err(d) => return RunStatus::Hard(format!("compiler rejected generated program: {d}")),
    };
    let mut ropts = RuntimeOptions::new()
        .strategy(GcStrategy::Cms)
        .semi_words(FUZZ_SEMI_WORDS)
        .stack_words(1 << 15)
        .threads(1)
        .gc_workers(workers)
        .conc_workers(conc_workers)
        .torture(true)
        .shadow(true)
        .oracle(true)
        .jit(jit);
    if conc_evac {
        // Tiny regions: every cycle moves objects out of nearly every
        // region, so forwarding reads, redirected stores and the exit
        // audit all fire on arbitrary generated programs.
        ropts = ropts.conc_evac(true).evac_region_words(16);
    }
    match run_module_par_opts(module, ropts) {
        Ok(out) => RunStatus::Ok(out.output),
        Err(e) => status_of_error(e),
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

/// The parallel side of the matrix: {o0, o2} at the default encoding
/// with 2 and 4 gc workers, a tiny-TLAB configuration (refill and
/// retire on nearly every allocation) to stress buffer boundaries under
/// torture, and a full-map (`nolive`) configuration so liveness-pruned
/// and unpruned runs are differentially compared on every program.
#[must_use]
pub fn par_config_matrix() -> Vec<(String, Options, usize, usize, bool)> {
    vec![
        ("o2/par-w2".to_string(), Options::o2(), 2, DEFAULT_TLAB_WORDS, false),
        ("o0/par-w4".to_string(), Options::o0(), 4, DEFAULT_TLAB_WORDS, false),
        ("o2/par-w2/tlab8".to_string(), Options::o2(), 2, 8, false),
        (
            "o2/par-w2/nolive".to_string(),
            Options::o2().with_live_maps(false),
            2,
            DEFAULT_TLAB_WORDS,
            false,
        ),
        // JIT twin: same config as `o2/par-w2`, native bursts instead of
        // the interpreter — outputs and traps must be identical.
        ("o2/par-w2/jit".to_string(), Options::o2(), 2, DEFAULT_TLAB_WORDS, true),
    ]
}

/// The concurrent-marking side of the matrix: {o0, o2} with 2
/// evacuation workers and 2 background markers, differentially checked
/// against the reference interpreter under torture, plus a full-map
/// (`nolive`) configuration — the snapshot-pause kill path and the
/// unpruned tables must produce identical output on every program.
#[must_use]
pub fn cms_config_matrix() -> Vec<(String, Options, usize, usize, bool, bool)> {
    vec![
        ("o2/cms-w2m2".to_string(), Options::o2(), 2, 2, false, false),
        ("o0/cms-w2m2".to_string(), Options::o0(), 2, 2, false, false),
        ("o2/cms-w2m2/nolive".to_string(), Options::o2().with_live_maps(false), 2, 2, false, false),
        // JIT twins at both opt levels: concurrent SATB marking with
        // the full-helper store barrier in native code.
        ("o2/cms-w2m2/jit".to_string(), Options::o2(), 2, 2, true, false),
        ("o0/cms-w2m2/jit".to_string(), Options::o0(), 2, 2, true, false),
        // Conc-evac twins at both opt levels: incremental evacuation
        // with tiny regions, the self-healing load/store paths on the
        // hot path of every generated program.
        ("o2/cms-w2m2/evac".to_string(), Options::o2(), 2, 2, false, true),
        ("o0/cms-w2m2/evac".to_string(), Options::o0(), 2, 2, false, true),
    ]
}

/// The full VM configuration matrix: {o0, o2} × all six encodings ×
/// {semispace, generational} with liveness-pruned maps (the default),
/// plus {o0, o2} × {semi, gen} at the default encoding with pruning
/// off — every program runs with and without kills and the outputs are
/// compared through the shared reference.
#[must_use]
pub fn config_matrix() -> Vec<(String, Options, HeapStrategy, bool)> {
    let mut out = Vec::new();
    for (olabel, opts) in [("o0", Options::o0()), ("o2", Options::o2())] {
        for scheme in Scheme::TABLE2 {
            for (hlabel, heap) in [
                ("semi", HeapStrategy::Semispace),
                ("gen", HeapStrategy::generational_for(FUZZ_SEMI_WORDS)),
            ] {
                out.push((
                    format!("{olabel}/{scheme}/{hlabel}"),
                    opts.with_scheme(scheme),
                    heap,
                    false,
                ));
            }
        }
        for (hlabel, heap) in [
            ("semi", HeapStrategy::Semispace),
            ("gen", HeapStrategy::generational_for(FUZZ_SEMI_WORDS)),
        ] {
            out.push((
                format!("{olabel}/nolive/{hlabel}"),
                opts.with_live_maps(false),
                heap,
                false,
            ));
        }
        // JIT twins at the default encoding: every program also runs
        // natively on both heap shapes, and the twin pair must agree on
        // output and trap kind exactly. (The encoding schemes only vary
        // table bytes, which the JIT never reads, so twinning the whole
        // scheme sweep would re-test identical native code.)
        for (hlabel, heap) in [
            ("semi", HeapStrategy::Semispace),
            ("gen", HeapStrategy::generational_for(FUZZ_SEMI_WORDS)),
        ] {
            out.push((format!("{olabel}/{hlabel}/jit"), opts, heap, true));
        }
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
    for (label, opts, heap, jit) in config_matrix() {
        match run_vm(source, &opts, heap, jit) {
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
    for (label, opts, workers, tlab_words, jit) in par_config_matrix() {
        match run_par_vm(source, &opts, workers, tlab_words, jit) {
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
    for (label, opts, workers, conc_workers, jit, conc_evac) in cms_config_matrix() {
        match run_cms_vm(source, &opts, workers, conc_workers, jit, conc_evac) {
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
