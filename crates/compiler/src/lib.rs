//! The end-to-end m3gc compiler: Mini-M3 source → checked AST → IR →
//! optimizer → VM code with gc maps — plus convenience runners.
//!
//! # Example
//!
//! ```
//! use m3gc_compiler::{compile, run_module, Options};
//!
//! let module = compile(
//!     "MODULE Demo;
//!      TYPE List = REF RECORD head: INTEGER; tail: List END;
//!      VAR l: List; i, s: INTEGER;
//!      BEGIN
//!        l := NIL;
//!        FOR i := 1 TO 10 DO
//!          WITH c = NEW(List) DO c.head := i; c.tail := l; l := c; END;
//!        END;
//!        s := 0;
//!        WHILE l # NIL DO s := s + l.head; l := l.tail; END;
//!        PutInt(s);
//!      END Demo.",
//!     &Options::o2(),
//! )
//! .expect("compiles");
//! let outcome = run_module(module, 1 << 16).expect("runs");
//! assert_eq!(outcome.output, "55");
//! ```

use std::time::{Duration, Instant};

use m3gc_codegen::CodegenOptions;
use m3gc_core::encode::Scheme;
use m3gc_frontend::lower::LowerOptions;
use m3gc_frontend::Diagnostic;
use m3gc_opt::{OptLevel, OptOptions, PassTimes, PathStrategy};
use m3gc_runtime::parallel::{ParExecutor, ParOutcome};
use m3gc_runtime::scheduler::{ExecError, ExecOutcome, Executor};
use m3gc_runtime::serve::{ServeExecutor, ServeLoad, ServeOutcome};
use m3gc_runtime::{GcStrategy, RuntimeOptions};
use m3gc_vm::VmModule;

pub use m3gc_codegen::GcConfig;
pub use m3gc_runtime::parallel::{ParGcStats, ParOutcome as ParExecOutcome};

/// Complete compiler configuration.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Lowering options (bounds checks).
    pub lower: LowerOptions,
    /// Optimizer options.
    pub opt: OptOptions,
    /// Code generation / gc-map options.
    pub codegen: CodegenOptions,
}

impl Options {
    /// Unoptimized compilation with full gc support (the paper's
    /// `typereg` etc. rows without `-opt`).
    #[must_use]
    pub fn o0() -> Options {
        Options {
            lower: LowerOptions::default(),
            opt: OptOptions { level: OptLevel::O0, path_strategy: PathStrategy::Variables },
            codegen: CodegenOptions::default(),
        }
    }

    /// Optimized compilation with full gc support (the `-opt` rows).
    #[must_use]
    pub fn o2() -> Options {
        Options {
            lower: LowerOptions::default(),
            opt: OptOptions { level: OptLevel::O2, path_strategy: PathStrategy::Variables },
            codegen: CodegenOptions::default(),
        }
    }

    /// Same as [`Options::o2`] but with gc support disabled — the §6.2
    /// baseline for code-difference measurements.
    #[must_use]
    pub fn o2_no_gc() -> Options {
        let mut o = Options::o2();
        o.codegen.gc.emit_tables = false;
        o
    }

    /// Same as [`Options::o0`] but with gc support disabled.
    #[must_use]
    pub fn o0_no_gc() -> Options {
        let mut o = Options::o0();
        o.codegen.gc.emit_tables = false;
        o
    }

    /// Selects the table encoding scheme.
    #[must_use]
    pub fn with_scheme(mut self, scheme: Scheme) -> Options {
        self.codegen.scheme = scheme;
        self
    }

    /// Selects the ambiguity resolution strategy (§4 / Figure 2).
    #[must_use]
    pub fn with_path_strategy(mut self, s: PathStrategy) -> Options {
        self.opt.path_strategy = s;
        self
    }

    /// Selects the gc configuration.
    #[must_use]
    pub fn with_gc(mut self, gc: GcConfig) -> Options {
        self.codegen.gc = gc;
        self
    }
}

impl Default for Options {
    fn default() -> Self {
        Options::o2()
    }
}

/// Wall-clock time of each compiler stage, as [`compile_timed`] measured
/// it. `verify` sums both IR checks (after lowering, after the
/// optimizer); at `o0`, `opt` times a call that returns at once.
/// `passes` splits `opt` by pass; its [`Display`](std::fmt::Display) is
/// separate, so this one prints the stages only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileTimes {
    /// Lexing.
    pub lex: Duration,
    /// Parsing.
    pub parse: Duration,
    /// Type checking.
    pub typecheck: Duration,
    /// Lowering to IR.
    pub lower: Duration,
    /// IR verification.
    pub verify: Duration,
    /// The optimizer.
    pub opt: Duration,
    /// The optimizer's passes, which sum to `opt` within the timers' own
    /// overhead.
    pub passes: PassTimes,
    /// Code generation: gc-point placement, derivations, register
    /// allocation, emission and table encoding.
    pub codegen: Duration,
}

/// `lex 12 µs parse 40 µs …`: every stage, in pipeline order.
impl std::fmt::Display for CompileTimes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stages = [
            ("lex", self.lex),
            ("parse", self.parse),
            ("typecheck", self.typecheck),
            ("lower", self.lower),
            ("verify", self.verify),
            ("opt", self.opt),
            ("codegen", self.codegen),
        ];
        for (i, (name, time)) in stages.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{name} {} µs", time.as_micros())?;
        }
        Ok(())
    }
}

/// Runs `stage`, adding its wall-clock time to `slot`.
fn timed<T>(slot: &mut Duration, stage: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = stage();
    *slot += started.elapsed();
    out
}

/// The front end and optimizer: source → verified, optimized IR. Only
/// with `time_passes` does the optimizer time each pass.
fn to_ir(
    source: &str,
    options: &Options,
    times: &mut CompileTimes,
    time_passes: bool,
) -> Result<m3gc_ir::Program, Diagnostic> {
    let tokens = timed(&mut times.lex, || m3gc_frontend::lexer::lex(source))?;
    let module = timed(&mut times.parse, || m3gc_frontend::parser::parse(tokens))?;
    let checked = timed(&mut times.typecheck, || m3gc_frontend::typecheck::check(&module))?;
    let mut prog = timed(&mut times.lower, || {
        m3gc_frontend::lower::lower_with(&module, &checked, options.lower)
    });
    timed(&mut times.verify, || m3gc_ir::verify::verify_program(&prog))
        .unwrap_or_else(|e| panic!("lowering produced invalid IR: {e}"));
    timed(&mut times.opt, || {
        if time_passes {
            m3gc_opt::optimize_program_timed(&mut prog, &options.opt, &mut times.passes);
        } else {
            m3gc_opt::optimize_program(&mut prog, &options.opt);
        }
    });
    timed(&mut times.verify, || m3gc_ir::verify::verify_program(&prog))
        .unwrap_or_else(|e| panic!("optimizer produced invalid IR: {e}"));
    Ok(prog)
}

/// Compiles source text to optimized IR (before code generation).
///
/// # Errors
///
/// Returns the first front-end [`Diagnostic`].
pub fn compile_to_ir(source: &str, options: &Options) -> Result<m3gc_ir::Program, Diagnostic> {
    to_ir(source, options, &mut CompileTimes::default(), false)
}

/// Compiles source text to a VM module with gc maps.
///
/// # Errors
///
/// Returns the first front-end [`Diagnostic`].
pub fn compile(source: &str, options: &Options) -> Result<VmModule, Diagnostic> {
    compile_with(source, options, false).map(|(module, _)| module)
}

/// [`compile`], also returning how long each stage took.
///
/// # Errors
///
/// Returns the first front-end [`Diagnostic`].
pub fn compile_timed(
    source: &str,
    options: &Options,
) -> Result<(VmModule, CompileTimes), Diagnostic> {
    compile_with(source, options, true)
}

fn compile_with(
    source: &str,
    options: &Options,
    time_passes: bool,
) -> Result<(VmModule, CompileTimes), Diagnostic> {
    let mut times = CompileTimes::default();
    let mut prog = to_ir(source, options, &mut times, time_passes)?;
    let module =
        timed(&mut times.codegen, || m3gc_codegen::compile_program(&mut prog, &options.codegen));
    Ok((module, times))
}

/// Runs a compiled module to completion with the given semispace size
/// (words), returning its outcome.
///
/// # Errors
///
/// Propagates [`ExecError`] (traps, heap exhaustion, fuel).
pub fn run_module(module: VmModule, semi_words: usize) -> Result<ExecOutcome, ExecError> {
    run_module_opts(module, RuntimeOptions::new().semi_words(semi_words))
}

/// Runs a compiled module under the single-threaded scheduler with the
/// full [`RuntimeOptions`] surface — the canonical entry point.
///
/// # Errors
///
/// [`ExecError::Options`] before any machine is built for options that
/// fail [`RuntimeOptions::check`]; otherwise propagates [`ExecError`].
pub fn run_module_opts(
    module: VmModule,
    options: RuntimeOptions,
) -> Result<ExecOutcome, ExecError> {
    options.check()?;
    let machine = options.build_machine(module);
    let mut ex = Executor::new(machine, options);
    ex.run_main()
}

/// Runs a compiled module with an explicit executor configuration.
///
/// # Errors
///
/// Propagates [`ExecError`].
pub fn run_module_with(
    module: VmModule,
    semi_words: usize,
    config: impl Into<RuntimeOptions>,
) -> Result<ExecOutcome, ExecError> {
    run_module_opts(module, config.into().semi_words(semi_words))
}

/// Runs a compiled module under the parallel runtime with the full
/// [`RuntimeOptions`] surface — the canonical parallel entry point.
/// `options.threads` copies of the entry procedure run on real OS
/// threads; stop-the-world parallel collection uses
/// `options.gc_workers` workers.
///
/// # Errors
///
/// [`ExecError::Options`] before any machine is built for options that
/// fail [`RuntimeOptions::check`]; otherwise propagates [`ExecError`]
/// from the first failing thread.
pub fn run_module_par_opts(
    module: VmModule,
    options: RuntimeOptions,
) -> Result<ParOutcome, ExecError> {
    options.check()?;
    let vm = options.build_par_machine(module);
    let mut ex = ParExecutor::new(vm, options);
    ex.run_main()
}

/// Runs a compiled module under the allocation-service workload:
/// `options.green_slots` green-thread requests multiplexed over
/// `options.threads` OS threads, each request allocating into a
/// per-request region (see [`RuntimeOptions::serve`]).
///
/// # Errors
///
/// [`ExecError::Options`] before any machine is built for options that
/// fail [`RuntimeOptions::check`]; otherwise propagates [`ExecError`]
/// from [`ServeExecutor::run`].
pub fn run_module_serve(
    module: VmModule,
    options: RuntimeOptions,
    load: ServeLoad,
) -> Result<ServeOutcome, ExecError> {
    options.check()?;
    let vm = options.build_par_machine(module);
    let mut ex = ServeExecutor::new(vm, options, load);
    ex.run()
}

/// Runs a compiled module under the parallel runtime: `mutators` copies
/// of the entry procedure on real OS threads, stop-the-world parallel
/// collection with `config.gc_workers` workers. Pass `shadow = true` to
/// instrument for the gc-map precision oracle (`config.oracle` then
/// validates every thread before each collection).
///
/// # Errors
///
/// Propagates [`ExecError`] from the first failing thread.
pub fn run_module_par(
    module: VmModule,
    semi_words: usize,
    mutators: usize,
    shadow: bool,
    config: impl Into<RuntimeOptions>,
) -> Result<ParOutcome, ExecError> {
    let mut options =
        config.into().strategy(GcStrategy::Parallel).semi_words(semi_words).threads(mutators);
    options.shadow = options.shadow || shadow;
    run_module_par_opts(module, options)
}

/// Compiles and runs in one step (convenience for tests and examples).
///
/// # Errors
///
/// Returns the diagnostic as a string, or the execution error.
pub fn compile_and_run(
    source: &str,
    options: &Options,
    semi_words: usize,
) -> Result<ExecOutcome, String> {
    let module = compile(source, options).map_err(|d| d.to_string())?;
    run_module(module, semi_words).map_err(|e| e.to_string())
}

/// Reference semantics: run the *unoptimized IR* under the interpreter
/// that never collects. Differential tests compare everything against
/// this.
///
/// # Errors
///
/// Returns the diagnostic or trap as a string.
pub fn reference_output(source: &str) -> Result<String, String> {
    let prog = m3gc_frontend::compile_to_ir(source).map_err(|d| d.to_string())?;
    let out = m3gc_ir::interp::run_program(&prog).map_err(|t| t.to_string())?;
    Ok(out.output)
}

pub mod driver;

#[cfg(test)]
mod tests;
