//! One op: source text in, outcome out, through the public entry points
//! of the crates under test, with a span around each call.

use crate::cell::outcome_of;
use crate::span::Recorder;
use m3gc_compiler::{compile, Options};
use m3gc_jit::{JitEngine, JitSummary};
use m3gc_runtime::scheduler::ExecError;
use m3gc_runtime::{
    ExecOutcome, Executor, ParExecutor, ParOutcome, RuntimeOptions, ServeExecutor, ServeLoad,
    ServeOutcome,
};
use m3gc_vm::decode::DecodedCode;
use m3gc_vm::VmModule;
use std::hint::black_box;
use std::time::Instant;

/// What every op reports beside its executor's own outcome.
#[derive(Debug, Clone)]
pub struct Op<T> {
    /// Wall seconds, source text to outcome.
    pub wall_s: f64,
    /// `ok <output>` / `trap <kind>` / `skip <why>` / `error <what>`.
    pub outcome: String,
    /// The executor's statistics when the run completed.
    pub stats: Option<T>,
    /// Bytes of code compiled for the op.
    pub code_bytes: usize,
    /// Bytes of encoded gc tables compiled for the op.
    pub table_bytes: usize,
    /// JIT statistics, when the op ran with `.jit(true)`.
    pub jit: Option<JitSummary>,
}

fn compile_o2(rec: &mut Recorder, source: &str) -> Result<VmModule, String> {
    rec.span("compiler.compile", |_| compile(source, &Options::o2()))
        .map_err(|d| format!("does not compile: {d}"))
}

/// Compile, load, run: the shape of every op. Returns the executor
/// too, for what it can say after the run.
fn run_op<E, T>(
    rec: &mut Recorder,
    source: &str,
    load: impl FnOnce(VmModule) -> E,
    run: impl FnOnce(&mut E) -> Result<T, ExecError>,
    output: impl FnOnce(&T) -> String,
) -> Result<(Op<T>, E), String> {
    let t0 = Instant::now();
    rec.span("op", |rec| {
        let module = compile_o2(rec, source)?;
        let (code_bytes, table_bytes) = (module.code_size(), module.gc_maps.bytes.len());
        let mut ex = rec.span("vm.load", |_| load(module));
        let result = rec.span("runtime.run", |_| run(&mut ex));
        let wall_s = t0.elapsed().as_secs_f64();
        let outcome = match &result {
            Ok(out) => format!("ok {}", output(out)),
            Err(e) => outcome_of(Err(e)),
        };
        Ok((Op { wall_s, outcome, stats: result.ok(), code_bytes, table_bytes, jit: None }, ex))
    })
}

/// Compiles at `o2` and runs under the sequential [`Executor`].
///
/// # Errors
///
/// Only if the source does not compile; a failed run is an outcome.
pub fn run_seq(
    rec: &mut Recorder,
    source: &str,
    options: RuntimeOptions,
) -> Result<Op<ExecOutcome>, String> {
    let (mut op, ex) = run_op(
        rec,
        source,
        |module| Executor::new(options.build_machine(module), options),
        Executor::run_main,
        |out| out.output.clone(),
    )?;
    op.jit = ex.jit_summary();
    Ok(op)
}

/// Compiles at `o2` and runs under the [`ParExecutor`] (the `par` and
/// `cms` strategies).
///
/// # Errors
///
/// Only if the source does not compile.
pub fn run_par(
    rec: &mut Recorder,
    source: &str,
    options: RuntimeOptions,
) -> Result<Op<ParOutcome>, String> {
    run_op(
        rec,
        source,
        |module| ParExecutor::new(options.build_par_machine(module), options),
        ParExecutor::run_main,
        |out| out.output.clone(),
    )
    .map(|(op, _)| op)
}

/// Compiles at `o2` and serves `load` under the [`ServeExecutor`]. The
/// outcome is `ok` followed by every request's output in id order.
///
/// # Errors
///
/// Only if the source does not compile.
pub fn run_serve(
    rec: &mut Recorder,
    source: &str,
    options: RuntimeOptions,
    load: ServeLoad,
) -> Result<Op<ServeOutcome>, String> {
    run_op(
        rec,
        source,
        |module| ServeExecutor::new(options.build_par_machine(module), options, load),
        ServeExecutor::run,
        |out| out.outputs.concat(),
    )
    .map(|(op, _)| op)
}

/// The load-time layers a run hides inside `Executor::new`, each
/// called on its own so it can be timed from outside: instruction
/// predecode and the JIT's compile of every procedure.
///
/// # Errors
///
/// If the source does not compile.
pub fn load_layers(
    rec: &mut Recorder,
    source: &str,
    options: RuntimeOptions,
) -> Result<(), String> {
    let module = compile_o2(rec, source)?;
    rec.span("vm.predecode", |_| black_box(DecodedCode::new(&module.code)));
    let machine = options.build_machine(module);
    rec.span("jit.compile", |_| black_box(JitEngine::for_machine(&machine)));
    Ok(())
}
