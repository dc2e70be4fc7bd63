//! `mutator-calls`: `takl`, `FieldList` and `typereg` at scale on a heap
//! so roomy the collectors stay under 1 %: interpreter dispatch and the
//! JIT do nearly all the work.

use super::{cell, common, layer_ms, par_layer, per, CellPlan, Cells, Metrics};
use crate::cell::{check_outcome, guarded, reference, seq_options, CellCtx};
use crate::constants::{host_threads, Scale, FUEL, MUTATOR_HEAP_WORDS, STACK_WORDS};
use crate::inputs::{mutator_programs, takl, Program};
use crate::report::Report;
use crate::runs::{load_layers, run_par, run_seq};
use crate::span::{self_time_by_name, Recorder};
use m3gc_runtime::{GcStrategy, RuntimeOptions};

const NAMES: [&str; 3] = ["takl", "fieldlist", "typereg"];

pub fn cells(_trace: bool) -> Vec<CellPlan> {
    vec![CellPlan::new("mt", 0.2), CellPlan::new("interp", 0.5), CellPlan::new("jit", 0.3)]
}

/// Reference outcomes of the three programs, then of the smaller
/// `takl` the parallel machine runs.
pub fn setup(scale: &Scale, _seed: u64) -> Vec<String> {
    let mut programs = mutator_programs(scale);
    programs.push(takl(scale.takl_mt));
    programs.iter().map(|p| reference(&p.source, u64::MAX)).collect()
}

pub fn run_cell(cell: &str, ctx: &CellCtx) -> Report {
    match cell {
        "interp" => seq_cell(ctx, false),
        "jit" => seq_cell(ctx, true),
        "mt" => mt_cell(ctx),
        other => panic!("mutator-calls has no cell `{other}`"),
    }
}

/// One round: each program once, source text to checked output.
fn seq_cell(ctx: &CellCtx, jit: bool) -> Report {
    let programs = mutator_programs(&ctx.scale);
    let options = seq_options(MUTATOR_HEAP_WORDS).jit(jit);
    let mode = if jit { "jit" } else { "interp" };
    let mut report = Report::default();
    let mut rec = Recorder::new(ctx.trace);

    let one = |report: &mut Report, rec: &mut Recorder, i: usize, series: &str| {
        let p = &programs[i];
        let what = format!("mutator-calls {mode} {}", p.name);
        guarded(report, &what, 1, |report| {
            let op = run_seq(rec, &p.source, options)?;
            check_outcome(&op.outcome, &ctx.expected[i])?;
            report.sample(&format!("{series}.{}", p.name), op.wall_s);
            if series != "op_s" {
                return Ok(());
            }
            let stats = op.stats.expect("an ok outcome has stats");
            let mut count = |name: &str, v: f64| report.sample(&format!("{name}.{}", p.name), v);
            count("gc_s", stats.gc_total.total_time.as_secs_f64());
            count("steps", stats.steps as f64);
            count("collections", stats.collections as f64);
            count("words_copied", stats.gc_total.words_copied as f64);
            count("code_bytes", op.code_bytes as f64);
            count("table_bytes", op.table_bytes as f64);
            if let Some(j) = op.jit.filter(|_| jit) {
                let fallback = j.procs_total - j.procs_compiled;
                count("procs_compiled", j.procs_compiled as f64);
                count("procs_fallback", fallback as f64);
                if !j.enabled || fallback > 0 {
                    return Err(format!(
                        "the JIT fell back ({} of {} procedures native): {:?}",
                        j.procs_compiled, j.procs_total, j.fallbacks
                    ));
                }
            }
            Ok(())
        });
    };

    for i in 0..programs.len() {
        one(&mut report, &mut Recorder::new(false), i, "op_s");
        if ctx.trace {
            rec.set_op(i as u64 + 1);
            one(&mut report, &mut rec, i, "traced_op_s");
        }
    }
    report.sample("lines", programs.iter().map(Program::lines).sum::<usize>() as f64);
    if ctx.trace && !jit {
        rec.set_op(0);
        for p in &programs {
            if let Err(e) = load_layers(&mut rec, &p.source, options) {
                report.fail(format!("mutator-calls load layers {}: {e}", p.name));
            }
        }
    }
    report.spans = rec.into_spans();
    report
}

/// `takl` on every mutator thread of the parallel machine: the same
/// instructions through `ParMachine`'s dispatch instead of `Machine`'s.
fn mt_cell(ctx: &CellCtx) -> Report {
    let program = takl(ctx.scale.takl_mt);
    let threads = host_threads();
    let options = RuntimeOptions::new()
        .strategy(GcStrategy::Parallel)
        .semi_words(MUTATOR_HEAP_WORDS)
        .stack_words(STACK_WORDS)
        .threads(threads)
        .gc_workers(threads)
        .fuel(FUEL);
    // Every mutator prints the same line; outputs concatenate in tid order.
    let expected = format!("ok {}", ctx.expected[3].trim_start_matches("ok ").repeat(threads));
    let mut report = Report::default();
    guarded(&mut report, "mutator-calls mt takl", 1, |report| {
        let op = run_par(&mut Recorder::new(false), &program.source, options)?;
        check_outcome(&op.outcome, &expected)?;
        report.sample("op_s", op.wall_s);
        par_layer::record(report, &op.stats.expect("an ok outcome has stats"));
        Ok(())
    });
    report
}

pub fn metrics(cells: &Cells, out: &mut Metrics) -> Vec<String> {
    let (interp, jit, mt) = (cell(cells, "interp"), cell(cells, "jit"), cell(cells, "mt"));
    // Over one round: the medians of a per-program series, summed.
    let round = |r: &Report, key: &str| -> f64 {
        NAMES.iter().map(|n| r.median(&format!("{key}.{n}"))).sum()
    };
    let op = |r: &Report, n: &str| r.median(&format!("op_s.{n}"));
    let seq_ops: Vec<f64> =
        [&interp, &jit].iter().flat_map(|r| NAMES.iter().map(|n| op(r, n))).collect();
    let mut sizes = Report::default();
    sizes.sample("code_bytes", round(interp, "code_bytes"));
    sizes.sample("table_bytes", round(interp, "table_bytes"));
    sizes.sample("lines", interp.median("lines"));
    common(out, cells, &seq_ops, &[mt.median("op_s")], &sizes);

    let mut failures = Vec::new();
    for (cell_name, prefix, r) in [("interp", "vm", &interp), ("jit", "jit", &jit)] {
        out.set(
            &format!("{cell_name}_msteps_per_s"),
            per(round(r, "steps") / 1e6, round(r, "op_s")),
        );
        for n in NAMES {
            let steps = |r: &Report| r.median(&format!("steps.{n}"));
            out.set(&format!("{prefix}.msteps_per_s.{n}"), per(steps(r) / 1e6, op(r, n)));
            if steps(r) != steps(interp) && steps(r) > 0.0 {
                failures.push(format!(
                    "mutator-calls {n}: the JIT ran {} steps, the interpreter {}",
                    steps(r),
                    steps(interp)
                ));
            }
        }
    }

    let round_s = round(interp, "op_s");
    out.set("runtime.semi.gc_share_pct", 100.0 * per(round(interp, "gc_s"), round_s));
    out.set("runtime.semi.collections", round(interp, "collections"));
    out.set("runtime.semi.words_copied", round(interp, "words_copied"));
    let rounds = interp.sampled("traced_op_s.takl").len() as f64;
    let self_ns = self_time_by_name(&interp.spans);
    out.set("vm.predecode_ms", per(layer_ms(&self_ns, "vm.predecode"), rounds));
    // The traced ops' `vm.load` spans: machine and executor construction.
    out.set("vm.load_ms", per(layer_ms(&self_ns, "vm.load"), rounds));
    out.set("jit.compile_ms", per(layer_ms(&self_ns, "jit.compile"), rounds));
    out.set("jit.procs_compiled", round(jit, "procs_compiled"));
    out.set("jit.procs_fallback", round(jit, "procs_fallback"));
    par_layer::metrics(out, mt);
    let overhead = round(interp, "traced_op_s") - round_s;
    out.set("harness.trace_overhead_pct", 100.0 * per(overhead, round_s));
    failures
}
