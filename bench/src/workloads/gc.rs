//! `gc-destroy`: the paper's `destroy` on heaps barely above its live
//! set, under each collector. The collectors, root scan, table decode
//! and the §3 derived-pointer fixup do most of the work here and none in
//! `compile-corpus`; the allocation and store paths `mutator-calls` runs
//! cold run hot.

use super::{cell, common, par_layer, per, CellPlan, Cells, Metrics};
use crate::cell::{check_outcome, guarded, micros, reference, seq_options, CellCtx};
use crate::constants::{
    host_threads, Scale, CMS_WORDS, CONC_WORKERS, FORCED_HEAP_WORDS, FORCE_EVERY_ALLOCS, FUEL,
    GEN_NURSERY_WORDS, GEN_WORDS, PAR_WORDS, SEMI_WORDS, STACK_WORDS,
};
use crate::inputs::destroy;
use crate::report::Report;
use crate::runs::{run_par, run_seq};
use crate::span::Recorder;
use m3gc_core::stats::GcKind;
use m3gc_runtime::{ExecOutcome, GcMode, GcStrategy, ParOutcome, RuntimeOptions};

pub fn cells(trace: bool) -> Vec<CellPlan> {
    if trace {
        vec![
            CellPlan::new("par", 0.2),
            CellPlan::new("cms", 0.1),
            CellPlan::new("par-w1", 0.1),
            CellPlan::new("cms-evac", 0.1),
            CellPlan::new("semi", 0.2),
            CellPlan::new("gen", 0.2),
            CellPlan::new("semi-forced", 0.1),
        ]
    } else {
        vec![
            CellPlan::new("par", 0.4),
            CellPlan::new("cms", 0.2),
            CellPlan::new("semi", 0.2),
            CellPlan::new("gen", 0.2),
        ]
    }
}

pub fn setup(scale: &Scale, seed: u64) -> Vec<String> {
    vec![reference(&destroy(scale, seed).source, u64::MAX)]
}

fn par_options(strategy: GcStrategy, words: usize, gc_workers: usize) -> RuntimeOptions {
    RuntimeOptions::new()
        .strategy(strategy)
        .semi_words(words)
        .stack_words(STACK_WORDS)
        .threads(1)
        .gc_workers(gc_workers)
        .conc_workers(CONC_WORKERS)
        .fuel(FUEL)
}

pub fn run_cell(cell: &str, ctx: &CellCtx) -> Report {
    let workers = host_threads();
    match cell {
        "semi" => seq_cell(ctx, cell, seq_options(SEMI_WORDS)),
        "gen" => seq_cell(
            ctx,
            cell,
            seq_options(GEN_WORDS)
                .strategy(GcStrategy::Generational)
                .nursery_words(GEN_NURSERY_WORDS),
        ),
        "semi-forced" => forced_cell(ctx),
        "par" => par_cell(ctx, cell, par_options(GcStrategy::Parallel, PAR_WORDS, workers)),
        "par-w1" => par_cell(ctx, cell, par_options(GcStrategy::Parallel, PAR_WORDS, 1)),
        "cms" => par_cell(ctx, cell, par_options(GcStrategy::Cms, CMS_WORDS, workers)),
        "cms-evac" => {
            par_cell(ctx, cell, par_options(GcStrategy::Cms, CMS_WORDS, workers).conc_evac(true))
        }
        other => panic!("gc-destroy has no cell `{other}`"),
    }
}

fn record_sizes(report: &mut Report, ctx: &CellCtx, code_bytes: usize, table_bytes: usize) {
    report.sample("code_bytes", code_bytes as f64);
    report.sample("table_bytes", table_bytes as f64);
    report.sample("lines", destroy(&ctx.scale, ctx.seed).lines() as f64);
}

/// One op under the sequential executor: `semi` and `gen`.
fn seq_cell(ctx: &CellCtx, name: &str, options: RuntimeOptions) -> Report {
    let program = destroy(&ctx.scale, ctx.seed);
    let mut report = Report::default();
    let what = format!("gc-destroy {name} seed {}", ctx.seed);
    guarded(&mut report, &what, 1, |report| {
        let op = run_seq(&mut Recorder::new(false), &program.source, options)?;
        check_outcome(&op.outcome, &ctx.expected[0])?;
        record_sizes(report, ctx, op.code_bytes, op.table_bytes);
        record_seq(report, op.wall_s, &op.stats.expect("an ok outcome has stats"));
        Ok(())
    });
    if ctx.trace {
        let mut rec = Recorder::new(true);
        rec.set_op(1);
        guarded(&mut report, &format!("{what} (traced)"), 1, |report| {
            let op = run_seq(&mut rec, &program.source, options)?;
            check_outcome(&op.outcome, &ctx.expected[0])?;
            report.sample("traced_op_s", op.wall_s);
            Ok(())
        });
        report.spans = rec.into_spans();
    }
    report
}

fn record_seq(report: &mut Report, wall_s: f64, out: &ExecOutcome) {
    report.sample("op_s", wall_s);
    report.sample("gc_s", out.gc_total.total_time.as_secs_f64());
    report.sample("trace_s", out.gc_total.trace_time.as_secs_f64());
    for gc in &out.gc_each {
        let pause = micros(gc.total_time);
        report.sample("pause_us", pause);
        match gc.kind {
            GcKind::Minor => report.sample("minor_pause_us", pause),
            GcKind::Major => report.sample("major_pause_us", pause),
            GcKind::Full => {}
        }
    }
    let total = &out.gc_total;
    for (name, value) in [
        ("collections", out.collections),
        ("minor_collections", out.minor_collections),
        ("words_copied", total.words_copied),
        ("promoted_words", total.promoted_words),
        ("frames_traced", total.frames_traced),
        ("decode_ops", total.decode_ops),
        ("decode_hits", total.decode_hits),
        ("derived_updated", total.derived_updated),
        ("roots_killed", total.roots_killed),
        ("barrier_executed", out.barrier.executed),
        ("barrier_recorded", out.barrier.recorded),
    ] {
        report.sample(name, value as f64);
    }
}

/// The paper's §6.3 decomposition: a collection event every
/// `FORCE_EVERY_ALLOCS` allocations on a heap that never fills, the
/// event being a null call, a stack trace only, or a full collection.
fn forced_cell(ctx: &CellCtx) -> Report {
    let program = destroy(&ctx.scale, ctx.seed);
    let mut report = Report::default();
    for (mode, name) in
        [(GcMode::Null, "null"), (GcMode::TraceOnly, "trace_only"), (GcMode::Full, "full")]
    {
        let what = format!("gc-destroy semi-forced {name} seed {}", ctx.seed);
        let options = seq_options(FORCED_HEAP_WORDS)
            .gc_mode(mode)
            .force_every_allocs(Some(FORCE_EVERY_ALLOCS));
        guarded(&mut report, &what, 1, |report| {
            let op = run_seq(&mut Recorder::new(false), &program.source, options)?;
            check_outcome(&op.outcome, &ctx.expected[0])?;
            let stats = op.stats.expect("an ok outcome has stats");
            // Stack tracing is what a trace-only event does; the other
            // two are priced by their whole event.
            let spent = match mode {
                GcMode::TraceOnly => stats.gc_total.trace_time,
                _ => stats.gc_total.total_time,
            };
            report.sample(
                &format!("{name}_us_per_event"),
                per(micros(spent), stats.collections as f64),
            );
            Ok(())
        });
    }
    report
}

/// One op of a parallel-runtime cell (`par`, `cms` and their side
/// cells).
fn par_cell(ctx: &CellCtx, name: &str, options: RuntimeOptions) -> Report {
    let program = destroy(&ctx.scale, ctx.seed);
    let mut report = Report::default();
    let mut rec = Recorder::new(ctx.trace);
    rec.set_op(1);
    let what = format!("gc-destroy {name} seed {}", ctx.seed);
    guarded(&mut report, &what, 1, |report| {
        let op = run_par(&mut rec, &program.source, options)?;
        check_outcome(&op.outcome, &ctx.expected[0])?;
        let stats = op.stats.expect("an ok outcome has stats");
        report.sample("op_s", op.wall_s);
        record_par(report, &stats);
        par_layer::record(report, &stats);
        Ok(())
    });
    report.spans = rec.into_spans();
    report
}

fn record_par(report: &mut Report, out: &ParOutcome) {
    let (mut stopped_us, mut mark_s) = (0.0, 0.0);
    let (mut words, mut steals, mut spliced, mut least, mut most) = (0, 0, 0, 0, 0);
    for gc in &out.gc_each {
        let pause = micros(gc.total_time);
        report.sample("pause_us", pause);
        stopped_us += pause;
        report.sample("handshake_us", micros(gc.handshake_time));
        report.sample("copy_us", micros(gc.copy_time));
        if gc.cms_cycle {
            // Both stop-the-world windows of a cycle are pauses.
            report.sample("final_pause_us", pause);
            report.sample("snapshot_pause_us", micros(gc.snapshot_pause));
            report.sample("pause_us", micros(gc.snapshot_pause));
            stopped_us += micros(gc.snapshot_pause);
            mark_s += gc.mark_concurrent.as_secs_f64();
        }
        if gc.evac_cycle {
            report.sample("select_pause_us", micros(gc.evac_select_pause));
        }
        words += gc.words_copied;
        steals += gc.steals.iter().sum::<u64>();
        spliced += gc.frames_spliced;
        least += gc.per_worker_words.iter().min().copied().unwrap_or(0);
        most += gc.per_worker_words.iter().max().copied().unwrap_or(0);
    }
    report.sample("gc_s", stopped_us / 1e6);
    report.sample("mark_concurrent_s", mark_s);
    report.sample("worker_balance_pct", 100.0 * per(least as f64, most as f64));
    for (name, value) in [
        ("collections", out.collections),
        ("words_copied", words),
        ("steals", steals),
        ("frames_spliced", spliced),
        ("satb_enqueued", out.satb_enqueued),
        ("satb_drained", out.satb_drained),
        ("healed_stores", out.evac_healed_stores),
    ] {
        report.sample(name, value as f64);
    }
}

pub fn metrics(cells: &Cells, out: &mut Metrics) -> Vec<String> {
    let get = |name: &str| cell(cells, name);
    let (semi, gen, par, cms) = (get("semi"), get("gen"), get("par"), get("cms"));
    common(
        out,
        cells,
        &[semi.median("op_s"), gen.median("op_s")],
        &[par.median("op_s"), cms.median("op_s")],
        semi,
    );

    for (name, r) in [("semi", &semi), ("gen", &gen), ("par", &par), ("cms", &cms)] {
        let pauses = r.sampled("pause_us");
        out.set(&format!("{name}_run_ms"), r.median("op_s") * 1e3);
        if name != "gen" {
            out.set(&format!("{name}_pause_p95_us"), pauses.percentile(95.0));
        }
        let layer = format!("runtime.{name}");
        out.set(&format!("{layer}.collections"), r.median("collections"));
        out.set(&format!("{layer}.gc_share_pct"), 100.0 * per(r.median("gc_s"), r.median("op_s")));
        out.set(&format!("{layer}.pause_p50_us"), pauses.percentile(50.0));
        out.set(&format!("{layer}.pause_p99_us"), pauses.percentile(99.0));
        out.set(&format!("{layer}.words_copied"), r.median("words_copied"));
    }
    for (name, r) in [("semi", &semi), ("gen", &gen)] {
        let share = 100.0 * per(r.median("trace_s"), r.median("gc_s"));
        out.set(&format!("runtime.{name}.trace_share_pct"), share);
    }
    for key in ["frames_traced", "decode_ops", "decode_hits", "derived_updated", "roots_killed"] {
        out.set(&format!("runtime.semi.{key}"), semi.median(key));
    }
    let forced = get("semi-forced");
    for key in ["trace_only_us_per_event", "null_us_per_event", "full_us_per_event"] {
        out.set(&format!("runtime.semi.{key}"), forced.median(key));
    }

    let minor_share = 100.0 * per(gen.median("minor_collections"), gen.median("collections"));
    out.set("runtime.gen.minor_share_pct", minor_share);
    let p50 = |r: &Report, series: &str| r.sampled(series).percentile(50.0);
    out.set("runtime.gen.minor_pause_p50_us", p50(gen, "minor_pause_us"));
    out.set("runtime.gen.major_pause_p50_us", p50(gen, "major_pause_us"));
    for key in ["promoted_words", "barrier_executed", "barrier_recorded"] {
        out.set(&format!("runtime.gen.{key}"), gen.median(key));
    }

    out.set("runtime.par.handshake_p50_us", p50(par, "handshake_us"));
    out.set("runtime.par.copy_p50_us", p50(par, "copy_us"));
    for key in ["steals", "worker_balance_pct", "frames_spliced"] {
        out.set(&format!("runtime.par.{key}"), par.median(key));
    }
    out.set("runtime.par.pause_p50_us.w1", p50(get("par-w1"), "pause_us"));
    par_layer::metrics(out, par);

    out.set("runtime.cms.snapshot_pause_p50_us", p50(cms, "snapshot_pause_us"));
    out.set("runtime.cms.final_pause_p50_us", p50(cms, "final_pause_us"));
    out.set("runtime.cms.mark_concurrent_ms", cms.median("mark_concurrent_s") * 1e3);
    out.set("runtime.cms.satb_enqueued", cms.median("satb_enqueued"));
    out.set("runtime.cms.satb_drained", cms.median("satb_drained"));
    let evac = get("cms-evac");
    out.set("runtime.cms-evac.run_ms", evac.median("op_s") * 1e3);
    out.set("runtime.cms-evac.select_pause_p50_us", p50(evac, "select_pause_us"));
    out.set("runtime.cms-evac.final_pause_p50_us", p50(evac, "final_pause_us"));
    out.set("runtime.cms-evac.healed_stores", evac.median("healed_stores"));

    let (plain, traced) = (semi.median("op_s"), semi.median("traced_op_s"));
    out.set("harness.trace_overhead_pct", 100.0 * per(traced - plain, plain));
    Vec::new()
}
