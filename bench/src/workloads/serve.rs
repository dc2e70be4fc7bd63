//! `serve-requests`: the allocation-service handler over the parallel
//! machine with one region per request. The same layers as the other
//! workloads, used differently: `ParMachine` dispatch instead of
//! `Machine`, allocation reclaimed by O(1) region reset instead of by
//! tracing, barrier stores that escape, multi-mutator handshakes — so a
//! gain for the sequential twin that costs the parallel one shows here.

use super::{cell, common, per, CellPlan, Cells, Metrics};
use crate::cell::{check_outcome, guarded, reference, CellCtx};
use crate::constants::{
    host_threads, Scale, FUEL, SERVE_BURST, SERVE_GREEN_PER_THREAD, SERVE_HEAP_WORDS,
    SERVE_REGION_WORDS, SERVE_STACK_WORDS,
};
use crate::inputs::{serve, serve_offset};
use crate::report::Report;
use crate::runs::run_serve;
use crate::span::Recorder;
use m3gc_runtime::{GcStrategy, RuntimeOptions, ServeLoad, ServeStats};

pub fn cells(_trace: bool) -> Vec<CellPlan> {
    vec![CellPlan::new("tN", 0.55), CellPlan::new("t1", 0.45)]
}

/// The reference runs the module body: one request per residue of the
/// request id, one checksum line each.
pub fn setup(scale: &Scale, seed: u64) -> Vec<String> {
    vec![reference(&serve(scale, seed).source, u64::MAX)]
}

pub fn run_cell(cell: &str, ctx: &CellCtx) -> Report {
    match cell {
        "t1" => serve_cell(ctx, cell, 1),
        "tN" => serve_cell(ctx, cell, host_threads()),
        other => panic!("serve-requests has no cell `{other}`"),
    }
}

/// What the `requests` replies must concatenate to, from the
/// reference's line per residue.
fn expected_replies(ctx: &CellCtx) -> String {
    let lines: Vec<&str> = ctx.expected[0].trim_start_matches("ok ").lines().collect();
    let (offset, period) = (serve_offset(&ctx.scale, ctx.seed) as u64, lines.len() as u64);
    let mut out = String::from("ok ");
    for id in 0..ctx.scale.serve_requests {
        out.push_str(lines[((id + offset) % period.max(1)) as usize]);
        out.push('\n');
    }
    out
}

/// One op is one repetition: compile the handler and serve
/// `serve_requests` requests, every reply checked.
fn serve_cell(ctx: &CellCtx, name: &str, threads: usize) -> Report {
    let program = serve(&ctx.scale, ctx.seed);
    let expected = expected_replies(ctx);
    let options = RuntimeOptions::new()
        .strategy(GcStrategy::Parallel)
        .semi_words(SERVE_HEAP_WORDS)
        .stack_words(SERVE_STACK_WORDS)
        .serve(SERVE_REGION_WORDS, threads * SERVE_GREEN_PER_THREAD)
        .threads(threads)
        .gc_workers(threads)
        .fuel(FUEL);
    let load = ServeLoad {
        requests: ctx.scale.serve_requests,
        burst: SERVE_BURST,
        entry: Some("Handle".to_string()),
    };
    let mut report = Report::default();
    let mut rec = Recorder::new(ctx.trace);
    let one = |report: &mut Report, rec: &mut Recorder, series: &str| {
        let what = format!("serve-requests {name} seed {}", ctx.seed);
        guarded(report, &what, ctx.scale.serve_requests, |report| {
            let op = run_serve(rec, &program.source, options, load.clone())?;
            check_outcome(&op.outcome, &expected)?;
            if series != "op_s" {
                report.sample(series, op.wall_s);
                return Ok(());
            }
            report.sample("code_bytes", op.code_bytes as f64);
            report.sample("table_bytes", op.table_bytes as f64);
            report.sample("lines", program.lines() as f64);
            record(report, op.wall_s, &op.stats.expect("an ok outcome has stats").stats);
            Ok(())
        });
    };
    one(&mut report, &mut Recorder::new(false), "op_s");
    if ctx.trace {
        rec.set_op(1);
        one(&mut report, &mut rec, "traced_op_s");
    }
    report.spans = rec.into_spans();
    report
}

fn record(report: &mut Report, wall_s: f64, s: &ServeStats) {
    report.sample("op_s", wall_s);
    // Source text in to last reply out: the compile is inside.
    report.sample("requests_per_s", per(s.requests as f64, wall_s));
    for (series, value) in [
        ("latency_p50_us", s.latency_p50_us),
        ("latency_p99_us", s.latency_p99_us),
        ("latency_max_us", s.latency_max_us),
        ("pause_p50_us", s.pause_p50_us),
        ("pause_p99_us", s.pause_p99_us),
        ("collections", s.collections),
        ("forced_collections", s.forced_collections),
        ("regions_zombied", s.regions_zombied),
        ("region_escapes", s.region_escapes),
    ] {
        report.sample(series, value as f64);
    }
    report.sample("region_reclaim_ratio", s.region_reclaim_ratio());
    report.sample("alloc_mwords_per_s", s.alloc_words_per_sec / 1e6);
    report.sample("msteps_per_s", per(s.steps as f64 / 1e6, s.elapsed.as_secs_f64()));
}

pub fn metrics(cells: &Cells, out: &mut Metrics) -> Vec<String> {
    let (t1, tn) = (cell(cells, "t1"), cell(cells, "tN"));
    common(out, cells, &[t1.median("op_s")], &[tn.median("op_s")], tn);
    out.set("requests_per_s", tn.median("requests_per_s"));
    out.set("latency_p99_us", tn.median("latency_p99_us"));
    for series in [
        "latency_p50_us",
        "latency_max_us",
        "pause_p50_us",
        "pause_p99_us",
        "collections",
        "forced_collections",
        "region_reclaim_ratio",
        "regions_zombied",
        "region_escapes",
        "alloc_mwords_per_s",
        "msteps_per_s",
    ] {
        // Median over the repetitions, as for the end-to-end pair above.
        out.set(&format!("runtime.serve.{series}"), tn.median(series));
    }
    out.set("runtime.serve.requests_per_s.t1", t1.median("requests_per_s"));
    // The parallel machine's own rates, as this workload drives it
    // (regions stand in for TLABs, so the tlab counters stay 0).
    out.set("vm.par_msteps_per_s", tn.median("msteps_per_s"));
    out.set("vm.par_alloc_mwords_per_s", tn.median("alloc_mwords_per_s"));
    let (plain, traced) = (t1.median("op_s"), t1.median("traced_op_s"));
    out.set("harness.trace_overhead_pct", 100.0 * per(traced - plain, plain));
    Vec::new()
}
