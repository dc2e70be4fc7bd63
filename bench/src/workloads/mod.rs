//! The four workloads. Each is a set of **cells** — one configuration,
//! run as a closed loop of ops, one child process per op — plus the set-up
//! that makes the reference outcomes and the arithmetic that turns the
//! cells' reports into metrics.

use crate::cell::CellCtx;
use crate::constants::Scale;
use crate::report::Report;
use crate::stats::geomean;
use std::collections::BTreeMap;

pub mod compile;
pub mod gc;
pub mod mutator;
pub mod serve;

/// A workload: its name, why it was chosen (both go into the
/// manifest), and the four things the harness asks of it.
#[derive(Debug)]
pub struct Workload {
    /// Name, as in `--workload`.
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
    /// Makes the reference outcomes (timed as `setup_s`).
    pub setup: fn(&Scale, u64) -> Vec<String>,
    /// The cells in run order. A traced run may add the side cells only
    /// per-layer metrics need.
    pub cells: fn(bool) -> Vec<CellPlan>,
    /// Runs one op of a cell in this process (the child side).
    pub run_cell: fn(&str, &CellCtx) -> Report,
    /// Turns the cells' reports into metrics; returns cross-cell
    /// failures (e.g. interpreter and JIT step counts that differ).
    pub metrics: fn(&Cells, &mut Metrics) -> Vec<String>,
}

/// The workloads, in manifest order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "compile-corpus",
        why: "4 paper programs + 256 fuzz programs (32 drawn from the seed) at o0 and o2: only \
              frontend/opt/codegen/core work, so a runtime change must leave it flat",
        setup: compile::setup,
        cells: compile::cells,
        run_cell: compile::run_cell,
        metrics: compile::metrics,
    },
    Workload {
        name: "mutator-calls",
        why: "takl, FieldList and typereg at scale, interpreted and jitted, on a roomy heap: \
              dispatch and the JIT do the work, the collectors under 1 %",
        setup: mutator::setup,
        cells: mutator::cells,
        run_cell: mutator::run_cell,
        metrics: mutator::metrics,
    },
    Workload {
        name: "gc-destroy",
        why: "destroy on heaps barely above its live set under semi/gen/par/cms: collectors, root \
              scan, table decode and derived-pointer fixup do most of the work",
        setup: gc::setup,
        cells: gc::cells,
        run_cell: gc::run_cell,
        metrics: gc::metrics,
    },
    Workload {
        name: "serve-requests",
        why: "request handler over ParMachine with per-request regions: O(1) region reset instead \
              of tracing, barrier escapes, multi-mutator handshakes",
        setup: serve::setup,
        cells: serve::cells,
        run_cell: serve::run_cell,
        metrics: serve::metrics,
    },
];

/// The workload called `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One cell of a workload and its share of the run. The parent runs
/// the cell one op per child process, over and over, for its share:
/// every op meets a fresh address-space layout (run-to-run layout luck
/// moves the interpreter by 25 % on the host this was written on, and a
/// median over ops in one process would inherit that process's luck),
/// and an op that hangs or poisons its process takes nothing with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellPlan {
    /// Cell name (unique within the workload).
    pub name: &'static str,
    /// Share of `--seconds` the cell's ops get; a workload's shares
    /// add up to 1.
    pub share: f64,
}

impl CellPlan {
    /// A cell with its share of the run.
    #[must_use]
    pub const fn new(name: &'static str, share: f64) -> CellPlan {
        CellPlan { name, share }
    }
}

/// Metric values by name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// Reports of a workload's cells, by cell name.
pub type Cells = BTreeMap<String, Report>;

/// Report of `cell`, or an empty one if the cell did not run.
#[must_use]
pub fn cell<'a>(cells: &'a Cells, name: &str) -> &'a Report {
    static EMPTY: Report =
        Report { series: BTreeMap::new(), attempted: 0, failures: Vec::new(), spans: Vec::new() };
    cells.get(name).unwrap_or(&EMPTY)
}

/// `a / b`, or `0` when there is nothing to divide by.
#[must_use]
pub fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Self time of the spans called `name`, ms, from
/// [`crate::span::self_time_by_name`].
#[must_use]
pub fn layer_ms(self_ns: &BTreeMap<String, u64>, name: &str) -> f64 {
    self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
}

/// The end-to-end metrics every workload has: the geometric mean of
/// its single-threaded cells' median op times and of its
/// multi-threaded cells', the largest child's peak memory, and the
/// size of the code and gc tables compiled for it, as exact counts
/// (per-layer) and per line (`sizes` is the report that counted
/// `lines`, `code_bytes` and `table_bytes`).
pub fn common(
    out: &mut Metrics,
    cells: &Cells,
    seq_ops_s: &[f64],
    mt_ops_s: &[f64],
    sizes: &Report,
) {
    out.set("seq_op_ms", geomean(seq_ops_s) * 1e3);
    out.set("mt_op_ms", geomean(mt_ops_s) * 1e3);
    let peak_kb =
        cells.values().map(|r| r.sampled("peak_rss_kb").percentile(100.0)).fold(0.0, f64::max);
    out.set("peak_rss_mb", peak_kb / 1024.0);
    let (code, tables) = (sizes.median("code_bytes"), sizes.median("table_bytes"));
    out.set("code_bytes", code);
    out.set("table_bytes", tables);
    out.set("code_bytes_per_line", per(code, sizes.median("lines")));
    out.set("table_pct_of_code", 100.0 * per(tables, code));
}

/// The parallel machine's own counters, wherever a cell ran it.
pub mod par_layer {
    use super::{per, Metrics};
    use crate::report::Report;
    use m3gc_runtime::ParOutcome;

    /// Records one op's counters.
    pub fn record(report: &mut Report, stats: &ParOutcome) {
        report.sample("steps", stats.steps as f64);
        report.sample("words_allocated", stats.words_allocated as f64);
        report.sample("tlab_refills", stats.tlab_refills as f64);
        report.sample("tlab_waste_words", stats.tlab_waste_words as f64);
    }

    /// `vm.par_*` and `vm.tlab_*` from a cell that called [`record`].
    pub fn metrics(out: &mut Metrics, report: &Report) {
        let op_s = report.median("op_s");
        out.set("vm.par_msteps_per_s", per(report.median("steps") / 1e6, op_s));
        out.set("vm.par_alloc_mwords_per_s", per(report.median("words_allocated") / 1e6, op_s));
        out.set("vm.tlab_refills", report.median("tlab_refills"));
        out.set("vm.tlab_waste_words", report.median("tlab_waste_words"));
    }
}
