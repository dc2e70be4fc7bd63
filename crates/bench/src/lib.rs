//! Regenerates every table and figure of the paper's evaluation (§6).
//!
//! The four benchmark programs are the paper's: `typereg` (type
//! registration with structural equivalence), `FieldList` (shell command
//! parsing), `takl` (Takeuchi over lists) and `destroy` (tree
//! build/replace, gc-intensive). Each is compiled unoptimized and
//! optimized, with full gc support.
//!
//! Binaries (see DESIGN.md's experiment index):
//!
//! * `table1` — program statistics (Size, NGC, NPTRS, NDEL, NREG, NDER);
//! * `table2` — table sizes as a percentage of code size under all six
//!   encoding schemes, plus the pc-map 1-vs-2-byte ablation (A3);
//! * `effects` — §6.2: instruction-level diff between compiles with gc
//!   support on and off;
//! * `timings` — §6.3: stack-trace time vs total collection time on
//!   `destroy`, per collection and per frame;
//! * `pathstrat` — Figure 2: path variables vs path splitting;
//! * `loopgc` — ablation A2: loop gc-points on/off.

use m3gc_compiler::{compile, Options};
use m3gc_core::encode::Scheme;
use m3gc_core::pcmap::{pcmap_cost, PcMapCost};
use m3gc_core::stats::{size_report, table_stats, SizeReport, TableStats};
use m3gc_vm::VmModule;

/// The paper's benchmark programs, as (name, Mini-M3 source).
pub const PROGRAMS: [(&str, &str); 4] = [
    ("typereg", include_str!("../programs/typereg.m3")),
    ("FieldList", include_str!("../programs/fieldlist.m3")),
    ("takl", include_str!("../programs/takl.m3")),
    ("destroy", include_str!("../programs/destroy.m3")),
];

/// Looks up a benchmark source by name.
///
/// # Panics
///
/// Panics if the name is unknown.
#[must_use]
pub fn program(name: &str) -> &'static str {
    PROGRAMS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}`"))
        .1
}

/// Compiles a benchmark at the given optimization setting (with full gc
/// support, the paper's configuration).
///
/// # Panics
///
/// Panics if the program does not compile (the sources are fixed).
#[must_use]
pub fn compile_benchmark(source: &str, optimized: bool) -> VmModule {
    let opts = if optimized { Options::o2() } else { Options::o0() };
    compile(source, &opts).unwrap_or_else(|e| panic!("benchmark does not compile: {e}"))
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Program name (`-opt` suffix when optimized).
    pub name: String,
    /// Code size in bytes.
    pub size: usize,
    /// Table statistics (NGC, NPTRS, NDEL, NREG, NDER).
    pub stats: TableStats,
}

/// Computes Table 1: statistics for each benchmark, unoptimized and
/// optimized.
#[must_use]
pub fn table1() -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for (name, src) in PROGRAMS {
        for optimized in [false, true] {
            let module = compile_benchmark(src, optimized);
            let suffix = if optimized { "-opt" } else { "" };
            rows.push(Table1Row {
                name: format!("{name}{suffix}"),
                size: module.code_size(),
                stats: table_stats(&module.logical_maps),
            });
        }
    }
    rows
}

/// One row of Table 2: size reports for the six schemes, in the paper's
/// column order (FullInfo {Plain, Packing}, δ-main {Plain, Previous,
/// Packing, PP}).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Program name.
    pub name: String,
    /// Code size in bytes.
    pub code_size: usize,
    /// Reports in [`Scheme::TABLE2`] order.
    pub reports: Vec<SizeReport>,
    /// pc-map cost ablation (A3).
    pub pcmap: PcMapCost,
}

/// Computes Table 2.
#[must_use]
pub fn table2() -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for (name, src) in PROGRAMS {
        for optimized in [false, true] {
            let module = compile_benchmark(src, optimized);
            let suffix = if optimized { "-opt" } else { "" };
            let code = module.code_size();
            let reports = Scheme::TABLE2
                .iter()
                .map(|&s| size_report(&module.logical_maps, s, code))
                .collect();
            rows.push(Table2Row {
                name: format!("{name}{suffix}"),
                code_size: code,
                reports,
                pcmap: pcmap_cost(&module.logical_maps),
            });
        }
    }
    rows
}

/// Expected outputs of the benchmark programs (used by tests and the
/// runner to validate every configuration).
#[must_use]
pub fn expected_output(name: &str) -> &'static str {
    match name {
        "typereg" => "7 113\n",
        "FieldList" => "315 75\n",
        "takl" => "7\n",
        "destroy" => "1093 3493\n",
        other => panic!("unknown benchmark `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3gc_compiler::{reference_output, run_module};

    #[test]
    fn benchmarks_compile_both_ways() {
        for (name, src) in PROGRAMS {
            let m0 = compile_benchmark(src, false);
            let m2 = compile_benchmark(src, true);
            assert!(m0.code_size() > 0 && m2.code_size() > 0, "{name}");
            assert!(!m0.logical_maps.procs.is_empty(), "{name} has gc tables");
            assert!(!m2.logical_maps.procs.is_empty(), "{name}-opt has gc tables");
        }
    }

    #[test]
    fn reference_outputs_are_stable() {
        for (name, src) in PROGRAMS {
            let out = reference_output(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(out, expected_output(name), "{name}");
        }
    }

    #[test]
    fn benchmarks_run_on_the_vm_with_gc() {
        for (name, src) in PROGRAMS {
            // Heaps sized to force several collections per program.
            let semi = match name {
                "destroy" => 16 * 1024,
                _ => 8 * 1024,
            };
            for optimized in [false, true] {
                let module = compile_benchmark(src, optimized);
                let out = run_module(module, semi)
                    .unwrap_or_else(|e| panic!("{name} (opt={optimized}): {e}"));
                assert_eq!(out.output, expected_output(name), "{name} opt={optimized}");
            }
        }
    }

    #[test]
    fn destroy_actually_collects() {
        let module = compile_benchmark(program("destroy"), true);
        let out = run_module(module, 8 * 1024).unwrap();
        assert!(out.collections >= 3, "destroy should be gc-intensive, got {}", out.collections);
        assert_eq!(out.output, expected_output("destroy"));
    }

    #[test]
    fn table1_has_eight_rows_with_tables() {
        let rows = table1();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.size > 0);
            assert!(r.stats.ngc > 0, "{} has gc-points", r.name);
            assert!(r.stats.nptrs > 0, "{} has pointers", r.name);
        }
    }

    #[test]
    fn table2_compression_shape_matches_paper() {
        // PP must always be the smallest δ-main variant, and packing must
        // always shrink full-info.
        for row in table2() {
            let pct: Vec<f64> = row.reports.iter().map(|r| r.percent_of_code).collect();
            let (full_plain, full_pack, d_plain, d_prev, d_pack, d_pp) =
                (pct[0], pct[1], pct[2], pct[3], pct[4], pct[5]);
            assert!(full_pack < full_plain, "{}: packing shrinks full-info", row.name);
            assert!(d_pack < d_plain, "{}: packing shrinks delta-main", row.name);
            assert!(d_prev <= d_plain, "{}: previous never grows", row.name);
            assert!(d_pp <= d_pack && d_pp <= d_prev, "{}: PP is smallest", row.name);
        }
    }
}
