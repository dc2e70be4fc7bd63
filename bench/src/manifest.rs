//! The benchmark's contract: metric names, units, directions and
//! bounds. `BENCHMARK.json` is rendered from this file (`ledger
//! manifest`) and `ledger check` holds the committed file and a fresh
//! result against it, so the three cannot drift apart.

use crate::json::{self, Value};
use crate::workloads::WORKLOADS;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u32 = 20;

/// The run command; the driver appends `--workload … --seed … --seconds
/// … --trace …` to it as it stands, so it ends with the `--` that makes
/// cargo hand those to `ledger` (without it cargo refuses them, exit 1).
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "bench/Cargo.toml",
    "--bin",
    "ledger",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["bench"];

/// An end-to-end metric: `(name, unit, better, bound)`. Every workload
/// reports every one of them, from the untraced run.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("seq_op_ms", "ms", "lower", 0.2),
    ("mt_op_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("code_bytes_per_line", "B/line", "lower", 0.05),
    ("table_pct_of_code", "%", "lower", 0.05),
];

/// A per-layer metric: `(name, unit, better)`. All come from the traced
/// run; a layer a workload does not exercise reports 0 there.
pub const PER_LAYER: [(&str, &str, &str); 119] = [
    // What a user of one workload sees, kept under the names the
    // issues use. They are per-layer here because the contract wants
    // every end-to-end metric on every workload.
    ("compile_klines_per_s", "klines/s", "higher"),
    ("code_bytes", "B", "lower"),
    ("table_bytes", "B", "lower"),
    ("interp_msteps_per_s", "Msteps/s", "higher"),
    ("jit_msteps_per_s", "Msteps/s", "higher"),
    ("semi_run_ms", "ms", "lower"),
    ("gen_run_ms", "ms", "lower"),
    ("par_run_ms", "ms", "lower"),
    ("cms_run_ms", "ms", "lower"),
    ("semi_pause_p95_us", "us", "lower"),
    ("par_pause_p95_us", "us", "lower"),
    ("cms_pause_p95_us", "us", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("latency_p99_us", "us", "lower"),
    // frontend
    ("frontend.lex_ms", "ms", "lower"),
    ("frontend.parse_ms", "ms", "lower"),
    ("frontend.typecheck_ms", "ms", "lower"),
    ("frontend.lower_ms", "ms", "lower"),
    ("frontend.tokens", "count", "lower"),
    ("frontend.ir_instrs", "count", "lower"),
    // opt
    ("opt.o2_ms", "ms", "lower"),
    ("opt.ir_instrs_after", "count", "lower"),
    // codegen
    ("codegen.o0_ms", "ms", "lower"),
    ("codegen.o2_ms", "ms", "lower"),
    ("codegen.gc_points", "count", "lower"),
    ("codegen.code_bytes_o0", "B", "lower"),
    // core
    ("core.encode_ms", "ms", "lower"),
    ("core.table_bytes.full-plain", "B", "lower"),
    ("core.table_bytes.full-packing", "B", "lower"),
    ("core.table_bytes.delta-plain", "B", "lower"),
    ("core.table_bytes.delta-previous", "B", "lower"),
    ("core.table_bytes.delta-packing", "B", "lower"),
    ("core.table_bytes.delta-pp", "B", "lower"),
    ("core.index_build_ms", "ms", "lower"),
    ("core.decode_all_ms", "ms", "lower"),
    ("core.decode_points", "count", "lower"),
    ("core.cache_warm_lookup_ns", "ns", "lower"),
    // vm
    ("vm.predecode_ms", "ms", "lower"),
    ("vm.load_ms", "ms", "lower"),
    ("vm.msteps_per_s.takl", "Msteps/s", "higher"),
    ("vm.msteps_per_s.fieldlist", "Msteps/s", "higher"),
    ("vm.msteps_per_s.typereg", "Msteps/s", "higher"),
    ("vm.par_msteps_per_s", "Msteps/s", "higher"),
    ("vm.par_alloc_mwords_per_s", "Mwords/s", "higher"),
    ("vm.tlab_refills", "count", "lower"),
    ("vm.tlab_waste_words", "words", "lower"),
    // jit
    ("jit.compile_ms", "ms", "lower"),
    ("jit.procs_compiled", "count", "higher"),
    ("jit.procs_fallback", "count", "lower"),
    ("jit.msteps_per_s.takl", "Msteps/s", "higher"),
    ("jit.msteps_per_s.fieldlist", "Msteps/s", "higher"),
    ("jit.msteps_per_s.typereg", "Msteps/s", "higher"),
    // runtime: the four collectors
    ("runtime.semi.collections", "count", "lower"),
    ("runtime.semi.gc_share_pct", "%", "lower"),
    ("runtime.semi.pause_p50_us", "us", "lower"),
    ("runtime.semi.pause_p99_us", "us", "lower"),
    ("runtime.semi.words_copied", "words", "lower"),
    ("runtime.gen.collections", "count", "lower"),
    ("runtime.gen.gc_share_pct", "%", "lower"),
    ("runtime.gen.pause_p50_us", "us", "lower"),
    ("runtime.gen.pause_p99_us", "us", "lower"),
    ("runtime.gen.words_copied", "words", "lower"),
    ("runtime.par.collections", "count", "lower"),
    ("runtime.par.gc_share_pct", "%", "lower"),
    ("runtime.par.pause_p50_us", "us", "lower"),
    ("runtime.par.pause_p99_us", "us", "lower"),
    ("runtime.par.words_copied", "words", "lower"),
    ("runtime.cms.collections", "count", "lower"),
    ("runtime.cms.gc_share_pct", "%", "lower"),
    ("runtime.cms.pause_p50_us", "us", "lower"),
    ("runtime.cms.pause_p99_us", "us", "lower"),
    ("runtime.cms.words_copied", "words", "lower"),
    ("runtime.semi.trace_share_pct", "%", "lower"),
    ("runtime.gen.trace_share_pct", "%", "lower"),
    ("runtime.semi.frames_traced", "count", "lower"),
    ("runtime.semi.decode_ops", "count", "lower"),
    ("runtime.semi.decode_hits", "count", "higher"),
    ("runtime.semi.derived_updated", "count", "lower"),
    ("runtime.semi.roots_killed", "count", "higher"),
    ("runtime.semi.trace_only_us_per_event", "us", "lower"),
    ("runtime.semi.null_us_per_event", "us", "lower"),
    ("runtime.semi.full_us_per_event", "us", "lower"),
    ("runtime.gen.minor_share_pct", "%", "higher"),
    ("runtime.gen.minor_pause_p50_us", "us", "lower"),
    ("runtime.gen.major_pause_p50_us", "us", "lower"),
    ("runtime.gen.promoted_words", "words", "lower"),
    ("runtime.gen.barrier_executed", "count", "lower"),
    ("runtime.gen.barrier_recorded", "count", "lower"),
    ("runtime.par.handshake_p50_us", "us", "lower"),
    ("runtime.par.copy_p50_us", "us", "lower"),
    ("runtime.par.steals", "count", "higher"),
    ("runtime.par.worker_balance_pct", "%", "higher"),
    ("runtime.par.frames_spliced", "count", "higher"),
    ("runtime.par.pause_p50_us.w1", "us", "lower"),
    ("runtime.cms.snapshot_pause_p50_us", "us", "lower"),
    ("runtime.cms.final_pause_p50_us", "us", "lower"),
    ("runtime.cms.mark_concurrent_ms", "ms", "lower"),
    ("runtime.cms.satb_enqueued", "count", "lower"),
    ("runtime.cms.satb_drained", "count", "lower"),
    ("runtime.cms-evac.run_ms", "ms", "lower"),
    ("runtime.cms-evac.select_pause_p50_us", "us", "lower"),
    ("runtime.cms-evac.final_pause_p50_us", "us", "lower"),
    ("runtime.cms-evac.healed_stores", "count", "lower"),
    // runtime: the serve executor
    ("runtime.serve.latency_p50_us", "us", "lower"),
    ("runtime.serve.latency_max_us", "us", "lower"),
    ("runtime.serve.pause_p50_us", "us", "lower"),
    ("runtime.serve.pause_p99_us", "us", "lower"),
    ("runtime.serve.collections", "count", "lower"),
    ("runtime.serve.forced_collections", "count", "lower"),
    ("runtime.serve.region_reclaim_ratio", "ratio", "higher"),
    ("runtime.serve.regions_zombied", "count", "lower"),
    ("runtime.serve.region_escapes", "count", "lower"),
    ("runtime.serve.alloc_mwords_per_s", "Mwords/s", "higher"),
    ("runtime.serve.msteps_per_s", "Msteps/s", "higher"),
    ("runtime.serve.requests_per_s.t1", "1/s", "higher"),
    // the harness itself
    ("harness.ops_attempted", "count", "higher"),
    ("harness.ops_failed", "count", "lower"),
    ("harness.trace_overhead_pct", "%", "lower"),
    ("harness.peak_rss_mb", "MB", "lower"),
];

/// `(name, unit)` of the metrics a run with `--trace trace` reports.
#[must_use]
pub fn metric_units(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    }
}

/// Renders `BENCHMARK.json`.
#[must_use]
pub fn render() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let strings = |items: &[&str]| {
        format!("[{}]", items.iter().map(|s| json::quote(s)).collect::<Vec<_>>().join(", "))
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": {},", strings(&COMMAND));
    let _ = writeln!(out, "  \"paths\": {},", strings(&PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", json::quote(w.name), json::quote(w.why)))
        .collect();
    let _ = writeln!(out, "  \"workloads\": {},", list(workloads));
    let end_to_end = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                json::quote(name),
                json::quote(unit),
                json::quote(better)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"end_to_end\": {},", list(end_to_end));
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::quote(name),
                json::quote(unit),
                json::quote(better)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"per_layer\": {}", list(per_layer));
    out.push_str("}\n");
    out
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn path_ok(path: &str) -> bool {
    !path.is_empty()
        && path.len() <= 200
        && !path.starts_with('/')
        && path.split('/').all(|part| part != "..")
        && path.chars().all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
}

fn expect_keys(v: &Value, keys: &[&str], what: &str, errors: &mut Vec<String>) {
    if v.keys() != keys {
        errors
            .push(format!("{what}: keys are {:?}, the contract wants exactly {keys:?}", v.keys()));
    }
}

/// Checks a manifest against the builder's contract and against this
/// file. `root` is the directory the `paths` are relative to.
#[must_use]
pub fn check_manifest(text: &str, root: &std::path::Path) -> Vec<String> {
    let mut errors = Vec::new();
    if text.len() > 64 * 1024 {
        errors.push(format!("BENCHMARK.json is {} bytes, over 64 KiB", text.len()));
    }
    let manifest = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return vec![e],
    };
    // No other key: in particular no `claim`, which the issue asked for
    // and the contract's exact key set rules out.
    expect_keys(
        &manifest,
        &["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
        "BENCHMARK.json",
        &mut errors,
    );
    let array = |key: &str| manifest.get(key).and_then(Value::as_array).unwrap_or(&[]);
    let text_of =
        |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_string();

    let command: Vec<String> =
        array("command").iter().map(|v| v.as_str().unwrap_or("").to_string()).collect();
    if command.is_empty() || command.len() > 32 || command.iter().any(|s| s.len() > 200) {
        errors.push("command: 1 to 32 strings of at most 200 characters".to_string());
    }
    for arg in &command {
        let inside = PATHS.iter().any(|p| arg.starts_with(&format!("{p}/")));
        if arg.starts_with('/') || arg.split('/').any(|part| part == "..") {
            errors.push(format!("command: `{arg}` leaves the checkout"));
        } else if arg.contains('/') && !inside {
            errors.push(format!("command: `{arg}` names a file outside `paths`"));
        }
    }
    if command.first().is_some_and(|c| c == "cargo") && command.last().is_none_or(|c| c != "--") {
        errors.push("command: a cargo command must end with `--`, the driver appends flags".into());
    }
    let paths = array("paths");
    if paths.is_empty() || paths.len() > 16 {
        errors.push("paths: 1 to 16 directories".to_string());
    }
    for p in paths {
        let p = p.as_str().unwrap_or("");
        if !path_ok(p) {
            errors.push(format!("paths: `{p}` is not a plain relative path"));
        } else if !root.join(p).is_dir() {
            errors.push(format!("paths: `{p}` does not exist under {}", root.display()));
        }
    }
    match manifest.get("run_seconds").and_then(Value::as_f64) {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {}
        other => errors.push(format!("run_seconds: {other:?} is not a whole number from 1 to 60")),
    }

    let mut names = BTreeSet::new();
    let mut name = |v: &Value, what: &str, errors: &mut Vec<String>| {
        let n = text_of(v, "name");
        if !name_ok(&n) {
            errors.push(format!("{what}: name `{n}` is not [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"));
        }
        if !names.insert(n.clone()) {
            errors.push(format!("{what}: name `{n}` is used twice"));
        }
        n
    };
    let workloads = array("workloads");
    if !(2..=8).contains(&workloads.len()) {
        errors.push(format!("workloads: {} is not 2 to 8", workloads.len()));
    }
    for w in workloads {
        expect_keys(w, &["name", "why"], "workload", &mut errors);
        name(w, "workload", &mut errors);
        let why = text_of(w, "why");
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            errors
                .push(format!("workload why: {} characters, not one line of 1 to 200", why.len()));
        }
    }
    let end_to_end = array("end_to_end");
    if !(1..=16).contains(&end_to_end.len()) {
        errors.push(format!("end_to_end: {} is not 1 to 16", end_to_end.len()));
    }
    let mut setup_seen = false;
    for m in end_to_end {
        expect_keys(m, &["name", "unit", "better", "bound"], "end_to_end metric", &mut errors);
        let n = name(m, "end_to_end", &mut errors);
        let (unit, better) = (text_of(m, "unit"), text_of(m, "better"));
        if !unit_ok(&unit) {
            errors.push(format!("end_to_end {n}: unit `{unit}`"));
        }
        if better != "lower" && better != "higher" {
            errors.push(format!("end_to_end {n}: better `{better}`"));
        }
        match m.get("bound").and_then(Value::as_f64) {
            Some(b) if (0.0..=0.25).contains(&b) => {}
            other => {
                errors.push(format!("end_to_end {n}: bound {other:?} is not within 0 to 0.25"))
            }
        }
        setup_seen |= n == "setup_s" && unit == "s" && better == "lower";
    }
    if !setup_seen {
        errors.push("end_to_end: no `setup_s` with unit `s` and better `lower`".to_string());
    }
    let per_layer = array("per_layer");
    if !(1..=128).contains(&per_layer.len()) {
        errors.push(format!("per_layer: {} is not 1 to 128", per_layer.len()));
    }
    for m in per_layer {
        expect_keys(m, &["name", "unit", "better"], "per_layer metric", &mut errors);
        let n = name(m, "per_layer", &mut errors);
        if !unit_ok(&text_of(m, "unit")) {
            errors.push(format!("per_layer {n}: unit `{}`", text_of(m, "unit")));
        }
        let better = text_of(m, "better");
        if better != "lower" && better != "higher" {
            errors.push(format!("per_layer {n}: better `{better}`"));
        }
    }
    if errors.is_empty() && json::parse(&render()).as_ref() != Ok(&manifest) {
        errors.push(
            "BENCHMARK.json differs from what `ledger manifest` renders: regenerate it".to_string(),
        );
    }
    errors
}

/// Checks the last line a run printed: exactly the contract's keys,
/// and exactly the manifest's metrics for that `--trace`, each a
/// finite number with the manifest's unit.
#[must_use]
pub fn check_result(line: &str, trace: bool) -> Vec<String> {
    let mut errors = Vec::new();
    let result = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return vec![format!("result line: {e}")],
    };
    expect_keys(&result, &["correct", "attempted", "failed", "metrics"], "result", &mut errors);
    if !matches!(result.get("correct"), Some(Value::Bool(_))) {
        errors.push("result: `correct` is not a boolean".to_string());
    }
    let whole = |key: &str| result.get(key).and_then(Value::as_f64).filter(|n| n.fract() == 0.0);
    if whole("attempted").is_none_or(|n| n < 1.0) {
        errors.push("result: `attempted` is not a whole number of at least 1".to_string());
    }
    if whole("failed").is_none_or(|n| n < 0.0) {
        errors.push("result: `failed` is not a whole number".to_string());
    }
    let metrics = result.get("metrics").cloned().unwrap_or(Value::Null);
    let wanted = metric_units(trace);
    let got: BTreeSet<&str> = metrics.keys().into_iter().collect();
    let want: BTreeSet<&str> = wanted.iter().map(|m| m.0).collect();
    for missing in want.difference(&got) {
        errors.push(format!("result: metric `{missing}` is missing"));
    }
    for extra in got.difference(&want) {
        errors.push(format!("result: metric `{extra}` is not in the manifest"));
    }
    for (name, unit) in wanted {
        let Some(m) = metrics.get(name) else { continue };
        expect_keys(m, &["value", "unit"], name, &mut errors);
        if m.get("unit").and_then(Value::as_str) != Some(unit) {
            errors.push(format!("result: `{name}` has unit {:?}, not `{unit}`", m.get("unit")));
        }
        if !m.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite) {
            errors.push(format!("result: `{name}` has no finite value"));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().to_path_buf()
    }

    #[test]
    fn rendered_manifest_meets_the_contract() {
        assert_eq!(check_manifest(&render(), &root()), Vec::<String>::new());
    }

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let committed = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
        assert_eq!(check_manifest(&committed, &root()), Vec::<String>::new());
    }

    #[test]
    fn check_names_each_broken_rule() {
        let broken = |from: &str, to: &str| {
            let text = render().replacen(from, to, 1);
            assert_ne!(text, render(), "`{from}` not found");
            check_manifest(&text, &root()).join("\n")
        };
        assert!(broken("\"command\"", "\"claim\": null, \"command\"").contains("exactly"));
        assert!(broken("\"seq_op_ms\"", "\"seq op\"").contains("seq op"));
        assert!(broken("\"bound\": 0.25", "\"bound\": 0.5").contains("0 to 0.25"));
        assert!(broken("\"setup_s\"", "\"set_s\"").contains("no `setup_s`"));
        assert!(broken("[\"bench\"]", "[\"benchmarks\"]").contains("does not exist"));
        assert!(broken("\"mt_op_ms\"", "\"seq_op_ms\"").contains("used twice"));
        assert!(broken("\"unit\": \"ms\"", "\"unit\": \"milli seconds\"").contains("unit"));
        assert!(broken("bench/Cargo.toml", "../bench/Cargo.toml").contains("leaves the checkout"));
        assert!(broken("bench/Cargo.toml", "crates/bench/Cargo.toml").contains("outside `paths`"));
        assert!(broken("\"lower\"", "\"smaller\"").contains("better"));
        assert!(broken("\"ledger\", \"--\"]", "\"ledger\"]").contains("end with `--`"));
        assert!(broken("\"run_seconds\": 20", "\"run_seconds\": 90").contains("run_seconds"));
        assert!(broken("0.05", "0.06").contains("regenerate"));
    }

    #[test]
    fn result_lines_are_held_to_the_manifest() {
        let metrics = |units: Vec<(&str, &str)>| {
            units
                .iter()
                .map(|(n, u)| format!("\"{n}\": {{\"value\": 1.5, \"unit\": \"{u}\"}}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let line = |m: String| {
            format!("{{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{{m}}}}}")
        };
        assert_eq!(check_result(&line(metrics(metric_units(false))), false), Vec::<String>::new());
        assert_eq!(check_result(&line(metrics(metric_units(true))), true), Vec::<String>::new());
        let errors = check_result(&line(metrics(metric_units(false))), true).join("\n");
        assert!(errors.contains("`setup_s` is not in the manifest"), "{errors}");
        assert!(errors.contains("`harness.ops_failed` is missing"), "{errors}");
        let no_ops =
            line(metrics(metric_units(false))).replace("\"attempted\": 3", "\"attempted\": 0");
        assert!(check_result(&no_ops, false).join("\n").contains("at least 1"));
    }
}
