//! `compile-corpus`: the four paper programs and a seeded fuzz corpus,
//! each compiled at `o0` and `o2`. Only frontend, opt, codegen and core
//! run inside the timed window; vm, jit and runtime do nothing there, so
//! a runtime change must leave this workload flat.

use super::{cell, common, layer_ms, per, CellPlan, Cells, Metrics};
use crate::cell::{check_outcome, guarded, outcome_of, reference, CellCtx};
use crate::constants::{host_threads, Scale};
use crate::inputs::{corpus, Program};
use crate::report::Report;
use crate::span::{self_time_by_name, Recorder};
use m3gc_compiler::{compile, Options};
use m3gc_core::decode::{DecodeCache, DecoderIndex, TableDecoder};
use m3gc_core::encode::{encode_module, Scheme};
use m3gc_runtime::{Executor, RuntimeOptions};
use m3gc_vm::VmModule;
use std::hint::black_box;
use std::time::Instant;

/// The six encodings of the paper's Table 2, by metric suffix.
pub const SCHEMES: [(&str, Scheme); 6] = [
    ("full-plain", Scheme::FULL_PLAIN),
    ("full-packing", Scheme::FULL_PACKED),
    ("delta-plain", Scheme::DELTA_PLAIN),
    ("delta-previous", Scheme::DELTA_PREVIOUS),
    ("delta-packing", Scheme::DELTA_PACKED),
    ("delta-pp", Scheme::DELTA_MAIN_PP),
];

/// Programs of the corpus that are only compiled here; their outputs
/// are checked by the workloads that run them at scale.
const PAPER_PROGRAMS: usize = 4;

pub fn cells(_trace: bool) -> Vec<CellPlan> {
    vec![CellPlan::new("mt", 0.35), CellPlan::new("seq", 0.65)]
}

/// Reference outcome of every fuzz program of the corpus.
pub fn setup(scale: &Scale, seed: u64) -> Vec<String> {
    corpus(scale, seed)
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if i < PAPER_PROGRAMS {
                "skip checked by the workloads that run it".to_string()
            } else {
                reference(&p.source, m3gc_ir::interp::DEFAULT_FUEL)
            }
        })
        .collect()
}

fn levels() -> [(&'static str, Options); 2] {
    [
        ("o0", Options::o0().with_scheme(Scheme::DELTA_MAIN_PP)),
        ("o2", Options::o2().with_scheme(Scheme::DELTA_MAIN_PP)),
    ]
}

fn compile_all(programs: &[&Program], options: &Options) -> Vec<VmModule> {
    programs
        .iter()
        .map(|p| compile(&p.source, options).unwrap_or_else(|d| panic!("{}: {d}", p.name)))
        .collect()
}

pub fn run_cell(cell: &str, ctx: &CellCtx) -> Report {
    let programs = corpus(&ctx.scale, ctx.seed);
    match cell {
        "seq" => seq(ctx, &programs),
        "mt" => mt(ctx, &programs),
        other => panic!("compile-corpus has no cell `{other}`"),
    }
}

/// FNV-1a over every module's code and encoded tables: equal across
/// passes only if the compiler is deterministic.
fn fingerprint(modules: &[Vec<VmModule>; 2]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for m in modules.iter().flatten() {
        for &b in m.code.iter().chain(&m.gc_maps.bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One pass on one thread: `o0` then `o2` over the whole corpus.
fn seq(ctx: &CellCtx, programs: &[Program]) -> Report {
    let mut report = Report::default();
    let all: Vec<&Program> = programs.iter().collect();
    let what = format!("compile-corpus seq seed {}", ctx.seed);
    guarded(&mut report, &what, all.len() as u64, |report| {
        let t0 = Instant::now();
        let o0 = compile_all(&all, &levels()[0].1);
        let t1 = Instant::now();
        let o2 = compile_all(&all, &levels()[1].1);
        let t2 = Instant::now();
        report.sample("o0_s", (t1 - t0).as_secs_f64());
        report.sample("o2_s", (t2 - t1).as_secs_f64());
        report.sample("pass_s", (t2 - t0).as_secs_f64());
        let modules = [o0, o2];

        report.sample("programs", programs.len() as f64);
        report.sample("lines", programs.iter().map(Program::lines).sum::<usize>() as f64);
        let bytes = |set: &[VmModule]| set.iter().map(VmModule::code_size).sum::<usize>() as f64;
        report.sample("code_bytes_o0", bytes(&modules[0]));
        report.sample("code_bytes", bytes(&modules[1]));
        let tables: usize = modules[1].iter().map(|m| m.gc_maps.bytes.len()).sum();
        report.sample("table_bytes", tables as f64);
        // Sizes are counts only if two compiles agree byte for byte;
        // the parent compares the passes' fingerprints (in two halves:
        // a series holds f64s).
        let print = fingerprint(&modules);
        report.sample("fingerprint_hi", (print >> 32) as f64);
        report.sample("fingerprint_lo", (print & 0xffff_ffff) as f64);
        verify(ctx, programs, &modules, report);

        if ctx.trace {
            let mut rec = Recorder::new(true);
            let t0 = Instant::now();
            staged_pass(&mut rec, &all, report);
            report.sample("traced_pass_s", t0.elapsed().as_secs_f64());
            core_layer(&mut rec, &modules[1], report);
            report.spans = rec.into_spans();
        }
        Ok(())
    });
    report
}

/// One pass on `host_threads()` threads, each compiling every n-th
/// program at both levels: what a build system driving the compiler
/// library sees.
fn mt(ctx: &CellCtx, programs: &[Program]) -> Report {
    let mut report = Report::default();
    let threads = host_threads();
    let shares: Vec<Vec<&Program>> =
        (0..threads).map(|t| programs.iter().skip(t).step_by(threads).collect()).collect();
    let what = format!("compile-corpus mt seed {}", ctx.seed);
    guarded(&mut report, &what, programs.len() as u64, |report| {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for share in &shares {
                s.spawn(move || {
                    for (_, options) in levels() {
                        black_box(compile_all(share, &options));
                    }
                });
            }
        });
        report.sample("pass_s", t0.elapsed().as_secs_f64());
        report.sample("lines", programs.iter().map(Program::lines).sum::<usize>() as f64);
        Ok(())
    });
    report
}

/// Runs every compiled fuzz program and compares it with the
/// reference. Untimed and outside every span: the vm is not part of
/// this workload's measured work.
fn verify(ctx: &CellCtx, programs: &[Program], modules: &[Vec<VmModule>; 2], report: &mut Report) {
    let options = RuntimeOptions::new().semi_words(1 << 14).stack_words(1 << 14).max_threads(4);
    let mut checked = 0u32;
    for (i, p) in programs.iter().enumerate().skip(PAPER_PROGRAMS) {
        let Some(expected) = ctx.expected.get(i).filter(|e| !e.starts_with("skip")) else {
            continue;
        };
        for (level, set) in modules.iter().enumerate() {
            let what = format!("compile-corpus seed {}: {} at o{}", ctx.seed, p.name, level * 2);
            let result = std::panic::catch_unwind(|| {
                Executor::try_new(options.build_machine(set[i].clone()), options)
                    .map_err(|e| format!("error gc tables do not decode: {e}"))
                    .map(|mut ex| match ex.run_main() {
                        Ok(out) => outcome_of(Ok(&out.output)),
                        Err(e) => outcome_of(Err(&e)),
                    })
                    .unwrap_or_else(|e| e)
            })
            .unwrap_or_else(|_| "error vm panicked".to_string());
            if result.starts_with("skip") {
                continue;
            }
            checked += 1;
            if let Err(e) = check_outcome(&result, expected) {
                report.fail(format!("{what}: {e}"));
            }
        }
    }
    report.sample("outputs_checked", f64::from(checked));
}

/// One pass with a span around each stage `m3gc_compiler::compile`
/// runs, so each layer's share of the pass is its spans' self time.
fn staged_pass(rec: &mut Recorder, programs: &[&Program], report: &mut Report) {
    let (mut n_tokens, mut ir_instrs, mut ir_instrs_after, mut gc_points) = (0, 0, 0, 0);
    for (level, options) in levels() {
        for (i, p) in programs.iter().enumerate() {
            rec.set_op(i as u64 + 1);
            rec.span("op", |rec| {
                let tokens = rec.span("frontend.lex", |_| m3gc_frontend::lexer::lex(&p.source));
                let tokens = tokens.expect("the untraced pass compiled it");
                let lexed = tokens.len();
                let ast = rec.span("frontend.parse", |_| m3gc_frontend::parser::parse(tokens));
                let ast = ast.expect("parses");
                let checked =
                    rec.span("frontend.typecheck", |_| m3gc_frontend::typecheck::check(&ast));
                let checked = checked.expect("typechecks");
                let mut ir = rec.span("frontend.lower", |_| {
                    m3gc_frontend::lower::lower_with(&ast, &checked, options.lower)
                });
                let lowered: usize = ir.funcs.iter().map(m3gc_ir::Function::instr_count).sum();
                rec.span("ir.verify", |_| m3gc_ir::verify::verify_program(&ir)).expect("valid ir");
                rec.span(&format!("opt.{level}"), |_| {
                    m3gc_opt::optimize_program(&mut ir, &options.opt);
                });
                let optimised: usize = ir.funcs.iter().map(m3gc_ir::Function::instr_count).sum();
                rec.span("ir.verify", |_| m3gc_ir::verify::verify_program(&ir)).expect("valid ir");
                let module = rec.span(&format!("codegen.{level}"), |_| {
                    m3gc_codegen::compile_program(&mut ir, &options.codegen)
                });
                if level == "o2" {
                    n_tokens += lexed;
                    ir_instrs += lowered;
                    ir_instrs_after += optimised;
                    gc_points +=
                        m3gc_core::stats::table_stats(&module.logical_maps).total_gc_points;
                }
                black_box(module);
            });
        }
    }
    rec.set_op(0);
    report.sample("tokens", n_tokens as f64);
    report.sample("ir_instrs", ir_instrs as f64);
    report.sample("ir_instrs_after", ir_instrs_after as f64);
    report.sample("gc_points", gc_points as f64);
}

/// The core layer on the corpus's `o2` tables: encoding under each
/// scheme, index build, a full decode and a warm decode-cache lookup.
fn core_layer(rec: &mut Recorder, modules: &[VmModule], report: &mut Report) {
    let t0 = Instant::now();
    for (suffix, scheme) in SCHEMES {
        let bytes: usize = rec.span("core.encode", |_| {
            modules.iter().map(|m| encode_module(&m.logical_maps, scheme).bytes.len()).sum()
        });
        report.sample(&format!("table_bytes.{suffix}"), bytes as f64);
    }
    report.sample("encode_s", t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let indexes: Vec<DecoderIndex> = rec.span("core.index_build", |_| {
        modules.iter().map(|m| DecoderIndex::build(&m.gc_maps).expect("own tables index")).collect()
    });
    report.sample("index_build_s", t0.elapsed().as_secs_f64());

    let t0 = Instant::now();
    let points: usize = rec.span("core.decode_all", |_| {
        modules
            .iter()
            .zip(&indexes)
            .map(|(m, index)| {
                TableDecoder::from_index(index.clone(), &m.gc_maps).decode_all().len()
            })
            .sum()
    });
    report.sample("decode_all_s", t0.elapsed().as_secs_f64());
    report.sample("decode_points", points as f64);

    // Warm lookups: fill each cache once, then time a second sweep.
    let mut lookups = 0u64;
    let mut warm = 0.0;
    rec.span("core.cache_lookup", |_| {
        for (m, index) in modules.iter().zip(indexes) {
            let pcs: Vec<u32> = index.gc_point_pcs().collect();
            let mut cache = DecodeCache::new(index);
            for &pc in &pcs {
                black_box(cache.lookup(&m.gc_maps.bytes, pc));
            }
            let t0 = Instant::now();
            for _ in 0..8 {
                for &pc in &pcs {
                    black_box(cache.lookup(&m.gc_maps.bytes, pc));
                }
            }
            warm += t0.elapsed().as_secs_f64();
            lookups += 8 * pcs.len() as u64;
        }
    });
    report.sample("cache_warm_lookup_ns", warm * 1e9 / lookups.max(1) as f64);
}

pub fn metrics(cells: &Cells, out: &mut Metrics) -> Vec<String> {
    let (seq, mt) = (cell(cells, "seq"), cell(cells, "mt"));
    // An op is 1000 source lines through one level (or, for `mt`, both
    // levels on all threads): corpora of different seeds differ in size.
    let klines = seq.median("lines") / 1e3;
    let per_kline = |r: &Report, series: &str| per(r.median(series), r.median("lines") / 1e3);
    common(
        out,
        cells,
        &[per_kline(seq, "o0_s"), per_kline(seq, "o2_s")],
        &[per_kline(mt, "pass_s")],
        seq,
    );

    let pass = seq.median("pass_s");
    out.set("compile_klines_per_s", per(klines * 2.0, pass));

    // Each stage's self time in the traced passes, per pass.
    let self_ns = self_time_by_name(&seq.spans);
    let passes = seq.sampled("traced_pass_s").len() as f64;
    for (metric, span) in [
        ("frontend.lex_ms", "frontend.lex"),
        ("frontend.parse_ms", "frontend.parse"),
        ("frontend.typecheck_ms", "frontend.typecheck"),
        ("frontend.lower_ms", "frontend.lower"),
        ("opt.o2_ms", "opt.o2"),
        ("codegen.o0_ms", "codegen.o0"),
        ("codegen.o2_ms", "codegen.o2"),
    ] {
        out.set(metric, per(layer_ms(&self_ns, span), passes));
    }
    out.set("frontend.tokens", seq.median("tokens"));
    out.set("frontend.ir_instrs", seq.median("ir_instrs"));
    out.set("opt.ir_instrs_after", seq.median("ir_instrs_after"));
    out.set("codegen.gc_points", seq.median("gc_points"));
    out.set("codegen.code_bytes_o0", seq.median("code_bytes_o0"));
    out.set("core.encode_ms", seq.median("encode_s") * 1e3);
    for (suffix, _) in SCHEMES {
        let name = format!("table_bytes.{suffix}");
        out.set(&format!("core.{name}"), seq.median(&name));
    }
    out.set("core.index_build_ms", seq.median("index_build_s") * 1e3);
    out.set("core.decode_all_ms", seq.median("decode_all_s") * 1e3);
    out.set("core.decode_points", seq.median("decode_points"));
    out.set("core.cache_warm_lookup_ns", seq.median("cache_warm_lookup_ns"));
    out.set("harness.trace_overhead_pct", 100.0 * per(seq.median("traced_pass_s") - pass, pass));

    let differ = |series: &str| {
        let s = seq.sampled(series);
        s.percentile(0.0) != s.percentile(100.0)
    };
    if differ("fingerprint_hi") || differ("fingerprint_lo") {
        vec!["compile-corpus: two passes over the same corpus compiled differently".to_string()]
    } else {
        Vec::new()
    }
}
