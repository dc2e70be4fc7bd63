//! Predecode is the tables: the flags and pre-resolved targets the
//! interpreter loop runs on are exactly what the module says — the
//! gc-map index and the opcodes, `procs` — over the paper's programs and
//! a sample of generated ones, and running on them changes no step
//! count.

use std::collections::BTreeSet;

use m3gc::compiler::{compile, Options};
use m3gc::core::decode::DecoderIndex;
use m3gc::frontend::render::render_module;
use m3gc::opt::PathStrategy;
use m3gc::runtime::{Executor, RuntimeOptions};
use m3gc::vm::decode::DecodedCode;
use m3gc::vm::isa::Instr;
use m3gc::vm::VmModule;

const PAPER: [(&str, &str); 4] = [
    ("typereg", include_str!("../crates/bench/programs/typereg.m3")),
    ("FieldList", include_str!("../crates/bench/programs/fieldlist.m3")),
    ("takl", include_str!("../crates/bench/programs/takl.m3")),
    ("destroy", include_str!("../crates/bench/programs/destroy.m3")),
];

/// The four paper programs and `generated` generated ones, each under
/// every one of `configs`.
fn corpus_of(generated: u64, configs: &[(&str, Options)]) -> Vec<(String, VmModule)> {
    let fuzz = (0..generated)
        .map(|seed| (format!("fuzz-{seed}"), render_module(&m3gc_fuzz::gen::generate(seed))));
    let sources = PAPER.iter().map(|&(name, src)| (name.to_string(), src.to_string())).chain(fuzz);
    let mut modules = Vec::new();
    for (name, source) in sources {
        for (level, options) in configs {
            let module = compile(&source, options).unwrap_or_else(|e| panic!("{name}: {e}"));
            modules.push((format!("{name}/{level}"), module));
        }
    }
    modules
}

/// The four paper programs and 64 generated ones, each at `o0` and `o2`.
fn corpus() -> Vec<(String, VmModule)> {
    corpus_of(64, &[("o0", Options::o0()), ("o2", Options::o2())])
}

/// A park site is a table pc whose op is an allocation or a poll; a
/// call's return address has a table exactly when its callee may park
/// (holds an allocation or a poll, or calls a procedure that may park),
/// and never a flag; and no pc holds two gc-points (a call whose return
/// address is an allocation or a poll gets a pad, so both keep a table
/// of their own). The corpus is
/// `tests/compile_golden.rs`'s: the paper's programs and 256 generated
/// ones at `o0` and `o2` under both path strategies.
#[test]
fn flags_are_the_tables() {
    let configs = [
        ("o0/variables", Options::o0()),
        ("o0/splitting", Options::o0().with_path_strategy(PathStrategy::Splitting)),
        ("o2/variables", Options::o2()),
        ("o2/splitting", Options::o2().with_path_strategy(PathStrategy::Splitting)),
    ];
    let mut park_sites = 0;
    for (name, module) in corpus_of(256, &configs) {
        let decoded = DecodedCode::of(&module);
        let ops = decoded.ops();
        let index_of = |pc: u32| {
            decoded.index_of(pc).unwrap_or_else(|| panic!("{name}: pc {pc} starts no instruction"))
        };

        let index = DecoderIndex::build(&module.gc_maps).expect("valid gc maps");
        let from_tables: BTreeSet<usize> = index.gc_point_pcs().map(index_of).collect();
        let parks = |ins: &Instr| {
            matches!(ins, Instr::Alloc { .. } | Instr::AllocA { .. } | Instr::GcPoint)
        };
        let expected: BTreeSet<usize> =
            from_tables.iter().copied().filter(|&i| parks(&ops[i].ins)).collect();
        let flagged: BTreeSet<usize> = (0..ops.len()).filter(|&i| ops[i].is_gc_point()).collect();
        assert_eq!(flagged, expected, "{name}: park-site flags");
        park_sites += flagged.len();

        let polls: BTreeSet<usize> =
            (0..ops.len()).filter(|&i| ops[i].ins == Instr::GcPoint).collect();
        let flagged: BTreeSet<usize> = (0..ops.len()).filter(|&i| ops[i].is_poll()).collect();
        assert_eq!(flagged, polls, "{name}: poll flags");
        for &i in &polls {
            assert!(ops[i].is_gc_point(), "{name}: poll {i} has no tables");
        }

        // May-park procedures, from the code alone: the least fixpoint
        // of "holds a park site or calls a procedure that may park".
        let proc_of: Vec<usize> = (0..ops.len())
            .map(|i| module.proc_at(decoded.pc_of(i)).map_or(usize::MAX, |(p, _)| usize::from(p)))
            .collect();
        let mut may_park = vec![false; module.procs.len()];
        loop {
            let mut changed = false;
            for (i, op) in ops.iter().enumerate() {
                let here = match op.ins {
                    Instr::Call { proc, .. } => may_park[usize::from(proc)],
                    ref ins => parks(ins),
                };
                if here && proc_of[i] != usize::MAX && !may_park[proc_of[i]] {
                    may_park[proc_of[i]] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // One table per gc-point: a table for every allocation and poll,
        // one for the return address of every call whose callee may
        // park, and nothing else.
        let mut sites = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op.ins {
                Instr::Call { proc, .. } => {
                    let ret = i + 1;
                    assert!(!ops[ret].is_gc_point(), "{name}: return address {ret} is flagged");
                    if may_park[usize::from(proc)] {
                        sites.push(ret);
                    }
                }
                ref ins if parks(ins) => sites.push(i),
                _ => {}
            }
        }
        let distinct: BTreeSet<usize> = sites.iter().copied().collect();
        assert_eq!(distinct.len(), sites.len(), "{name}: two gc-points share a pc");
        assert_eq!(distinct, from_tables, "{name}: gc-point sites against table entries");

        for (i, op) in ops.iter().enumerate() {
            assert!(op.is_valid(), "{name}: compiled op {i} has no target");
            assert_eq!(op.is_plain(), !op.is_gc_point() && !op.is_poll(), "{name}: op {i}");
            match op.ins {
                Instr::Call { proc, .. } => {
                    let meta = &module.procs[proc as usize];
                    assert_eq!(decoded.pc_of(op.target()), meta.entry_pc, "{name}: call {i}");
                    assert_eq!(op.frame_words(), i64::from(meta.frame_words), "{name}: call {i}");
                }
                Instr::Jmp { target } | Instr::Brt { target, .. } | Instr::Brf { target, .. } => {
                    assert_eq!(decoded.pc_of(op.target()), target, "{name}: branch {i}");
                }
                _ => {}
            }
        }
    }
    assert!(park_sites > 500, "the corpus must have park sites to flag ({park_sites})");
}

/// The interpreter and the template JIT execute the same instructions:
/// same output and the same step count — or the same trap, which is how
/// a good share of the generated programs end — program by program.
#[test]
fn interpreter_and_jit_count_the_same_steps() {
    let mut finished = 0;
    for (name, module) in corpus() {
        let run = |jit: bool| {
            let opts = RuntimeOptions::new()
                .semi_words(1 << 16)
                .stack_words(1 << 14)
                .fuel(20_000_000)
                .jit(jit);
            let mut ex =
                Executor::try_new(opts.build_machine(module.clone()), opts).expect("valid maps");
            ex.run_main().map(|o| (o.output, o.steps)).map_err(|e| e.to_string())
        };
        let (interp, jit) = (run(false), run(true));
        assert_eq!(interp, jit, "{name}: interpreter (left) and jit (right) diverge");
        finished += usize::from(interp.is_ok());
    }
    assert!(finished >= 64, "half the corpus must run to completion ({finished} of 136)");
}
