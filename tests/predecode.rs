//! Predecode is the tables: the flags and pre-resolved targets the
//! interpreter loop runs on are exactly what the module says — the
//! gc-map index, `poll_pcs`, `procs` — over the paper's programs and a
//! sample of generated ones, and running on them changes no step count.

use std::collections::BTreeSet;

use m3gc::compiler::{compile, Options};
use m3gc::core::decode::DecoderIndex;
use m3gc::frontend::render::render_module;
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

/// The four paper programs and 64 generated ones, each at `o0` and `o2`.
fn corpus() -> Vec<(String, VmModule)> {
    let fuzz = (0..64)
        .map(|seed| (format!("fuzz-{seed}"), render_module(&m3gc_fuzz::gen::generate(seed))));
    let sources = PAPER.iter().map(|&(name, src)| (name.to_string(), src.to_string())).chain(fuzz);
    let mut modules = Vec::new();
    for (name, source) in sources {
        for (level, options) in [("o0", Options::o0()), ("o2", Options::o2())] {
            let module = compile(&source, &options).unwrap_or_else(|e| panic!("{name}: {e}"));
            modules.push((format!("{name}/{level}"), module));
        }
    }
    modules
}

#[test]
fn flags_are_the_tables() {
    let mut gc_points = 0;
    for (name, module) in corpus() {
        let decoded = DecodedCode::of(&module);
        let ops = decoded.ops();
        let index_of = |pc: u32| {
            decoded.index_of(pc).unwrap_or_else(|| panic!("{name}: pc {pc} starts no instruction"))
        };

        let index = DecoderIndex::build(&module.gc_maps).expect("valid gc maps");
        let from_tables: BTreeSet<usize> = index.gc_point_pcs().map(index_of).collect();
        let flagged: BTreeSet<usize> = (0..ops.len()).filter(|&i| ops[i].is_gc_point()).collect();
        assert_eq!(flagged, from_tables, "{name}: gc-point flags");
        gc_points += flagged.len();

        let polls: BTreeSet<usize> = module.poll_pcs.iter().map(|&pc| index_of(pc)).collect();
        let flagged: BTreeSet<usize> = (0..ops.len()).filter(|&i| ops[i].is_poll()).collect();
        assert_eq!(flagged, polls, "{name}: poll flags");
        for &i in &polls {
            assert!(ops[i].is_gc_point(), "{name}: poll {i} has no tables");
            assert_eq!(ops[i].ins, Instr::GcPoint, "{name}: poll {i}");
        }

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
    assert!(gc_points > 1000, "the corpus must have gc-points to flag ({gc_points})");
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
