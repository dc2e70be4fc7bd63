//! Regenerates the **Figure 2 / §4** comparison: *path variables* vs
//! *path splitting* for ambiguous derivations.
//!
//! None of the paper's benchmarks (nor ours) contain ambiguous
//! derivations — the paper says exactly that — so, like the paper's own
//! Figure 2, this experiment uses the canonical example: an invariant
//! conditional hoisted out of a loop leaves `t` derived from either
//! `&P[0]+1` or `&Q[0]+1`. We build that (post-hoist) IR directly and
//! compile it both ways, reporting code size, table size and the dynamic
//! instruction overhead of each strategy.

use m3gc_codegen::{compile_program, CodegenOptions};
use m3gc_ir::builder::FuncBuilder;
use m3gc_ir::{BinOp, Instr, Program, RuntimeFn, TempKind};
use m3gc_opt::split::split_paths;

/// Builds the Figure 2 program: main allocates P and Q, then calls a
/// function that selects t := P+1 or t := Q+1 under an "invariant"
/// condition and loops reading `*(t + i)`, allocating each iteration so
/// every iteration has a gc-point where `t` is live.
fn figure2_program(iterations: i64) -> Program {
    let mut p = Program::new();
    let arr = p.types.add(m3gc_core::heap::HeapType::Array {
        name: "A".into(),
        elem_words: 1,
        elem_ptr_offsets: vec![],
    });
    // fig2(P, Q, inv): INTEGER
    let mut fb = FuncBuilder::with_ret(
        "fig2",
        &[TempKind::Ptr, TempKind::Ptr, TempKind::Int],
        Some(TempKind::Int),
    );
    let t = fb.temp(TempKind::Int);
    let i = fb.temp(TempKind::Int);
    let sum = fb.temp(TempKind::Int);
    let two = fb.constant(2);
    fb.push(Instr::Const { dst: i, value: 0 });
    fb.push(Instr::Const { dst: sum, value: 0 });
    let ba = fb.block();
    let bb = fb.block();
    let header = fb.block();
    let body = fb.block();
    let exit = fb.block();
    fb.br(fb.param(2), ba, bb);
    fb.switch_to(ba);
    fb.push(Instr::Bin { dst: t, op: BinOp::Add, a: fb.param(0), b: two });
    fb.jump(header);
    fb.switch_to(bb);
    fb.push(Instr::Bin { dst: t, op: BinOp::Add, a: fb.param(1), b: two });
    fb.jump(header);
    fb.switch_to(header);
    let lim = fb.constant(iterations);
    let c = fb.bin(BinOp::Lt, i, lim);
    fb.br(c, body, exit);
    fb.switch_to(body);
    // Allocate garbage: a gc-point at which t (derived) is live.
    let len1 = fb.constant(1);
    let junk = fb.new_object(arr, Some(len1));
    let _ = junk;
    let idx = fb.bin(BinOp::Mod, i, two);
    let addr = fb.bin(BinOp::Add, t, idx);
    let v = fb.load(addr, 0, TempKind::Int);
    let ns = fb.bin(BinOp::Add, sum, v);
    fb.push(Instr::Copy { dst: sum, src: ns });
    let one = fb.constant(1);
    let ni = fb.bin(BinOp::Add, i, one);
    fb.push(Instr::Copy { dst: i, src: ni });
    fb.jump(header);
    fb.switch_to(exit);
    fb.ret(Some(sum));
    let fig2 = p.add_func(fb.finish());

    // main: allocate P=[.., 7, 8, ..], Q=[.., 30, 40 ..]; call fig2 twice.
    let mut mb = FuncBuilder::new("main", &[]);
    let len4 = mb.constant(4);
    let arr_p = mb.new_object(arr, Some(len4));
    let arr_q = mb.new_object(arr, Some(len4));
    for (obj, base) in [(arr_p, 7i64), (arr_q, 30)] {
        for w in 0..4 {
            let cv = mb.constant(base + w);
            mb.store(obj, w as i32 + 2, cv);
        }
    }
    let sel1 = mb.constant(1);
    let r1 = mb.call(fig2, vec![arr_p, arr_q, sel1], Some(TempKind::Int)).unwrap();
    mb.call_runtime(RuntimeFn::PrintInt, vec![r1]);
    let sel0 = mb.constant(0);
    let r0 = mb.call(fig2, vec![arr_p, arr_q, sel0], Some(TempKind::Int)).unwrap();
    mb.call_runtime(RuntimeFn::PrintInt, vec![r0]);
    // Keep the trailing block well-formed.
    mb.ret(None);
    let main = p.add_func(mb.finish());
    p.main = main;
    p
}

struct Measured {
    code_bytes: usize,
    table_bytes: usize,
    nder: usize,
    path_vars_needed: bool,
    steps: u64,
    collections: u64,
    output: String,
}

fn measure(mut prog: Program) -> Measured {
    let ambiguous_before =
        prog.funcs.iter().map(|f| m3gc_ir::deriv::find_ambiguous(f).len()).sum::<usize>();
    let module = compile_program(&mut prog, &CodegenOptions::default());
    let stats = m3gc_core::stats::table_stats(&module.logical_maps);
    let table_bytes = module.gc_maps.bytes.len();
    let code_bytes = module.code_size();
    let opts = m3gc_runtime::RuntimeOptions::new().semi_words(512).stack_words(4096);
    let machine = opts.build_machine(module);
    let mut ex = m3gc_runtime::Executor::new(machine, opts);
    let out = match ex.run_main() {
        Ok(o) => o,
        Err(e) => panic!("figure2 run failed: {e}"),
    };
    Measured {
        code_bytes,
        table_bytes,
        nder: stats.nder,
        path_vars_needed: ambiguous_before > 0,
        steps: out.steps,
        collections: out.collections,
        output: out.output,
    }
}

fn main() {
    println!("Figure 2 / §4: path variables vs path splitting\n");
    let iters = 2000;

    let with_vars = measure(figure2_program(iters));
    let with_split = {
        let mut prog = figure2_program(iters);
        for f in &mut prog.funcs {
            split_paths(f);
        }
        measure(prog)
    };
    assert_eq!(with_vars.output, with_split.output, "strategies must agree");

    println!("{:<22} {:>12} {:>12}", "", "path vars", "path split");
    println!("{:<22} {:>12} {:>12}", "code bytes", with_vars.code_bytes, with_split.code_bytes);
    println!(
        "{:<22} {:>12} {:>12}",
        "gc table bytes", with_vars.table_bytes, with_split.table_bytes
    );
    println!("{:<22} {:>12} {:>12}", "derivation tables", with_vars.nder, with_split.nder);
    println!(
        "{:<22} {:>12} {:>12}",
        "ambiguity remains", with_vars.path_vars_needed, with_split.path_vars_needed
    );
    println!("{:<22} {:>12} {:>12}", "dynamic steps", with_vars.steps, with_split.steps);
    println!("{:<22} {:>12} {:>12}", "collections", with_vars.collections, with_split.collections);
    println!(
        "\nPaper shape check: the path-variable scheme adds assignments (dynamic\n\
         cost) while path splitting increases code size (static cost); the\n\
         paper chose path variables because ambiguous derivations are rare —\n\
         indeed none of the four benchmarks has any."
    );
}
