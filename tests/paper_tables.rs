//! The paper's evaluation (§6) is pinned here, once: Table 1 (T1),
//! Table 2 with its δ-main+PP sections and the A3 pc-map rows (T2), the
//! §6.2 gc-on/off code diff (E62), Figure 2's path strategies (F2) and
//! the §5.3 loop gc-points' static cost (A2). Each artifact is rendered
//! from a fresh compile and compared with the first fenced block after
//! its `## <Id> —` heading in EXPERIMENTS.md.
//!
//! A change that moves a number on purpose pastes the block the failure
//! prints into EXPERIMENTS.md and says so in its description. The
//! paper's claims are also asserted on the rows themselves, so a
//! rewritten block cannot quietly drop the §6.1 orderings.

use m3gc::codegen::{compile_program, CodegenOptions};
use m3gc::compiler::{compile, GcConfig, Options};
use m3gc::core::heap::HeapType;
use m3gc::core::pcmap::{pcmap_cost, PcMapCost};
use m3gc::core::stats::{table2_row, table_stats, SizeReport, TableStats};
use m3gc::ir::builder::FuncBuilder;
use m3gc::ir::deriv::find_ambiguous;
use m3gc::ir::{BinOp, Instr as IrInstr, Program, RuntimeFn, TempKind};
use m3gc::opt::split::split_paths;
use m3gc::runtime::{Executor, RuntimeOptions};
use m3gc::vm::decode::DecodedCode;
use m3gc::vm::isa::Instr;
use m3gc::vm::VmModule;
use programs::PAPER;

mod programs;

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// The first fenced block after EXPERIMENTS.md's `## <id> —` heading,
/// without its fences.
fn pinned(id: &str) -> String {
    let heading = format!("## {id} — ");
    let mut lines = EXPERIMENTS.lines().skip_while(|l| !l.starts_with(&heading));
    assert!(lines.next().is_some(), "EXPERIMENTS.md has no `{heading}` heading");
    let mut lines = lines.skip_while(|l| {
        assert!(!l.starts_with("## "), "EXPERIMENTS.md's {id} section has no fenced block");
        *l != "```"
    });
    lines.next();
    lines.take_while(|l| *l != "```").map(|l| format!("{l}\n")).collect()
}

fn check(id: &str, fresh: &str) {
    if pinned(id) != fresh {
        panic!("EXPERIMENTS.md's {id} block is stale; the fresh block is:\n```\n{fresh}```");
    }
}

/// One of the eight builds both tables describe: a paper program with
/// full gc support, unoptimized and then optimized (`-opt`).
struct Row {
    name: String,
    size: usize,
    stats: TableStats,
    /// In `Scheme::TABLE2` order: full info {Plain, Packing}, δ-main
    /// {Plain, Previous, Packing, PP}.
    reports: Vec<SizeReport>,
    pcmap: PcMapCost,
}

fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, src) in PAPER {
        for (name, options) in
            [(name.to_string(), Options::o0()), (format!("{name}-opt"), Options::o2())]
        {
            let m = compile(src, &options).unwrap_or_else(|e| panic!("{name}: {e}"));
            let (maps, size) = (&m.logical_maps, m.code_size());
            let (stats, pcmap) = (table_stats(maps), pcmap_cost(maps));
            rows.push(Row { name, size, stats, reports: table2_row(maps, size), pcmap });
        }
    }
    rows
}

/// T1: code size, gc-points with a non-empty table (NGC), pointer
/// locations (NPTRS) and non-empty delta, register and derivation
/// tables (NDEL, NREG, NDER).
fn render_t1(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:>7} {:>6} {:>7} {:>6} {:>6} {:>6}\n",
        "Program", "Size", "NGC", "NPTRS", "NDEL", "NREG", "NDER"
    );
    for Row { name, size, stats: s, .. } in rows {
        out += &format!(
            "{name:<16} {size:>7} {:>6} {:>7} {:>6} {:>6} {:>6}\n",
            s.ngc, s.nptrs, s.ndel, s.nreg, s.nder
        );
    }
    out
}

/// T2: table sizes as a percentage of code size under the six schemes,
/// the δ-main+PP sections in bytes, and A3's pc-map distances (fixed
/// 2-byte as emitted vs variable-length as a linker could write them).
fn render_t2(rows: &[Row]) -> String {
    let mut out = String::from("                        Full Info         δ-main\n");
    out += &format!(
        "{:<16} {:>7} {:>8} {:>7} {:>9} {:>8} {:>6}\n",
        "Program", "Plain", "Packing", "Plain", "Previous", "Packing", "PP"
    );
    for row in rows {
        let p: Vec<f64> = row.reports.iter().map(|r| r.percent_of_code).collect();
        out += &format!(
            "{:<16} {:>7.1} {:>8.1} {:>7.1} {:>9.1} {:>8.1} {:>6.1}\n",
            row.name, p[0], p[1], p[2], p[3], p[4], p[5]
        );
    }
    out += "\nδ-main+PP sections (bytes):\n";
    out += &format!(
        "{:<16} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6}\n",
        "Program", "headers", "ground", "pcmap", "descr", "stack", "regs", "deriv"
    );
    for row in rows {
        let s = row.reports[5].sizes;
        out += &format!(
            "{:<16} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6}\n",
            row.name, s.headers, s.ground, s.pcmap, s.descriptors, s.stack, s.regs, s.derivations
        );
    }
    out += "\nA3: pc-map distances, fixed 2-byte (emitted) vs variable (link-time):\n";
    out += &format!(
        "{:<16} {:>8} {:>9} {:>9} {:>10}\n",
        "Program", "points", "2-byte(B)", "vlq(B)", "1B-dists"
    );
    for row in rows {
        let c = row.pcmap;
        out += &format!(
            "{:<16} {:>8} {:>9} {:>9} {:>9}%\n",
            row.name,
            c.total_points,
            c.fixed_two_byte,
            c.variable,
            (100 * c.one_byte_distances).checked_div(c.total_points).unwrap_or(0)
        );
    }
    out
}

/// A module's instructions with the `GcPoint` markers (present only in
/// the gc build) dropped and branch targets renumbered from byte
/// addresses to kept-instruction indices: an inserted marker shifts
/// every later address, which would otherwise count as a difference.
fn instructions(module: &VmModule) -> Vec<Instr> {
    let decoded = DecodedCode::new(&module.code);
    let ops = decoded.ops();
    // `kept[i]`: how many kept instructions precede op `i`. The extra
    // entry serves a branch past the last instruction.
    let mut kept = Vec::with_capacity(ops.len() + 1);
    let mut n = 0u32;
    for op in ops {
        kept.push(n);
        n += u32::from(!matches!(op.ins, Instr::GcPoint));
    }
    kept.push(n);
    let resolve = |target: u32| -> u32 {
        let idx = if target as usize == module.code.len() {
            ops.len()
        } else {
            decoded.index_of(target).expect("branch target on boundary")
        };
        kept[idx]
    };
    ops.iter()
        .filter(|op| !matches!(op.ins, Instr::GcPoint))
        .map(|op| match op.ins {
            Instr::Jmp { target } => Instr::Jmp { target: resolve(target) },
            Instr::Brt { cond, target } => Instr::Brt { cond, target: resolve(target) },
            Instr::Brf { cond, target } => Instr::Brf { cond, target: resolve(target) },
            other => other,
        })
        .collect()
}

/// Insertions plus deletions that turn `a` into `b`, from their longest
/// common subsequence.
fn diff_count(a: &[Instr], b: &[Instr]) -> usize {
    let (n, m) = (a.len(), b.len());
    let mut dp = vec![0usize; (m + 1) * (n + 1)];
    for i in 1..=n {
        for j in 1..=m {
            dp[i * (m + 1) + j] = if a[i - 1] == b[j - 1] {
                dp[(i - 1) * (m + 1) + j - 1] + 1
            } else {
                dp[(i - 1) * (m + 1) + j].max(dp[i * (m + 1) + j - 1])
            };
        }
    }
    let lcs = dp[n * (m + 1) + m];
    (n - lcs) + (m - lcs)
}

/// E62: each build compiled with gc support on and off, and the
/// instruction streams compared.
fn render_e62() -> String {
    let mut out = format!(
        "{:<16} {:>10} {:>10} {:>12} {:>8}\n",
        "Program", "gc(B)", "no-gc(B)", "instr-diff", "verdict"
    );
    for (name, src) in PAPER {
        for (suffix, with_gc, without_gc) in
            [("", Options::o0(), Options::o0_no_gc()), ("-opt", Options::o2(), Options::o2_no_gc())]
        {
            let on = compile(src, &with_gc).expect("compiles");
            let off = compile(src, &without_gc).expect("compiles");
            let d = diff_count(&instructions(&on), &instructions(&off));
            out += &format!(
                "{:<16} {:>10} {:>10} {:>12} {:>9}\n",
                format!("{name}{suffix}"),
                on.code_size(),
                off.code_size(),
                d,
                if d == 0 { "identical" } else { "differs" }
            );
        }
    }
    out
}

/// Figure 2's program, after the invariant conditional is hoisted: `fig2`
/// selects `t := P+2` or `t := Q+2` once, then loops reading `*(t + i
/// MOD 2)` and allocating, so every iteration has a gc-point with the
/// ambiguously derived `t` live. `main` calls it once each way.
fn figure2_program(iterations: i64) -> Program {
    let mut p = Program::new();
    let arr =
        p.types.add(HeapType::Array { name: "A".into(), elem_words: 1, elem_ptr_offsets: vec![] });
    let mut fb = FuncBuilder::with_ret(
        "fig2",
        &[TempKind::Ptr, TempKind::Ptr, TempKind::Int],
        Some(TempKind::Int),
    );
    let t = fb.temp(TempKind::Int);
    let i = fb.temp(TempKind::Int);
    let sum = fb.temp(TempKind::Int);
    let two = fb.constant(2);
    fb.push(IrInstr::Const { dst: i, value: 0 });
    fb.push(IrInstr::Const { dst: sum, value: 0 });
    let ba = fb.block();
    let bb = fb.block();
    let header = fb.block();
    let body = fb.block();
    let exit = fb.block();
    fb.br(fb.param(2), ba, bb);
    fb.switch_to(ba);
    fb.push(IrInstr::Bin { dst: t, op: BinOp::Add, a: fb.param(0), b: two });
    fb.jump(header);
    fb.switch_to(bb);
    fb.push(IrInstr::Bin { dst: t, op: BinOp::Add, a: fb.param(1), b: two });
    fb.jump(header);
    fb.switch_to(header);
    let lim = fb.constant(iterations);
    let c = fb.bin(BinOp::Lt, i, lim);
    fb.br(c, body, exit);
    fb.switch_to(body);
    let len1 = fb.constant(1);
    fb.new_object(arr, Some(len1));
    let idx = fb.bin(BinOp::Mod, i, two);
    let addr = fb.bin(BinOp::Add, t, idx);
    let v = fb.load(addr, 0, TempKind::Int);
    let ns = fb.bin(BinOp::Add, sum, v);
    fb.push(IrInstr::Copy { dst: sum, src: ns });
    let one = fb.constant(1);
    let ni = fb.bin(BinOp::Add, i, one);
    fb.push(IrInstr::Copy { dst: i, src: ni });
    fb.jump(header);
    fb.switch_to(exit);
    fb.ret(Some(sum));
    let fig2 = p.add_func(fb.finish());

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
    for select in [1, 0] {
        let sel = mb.constant(select);
        let r = mb.call(fig2, vec![arr_p, arr_q, sel], Some(TempKind::Int)).unwrap();
        mb.call_runtime(RuntimeFn::PrintInt, vec![r]);
    }
    mb.ret(None);
    p.main = p.add_func(mb.finish());
    p
}

/// Compiles and runs `prog`: its output, and its F2 column (code bytes,
/// table bytes, derivation tables, ambiguity, steps, collections).
fn measure(mut prog: Program) -> (String, [String; 6]) {
    let ambiguous = prog.funcs.iter().any(|f| !find_ambiguous(f).is_empty());
    let module = compile_program(&mut prog, &CodegenOptions::default());
    let statics =
        [module.code_size(), module.gc_maps.bytes.len(), table_stats(&module.logical_maps).nder];
    let opts = RuntimeOptions::new().semi_words(512).stack_words(4096);
    let out = Executor::new(opts.build_machine(module), opts).run_main().expect("figure 2 runs");
    let [code, table, nder] = statics.map(|n| n.to_string());
    let (steps, collections) = (out.steps.to_string(), out.collections.to_string());
    (out.output, [code, table, nder, ambiguous.to_string(), steps, collections])
}

/// F2: Figure 2's program at 2 000 iterations, resolved with path
/// variables and with path splitting.
fn render_f2() -> String {
    let (vars_output, vars) = measure(figure2_program(2000));
    let mut split = figure2_program(2000);
    for f in &mut split.funcs {
        split_paths(f);
    }
    let (split_output, split) = measure(split);
    assert_eq!(vars_output, split_output, "both strategies compute the same sums");
    let mut out = format!("{:<22} {:>9} {:>12}\n", "", "path vars", "path split");
    let labels = [
        "code bytes",
        "gc table bytes",
        "derivation tables",
        "ambiguity remains",
        "dynamic steps",
        "collections",
    ];
    for (label, (a, b)) in labels.iter().zip(vars.iter().zip(&split)) {
        out += &format!("{label:<22} {a:>9} {b:>12}\n");
    }
    out
}

/// A2's program: each round allocates, then spins in a loop that neither
/// allocates nor calls, so only a loop gc-point bounds a thread's wait
/// for a collection there.
const SPIN: &str = "MODULE Spin;
TYPE R = REF RECORD x: INTEGER END;
PROCEDURE Spin(n: INTEGER): INTEGER =
VAR i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO n DO
    s := (s + i) MOD 1000003;
  END;
  RETURN s;
END Spin;
PROCEDURE Work(): INTEGER =
VAR r: R; round, s: INTEGER;
BEGIN
  s := 0;
  FOR round := 1 TO 4 DO
    r := NEW(R);
    r.x := round;
    s := (s + r.x + Spin(2000000)) MOD 1000003;
  END;
  RETURN s;
END Work;
BEGIN
  PutInt(Work());
END Spin.";

/// A2: what loop gc-points cost statically, on and off.
fn render_a2() -> String {
    let mut out = String::new();
    for on in [true, false] {
        let gc = GcConfig { emit_tables: true, loop_gc_points: on };
        let module = compile(SPIN, &Options::o2().with_gc(gc)).expect("compiles");
        out += &format!(
            "loop gc-points {:<3}: code {:>5} B, tables {:>5} B, gc-points {:>3}\n",
            if on { "ON" } else { "OFF" },
            module.code_size(),
            module.gc_maps.bytes.len(),
            table_stats(&module.logical_maps).total_gc_points,
        );
    }
    out
}

#[test]
fn t1_is_pinned() {
    check("T1", &render_t1(&rows()));
}

#[test]
fn t2_is_pinned() {
    check("T2", &render_t2(&rows()));
}

#[test]
fn e62_is_pinned() {
    check("E62", &render_e62());
}

#[test]
fn f2_is_pinned() {
    check("F2", &render_f2());
}

#[test]
fn a2_is_pinned() {
    check("A2", &render_a2());
}

/// §6.1: every build has gc-points and pointers, and derivation tables
/// are rare: only `destroy`, whose loops carry interior pointers into
/// its kids arrays, has any.
#[test]
fn table1_rows_keep_the_papers_shape() {
    let rows = rows();
    assert_eq!(rows.len(), 8);
    for Row { name, size, stats, .. } in &rows {
        assert!(*size > 0, "{name} has code");
        assert!(stats.ngc > 0, "{name} has gc-points");
        assert!(stats.nptrs > 0, "{name} has pointers");
        assert_eq!(stats.nder > 0, name.starts_with("destroy"), "{name}: NDER {}", stats.nder);
    }
}

/// §6.1: packing shrinks both full info and δ-main, Previous never
/// grows a table, and Previous+Packing is the smallest δ-main column.
#[test]
fn table2_rows_keep_the_papers_shape() {
    for row in rows() {
        let p: Vec<f64> = row.reports.iter().map(|r| r.percent_of_code).collect();
        let (full_plain, full_pack, d_plain, d_prev, d_pack, d_pp) =
            (p[0], p[1], p[2], p[3], p[4], p[5]);
        let name = &row.name;
        assert!(full_pack < full_plain, "{name}: packing shrinks full info");
        assert!(d_pack < d_plain, "{name}: packing shrinks δ-main");
        assert!(d_prev <= d_plain, "{name}: Previous never grows");
        assert!(d_pp <= d_pack && d_pp <= d_prev && d_pp <= d_plain, "{name}: PP is smallest");
    }
}
