//! Interpreter-vs-JIT parity on hand-assembled modules.
//!
//! These tests drive [`JitEngine::run_thread`] against the plain
//! interpreter on the same module and assert byte-identical output,
//! identical step counts at completion, and identical traps (code *and*
//! trapping pc). On hosts without executable mappings the engine falls
//! back to the interpreter and the assertions hold trivially.

use std::sync::Mutex;

use m3gc_core::heap::{HeapType, TypeTable};
use m3gc_core::layout::BaseReg;
use m3gc_jit::JitEngine;
use m3gc_vm::asm::Assembler;
use m3gc_vm::codemap::JIT_RETPC_BIAS;
use m3gc_vm::exec::{Cpu, Step};
use m3gc_vm::machine::{Machine, MachineLayout, RunOutcome};
use m3gc_vm::module::{ProcMeta, VmModule};
use m3gc_vm::{AluOp, Instr, UnAluOp, VmTrap};

/// Serializes tests that mutate process-global environment variables.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn module_with(code: Vec<u8>, procs: Vec<ProcMeta>, types: TypeTable) -> VmModule {
    use m3gc_core::encode::{encode_module, Scheme};
    use m3gc_core::tables::ModuleTables;
    VmModule {
        code,
        procs,
        types,
        globals_words: 8,
        global_ptr_roots: vec![],
        main: 0,
        gc_maps: encode_module(&ModuleTables::default(), Scheme::DELTA_MAIN_PP),
        logical_maps: ModuleTables::default(),
    }
}

fn layout() -> MachineLayout {
    MachineLayout { semi_words: 4096, stack_words: 512, max_threads: 2, ..MachineLayout::default() }
}

/// One engine's result: `(outcome, output, steps, final cpu)`.
type EngineRun = (RunOutcome, String, u64, Cpu);

/// Runs `module` to completion (or trap) under the interpreter and
/// under the JIT, returning `(outcome, output, steps, cpu)` of each.
fn run_both(module: &VmModule) -> (EngineRun, EngineRun) {
    let interp = {
        let mut m = Machine::new(module.clone(), layout());
        let tid = m.spawn(0, &[]);
        let out = m.run_thread(tid, 1_000_000);
        (out, m.output.clone(), m.steps, m.threads[tid].cpu.clone())
    };
    let jit = {
        let mut m = Machine::new(module.clone(), layout());
        let engine = JitEngine::for_machine(&m);
        m.set_code_map(engine.code_map());
        let tid = m.spawn(0, &[]);
        let out = engine.run_thread(&mut m, tid, 1_000_000);
        (out, m.output.clone(), m.steps, m.threads[tid].cpu.clone())
    };
    (interp, jit)
}

fn assert_parity(module: &VmModule) {
    let (interp, jit) = run_both(module);
    assert_eq!(interp.0, jit.0, "outcome diverged");
    assert_eq!(interp.1, jit.1, "output diverged");
    assert_eq!(interp.2, jit.2, "steps diverged");
    assert_eq!(interp.3, jit.3, "final cpu diverged");
}

#[test]
fn arithmetic_branches_and_loops() {
    let mut a = Assembler::new();
    // Sum 1..=100 with a backward branch, then exercise every ALU op on
    // awkward operands, printing as it goes.
    a.emit(&Instr::MovI { dst: 1, imm: 0 }); // acc
    a.emit(&Instr::MovI { dst: 2, imm: 1 }); // i
    a.emit(&Instr::MovI { dst: 3, imm: 100 });
    let top = a.here();
    a.emit(&Instr::Alu { op: AluOp::Add, dst: 1, a: 1, b: 2 });
    a.emit(&Instr::AluI { op: AluOp::Add, dst: 2, a: 2, imm: 1 });
    a.emit(&Instr::Alu { op: AluOp::Le, dst: 4, a: 2, b: 3 });
    a.emit(&Instr::Brt { cond: 4, target: top });
    a.emit(&Instr::Sys { code: 0, arg: 1 });
    a.emit(&Instr::Sys { code: 2, arg: 0 });
    // Division / modulo edge cases: by zero, by -1 at i64::MIN.
    a.emit(&Instr::MovI { dst: 5, imm: i64::MIN });
    a.emit(&Instr::MovI { dst: 6, imm: -1 });
    a.emit(&Instr::Alu { op: AluOp::Div, dst: 7, a: 5, b: 6 });
    a.emit(&Instr::Sys { code: 0, arg: 7 });
    a.emit(&Instr::Sys { code: 2, arg: 0 });
    a.emit(&Instr::Alu { op: AluOp::Mod, dst: 7, a: 5, b: 6 });
    a.emit(&Instr::Sys { code: 0, arg: 7 });
    a.emit(&Instr::MovI { dst: 6, imm: 0 });
    a.emit(&Instr::Alu { op: AluOp::Div, dst: 7, a: 5, b: 6 });
    a.emit(&Instr::Sys { code: 0, arg: 7 });
    a.emit(&Instr::AluI { op: AluOp::Mod, dst: 7, a: 5, imm: 0 });
    a.emit(&Instr::Sys { code: 0, arg: 7 });
    a.emit(&Instr::Sys { code: 2, arg: 0 });
    // Comparisons and unary ops.
    a.emit(&Instr::Alu { op: AluOp::Lt, dst: 7, a: 6, b: 5 });
    a.emit(&Instr::Sys { code: 0, arg: 7 });
    a.emit(&Instr::UnAlu { op: UnAluOp::Not, dst: 7, a: 7 });
    a.emit(&Instr::Sys { code: 0, arg: 7 });
    a.emit(&Instr::UnAlu { op: UnAluOp::Neg, dst: 7, a: 5 });
    a.emit(&Instr::Sys { code: 0, arg: 7 });
    a.emit(&Instr::Ret);
    let code = a.finish();
    let end = code.len() as u32;
    let m = module_with(
        code,
        vec![ProcMeta {
            name: "main".into(),
            entry_pc: 0,
            end_pc: end,
            frame_words: 4,
            save_regs: vec![],
            n_args: 0,
        }],
        TypeTable::default(),
    );
    assert_parity(&m);
}

/// Builds a two-procedure module: `main` loops calling `work(i, i*3)`
/// and prints the running sum; `work` touches frame slots, allocates,
/// and returns a combination of its arguments.
fn call_heavy_module() -> VmModule {
    let mut types = TypeTable::default();
    types.add(HeapType::Record { name: "Pair".into(), words: 2, ptr_offsets: vec![] });
    let mut a = Assembler::new();
    // main:
    a.emit(&Instr::MovI { dst: 6, imm: 0 }); // sum (callee-save)
    a.emit(&Instr::MovI { dst: 7, imm: 1 }); // i
    let top = a.here();
    a.emit(&Instr::Push { src: 7 });
    a.emit(&Instr::AluI { op: AluOp::Mul, dst: 1, a: 7, imm: 3 });
    a.emit(&Instr::Push { src: 1 });
    a.emit(&Instr::Call { proc: 1, nargs: 2 });
    a.emit(&Instr::Alu { op: AluOp::Add, dst: 6, a: 6, b: 0 });
    a.emit(&Instr::AluI { op: AluOp::Add, dst: 7, a: 7, imm: 1 });
    a.emit(&Instr::AluI { op: AluOp::Le, dst: 2, a: 7, imm: 40 });
    a.emit(&Instr::Brt { cond: 2, target: top });
    a.emit(&Instr::Sys { code: 0, arg: 6 });
    a.emit(&Instr::Ret);
    let work = a.here();
    // work(x, y): allocate a pair, store both args through it, reload,
    // spill to a frame slot, return x*y + x - y.
    a.emit(&Instr::LdF { dst: 1, breg: BaseReg::Ap, off: 0 });
    a.emit(&Instr::LdF { dst: 2, breg: BaseReg::Ap, off: 1 });
    a.emit(&Instr::Alloc { dst: 3, ty: 0 });
    a.emit(&Instr::St { base: 3, off: 1, src: 1 });
    a.emit(&Instr::StB { base: 3, off: 2, src: 2 });
    a.emit(&Instr::Ld { dst: 4, base: 3, off: 1 });
    a.emit(&Instr::Ld { dst: 5, base: 3, off: 2 });
    a.emit(&Instr::StF { breg: BaseReg::Fp, off: 0, src: 4 });
    a.emit(&Instr::Lea { dst: 1, breg: BaseReg::Fp, off: 0 });
    a.emit(&Instr::Ld { dst: 4, base: 1, off: 0 });
    a.emit(&Instr::Alu { op: AluOp::Mul, dst: 0, a: 4, b: 5 });
    a.emit(&Instr::Alu { op: AluOp::Add, dst: 0, a: 0, b: 4 });
    a.emit(&Instr::Alu { op: AluOp::Sub, dst: 0, a: 0, b: 5 });
    a.emit(&Instr::Ret);
    let code = a.finish();
    let end = code.len() as u32;
    module_with(
        code,
        vec![
            ProcMeta {
                name: "main".into(),
                entry_pc: 0,
                end_pc: work,
                frame_words: 2,
                save_regs: vec![],
                n_args: 0,
            },
            ProcMeta {
                name: "work".into(),
                entry_pc: work,
                end_pc: end,
                frame_words: 2,
                save_regs: vec![],
                n_args: 2,
            },
        ],
        types,
    )
}

#[test]
fn calls_allocation_and_frame_traffic() {
    assert_parity(&call_heavy_module());
}

#[test]
fn mixed_jit_and_interpreter_stacks() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let module = call_heavy_module();
    let baseline = {
        let mut m = Machine::new(module.clone(), layout());
        let tid = m.spawn(0, &[]);
        let out = m.run_thread(tid, 1_000_000);
        assert_eq!(out, RunOutcome::Finished);
        (m.output.clone(), m.steps)
    };
    // Exclude each procedure in turn: calls then cross the JIT/interp
    // boundary in both directions (JIT main → interpreted callee, and
    // interpreted main → JIT callee), linking through biased native
    // tokens on one side and bytecode pcs on the other.
    for excluded in ["main", "work"] {
        std::env::set_var("M3GC_JIT_EXCLUDE", excluded);
        let mut m = Machine::new(module.clone(), layout());
        let engine = JitEngine::for_machine(&m);
        std::env::remove_var("M3GC_JIT_EXCLUDE");
        m.set_code_map(engine.code_map());
        let tid = m.spawn(0, &[]);
        let out = engine.run_thread(&mut m, tid, 1_000_000);
        assert_eq!(out, RunOutcome::Finished, "excluded={excluded}");
        assert_eq!(m.output, baseline.0, "excluded={excluded}");
        assert_eq!(m.steps, baseline.1, "excluded={excluded}");
        let summary = engine.summary();
        if summary.enabled {
            assert_eq!(summary.procs_compiled, 1);
            assert_eq!(summary.fallbacks, vec![("excluded-proc", 1)]);
            // The module's one call site is in `main`: compiled, it keeps
            // its stub (the callee has no blob) and every one of the 40
            // calls leaves through it, the interpreter's `Ret` coming
            // back on its own; excluded, compiled code has no call site
            // and `work`'s 40 returns find a plain pc in their frame.
            let sites = if excluded == "work" { (0, 1) } else { (0, 0) };
            assert_eq!((summary.relocs_patched, summary.relocs_total), sites, "{excluded}");
            assert_eq!(summary.engine_transfers, 40, "excluded={excluded}");
        }
    }
    // Nothing excluded: the site is linked and nothing leaves native code.
    let mut m = Machine::new(module, layout());
    let engine = JitEngine::for_machine(&m);
    m.set_code_map(engine.code_map());
    let tid = m.spawn(0, &[]);
    assert_eq!(engine.run_thread(&mut m, tid, 1_000_000), RunOutcome::Finished);
    let summary = engine.summary();
    if summary.enabled {
        assert_eq!((summary.relocs_patched, summary.relocs_total), (1, 1));
        assert_eq!(summary.engine_transfers, 0);
    }
}

#[test]
fn traps_match_interpreter_exactly() {
    // The forged-token rows below need every procedure compiled.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Each case: (build, expected trap).
    type TrapCase = (Box<dyn Fn(&mut Assembler)>, VmTrap);
    let cases: Vec<TrapCase> = vec![
        (
            Box::new(|a| {
                // NIL deref: address 3 is inside the reserved zone.
                a.emit(&Instr::MovI { dst: 1, imm: 3 });
                a.emit(&Instr::Ld { dst: 2, base: 1, off: 0 });
            }),
            VmTrap::NilError,
        ),
        (
            Box::new(|a| {
                // Negative address is wild, not NIL.
                a.emit(&Instr::MovI { dst: 1, imm: -5 });
                a.emit(&Instr::St { base: 1, off: 0, src: 1 });
            }),
            VmTrap::WildAddress,
        ),
        (
            Box::new(|a| {
                // Way past the end of memory.
                a.emit(&Instr::MovI { dst: 1, imm: 1 << 40 });
                a.emit(&Instr::StB { base: 1, off: 0, src: 1 });
            }),
            VmTrap::WildAddress,
        ),
        (
            Box::new(|a| {
                a.emit(&Instr::MovI { dst: 1, imm: 7 });
                a.emit(&Instr::Sys { code: 5, arg: 1 });
            }),
            VmTrap::AssertError,
        ),
        (
            Box::new(|a| {
                a.emit(&Instr::Call { proc: 99, nargs: 0 });
            }),
            VmTrap::BadProc,
        ),
    ];
    for (i, (build, expect)) in cases.iter().enumerate() {
        let mut a = Assembler::new();
        build(&mut a);
        a.emit(&Instr::Ret);
        let code = a.finish();
        let end = code.len() as u32;
        let m = module_with(
            code,
            vec![ProcMeta {
                name: "main".into(),
                entry_pc: 0,
                end_pc: end,
                frame_words: 0,
                save_regs: vec![],
                n_args: 0,
            }],
            TypeTable::default(),
        );
        let (interp, jit) = run_both(&m);
        assert_eq!(interp.0, RunOutcome::Trap(*expect), "case {i}: interpreter trap");
        assert_eq!(interp.0, jit.0, "case {i}: trap diverged");
        assert_eq!(interp.3, jit.3, "case {i}: trapping pc (or cpu) diverged");
        assert_eq!(interp.2, jit.2, "case {i}: steps diverged");
    }

    // A callee that overwrites its own return word with a forged jit
    // token: whatever the word, `Ret` must not jump through it. The
    // interpreter has no code map, so every token is unresolvable there;
    // native code must agree for words that name no continuation — the
    // blob's first byte, the middle of an x86 instruction, one past the
    // last continuation, the code length, the largest offset — and for a
    // word past the token range, trapping at the `Ret` with the frame
    // intact.
    let forger = |word: i64| {
        let mut a = Assembler::new();
        a.emit(&Instr::Call { proc: 1, nargs: 0 });
        a.emit(&Instr::Ret);
        let callee = a.here();
        // Never an imm32, so the native layout is the same for every word.
        a.emit(&Instr::MovI { dst: 1, imm: word });
        a.emit(&Instr::StF { breg: BaseReg::Fp, off: -3, src: 1 });
        a.emit(&Instr::Ret);
        let code = a.finish();
        let end = code.len() as u32;
        let proc = |name: &str, entry_pc, end_pc| ProcMeta {
            name: name.into(),
            entry_pc,
            end_pc,
            frame_words: 1,
            save_regs: vec![],
            n_args: 0,
        };
        module_with(
            code,
            vec![proc("main", 0, callee), proc("forge", callee, end)],
            TypeTable::default(),
        )
    };
    let probe = Machine::new(forger(JIT_RETPC_BIAS), layout());
    let map = JitEngine::for_machine(&probe).code_map();
    let mut offsets = vec![0, u32::MAX];
    if let Some(&(last, _)) = map.gc_points().last() {
        let code_len = map.range_of_proc(1).expect("both procedures compile").end;
        offsets.extend([map.gc_points()[0].0 + 1, last + 1, code_len]);
    }
    let words = offsets.iter().map(|&k| JIT_RETPC_BIAS + i64::from(k)).chain([JIT_RETPC_BIAS << 1]);
    for word in words {
        let (interp, jit) = run_both(&forger(word));
        assert_eq!(interp.0, RunOutcome::Trap(VmTrap::WildAddress), "word {word:#x}");
        assert_eq!(interp, jit, "word {word:#x}");
        // main's frame is linkage + 1 word, the callee's linkage follows.
        assert_eq!(jit.3.fp, jit.3.stack_base + 7, "word {word:#x}: a frame was popped");
    }
}

#[test]
fn globals_and_push_overflow() {
    let mut a = Assembler::new();
    a.emit(&Instr::MovI { dst: 1, imm: 1234 });
    a.emit(&Instr::StG { goff: 2, src: 1 });
    a.emit(&Instr::LdG { dst: 2, goff: 2 });
    a.emit(&Instr::Sys { code: 0, arg: 2 });
    a.emit(&Instr::LeaG { dst: 3, goff: 2 });
    a.emit(&Instr::Ld { dst: 4, base: 3, off: 0 });
    a.emit(&Instr::Sys { code: 0, arg: 4 });
    // Now push until the stack overflows; both engines must trap at the
    // same step with the same pc.
    let top = a.here();
    a.emit(&Instr::Push { src: 4 });
    a.emit(&Instr::Jmp { target: top });
    let code = a.finish();
    let end = code.len() as u32;
    let m = module_with(
        code,
        vec![ProcMeta {
            name: "main".into(),
            entry_pc: 0,
            end_pc: end,
            frame_words: 0,
            save_regs: vec![],
            n_args: 0,
        }],
        TypeTable::default(),
    );
    let (interp, jit) = run_both(&m);
    assert_eq!(interp.0, RunOutcome::Trap(VmTrap::StackOverflow));
    assert_eq!(interp, jit);
}

#[test]
fn fuel_exhaustion_stops_cleanly() {
    // An infinite loop: with a bounded budget both engines report
    // out-of-fuel; the JIT's backward-edge fuel checks bound the
    // overshoot to the loop body length.
    let mut a = Assembler::new();
    a.emit(&Instr::MovI { dst: 1, imm: 0 });
    let top = a.here();
    a.emit(&Instr::AluI { op: AluOp::Add, dst: 1, a: 1, imm: 1 });
    a.emit(&Instr::Jmp { target: top });
    let code = a.finish();
    let end = code.len() as u32;
    let m = module_with(
        code,
        vec![ProcMeta {
            name: "main".into(),
            entry_pc: 0,
            end_pc: end,
            frame_words: 0,
            save_regs: vec![],
            n_args: 0,
        }],
        TypeTable::default(),
    );
    let mut mi = Machine::new(m.clone(), layout());
    let ti = mi.spawn(0, &[]);
    assert_eq!(mi.run_thread(ti, 10_000), m3gc_vm::machine::RunOutcome::OutOfFuel);
    let mut mj = Machine::new(m, layout());
    let engine = JitEngine::for_machine(&mj);
    mj.set_code_map(engine.code_map());
    let tj = mj.spawn(0, &[]);
    assert_eq!(engine.run_thread(&mut mj, tj, 10_000), RunOutcome::OutOfFuel);
    // Native code checks fuel only at polls and backward edges, so it
    // may overshoot the budget by up to one loop body (2 instructions
    // here) before the backedge check fires.
    assert!(
        mj.steps >= mi.steps && mj.steps - mi.steps <= 2,
        "fuel overshoot out of bounds: interp {} vs jit {}",
        mi.steps,
        mj.steps
    );
}

/// Past `poll_after` instructions a burst ends at the next loop poll —
/// under native code as under the interpreter, which stops after exactly
/// 100 instructions here (the poll is reached after 1, 4, 7, …); native
/// code notices at its next fuel check, within one loop body.
#[test]
fn a_burst_past_poll_after_ends_at_a_loop_poll() {
    use m3gc_core::encode::{encode_module, Scheme};
    use m3gc_core::tables::{GcPointTables, ModuleTables, ProcTables};

    let mut a = Assembler::new();
    a.emit(&Instr::MovI { dst: 1, imm: 1000 });
    let poll_pc = a.emit(&Instr::GcPoint);
    a.emit(&Instr::AluI { op: AluOp::Sub, dst: 1, a: 1, imm: 1 });
    a.emit(&Instr::Brt { cond: 1, target: poll_pc });
    a.emit(&Instr::Halt);
    let code = a.finish();
    let end = code.len() as u32;
    let main = ProcMeta {
        name: "main".into(),
        entry_pc: 0,
        end_pc: end,
        frame_words: 0,
        save_regs: vec![],
        n_args: 0,
    };
    let tables = ModuleTables {
        procs: vec![ProcTables {
            name: "main".into(),
            points: vec![GcPointTables { pc: poll_pc, ..GcPointTables::default() }],
            ..ProcTables::default()
        }],
    };
    let module = VmModule {
        gc_maps: encode_module(&tables, Scheme::DELTA_MAIN_PP),
        logical_maps: tables,
        ..module_with(code, vec![main], TypeTable::default())
    };

    let mut m = Machine::new(module, layout());
    let engine = JitEngine::for_machine(&m);
    m.set_code_map(engine.code_map());
    let tid = m.spawn(0, &[]);
    let (cpu, world) = m.split(tid);
    let (step, first) = engine.run(cpu, world, 1_000_000, 100);
    assert_eq!((step, cpu.pc), (Step::Normal, poll_pc), "stopped off the poll");
    assert!((100..=103).contains(&first), "stopped after {first} instructions");
    assert_eq!(engine.run(cpu, world, 1_000_000, 0), (Step::Normal, 0), "already at a poll");
    let (step, rest) = engine.run(cpu, world, 1_000_000, u64::MAX);
    assert_eq!((step, first + rest), (Step::Finished, 1 + 3 * 1000 + 1));
}

/// `main` prints `count(200)`; `count(n)` is `n = 0 ? 0 : count(n-1) + 1`
/// — two hundred frames deep, no loop anywhere.
fn deep_recursion_module() -> VmModule {
    let mut a = Assembler::new();
    a.emit(&Instr::MovI { dst: 1, imm: 200 });
    a.emit(&Instr::Push { src: 1 });
    a.emit(&Instr::Call { proc: 1, nargs: 1 });
    a.emit(&Instr::Sys { code: 0, arg: 0 });
    a.emit(&Instr::Ret);
    let count = a.here();
    a.emit(&Instr::LdF { dst: 1, breg: BaseReg::Ap, off: 0 });
    a.emit(&Instr::MovI { dst: 0, imm: 0 });
    let ret = a.new_label();
    a.brf(1, ret);
    a.emit(&Instr::AluI { op: AluOp::Sub, dst: 1, a: 1, imm: 1 });
    a.emit(&Instr::Push { src: 1 });
    a.emit(&Instr::Call { proc: 1, nargs: 1 });
    a.emit(&Instr::AluI { op: AluOp::Add, dst: 0, a: 0, imm: 1 });
    a.bind(ret);
    a.emit(&Instr::Ret);
    let code = a.finish();
    let end = code.len() as u32;
    let proc = |name: &str, entry_pc, end_pc, n_args| ProcMeta {
        name: name.into(),
        entry_pc,
        end_pc,
        frame_words: 1,
        save_regs: vec![],
        n_args,
    };
    module_with(
        code,
        vec![proc("main", 0, count, 0), proc("count", count, end, 1)],
        TypeTable::default(),
    )
}

/// Runs thread 0 of a fresh machine to the end in bursts of `budget`
/// instructions, returning the machine, the total executed and the
/// largest single burst.
fn run_in_bursts(module: &VmModule, budget: u64, jit: bool) -> (Machine, u64, u64) {
    let big = MachineLayout { stack_words: 4096, ..layout() };
    let mut m = Machine::new(module.clone(), big);
    let engine = if jit {
        let engine = JitEngine::for_machine(&m);
        m.set_code_map(engine.code_map());
        engine
    } else {
        JitEngine::interpreter(m.decoded().clone())
    };
    let tid = m.spawn(0, &[]);
    let (mut total, mut longest) = (0, 0);
    loop {
        let (cpu, world) = m.split(tid);
        let (step, n) = engine.run(cpu, world, budget, u64::MAX);
        total += n;
        longest = longest.max(n);
        match step {
            Step::Normal => assert!(n > 0, "a burst of {budget} made no progress"),
            Step::Finished => return (m, total, longest),
            other => panic!("burst of {budget} ended in {other:?}"),
        }
    }
}

/// Direct calls and returns keep the burst protocol: whatever the
/// budget, native bursts add up to the interpreter's run — same final
/// cpu, memory, output and instruction count — and a burst ends at the
/// first fuel check past its budget. Fuel is checked before a call
/// transfers, where a return lands, at back-edges and at polls, so the
/// overshoot is bounded by the longest straight-line run between two of
/// those: `work`'s body for the call-heavy module, `count`'s for the
/// recursion.
#[test]
fn bursts_of_every_budget_add_up_to_the_interpreters_run() {
    for (module, longest_run) in [(call_heavy_module(), 14), (deep_recursion_module(), 7)] {
        let (reference, steps, _) = run_in_bursts(&module, u64::MAX, false);
        for budget in 1..=64 {
            let (m, total, longest) = run_in_bursts(&module, budget, true);
            assert_eq!(total, steps, "budget {budget}: instruction count");
            assert!(longest < budget + longest_run, "budget {budget}: a burst ran {longest}");
            assert_eq!(m.output, reference.output, "budget {budget}: output");
            let (cpu, want) = (&m.threads[0].cpu, &reference.threads[0].cpu);
            assert_eq!(cpu, want, "budget {budget}: final cpu");
            // Everything but the dead stack above sp, where popped jit
            // frames leave tokens and interpreted ones leave pcs.
            let (sp, limit) = (cpu.sp as usize, cpu.stack_limit as usize);
            assert_eq!(m.mem[..sp], reference.mem[..sp], "budget {budget}: memory");
            assert_eq!(m.mem[limit..], reference.mem[limit..], "budget {budget}: memory");
        }
    }
}

/// Recursion with no loop and no base case: calls are the only place a
/// burst can end, and the stack check the only thing that stops it.
#[test]
fn unbounded_recursion_overflows_where_the_interpreter_does() {
    let mut a = Assembler::new();
    a.emit(&Instr::Call { proc: 0, nargs: 0 });
    a.emit(&Instr::Ret);
    let code = a.finish();
    let end = code.len() as u32;
    let m = module_with(
        code,
        vec![ProcMeta {
            name: "main".into(),
            entry_pc: 0,
            end_pc: end,
            frame_words: 2,
            save_regs: vec![],
            n_args: 0,
        }],
        TypeTable::default(),
    );
    let (interp, jit) = run_both(&m);
    assert_eq!(interp.0, RunOutcome::Trap(VmTrap::StackOverflow));
    assert_eq!(interp, jit);
    // And a budget far below the overflow still ends the burst: at a call.
    let mut mj = Machine::new(m, layout());
    let engine = JitEngine::for_machine(&mj);
    mj.set_code_map(engine.code_map());
    let tid = mj.spawn(0, &[]);
    assert_eq!(engine.run_thread(&mut mj, tid, 10), RunOutcome::OutOfFuel);
    assert_eq!(mj.steps, 10);
}
