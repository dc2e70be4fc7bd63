//! Machine-level behavioral tests across the whole pipeline: register
//! save/restore discipline, parking at gc-points, table/disassembly golden
//! shapes, and the OOM boundary.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use m3gc::compiler::{
    compile, run_module, run_module_opts, run_module_par_opts, run_module_serve, Options,
};
use m3gc::core::layout::BaseReg;
use m3gc::runtime::scheduler::ExecError;
use m3gc::runtime::{GcStrategy, RuntimeOptions, ServeLoad};
use m3gc::vm::decode::DecodedCode;
use m3gc::vm::exec::{self, Cpu, Step};
use m3gc::vm::isa::{Instr, FIRST_CALLEE_SAVE};
use m3gc::vm::machine::{Machine, MachineLayout, VmTrap};
use m3gc::vm::{Mutator, ParLayout, ParMachine, VmModule};

const CALLS: &str = "MODULE C;
TYPE R = REF RECORD v: INTEGER END;
PROCEDURE Id(x: INTEGER): INTEGER =
BEGIN RETURN x; END Id;
PROCEDURE Work(n: INTEGER): INTEGER =
VAR r: R; i, acc: INTEGER;
BEGIN
  acc := 0;
  FOR i := 1 TO n DO
    r := NEW(R);
    r.v := Id(i);
    acc := acc + r.v;
  END;
  RETURN acc;
END Work;
BEGIN
  PutInt(Work(30));
END C.";

/// Every callee-save register a procedure writes is saved in its prologue
/// and restored before every `Ret`.
#[test]
fn callee_save_discipline_holds() {
    let module = compile(CALLS, &Options::o2()).unwrap();
    let decoded = DecodedCode::new(&module.code);
    for meta in &module.procs {
        // Registers this procedure writes.
        let mut written = std::collections::HashSet::new();
        let mut pos = meta.entry_pc;
        while pos < meta.end_pc {
            let (ins, next) = decoded.at(pos);
            let dst = match ins {
                Instr::MovI { dst, .. }
                | Instr::Mov { dst, .. }
                | Instr::Alu { dst, .. }
                | Instr::AluI { dst, .. }
                | Instr::UnAlu { dst, .. }
                | Instr::Ld { dst, .. }
                | Instr::LdF { dst, .. }
                | Instr::Lea { dst, .. }
                | Instr::LdG { dst, .. }
                | Instr::LeaG { dst, .. }
                | Instr::Alloc { dst, .. }
                | Instr::AllocA { dst, .. } => Some(*dst),
                _ => None,
            };
            if let Some(d) = dst {
                if d >= FIRST_CALLEE_SAVE {
                    written.insert(d);
                }
            }
            pos = next;
        }
        let saved: std::collections::HashSet<u8> = meta.save_regs.iter().map(|&(r, _)| r).collect();
        // Restores (LdF of a saved register from its save slot) count as
        // writes; exclude them.
        for r in &written {
            assert!(
                saved.contains(r),
                "procedure `{}` writes r{} without saving it (saved: {:?})",
                meta.name,
                r,
                saved
            );
        }
    }
}

/// Ground tables only use FP and AP bases (SP never appears in generated
/// code), and offsets stay within the frame.
#[test]
fn ground_tables_are_frame_relative() {
    let module = compile(CALLS, &Options::o2()).unwrap();
    for (proc, meta) in module.logical_maps.procs.iter().zip(&module.procs) {
        for g in &proc.ground {
            match g.base {
                BaseReg::Fp => {
                    assert!(g.offset >= 0, "{}: negative FP offset {g}", proc.name);
                    // Pushed-argument derivation targets may lie just past
                    // the frame; plain ground entries must be inside it.
                    assert!(
                        (g.offset as u32) < meta.frame_words.max(1),
                        "{}: ground entry {g} outside frame of {} words",
                        proc.name,
                        meta.frame_words
                    );
                }
                BaseReg::Ap => {
                    assert!((g.offset as u32) < meta.n_args.max(1), "{}: {g}", proc.name);
                }
                BaseReg::Sp => panic!("{}: unexpected SP-based ground entry {g}", proc.name),
            }
        }
    }
}

/// One thread of one of the two machines, driven through `exec::run`
/// directly.
trait Driven {
    fn load(module: &VmModule, shadow: bool) -> Self;
    fn run(&mut self, max: u64) -> (Step, u64);
    fn cpu(&self) -> &Cpu;
    /// Every memory word, and the program output.
    fn image(&self) -> (Vec<i64>, String);
    fn code(&self) -> &Arc<DecodedCode>;
}

struct Seq {
    machine: Machine,
}

impl Driven for Seq {
    fn load(module: &VmModule, shadow: bool) -> Seq {
        let layout =
            MachineLayout { semi_words: 1 << 12, stack_words: 1 << 10, ..MachineLayout::default() };
        let mut machine = Machine::new(module.clone(), layout);
        if shadow {
            machine.enable_shadow();
        }
        machine.spawn(module.main, &[]).expect("bottom frame fits");
        Seq { machine }
    }

    fn run(&mut self, max: u64) -> (Step, u64) {
        let code = Arc::clone(self.machine.decoded());
        exec::run(&mut self.machine.cpu, &code, &mut self.machine.world, max, u64::MAX)
    }

    fn cpu(&self) -> &Cpu {
        &self.machine.cpu
    }

    fn image(&self) -> (Vec<i64>, String) {
        (self.machine.mem.to_vec(), self.machine.output.clone())
    }

    fn code(&self) -> &Arc<DecodedCode> {
        self.machine.decoded()
    }
}

struct Par {
    vm: ParMachine,
    mu: Mutator,
}

impl Driven for Par {
    fn load(module: &VmModule, shadow: bool) -> Par {
        let layout = ParLayout {
            semi_words: 1 << 12,
            stack_words: 1 << 10,
            mutators: 1,
            tlab_words: 64,
            region_words: 0,
        };
        let mut vm = ParMachine::new(module.clone(), layout);
        if shadow {
            vm.enable_shadow();
        }
        let mu = vm.spawn_mutator(0, module.main, &[]).expect("bottom frame fits");
        Par { vm, mu }
    }

    fn run(&mut self, max: u64) -> (Step, u64) {
        let world = &mut self.vm.world(&mut self.mu.local);
        exec::run(&mut self.mu.cpu, self.vm.decoded(), world, max, u64::MAX)
    }

    fn cpu(&self) -> &Cpu {
        &self.mu.cpu
    }

    fn image(&self) -> (Vec<i64>, String) {
        (self.vm.mem.iter().map(|w| w.load(Relaxed)).collect(), self.mu.output.clone())
    }

    fn code(&self) -> &Arc<DecodedCode> {
        self.vm.decoded()
    }
}

impl Par {
    fn request_gc(&mut self) {
        self.vm.gc_request.store(true, Relaxed);
    }
}

/// `exec::run` is `exec::step` repeated, whatever the budget: over
/// compiled code (calls and 12 allocations), on machine `D`,
/// `run(k)` then `run(rest)` ends in the same outcome, `Cpu`, memory,
/// output and executed count as single steps, for every split `k`; the
/// pc at every exit is an instruction boundary; and, on a machine where
/// something can `request_gc`, with a collection requested after `k`
/// instructions the burst stops before the first flagged op it reaches,
/// never on an unflagged one.
fn bursts_are_their_single_steps<D: Driven>(shadow: bool, request_gc: Option<fn(&mut D)>) {
    let module = compile(CALLS.replace("Work(30)", "Work(12)").as_str(), &Options::o2()).unwrap();
    let mut d = D::load(&module, shadow);
    let mut cpus = vec![d.cpu().clone()];
    let end = loop {
        let (step, n) = d.run(1);
        assert_eq!(n, 1, "nothing requests a collection on this heap");
        cpus.push(d.cpu().clone());
        if step != Step::Normal {
            break step;
        }
    };
    assert_eq!(end, Step::Finished);
    let total = cpus.len() as u64 - 1;
    let reference = d.image();
    assert_eq!(reference.1, "78", "Work(12)");
    let code = Arc::clone(d.code());
    let flagged = |cpu: &Cpu| code.is_gc_point_pc(cpu.pc);
    assert!(cpus.iter().filter(|c| flagged(c)).count() >= 12, "the run must cross park sites");

    for k in 0..total {
        let mut d = D::load(&module, shadow);
        assert_eq!(d.run(k), (Step::Normal, k), "budget {k}");
        assert_eq!(d.cpu(), &cpus[k as usize], "cpu after {k} instructions");
        assert!(code.index_of(d.cpu().pc).is_some(), "budget {k} left the pc mid-instruction");
        assert_eq!(d.run(u64::MAX), (Step::Finished, total - k), "rest after {k}");
        assert_eq!(d.cpu(), &cpus[total as usize], "final cpu, split at {k}");
        assert!(d.image() == reference, "memory or output, split at {k}");

        let Some(request_gc) = request_gc else { continue };
        let mut d = D::load(&module, shadow);
        d.run(k);
        request_gc(&mut d);
        let stop = (k..total).find(|&i| flagged(&cpus[i as usize]));
        match stop {
            Some(i) => {
                assert_eq!(d.run(u64::MAX), (Step::AtSafepoint, i - k), "request after {k}");
                assert_eq!(d.cpu(), &cpus[i as usize], "cpu at the safepoint after {k}");
                assert_eq!(d.run(u64::MAX), (Step::AtSafepoint, 0), "a parked thread stays");
            }
            None => assert_eq!(d.run(u64::MAX), (Step::Finished, total - k), "no gc-point left"),
        }
    }
}

#[test]
fn bursts_are_their_single_steps_on_the_sequential_machine() {
    bursts_are_their_single_steps::<Seq>(false, None);
    bursts_are_their_single_steps::<Seq>(true, None);
}

#[test]
fn bursts_are_their_single_steps_on_the_parallel_machine() {
    bursts_are_their_single_steps::<Par>(false, Some(Par::request_gc));
    bursts_are_their_single_steps::<Par>(true, Some(Par::request_gc));
}

/// A barely-sufficient heap completes; one word less hits OutOfMemory —
/// the boundary is sharp because the collector is exact.
#[test]
fn oom_boundary_is_sharp() {
    // Keeps `n` nodes of 3 words live.
    let src = |n: u32| {
        format!(
            "MODULE B;
             TYPE L = REF RECORD v: INTEGER; next: L END;
             VAR head: L; i: INTEGER;
             BEGIN
               FOR i := 1 TO {n} DO
                 WITH c = NEW(L) DO c.v := i; c.next := head; head := c; END;
               END;
               PutInt(head.v);
             END B."
        )
    };
    let need = 40 * 3; // live words
    let ok = run_module(compile(&src(40), &Options::o2()).unwrap(), need + 8);
    assert!(ok.is_ok(), "{:?}", ok.err().map(|e| e.to_string()));
    let too_small = run_module(compile(&src(40), &Options::o2()).unwrap(), need - 8);
    assert!(too_small.is_err());
}

/// The disassembler marks exactly the gc-point pcs from the tables.
#[test]
fn disassembly_marks_gc_points() {
    let module = compile(CALLS, &Options::o2()).unwrap();
    let n_points = module.logical_maps.num_points();
    let text = m3gc::vm::disasm::disassemble(&module);
    let marked = text.lines().filter(|l| l.len() > 6 && l.as_bytes()[6] == b'*').count();
    assert_eq!(marked, n_points, "{text}");
}

/// A bottom frame that does not fit its stack is a stack overflow on
/// both machines, with nothing written, and every executor reports it
/// as a trap: the arguments, linkage and frame need the room `Call`
/// asks of every later frame.
#[test]
fn a_bottom_frame_that_does_not_fit_its_stack_overflows() {
    let module = compile(CALLS, &Options::o2()).unwrap();
    let frame = 3 + module.procs[module.main as usize].frame_words as usize;
    let overflow = Err(VmTrap::StackOverflow);
    for stack_words in [0, 1, frame] {
        let layout = MachineLayout { semi_words: 1 << 12, stack_words, ..MachineLayout::default() };
        let mut machine = Machine::new(module.clone(), layout);
        let before = machine.mem.to_vec();
        assert_eq!(machine.spawn(module.main, &[]), overflow, "{stack_words} stack words");
        assert_eq!(machine.mem.to_vec(), before, "{stack_words} stack words");
        let layout = ParLayout {
            semi_words: 1 << 12,
            stack_words,
            mutators: 1,
            tlab_words: 64,
            region_words: 0,
        };
        let vm = ParMachine::new(module.clone(), layout);
        assert_eq!(vm.spawn_mutator(0, module.main, &[]).map(|_| ()), overflow);

        let seq = RuntimeOptions::new().semi_words(1 << 12).stack_words(stack_words);
        let par = seq.strategy(GcStrategy::Parallel);
        let load = ServeLoad { requests: 2, burst: 1, entry: None };
        let trap = Some(ExecError::Trap(VmTrap::StackOverflow));
        assert_eq!(run_module_opts(module.clone(), seq).err(), trap);
        assert_eq!(run_module_par_opts(module.clone(), par).err(), trap);
        assert_eq!(run_module_serve(module.clone(), par.serve(64, 1), load).err(), trap);
    }
    let layout =
        MachineLayout { semi_words: 1 << 12, stack_words: frame + 1, ..MachineLayout::default() };
    assert_eq!(Machine::new(module.clone(), layout).spawn(module.main, &[]), Ok(()));
}
