//! The execution core: one register file, one instruction semantics,
//! one shadow tracker — shared by both machines.
//!
//! The paper describes *one* abstract machine (§2). This repository runs
//! it over two memory formats: [`crate::machine::Machine`] owns plain
//! `i64` words and is driven by one OS thread; [`crate::par::ParMachine`]
//! shares relaxed-atomic words between OS-thread mutators. Everything
//! that does not depend on that choice lives here, exactly once:
//!
//! * [`Cpu`] — the per-thread register file and frame cursor, embedded
//!   in both `Thread` and `Mutator` (and deposited as-is at safepoints:
//!   it *is* the parallel runtime's snapshot);
//! * [`step`] — the only function that executes a `match` over
//!   [`Instr`] ([`run`] is the loop over it);
//! * [`shadow_step`] — the only function that propagates shadow
//!   [`Tag`]s over it.
//!
//! Everything that *does* depend on the memory format sits behind
//! [`World`]: word access (plain vs relaxed atomic, with forwarding
//! resolution under concurrent evacuation), allocation (bump pointer
//! and generational large-object path vs TLAB/region/CAS frontier), the
//! `StB` barrier (remembered set vs SATB deletion barrier), program
//! output, shadow-tag storage, and the safepoint poll. The functions
//! here are generic over `W: World` and monomorphised per machine — no
//! `dyn`, so each machine's interpreter loop compiles to the code it
//! had when the `match` was written out twice.

use m3gc_core::layout::BaseReg;

use crate::codemap::{CodeMap, JIT_RETPC_BIAS};
use crate::decode::DecodedCode;
use crate::isa::{AluOp, Instr, NUM_REGS};
use crate::machine::{VmTrap, GLOBAL_BASE, RETURN_SENTINEL};
use crate::module::VmModule;
use crate::shadow::Tag;

/// One thread's register file and frame cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpu {
    /// General-purpose registers.
    pub regs: [i64; NUM_REGS],
    /// Shadow tags for the registers (maintained only in shadow mode).
    pub reg_tags: [Tag; NUM_REGS],
    /// Program counter (byte offset in module code).
    pub pc: u32,
    /// Frame pointer.
    pub fp: i64,
    /// Stack pointer.
    pub sp: i64,
    /// Argument pointer.
    pub ap: i64,
    /// First word of this thread's stack region.
    pub stack_base: i64,
    /// One past the last usable stack word.
    pub stack_limit: i64,
}

impl Cpu {
    fn base(&self, b: BaseReg) -> i64 {
        match b {
            BaseReg::Fp => self.fp,
            BaseReg::Sp => self.sp,
            BaseReg::Ap => self.ap,
        }
    }
}

/// Result of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Instruction completed.
    Normal,
    /// The heap is full: a collection is required before this `ALLOC`
    /// can proceed. No state changed; the pc still addresses the
    /// `ALLOC`.
    NeedGc,
    /// A collection is pending and the pc is at a gc-point: the thread
    /// must stop here (§5.3). No state changed.
    AtSafepoint,
    /// The thread returned from its bottom frame (or executed `HALT`).
    Finished,
    /// Abnormal termination.
    Trap(VmTrap),
}

/// Raw addresses the native baseline compiler's code reads and writes
/// directly (see `m3gc_jit::JitContext`). Null where a world has no
/// such cell: parallel machines allocate through the helper only.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct JitPorts {
    pub mem: *mut i64,
    pub gc_flag: *const u8,
    pub alloc_ptr: *mut i64,
    pub alloc_fast_limit: *const i64,
    pub alloc_count: *mut u64,
    pub words: *mut u64,
}

/// One thread's view of a machine minus its [`Cpu`]: the write half of
/// the seam whose read half is the runtime's `RootSource`.
///
/// The required methods are the decisions the two machines actually
/// differ on; the provided ones are the shared behaviour built on them.
pub trait World {
    /// The loaded module.
    fn module(&self) -> &VmModule;
    /// The module's pre-decoded code.
    fn decoded(&self) -> &DecodedCode;
    /// The installed native-code address map, if a JIT is attached.
    fn code_map(&self) -> Option<&CodeMap>;
    /// Total memory words.
    fn mem_words(&self) -> usize;
    /// Unchecked word read (`addr` must be in range).
    fn word(&self, addr: i64) -> i64;
    /// Unchecked word write (`addr` must be in range).
    fn set_word(&mut self, addr: i64, v: i64);
    /// Zeroes `words` words starting at `addr`.
    fn zero(&mut self, addr: i64, words: i64);
    /// True if a collection is pending and `pc` is a gc-point, so the
    /// thread must stop before executing it.
    fn gc_poll(&self, pc: u32) -> bool;
    /// Attempts a heap allocation; `Ok(None)` means "needs gc".
    fn alloc(&mut self, ty: u16, len: i64) -> Result<Option<i64>, VmTrap>;
    /// The barrier store of [`Instr::StB`].
    fn barrier_store(&mut self, addr: i64, v: i64) -> Result<(), VmTrap>;
    /// Non-allocating runtime service (print, fatal errors).
    fn sys(&mut self, code: u8, arg: i64) -> Result<(), VmTrap>;
    /// True when shadow root tracking is on.
    fn shadow_on(&self) -> bool;
    /// A memory word's shadow tag (`NonPtr` when shadow mode is off).
    fn mem_tag(&self, addr: i64) -> Tag;
    /// Writes a memory word's shadow tag (ignored when shadow mode is
    /// off or `addr` is out of range — the real access traps first).
    fn set_mem_tag(&mut self, addr: i64, tag: Tag);
    /// Clears `words` shadow tags starting at `addr`.
    fn clear_tags(&mut self, addr: i64, words: i64);
    /// True if `addr` lies in a dead (collected or reclaimed) region:
    /// any access landing there went through a pointer the collector
    /// did not update — a gc-map hole.
    fn in_dead_space(&self, addr: i64) -> bool;
    #[doc(hidden)]
    fn jit_ports(&mut self) -> JitPorts;

    /// Bounds-checked read: `[0, GLOBAL_BASE)` is NIL, anything else
    /// out of range is wild.
    #[inline]
    fn load(&self, addr: i64) -> Result<i64, VmTrap> {
        check_addr(addr, self.mem_words())?;
        Ok(self.word(addr))
    }

    /// Bounds-checked write.
    #[inline]
    fn store(&mut self, addr: i64, v: i64) -> Result<(), VmTrap> {
        check_addr(addr, self.mem_words())?;
        self.set_word(addr, v);
        Ok(())
    }

    /// The heap load of [`Instr::Ld`]: the value and the address it was
    /// actually read from (they differ only while a concurrent
    /// evacuation redirects accesses to published copies).
    #[inline]
    fn heap_load(&mut self, addr: i64) -> Result<(i64, i64), VmTrap> {
        Ok((self.load(addr)?, addr))
    }

    /// The heap store of [`Instr::St`].
    #[inline]
    fn heap_store(&mut self, addr: i64, v: i64) -> Result<(), VmTrap> {
        self.store(addr, v)
    }

    /// Hook run after every `St`/`StB`/`StG`: `v` was stored at `addr`
    /// (per-request regions watch these for escaping pointers).
    #[inline]
    fn note_escape(&mut self, _addr: i64, _v: i64) {}

    /// Resolves a frame linkage return word to a bytecode pc: plain pcs
    /// pass through, biased JIT tokens resolve through the code map.
    ///
    /// # Panics
    ///
    /// Panics on a biased token without a resolvable code-map entry — a
    /// JIT frame exists but no engine registered its gc-points.
    #[inline]
    fn resolve_retpc(&self, retpc: i64) -> u32 {
        resolve_retpc(self.code_map(), retpc)
    }
}

/// [`World::resolve_retpc`] for callers holding only the code map.
///
/// # Panics
///
/// As [`World::resolve_retpc`].
#[must_use]
pub fn resolve_retpc(map: Option<&CodeMap>, retpc: i64) -> u32 {
    if retpc < JIT_RETPC_BIAS {
        return retpc as u32;
    }
    map.expect("jit return token on a machine with no code map")
        .resolve_ret(retpc)
        .expect("jit return token resolves to no registered gc-point")
}

#[inline]
pub(crate) fn check_addr(addr: i64, mem_words: usize) -> Result<(), VmTrap> {
    if (GLOBAL_BASE as i64..mem_words as i64).contains(&addr) {
        Ok(())
    } else if (0..GLOBAL_BASE as i64).contains(&addr) {
        Err(VmTrap::NilError)
    } else {
        Err(VmTrap::WildAddress)
    }
}

/// The `Sys` services, writing program output to `out`.
pub(crate) fn sys_to(out: &mut String, code: u8, arg: i64) -> Result<(), VmTrap> {
    match code {
        0 => out.push_str(&arg.to_string()),
        1 => out.push(u32::try_from(arg).ok().and_then(char::from_u32).unwrap_or('?')),
        2 => out.push('\n'),
        3 => return Err(VmTrap::RangeError),
        4 => return Err(VmTrap::NilError),
        5 => return Err(VmTrap::AssertError),
        _ => return Err(VmTrap::WildAddress),
    }
    Ok(())
}

/// Builds the bottom frame of a thread about to run procedure `proc`
/// with `args` in the stack region `[stack_base, stack_limit)`.
///
/// # Panics
///
/// Panics if `proc` is invalid or `args` does not match its arity.
pub(crate) fn spawn<W: World>(
    w: &mut W,
    (stack_base, stack_limit): (i64, i64),
    proc: u16,
    args: &[i64],
) -> Cpu {
    let meta = &w.module().procs[proc as usize];
    assert_eq!(meta.n_args as usize, args.len(), "argument count mismatch");
    let (entry_pc, frame_words) = (meta.entry_pc, i64::from(meta.frame_words));
    let mut sp = stack_base;
    for &a in args {
        w.set_word(sp, a);
        sp += 1;
    }
    // Bottom-frame linkage.
    w.set_word(sp, RETURN_SENTINEL);
    w.zero(sp + 1, 2 + frame_words);
    let fp = sp + 3;
    w.clear_tags(stack_base, fp + frame_words - stack_base);
    Cpu {
        regs: [0; NUM_REGS],
        reg_tags: [Tag::NonPtr; NUM_REGS],
        pc: entry_pc,
        fp,
        sp: fp + frame_words,
        ap: stack_base,
        stack_base,
        stack_limit,
    }
}

/// `dst := allocate(ty, len)`; `Ok(false)` means "needs gc" (no state
/// changed). Shared by [`step`] and the JIT's allocation call-out.
#[inline]
pub fn alloc_into<W: World>(
    cpu: &mut Cpu,
    w: &mut W,
    dst: u8,
    ty: u16,
    len: i64,
) -> Result<bool, VmTrap> {
    let Some(addr) = w.alloc(ty, len)? else { return Ok(false) };
    cpu.regs[dst as usize] = addr;
    if w.shadow_on() {
        cpu.reg_tags[dst as usize] = Tag::Ptr;
    }
    Ok(true)
}

/// `dst := mem[addr]` through [`World::heap_load`]. Shared by [`step`]
/// and the JIT's forwarding-aware load call-out.
#[inline]
pub fn load_into<W: World>(cpu: &mut Cpu, w: &mut W, dst: u8, addr: i64) -> Result<(), VmTrap> {
    let (v, at) = w.heap_load(addr)?;
    cpu.regs[dst as usize] = v;
    if at != addr && w.shadow_on() {
        // `shadow_step` tagged `dst` from the raw address; the value
        // came from the published copy.
        cpu.reg_tags[dst as usize] = w.mem_tag(at);
    }
    Ok(())
}

/// The tag combination rule for additive ALU operations.
fn additive(op: AluOp, a: Tag, b: Tag) -> Tag {
    match op {
        AluOp::Add | AluOp::Sub => Tag::combine_additive(a, b),
        _ => Tag::NonPtr,
    }
}

/// Shadow-mode instrumentation, run before the instruction executes:
/// checks register-based accesses against the dead heap regions and
/// propagates [`Tag`]s through the instruction's data flow. Allocation
/// results are tagged by [`alloc_into`] (the address is not known here).
pub fn shadow_step<W: World>(cpu: &mut Cpu, w: &mut W, ins: &Instr) -> Option<VmTrap> {
    // A register-based access whose effective address lands in a
    // just-collected space went through a pointer the tables missed.
    if let Instr::Ld { base, off, .. }
    | Instr::St { base, off, .. }
    | Instr::StB { base, off, .. } = *ins
    {
        if w.in_dead_space(cpu.regs[base as usize] + i64::from(off)) {
            return Some(VmTrap::StalePointer);
        }
    }
    let tags = &mut cpu.reg_tags;
    match *ins {
        Instr::MovI { dst, .. } | Instr::UnAlu { dst, .. } => tags[dst as usize] = Tag::NonPtr,
        Instr::Mov { dst, src } => tags[dst as usize] = tags[src as usize],
        Instr::Alu { op, dst, a, b } => {
            tags[dst as usize] = additive(op, tags[a as usize], tags[b as usize]);
        }
        Instr::AluI { op, dst, a, .. } => {
            tags[dst as usize] = additive(op, tags[a as usize], Tag::NonPtr);
        }
        Instr::Ld { dst, base, off } => {
            tags[dst as usize] = w.mem_tag(cpu.regs[base as usize] + i64::from(off));
        }
        Instr::St { base, off, src } | Instr::StB { base, off, src } => {
            w.set_mem_tag(cpu.regs[base as usize] + i64::from(off), tags[src as usize]);
        }
        Instr::LdF { dst, breg, off } => {
            cpu.reg_tags[dst as usize] = w.mem_tag(cpu.base(breg) + i64::from(off));
        }
        Instr::StF { breg, off, src } => {
            w.set_mem_tag(cpu.base(breg) + i64::from(off), cpu.reg_tags[src as usize]);
        }
        // Stack and global addresses are not heap pointers; the tables
        // must never list them as tidy roots.
        Instr::Lea { dst, .. } | Instr::LeaG { dst, .. } => tags[dst as usize] = Tag::NonPtr,
        Instr::LdG { dst, goff } => {
            tags[dst as usize] = w.mem_tag((GLOBAL_BASE + goff as usize) as i64);
        }
        Instr::StG { goff, src } => {
            w.set_mem_tag((GLOBAL_BASE + goff as usize) as i64, tags[src as usize]);
        }
        Instr::Push { src } => w.set_mem_tag(cpu.sp, tags[src as usize]),
        Instr::Call { proc, .. } => {
            // Linkage words and the zeroed frame hold no pointers yet.
            if let Some(meta) = w.module().procs.get(proc as usize) {
                let words = 3 + i64::from(meta.frame_words);
                w.clear_tags(cpu.sp, words);
            }
        }
        // Allocation is tagged after the fact; everything else moves
        // no data.
        Instr::Alloc { .. }
        | Instr::AllocA { .. }
        | Instr::Ret
        | Instr::Jmp { .. }
        | Instr::Brt { .. }
        | Instr::Brf { .. }
        | Instr::GcPoint
        | Instr::Sys { .. }
        | Instr::Halt => {}
    }
    None
}

/// Executes one instruction of `cpu` against `w`.
///
/// The safepoint poll comes first: at any gc-point, a pending
/// collection stops the thread *before* the instruction executes — an
/// allocation must not race the collection, and §5.3's tables describe
/// exactly this pc. The caller owns the bookkeeping around the outcome
/// (step counters, thread status, parking).
#[inline]
pub fn step<W: World>(cpu: &mut Cpu, w: &mut W) -> Step {
    let pc = cpu.pc;
    if w.gc_poll(pc) {
        return Step::AtSafepoint;
    }
    let (ins, next_pc) = *w.decoded().at(pc);
    if w.shadow_on() {
        if let Some(trap) = shadow_step(cpu, w, &ins) {
            return Step::Trap(trap);
        }
    }
    let mut new_pc = next_pc;
    macro_rules! trap {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(tr) => return Step::Trap(tr),
            }
        };
    }
    match ins {
        Instr::MovI { dst, imm } => cpu.regs[dst as usize] = imm,
        Instr::Mov { dst, src } => cpu.regs[dst as usize] = cpu.regs[src as usize],
        Instr::Alu { op, dst, a, b } => {
            cpu.regs[dst as usize] = op.eval(cpu.regs[a as usize], cpu.regs[b as usize]);
        }
        Instr::AluI { op, dst, a, imm } => {
            cpu.regs[dst as usize] = op.eval(cpu.regs[a as usize], imm);
        }
        Instr::UnAlu { op, dst, a } => cpu.regs[dst as usize] = op.eval(cpu.regs[a as usize]),
        Instr::Ld { dst, base, off } => {
            let addr = cpu.regs[base as usize] + i64::from(off);
            trap!(load_into(cpu, w, dst, addr));
        }
        Instr::St { base, off, src } => {
            // Unbarriered store: codegen proved the old value needs no
            // protection (non-pointer value or nursery-fresh target).
            let addr = cpu.regs[base as usize] + i64::from(off);
            let v = cpu.regs[src as usize];
            trap!(w.heap_store(addr, v));
            w.note_escape(addr, v);
        }
        Instr::StB { base, off, src } => {
            let addr = cpu.regs[base as usize] + i64::from(off);
            let v = cpu.regs[src as usize];
            trap!(w.barrier_store(addr, v));
            w.note_escape(addr, v);
        }
        Instr::LdF { dst, breg, off } => {
            cpu.regs[dst as usize] = trap!(w.load(cpu.base(breg) + i64::from(off)));
        }
        Instr::StF { breg, off, src } => {
            trap!(w.store(cpu.base(breg) + i64::from(off), cpu.regs[src as usize]));
        }
        Instr::Lea { dst, breg, off } => {
            cpu.regs[dst as usize] = cpu.base(breg) + i64::from(off);
        }
        Instr::LdG { dst, goff } => {
            cpu.regs[dst as usize] = w.word((GLOBAL_BASE + goff as usize) as i64);
        }
        Instr::StG { goff, src } => {
            let addr = (GLOBAL_BASE + goff as usize) as i64;
            let v = cpu.regs[src as usize];
            w.set_word(addr, v);
            w.note_escape(addr, v);
        }
        Instr::LeaG { dst, goff } => {
            cpu.regs[dst as usize] = (GLOBAL_BASE + goff as usize) as i64;
        }
        Instr::Push { src } => {
            if cpu.sp >= cpu.stack_limit {
                return Step::Trap(VmTrap::StackOverflow);
            }
            w.set_word(cpu.sp, cpu.regs[src as usize]);
            cpu.sp += 1;
        }
        Instr::Call { proc, nargs } => {
            let Some(meta) = w.module().procs.get(proc as usize) else {
                return Step::Trap(VmTrap::BadProc);
            };
            let (entry, frame_words) = (meta.entry_pc, i64::from(meta.frame_words));
            let sp = cpu.sp;
            if sp + 3 + frame_words >= cpu.stack_limit {
                return Step::Trap(VmTrap::StackOverflow);
            }
            w.set_word(sp, i64::from(next_pc));
            w.set_word(sp + 1, cpu.fp);
            w.set_word(sp + 2, cpu.ap);
            cpu.ap = sp - i64::from(nargs);
            cpu.fp = sp + 3;
            cpu.sp = cpu.fp + frame_words;
            w.zero(cpu.fp, frame_words);
            new_pc = entry;
        }
        Instr::Ret => {
            let retpc = w.word(cpu.fp - 3);
            if retpc == RETURN_SENTINEL {
                return Step::Finished;
            }
            let (old_fp, old_ap) = (w.word(cpu.fp - 2), w.word(cpu.fp - 1));
            cpu.sp = cpu.ap;
            cpu.fp = old_fp;
            cpu.ap = old_ap;
            new_pc = w.resolve_retpc(retpc);
        }
        Instr::Jmp { target } => new_pc = target,
        Instr::Brt { cond, target } => {
            if cpu.regs[cond as usize] != 0 {
                new_pc = target;
            }
        }
        Instr::Brf { cond, target } => {
            if cpu.regs[cond as usize] == 0 {
                new_pc = target;
            }
        }
        Instr::Alloc { dst, ty } => {
            if !trap!(alloc_into(cpu, w, dst, ty, 0)) {
                return Step::NeedGc;
            }
        }
        Instr::AllocA { dst, ty, len } => {
            let len = cpu.regs[len as usize];
            if !trap!(alloc_into(cpu, w, dst, ty, len)) {
                return Step::NeedGc;
            }
        }
        Instr::GcPoint => {}
        Instr::Sys { code, arg } => trap!(w.sys(code, cpu.regs[arg as usize])),
        Instr::Halt => return Step::Finished,
    }
    cpu.pc = new_pc;
    Step::Normal
}

/// Runs up to `max` instructions of `cpu` against `w`: a loop over
/// [`step`]. Returns the stopping condition ([`Step::Normal`] means the
/// budget was exhausted) and the number of instructions executed —
/// every outcome but `AtSafepoint` executed (or attempted) one, so it
/// counts against the budget.
#[inline]
pub fn run<W: World>(cpu: &mut Cpu, w: &mut W, max: u64) -> (Step, u64) {
    for executed in 0..max {
        match step(cpu, w) {
            Step::Normal => {}
            Step::AtSafepoint => return (Step::AtSafepoint, executed),
            other => return (other, executed + 1),
        }
    }
    (Step::Normal, max)
}

#[cfg(test)]
mod tests {
    //! `World` conformance: every instruction, and every trap edge, must
    //! leave a `Machine` world and a `ParMachine` world built from the
    //! same image in the same state.

    use std::collections::HashSet;
    use std::sync::atomic::Ordering::Relaxed;

    use m3gc_core::encode::{encode_module, Scheme};
    use m3gc_core::heap::{HeapType, TypeTable};
    use m3gc_core::tables::ModuleTables;

    use super::*;
    use crate::asm::Assembler;
    use crate::isa::UnAluOp;
    use crate::machine::{HeapStrategy, Machine, MachineLayout};
    use crate::module::ProcMeta;
    use crate::par::{ParLayout, ParMachine};

    const SEMI: usize = 256;
    const STACK: usize = 64;

    /// One row of the table: a `main` (frame of `frame` words) and an
    /// optional callee (`proc 1`, two arguments, frame of 3 words), the
    /// initial register tweak, and what the run must end in.
    struct Case {
        name: &'static str,
        main: Vec<Instr>,
        callee: Vec<Instr>,
        frame: u32,
        init: fn(&mut Cpu),
        heap_full: bool,
        end: Step,
        output: &'static str,
        /// Anything else the sequential machine must show at the end
        /// (the parallel one is already known to agree).
        check: fn(&Machine),
    }

    impl Default for Case {
        fn default() -> Case {
            Case {
                name: "",
                main: vec![],
                callee: vec![Instr::Ret],
                frame: 0,
                init: |_| {},
                heap_full: false,
                end: Step::Finished,
                output: "",
                check: |_| {},
            }
        }
    }

    fn types() -> TypeTable {
        let mut t = TypeTable::default();
        t.add(HeapType::Record { name: "R".into(), words: 2, ptr_offsets: vec![0] });
        t.add(HeapType::Array { name: "A".into(), elem_words: 1, elem_ptr_offsets: vec![] });
        t
    }

    fn module_of(case: &Case) -> VmModule {
        let mut a = Assembler::new();
        for i in &case.main {
            a.emit(i);
        }
        let callee_entry = a.here();
        for i in &case.callee {
            a.emit(i);
        }
        let code = a.finish();
        let proc = |name: &str, entry_pc, end_pc, frame_words, n_args| ProcMeta {
            name: name.into(),
            entry_pc,
            end_pc,
            frame_words,
            save_regs: vec![],
            n_args,
        };
        VmModule {
            procs: vec![
                proc("main", 0, callee_entry, case.frame, 0),
                proc("callee", callee_entry, code.len() as u32, 3, 2),
            ],
            code,
            types: types(),
            globals_words: 4,
            global_ptr_roots: vec![],
            main: 0,
            poll_pcs: vec![],
            gc_maps: encode_module(&ModuleTables::default(), Scheme::DELTA_MAIN_PP),
            logical_maps: ModuleTables::default(),
        }
    }

    fn discriminant(i: &Instr) -> std::mem::Discriminant<Instr> {
        std::mem::discriminant(i)
    }

    /// Runs `case` on both worlds in lock step, comparing outcome, `Cpu`,
    /// every memory word and every tag after each instruction. Returns
    /// the instruction kinds it executed.
    fn run(case: &Case) -> HashSet<std::mem::Discriminant<Instr>> {
        let module = module_of(case);
        let mut seq = Machine::new(
            module.clone(),
            MachineLayout {
                semi_words: SEMI,
                stack_words: STACK,
                max_threads: 2,
                heap: HeapStrategy::Semispace,
            },
        );
        let mut par = ParMachine::new(
            module,
            ParLayout {
                semi_words: SEMI,
                stack_words: STACK,
                mutators: 2,
                tlab_words: 0,
                region_words: 0,
            },
        );
        seq.enable_shadow();
        par.enable_shadow();
        if case.heap_full {
            seq.set_force_gc_after(Some(0));
            par.force_gc_at.store(0, Relaxed);
        }
        let tid = seq.spawn(0, &[]);
        let mut mu = par.spawn_mutator(tid, 0, &[]);
        (case.init)(&mut seq.threads[tid].cpu);
        (case.init)(&mut mu.cpu);
        let name = case.name;
        let mut seen = HashSet::new();
        let mut steps = 0;
        let end = loop {
            seen.insert(discriminant(&seq.decoded().at(seq.threads[tid].pc).0));
            let (cpu, world) = seq.split(tid);
            let a = step(cpu, world);
            let b = step(&mut mu.cpu, &mut par.world(&mut mu.local));
            assert_eq!(a, b, "{name}: outcomes diverge");
            assert_eq!(seq.threads[tid].cpu, mu.cpu, "{name}: cpus diverge after {a:?}");
            assert_eq!(seq.mem_words(), par.mem_words(), "{name}: memory sizes");
            let pw = par.world(&mut mu.local);
            for addr in 0..seq.mem_words() as i64 {
                assert_eq!(seq.word(addr), pw.word(addr), "{name}: word {addr} after {a:?}");
                assert_eq!(seq.mem_tag(addr), pw.mem_tag(addr), "{name}: tag {addr} after {a:?}");
            }
            assert_eq!(seq.output, mu.output, "{name}: output");
            if a != Step::Normal {
                break a;
            }
            steps += 1;
            assert!(steps < 1000, "{name}: runaway");
        };
        assert_eq!(end, case.end, "{name}: final outcome");
        assert_eq!(seq.output, case.output, "{name}: program output");
        (case.check)(&seq);
        par.retire_tlab(&mut mu);
        assert_eq!(seq.allocations, par.allocations.load(Relaxed), "{name}: allocations");
        assert_eq!(seq.words_allocated, par.words_allocated.load(Relaxed), "{name}: words");
        seen
    }

    fn trap(name: &'static str, main: Vec<Instr>, t: VmTrap) -> Case {
        Case { name, main, end: Step::Trap(t), ..Case::default() }
    }

    fn cases() -> Vec<Case> {
        use Instr::*;
        let heap = (GLOBAL_BASE + 4 + 2 * STACK) as i64;
        vec![
            Case {
                name: "arithmetic and output",
                main: vec![
                    MovI { dst: 1, imm: 6 },
                    MovI { dst: 2, imm: 7 },
                    Alu { op: AluOp::Mul, dst: 3, a: 1, b: 2 },
                    Sys { code: 0, arg: 3 },
                    UnAlu { op: UnAluOp::Neg, dst: 4, a: 3 },
                    AluI { op: AluOp::Add, dst: 4, a: 4, imm: 107 },
                    Mov { dst: 5, src: 4 },
                    Sys { code: 1, arg: 5 },
                    Sys { code: 2, arg: 0 },
                    Ret,
                ],
                output: "42A\n",
                ..Case::default()
            },
            Case {
                name: "call and return with args",
                main: vec![
                    MovI { dst: 1, imm: 30 },
                    Push { src: 1 },
                    MovI { dst: 1, imm: 12 },
                    Push { src: 1 },
                    Call { proc: 1, nargs: 2 },
                    Sys { code: 0, arg: 0 },
                    Ret,
                ],
                callee: vec![
                    LdF { dst: 1, breg: BaseReg::Ap, off: 0 },
                    LdF { dst: 2, breg: BaseReg::Ap, off: 1 },
                    Alu { op: AluOp::Add, dst: 0, a: 1, b: 2 },
                    StF { breg: BaseReg::Fp, off: 2, src: 0 },
                    Lea { dst: 3, breg: BaseReg::Fp, off: 2 },
                    Ld { dst: 0, base: 3, off: 0 },
                    Ret,
                ],
                output: "42",
                check: |m| assert_eq!(m.threads[0].sp, m.threads[0].fp, "stack fully popped"),
                ..Case::default()
            },
            Case {
                name: "allocation, field access and derived tags",
                main: vec![
                    Alloc { dst: 1, ty: 0 },
                    MovI { dst: 2, imm: 99 },
                    St { base: 1, off: 2, src: 2 },
                    StB { base: 1, off: 1, src: 1 },
                    Ld { dst: 3, base: 1, off: 2 },
                    Sys { code: 0, arg: 3 },
                    AluI { op: AluOp::Add, dst: 4, a: 1, imm: 1 },
                    StF { breg: BaseReg::Fp, off: 0, src: 4 },
                    Alu { op: AluOp::Sub, dst: 5, a: 4, b: 1 },
                    MovI { dst: 6, imm: 3 },
                    AllocA { dst: 7, ty: 1, len: 6 },
                    St { base: 7, off: 4, src: 5 },
                    Push { src: 7 },
                    Halt,
                ],
                frame: 1,
                output: "99",
                check: |m| assert_eq!((m.allocations, m.words_allocated), (2, 3 + 5)),
                ..Case::default()
            },
            Case {
                name: "globals",
                main: vec![
                    MovI { dst: 1, imm: 5 },
                    StG { goff: 2, src: 1 },
                    LdG { dst: 3, goff: 2 },
                    LeaG { dst: 4, goff: 2 },
                    Ld { dst: 5, base: 4, off: 0 },
                    Alu { op: AluOp::Add, dst: 6, a: 3, b: 5 },
                    Sys { code: 0, arg: 6 },
                    Ret,
                ],
                output: "10",
                ..Case::default()
            },
            Case {
                name: "control flow",
                // pcs: MovI r1 (0..3), Brf (3..9), Brt (9..15), Jmp (15..20),
                // Halt (20), GcPoint (21), Jmp back to Halt (22..27).
                main: vec![
                    MovI { dst: 1, imm: 1 },
                    Brf { cond: 1, target: 20 },
                    Brt { cond: 1, target: 21 },
                    Jmp { target: 20 },
                    Halt,
                    GcPoint,
                    Jmp { target: 20 },
                ],
                ..Case::default()
            },
            trap(
                "nil load",
                vec![MovI { dst: 1, imm: 0 }, Ld { dst: 2, base: 1, off: 1 }],
                VmTrap::NilError,
            ),
            trap(
                "wild load",
                vec![MovI { dst: 1, imm: 1 << 40 }, Ld { dst: 2, base: 1, off: 0 }],
                VmTrap::WildAddress,
            ),
            trap(
                "negative store",
                vec![MovI { dst: 1, imm: -5 }, St { base: 1, off: 0, src: 1 }],
                VmTrap::WildAddress,
            ),
            trap(
                "nil barrier store",
                vec![MovI { dst: 1, imm: 3 }, StB { base: 1, off: 0, src: 1 }],
                VmTrap::NilError,
            ),
            trap(
                "wild frame load",
                vec![LdF { dst: 1, breg: BaseReg::Fp, off: 1 << 30 }],
                VmTrap::WildAddress,
            ),
            trap(
                "wild frame store",
                vec![StF { breg: BaseReg::Ap, off: -(1 << 30), src: 1 }],
                VmTrap::WildAddress,
            ),
            trap("unknown procedure", vec![Call { proc: 9, nargs: 0 }], VmTrap::BadProc),
            trap(
                "negative array length",
                vec![MovI { dst: 1, imm: -1 }, AllocA { dst: 2, ty: 1, len: 1 }],
                VmTrap::RangeError,
            ),
            trap(
                "array larger than a semispace",
                vec![MovI { dst: 1, imm: SEMI as i64 }, AllocA { dst: 2, ty: 1, len: 1 }],
                VmTrap::OutOfMemory,
            ),
            trap("range check service", vec![Sys { code: 3, arg: 0 }], VmTrap::RangeError),
            trap("nil check service", vec![Sys { code: 4, arg: 0 }], VmTrap::NilError),
            trap("assert service", vec![Sys { code: 5, arg: 0 }], VmTrap::AssertError),
            trap("unknown service", vec![Sys { code: 77, arg: 0 }], VmTrap::WildAddress),
            Case {
                name: "push at the stack limit",
                main: vec![Push { src: 0 }],
                init: |cpu| cpu.sp = cpu.stack_limit,
                end: Step::Trap(VmTrap::StackOverflow),
                ..Case::default()
            },
            Case {
                name: "deep recursion",
                main: vec![Push { src: 0 }, Push { src: 0 }, Call { proc: 1, nargs: 2 }],
                callee: vec![Push { src: 0 }, Push { src: 0 }, Call { proc: 1, nargs: 2 }],
                end: Step::Trap(VmTrap::StackOverflow),
                ..Case::default()
            },
            Case {
                name: "allocation needing gc",
                main: vec![Alloc { dst: 1, ty: 0 }],
                heap_full: true,
                end: Step::NeedGc,
                ..Case::default()
            },
            Case {
                name: "stale pointer into the dead semispace",
                main: vec![
                    MovI { dst: 1, imm: heap + SEMI as i64 + 8 },
                    Ld { dst: 2, base: 1, off: 0 },
                ],
                end: Step::Trap(VmTrap::StalePointer),
                ..Case::default()
            },
        ]
    }

    #[test]
    fn every_instruction_agrees_on_both_worlds() {
        let mut seen = HashSet::new();
        for case in cases() {
            seen.extend(run(&case));
        }
        assert_eq!(seen.len(), 25, "the table must execute every `Instr` variant");
    }
}
