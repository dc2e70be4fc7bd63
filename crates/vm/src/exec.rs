//! The execution core: one register file, one instruction semantics,
//! one shadow tracker — shared by both machines.
//!
//! The paper describes *one* abstract machine (§2). This repository runs
//! it over two memory formats: [`crate::machine::Machine`] owns plain
//! `i64` words and is driven by one OS thread; [`crate::par::ParMachine`]
//! shares relaxed-atomic words between OS-thread mutators. Everything
//! that does not depend on that choice lives here, exactly once:
//!
//! * [`Cpu`] — the per-thread register file and frame cursor, held by
//!   the `Machine` for its one thread and by every `Mutator` (and
//!   deposited as-is at safepoints: it *is* the parallel runtime's
//!   snapshot);
//! * [`run`] — the interpreter loop, the only place a `match` over
//!   [`Instr`] executes ([`step`] is `run` with a budget of one);
//! * [`shadow_step`] — the only function that propagates shadow
//!   [`Tag`]s over it.
//!
//! `run` threads through the module's predecoded program
//! ([`DecodedCode`]) by instruction index: branch targets and callees
//! were resolved when the module was loaded, and the safepoint question
//! is asked only on the ops predecode flagged from the gc tables — the
//! paper's premise (§5.3) that a thread pays for collection support at
//! gc-points and nowhere else. Byte pcs exist only outside the loop:
//! [`Cpu::pc`], frame return words and every table keep them, and `run`
//! translates on entry, at `Ret` and on exit.
//!
//! Everything that *does* depend on the memory format sits behind
//! [`World`]: word access (plain vs relaxed atomic), allocation (bump pointer
//! and generational large-object path vs TLAB/region/CAS frontier), the
//! `StB` barrier (remembered set vs SATB deletion barrier), program
//! output, shadow-tag storage, and the collection request. The functions
//! here are generic over `W: World` and monomorphised per machine — no
//! `dyn`.

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
    /// Program counter (byte offset in module code). Authoritative
    /// whenever [`run`] is not executing: `run` keeps an instruction
    /// index in a local and writes this field once, on return.
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
    /// A collection is pending and the pc is at a park site: the thread
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

/// One thread's view of a machine minus its [`Cpu`]. With the stopped
/// thread's `Cpu` it is also the runtime's one root seam: every stack
/// walk, oracle check, derived-value update and copy reads and writes
/// roots through a `World` (memory) and that `Cpu` (registers).
///
/// The required methods are the decisions the two machines actually
/// differ on; the provided ones are the shared behaviour built on them.
pub trait World {
    /// The loaded module.
    fn module(&self) -> &VmModule;
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
    /// True if a collection is pending: the thread must stop before
    /// executing the next park site. [`run`] asks only there.
    fn gc_requested(&self) -> bool;
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

    /// Hook run after every `St`/`StB`/`StG`: `v` was stored at `addr`
    /// (per-request regions watch these for escaping pointers).
    #[inline]
    fn note_escape(&mut self, _addr: i64, _v: i64) {}

    /// Resolves a frame linkage return word to a bytecode pc: plain pcs
    /// pass through, biased JIT tokens resolve through the code map. A
    /// token that resolves to nothing — no code map, or no gc-point at
    /// or below it — comes back as `u32::MAX`, a pc that starts no
    /// instruction: `Ret` traps on it, and a frame cannot be walked
    /// through it.
    #[inline]
    fn resolve_retpc(&self, retpc: i64) -> u32 {
        resolve_retpc(self.code_map(), retpc)
    }
}

/// [`World::resolve_retpc`] for callers holding only the code map.
#[inline]
#[must_use]
pub fn resolve_retpc(map: Option<&CodeMap>, retpc: i64) -> u32 {
    if retpc < JIT_RETPC_BIAS {
        return retpc as u32;
    }
    resolve_token(map, retpc)
}

/// The biased-token half of [`resolve_retpc`], out of line so the plain
/// half inlines into every `Ret`.
fn resolve_token(map: Option<&CodeMap>, token: i64) -> u32 {
    map.and_then(|m| m.resolve_ret(token)).unwrap_or(u32::MAX)
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
/// # Errors
///
/// [`VmTrap::StackOverflow`], with nothing written, when the arguments,
/// the linkage and the frame do not fit the region: the bound `Call`
/// applies to every later frame.
///
/// # Panics
///
/// Panics if `proc` is invalid or `args` does not match its arity.
pub(crate) fn spawn<W: World>(
    w: &mut W,
    (stack_base, stack_limit): (i64, i64),
    proc: u16,
    args: &[i64],
) -> Result<Cpu, VmTrap> {
    let meta = &w.module().procs[proc as usize];
    assert_eq!(meta.n_args as usize, args.len(), "argument count mismatch");
    let (entry_pc, frame_words) = (meta.entry_pc, i64::from(meta.frame_words));
    if stack_base + args.len() as i64 + 3 + frame_words >= stack_limit {
        return Err(VmTrap::StackOverflow);
    }
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
    Ok(Cpu {
        regs: [0; NUM_REGS],
        reg_tags: [Tag::NonPtr; NUM_REGS],
        pc: entry_pc,
        fp,
        sp: fp + frame_words,
        ap: stack_base,
        stack_base,
        stack_limit,
    })
}

/// `dst := allocate(ty, len)`; `Ok(false)` means "needs gc" (no state
/// changed). Shared by [`run`] and the JIT's allocation call-out.
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

/// Runs up to `max` instructions of `cpu` against `w`, threading
/// through `code` — the predecoded program of `w`'s module. Returns the
/// stopping condition and the number of instructions executed: every
/// outcome executed (or attempted) its last instruction, so it counts
/// against the budget, except [`Step::AtSafepoint`] and a stop at a
/// loop poll.
///
/// [`Step::Normal`] means the budget ran out — or, once `poll_after`
/// instructions have run, that the pc reached a loop poll (stopping
/// before it; §5.3 bounds the distance). `u64::MAX` never stops at
/// polls.
///
/// At a park site (an allocation or a poll with tables, see
/// [`crate::decode::DecodedOp::is_gc_point`]) a pending collection
/// stops the thread *before* the instruction executes — an allocation
/// must not race the collection, and §5.3's tables describe exactly
/// this pc. Nothing is asked of the world on any other instruction.
/// The caller owns the bookkeeping around the outcome (step counters,
/// parking).
///
/// Nothing here panics on a bad transfer: an entry pc or a frame's
/// return word that starts no instruction, a branch or call for which
/// predecode found no target, and running off the end of the code all
/// end in [`Step::Trap`].
#[inline]
pub fn run<W: World>(
    cpu: &mut Cpu,
    code: &DecodedCode,
    w: &mut W,
    max: u64,
    poll_after: u64,
) -> (Step, u64) {
    // Shadow mode is decided here, once per call: the loop is compiled
    // with and without the tracker, so the unshadowed one neither tests
    // for it nor gives up registers to it.
    if w.shadow_on() {
        interpret::<W, true>(cpu, code, w, max, poll_after)
    } else {
        interpret::<W, false>(cpu, code, w, max, poll_after)
    }
}

/// The loop behind [`run`].
#[inline]
fn interpret<W: World, const SHADOW: bool>(
    cpu: &mut Cpu,
    code: &DecodedCode,
    w: &mut W,
    max: u64,
    poll_after: u64,
) -> (Step, u64) {
    if max == 0 {
        return (Step::Normal, 0);
    }
    let Some(mut idx) = code.index_of(cpu.pc) else {
        return (Step::Trap(VmTrap::WildAddress), 1);
    };
    let ops = code.ops();
    let mut left = max;
    // `max - left >= poll_after`, on the one counter the loop keeps.
    let poll_below = max.saturating_sub(poll_after);
    macro_rules! trap {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(tr) => break Step::Trap(tr),
            }
        };
    }
    let end = loop {
        if left == 0 {
            break Step::Normal;
        }
        let Some(op) = ops.get(idx) else {
            // Ran off the end of the code.
            left -= 1;
            break Step::Trap(VmTrap::WildAddress);
        };
        if !op.is_plain() {
            if op.is_gc_point() && w.gc_requested() {
                break Step::AtSafepoint;
            }
            if op.is_poll() && left <= poll_below {
                break Step::Normal;
            }
        }
        left -= 1;
        if !op.is_valid() {
            break Step::Trap(match op.ins {
                Instr::Call { .. } => VmTrap::BadProc,
                _ => VmTrap::WildAddress,
            });
        }
        if SHADOW {
            if let Some(trap) = shadow_step(cpu, w, &op.ins) {
                break Step::Trap(trap);
            }
        }
        let mut next = idx + 1;
        match op.ins {
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
                cpu.regs[dst as usize] = trap!(w.load(cpu.regs[base as usize] + i64::from(off)));
            }
            Instr::St { base, off, src } => {
                // Unbarriered store: codegen proved the old value needs no
                // protection (non-pointer value or nursery-fresh target).
                let addr = cpu.regs[base as usize] + i64::from(off);
                let v = cpu.regs[src as usize];
                trap!(w.store(addr, v));
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
                    break Step::Trap(VmTrap::StackOverflow);
                }
                w.set_word(cpu.sp, cpu.regs[src as usize]);
                cpu.sp += 1;
            }
            Instr::Call { nargs, .. } => {
                let (sp, frame_words) = (cpu.sp, op.frame_words());
                if sp + 3 + frame_words >= cpu.stack_limit {
                    break Step::Trap(VmTrap::StackOverflow);
                }
                // Frames hold byte pcs: the stack walker keys the gc
                // tables with this word.
                w.set_word(sp, i64::from(code.pc_of(idx + 1)));
                w.set_word(sp + 1, cpu.fp);
                w.set_word(sp + 2, cpu.ap);
                cpu.ap = sp - i64::from(nargs);
                cpu.fp = sp + 3;
                cpu.sp = cpu.fp + frame_words;
                w.zero(cpu.fp, frame_words);
                next = op.target();
            }
            Instr::Ret => {
                let retpc = w.word(cpu.fp - 3);
                if retpc == RETURN_SENTINEL {
                    break Step::Finished;
                }
                let Some(ret) = code.index_of(w.resolve_retpc(retpc)) else {
                    break Step::Trap(VmTrap::WildAddress);
                };
                let (old_fp, old_ap) = (w.word(cpu.fp - 2), w.word(cpu.fp - 1));
                cpu.sp = cpu.ap;
                cpu.fp = old_fp;
                cpu.ap = old_ap;
                next = ret;
            }
            Instr::Jmp { .. } => next = op.target(),
            Instr::Brt { cond, .. } => {
                if cpu.regs[cond as usize] != 0 {
                    next = op.target();
                }
            }
            Instr::Brf { cond, .. } => {
                if cpu.regs[cond as usize] == 0 {
                    next = op.target();
                }
            }
            Instr::Alloc { dst, ty } => {
                if !trap!(alloc_into(cpu, w, dst, ty, 0)) {
                    break Step::NeedGc;
                }
            }
            Instr::AllocA { dst, ty, len } => {
                let len = cpu.regs[len as usize];
                if !trap!(alloc_into(cpu, w, dst, ty, len)) {
                    break Step::NeedGc;
                }
            }
            Instr::GcPoint => {}
            Instr::Sys { code, arg } => trap!(w.sys(code, cpu.regs[arg as usize])),
            Instr::Halt => break Step::Finished,
        }
        idx = next;
    };
    // Every early exit left `idx` on the instruction it concerns.
    cpu.pc = code.pc_of(idx);
    (end, max - left)
}

/// Executes one instruction of `cpu` against `w`: [`run`] with a budget
/// of one.
#[inline]
pub fn step<W: World>(cpu: &mut Cpu, code: &DecodedCode, w: &mut W) -> Step {
    run(cpu, code, w, 1, u64::MAX).0
}

#[cfg(test)]
mod tests {
    //! `World` conformance: every instruction, and every trap edge, must
    //! leave a `Machine` world and a `ParMachine` world built from the
    //! same image in the same state — one instruction at a time, and in
    //! bursts of every length.

    use std::collections::HashSet;
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::Arc;

    use m3gc_core::encode::{encode_module, Scheme};
    use m3gc_core::heap::{HeapType, TypeTable};
    use m3gc_core::tables::{GcPointTables, ModuleTables, ProcTables};

    use super::*;
    use crate::asm::Assembler;
    use crate::isa::UnAluOp;
    use crate::machine::{HeapStrategy, Machine, MachineLayout};
    use crate::module::ProcMeta;
    use crate::par::{Mutator, ParLayout, ParMachine};

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
        /// Indices into `main` of the instructions the module's gc
        /// tables describe (a park site where one is an allocation or a
        /// poll).
        gc_points: Vec<usize>,
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
                gc_points: vec![],
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
        let main_pcs: Vec<u32> = case.main.iter().map(|i| a.emit(i)).collect();
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
        let mut tables = ModuleTables::default();
        if !case.gc_points.is_empty() {
            let points = case
                .gc_points
                .iter()
                .map(|&i| GcPointTables { pc: main_pcs[i], ..GcPointTables::default() });
            tables.procs.push(ProcTables {
                name: "main".into(),
                points: points.collect(),
                ..ProcTables::default()
            });
        }
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
            gc_maps: encode_module(&tables, Scheme::DELTA_MAIN_PP),
            logical_maps: tables,
        }
    }

    /// Which of a [`Rig`]'s two machines.
    #[derive(Clone, Copy, Debug)]
    enum Side {
        Seq,
        Par,
    }

    /// Everything an instruction can change, as one comparable value.
    #[derive(PartialEq)]
    struct State {
        cpu: Cpu,
        words: Vec<i64>,
        tags: Vec<Tag>,
        output: String,
    }

    /// Both worlds loaded with one case, a thread on each about to run
    /// `main`.
    struct Rig {
        seq: Machine,
        par: ParMachine,
        mu: Mutator,
    }

    impl Rig {
        fn new(case: &Case, shadow: bool) -> Rig {
            let module = module_of(case);
            let mut seq = Machine::new(
                module.clone(),
                MachineLayout {
                    semi_words: SEMI,
                    stack_words: STACK,
                    heap: HeapStrategy::Semispace,
                },
            );
            let mut par = ParMachine::new(
                module,
                ParLayout {
                    semi_words: SEMI,
                    stack_words: STACK,
                    mutators: 1,
                    tlab_words: 0,
                    region_words: 0,
                },
            );
            if shadow {
                seq.enable_shadow();
                par.enable_shadow();
            }
            if case.heap_full {
                seq.set_force_gc_after(Some(0));
                par.force_gc_at.store(0, Relaxed);
            }
            seq.spawn(0, &[]).expect("bottom frame fits");
            let mut mu = par.spawn_mutator(0, 0, &[]).expect("bottom frame fits");
            (case.init)(&mut seq.cpu);
            (case.init)(&mut mu.cpu);
            Rig { seq, par, mu }
        }

        fn code(&self) -> Arc<DecodedCode> {
            Arc::clone(self.seq.decoded())
        }

        fn run(&mut self, side: Side, max: u64, poll_after: u64) -> (Step, u64) {
            match side {
                Side::Seq => {
                    let code = self.code();
                    run(&mut self.seq.cpu, &code, &mut self.seq.world, max, poll_after)
                }
                Side::Par => {
                    let world = &mut self.par.world(&mut self.mu.local);
                    run(&mut self.mu.cpu, self.par.decoded(), world, max, poll_after)
                }
            }
        }

        fn state(&mut self, side: Side) -> State {
            let words = 0..self.seq.mem_words() as i64;
            match side {
                Side::Seq => State {
                    cpu: self.seq.cpu.clone(),
                    words: words.clone().map(|a| self.seq.word(a)).collect(),
                    tags: words.map(|a| self.seq.mem_tag(a)).collect(),
                    output: self.seq.output.clone(),
                },
                Side::Par => {
                    let cpu = self.mu.cpu.clone();
                    let output = self.mu.output.clone();
                    let pw = self.par.world(&mut self.mu.local);
                    assert_eq!(pw.mem_words() as i64, words.end, "memory sizes");
                    State {
                        cpu,
                        words: words.clone().map(|a| pw.word(a)).collect(),
                        tags: words.map(|a| pw.mem_tag(a)).collect(),
                        output,
                    }
                }
            }
        }

        fn pc(&self, side: Side) -> u32 {
            match side {
                Side::Seq => self.seq.cpu.pc,
                Side::Par => self.mu.cpu.pc,
            }
        }
    }

    /// Runs `case` on both worlds in lock step, comparing outcome, `Cpu`,
    /// every memory word and every tag after each instruction. Returns
    /// the instruction kinds it executed.
    fn lockstep(case: &Case) -> HashSet<std::mem::Discriminant<Instr>> {
        let name = case.name;
        let mut rig = Rig::new(case, true);
        let code = rig.code();
        let mut seen = HashSet::new();
        let mut steps = 0;
        let end = loop {
            if let Some(idx) = code.index_of(rig.pc(Side::Seq)) {
                seen.insert(std::mem::discriminant(&code.ops()[idx].ins));
            }
            let (a, _) = rig.run(Side::Seq, 1, u64::MAX);
            let (b, _) = rig.run(Side::Par, 1, u64::MAX);
            assert_eq!(a, b, "{name}: outcomes diverge");
            assert!(
                rig.state(Side::Seq) == rig.state(Side::Par),
                "{name}: worlds diverge after {a:?} at step {steps}"
            );
            if a != Step::Normal {
                break a;
            }
            steps += 1;
            assert!(steps < 1000, "{name}: runaway");
        };
        assert_eq!(end, case.end, "{name}: final outcome");
        assert_eq!(rig.seq.output, case.output, "{name}: program output");
        (case.check)(&rig.seq);
        rig.par.retire_tlab(&mut rig.mu);
        assert_eq!(rig.seq.allocations, rig.par.allocations.load(Relaxed), "{name}: allocations");
        assert_eq!(rig.seq.words_allocated, rig.par.words_allocated.load(Relaxed), "{name}: words");
        seen
    }

    /// The single-step reference of `case` on `side`: the state after
    /// each executed instruction (`[0]` is the start), and what the run
    /// ended in. The last state is the terminal instruction's — which
    /// counts as executed — unless the run ended at a safepoint.
    fn reference(case: &Case, shadow: bool, side: Side) -> (Vec<State>, Step) {
        let mut rig = Rig::new(case, shadow);
        let mut states = vec![rig.state(side)];
        loop {
            let (step, n) = rig.run(side, 1, u64::MAX);
            assert_eq!(n, u64::from(step != Step::AtSafepoint), "{}: {step:?} counted", case.name);
            if n == 1 {
                states.push(rig.state(side));
            }
            if step != Step::Normal {
                return (states, step);
            }
        }
    }

    fn trap(name: &'static str, main: Vec<Instr>, t: VmTrap) -> Case {
        Case { name, main, end: Step::Trap(t), ..Case::default() }
    }

    fn cases() -> Vec<Case> {
        use Instr::*;
        let heap = (GLOBAL_BASE + 4 + STACK) as i64;
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
                // The call's table is keyed by its return address, which
                // is no park site: a pending request never stops here.
                gc_points: vec![5],
                output: "42",
                check: |m| assert_eq!(m.cpu.sp, m.cpu.fp, "stack fully popped"),
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
                gc_points: vec![0, 10],
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
                gc_points: vec![5],
                ..Case::default()
            },
            Case {
                name: "loop with a poll",
                // pcs: MovI r1 (0..3), then the loop head at 3.
                main: vec![
                    MovI { dst: 1, imm: 3 },
                    GcPoint,
                    AluI { op: AluOp::Sub, dst: 1, a: 1, imm: 1 },
                    Brt { cond: 1, target: 3 },
                    Halt,
                ],
                gc_points: vec![1],
                ..Case::default()
            },
            trap("jump past the end of the code", vec![Jmp { target: 9999 }], VmTrap::WildAddress),
            trap(
                "branch into the middle of an instruction",
                vec![MovI { dst: 1, imm: 1 }, Brt { cond: 1, target: 1 }],
                VmTrap::WildAddress,
            ),
            trap(
                "a branch with no target traps even when not taken",
                vec![MovI { dst: 1, imm: 1 }, Brf { cond: 1, target: 9999 }],
                VmTrap::WildAddress,
            ),
            Case {
                name: "return through a frame word that is no instruction boundary",
                main: vec![Push { src: 0 }, Push { src: 0 }, Call { proc: 1, nargs: 2 }],
                callee: vec![
                    MovI { dst: 1, imm: 1 },
                    StF { breg: BaseReg::Fp, off: -3, src: 1 },
                    Ret,
                ],
                end: Step::Trap(VmTrap::WildAddress),
                check: |m| {
                    assert_eq!(m.cpu.fp, m.cpu.stack_base + 8, "the trapping `Ret` popped nothing");
                },
                ..Case::default()
            },
            Case {
                name: "return through a jit token nothing registered",
                main: vec![Push { src: 0 }, Push { src: 0 }, Call { proc: 1, nargs: 2 }],
                callee: vec![
                    MovI { dst: 1, imm: JIT_RETPC_BIAS + 7 },
                    StF { breg: BaseReg::Fp, off: -3, src: 1 },
                    Ret,
                ],
                end: Step::Trap(VmTrap::WildAddress),
                check: |m| {
                    assert_eq!(m.cpu.fp, m.cpu.stack_base + 8, "the trapping `Ret` popped nothing");
                },
                ..Case::default()
            },
            Case {
                name: "entry pc inside an instruction",
                main: vec![MovI { dst: 1, imm: 300 }],
                init: |cpu| cpu.pc = 1,
                end: Step::Trap(VmTrap::WildAddress),
                ..Case::default()
            },
            Case {
                name: "running off the end of the code",
                main: vec![MovI { dst: 1, imm: 1 }],
                callee: vec![MovI { dst: 2, imm: 2 }],
                end: Step::Trap(VmTrap::WildAddress),
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
                gc_points: vec![0],
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
            seen.extend(lockstep(&case));
        }
        assert_eq!(seen.len(), 25, "the table must execute every `Instr` variant");
    }

    /// `run(k)` then `run(rest)` is `k + rest` single steps: same
    /// outcome, state and executed count, for every row, both worlds,
    /// shadow on and off, and every split `k`.
    #[test]
    fn run_is_step_repeated_at_every_budget() {
        for case in cases() {
            for (shadow, side) in
                [(true, Side::Seq), (true, Side::Par), (false, Side::Seq), (false, Side::Par)]
            {
                let name = format!("{} ({side:?}, shadow {shadow})", case.name);
                let (states, end) = reference(&case, shadow, side);
                let total = states.len() as u64 - 1;
                for k in 0..=total + 1 {
                    let mut rig = Rig::new(&case, shadow);
                    let code = rig.code();
                    let (first, mut executed) = rig.run(side, k, u64::MAX);
                    let mut last = first;
                    if first == Step::Normal {
                        assert_eq!(executed, k, "{name}: budget {k} not spent");
                        assert!(rig.state(side) == states[k as usize], "{name}: state after {k}");
                        // `run` moves the pc only to instruction
                        // boundaries (the end of the code is one).
                        let pc = rig.pc(side);
                        assert!(
                            code.index_of(pc).is_some()
                                || pc == code.pc_of(code.ops().len())
                                || pc == states[0].cpu.pc,
                            "{name}: budget {k} left the pc mid-instruction at {pc}"
                        );
                        let (rest, n) = rig.run(side, 1000, u64::MAX);
                        (last, executed) = (rest, executed + n);
                    }
                    assert_eq!(last, end, "{name}: outcome, split at {k}");
                    assert_eq!(executed, total, "{name}: executed count, split at {k}");
                    assert!(rig.state(side) == states[total as usize], "{name}: end, split {k}");
                }
            }
        }
    }

    /// With a collection requested on the parallel machine (the
    /// sequential one has nothing that could request one while its
    /// thread runs), a burst stops before the first flagged op it
    /// reaches — having executed exactly the instructions before it —
    /// and never anywhere else.
    #[test]
    fn a_pending_request_stops_a_burst_at_the_first_gc_point_only() {
        let mut stopped = 0;
        for case in cases() {
            let name = case.name;
            let (states, end) = reference(&case, false, Side::Par);
            let total = states.len() - 1;
            let mut rig = Rig::new(&case, false);
            let code = rig.code();
            // `states[i].cpu.pc` is the instruction executed `i + 1`th.
            let first_gc_point = (0..total).find(|&i| code.is_gc_point_pc(states[i].cpu.pc));
            rig.par.gc_request.store(true, Relaxed);
            let (step, executed) = rig.run(Side::Par, 1000, u64::MAX);
            match first_gc_point {
                Some(i) => {
                    assert_eq!((step, executed), (Step::AtSafepoint, i as u64), "{name}");
                    assert!(rig.state(Side::Par) == states[i], "{name}: state at the safepoint");
                    stopped += 1;
                }
                None => {
                    assert_eq!((step, executed), (end, total as u64), "{name}");
                    assert!(rig.state(Side::Par) == states[total], "{name}: end state");
                }
            }
        }
        assert!(stopped >= 3, "the table must hold rows with gc-points ({stopped} stops)");
    }

    /// Past `poll_after` instructions a burst ends at the next loop
    /// poll, before executing it; never earlier, and never at a gc-point
    /// that is not a poll.
    #[test]
    fn a_burst_past_poll_after_ends_at_the_next_loop_poll() {
        let case = cases().into_iter().find(|c| c.name == "loop with a poll").unwrap();
        let code = DecodedCode::of(&module_of(&case));
        let poll_pc = (0..code.ops().len()).map(|i| code.pc_of(i)).find(|&pc| code.is_poll_pc(pc));
        let poll_pc = poll_pc.expect("the loop has a poll");
        for side in [Side::Seq, Side::Par] {
            // The poll is reached after 1, 4 and 7 instructions; the run
            // is 11 long.
            for (poll_after, expect) in
                [(0, 1), (1, 1), (2, 4), (4, 4), (5, 7), (7, 7), (8, 11), (u64::MAX, 11)]
            {
                let mut rig = Rig::new(&case, false);
                let (step, executed) = rig.run(side, 1000, poll_after);
                assert_eq!(executed, expect, "{side:?}: poll_after {poll_after}");
                if expect == 11 {
                    assert_eq!(step, Step::Finished, "{side:?}: poll_after {poll_after}");
                } else {
                    assert_eq!(step, Step::Normal);
                    assert_eq!(rig.pc(side), poll_pc, "{side:?}: stopped off the poll");
                    // Already there: a second burst does not move.
                    assert_eq!(rig.run(side, 1000, 0), (Step::Normal, 0));
                    // The budget still binds before the poll does.
                    assert_eq!(rig.run(side, 2, u64::MAX), (Step::Normal, 2));
                }
            }
        }
    }
}
