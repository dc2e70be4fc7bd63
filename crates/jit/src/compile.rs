//! The baseline template compiler: byte-encoded ISA → x86-64.
//!
//! No register allocation: VM registers live in memory (`r13` points at
//! the running thread's register file) and every template loads its
//! operands, computes, and stores back. Four host registers are pinned
//! for the whole native activation:
//!
//! * `rbx` — the [`JitContext`](crate::engine::JitContext),
//! * `r12` — the remaining fuel (loaded from the context by the enter
//!   thunk, stored back by the exit thunk),
//! * `r13` — VM register file (`&thread.regs[0]`),
//! * `r14` — VM memory base (`&mem[0]`; VM addresses are word indices,
//!   so accesses are `[r14 + addr*8]`).
//!
//! `fp`/`sp`/`ap` live as context fields. Intra-procedure branches are
//! native jumps, and so are calls and returns between compiled
//! procedures. `Call` performs the full linkage protocol (push biased
//! native return token, new frame, zero locals) and ends in a `jmp
//! rel32` that [`compile_proc`] reports as a [`ProcArtifact::relocs`]
//! entry: it is emitted aimed at the site's own `EXIT_TRANSFER` stub,
//! and the engine's link step re-aims it at the callee's blob if the
//! callee compiled. `Ret` reads the frame's linkage word and, when that
//! word is the token of a registered call continuation (an O(1) lookup
//! in the link step's continuation map — never a floor search, never
//! trust in the word), pops the frame and jumps to `code_base + offset`.
//! Everything else — a callee that was not compiled, a return word that
//! is a bytecode pc (interpreted caller) or names no continuation — is
//! the slow path of the same template: an `EXIT_TRANSFER` exit, after
//! which the engine does the transfer and re-enters native code or the
//! interpreter at the target.
//!
//! Per-instruction template order mirrors the interpreter's `step`:
//! `[safepoint poll if the pc is a park site] [fuel decrement] [shadow
//! call-out if instrumented] [body]`. Fuel is *decremented* by every
//! instruction and *checked* wherever a burst may end: at polls, taken
//! back-edges, before a call transfers, and where a return lands (an
//! explicit check, since a return address is no park site). Every
//! instruction start is registered as a native
//! re-entry point, so the engine can resume native execution at any
//! interpreter pc (mixed stacks, gc resume, allocation retry).

use m3gc_core::heap::{HeapType, TypeId};
use m3gc_core::layout::BaseReg;
use m3gc_vm::codemap::JIT_RETPC_BIAS;
use m3gc_vm::decode::DecodedCode;
use m3gc_vm::isa::{AluOp, Instr, UnAluOp};
use m3gc_vm::machine::GLOBAL_BASE;
use m3gc_vm::module::VmModule;
use m3gc_vm::VmTrap;

use crate::emit::{Cc, EmitState, Label, Reg};
use crate::engine::{
    EXIT_FINISHED, EXIT_FUEL, EXIT_GC, EXIT_NEEDGC, EXIT_TRANSFER, EXIT_TRAP, OFF_ALLOC_COUNT_P,
    OFF_ALLOC_FAST_LIMIT_P, OFF_ALLOC_PTR_P, OFF_AP, OFF_CODE_BASE, OFF_CODE_LEN, OFF_CONTS,
    OFF_EXIT_AUX, OFF_EXIT_PC, OFF_EXIT_THUNK, OFF_FP, OFF_GC_FLAG, OFF_POLLS, OFF_SP,
    OFF_STACK_LIMIT, OFF_WORDS_P,
};

/// Why a procedure was left to the interpreter. Reasons are structural
/// (whole-engine) or per-procedure; each is counted for `--stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// Host is not x86-64/unix (or executable mappings are refused).
    UnsupportedArch,
    /// `M3GC_JIT_DISABLE=1` forced the interpreter (CI's portable-path
    /// check).
    ForcedByEnv,
    /// Procedure named in `M3GC_JIT_EXCLUDE` (mixed-stack testing).
    ExcludedProc,
    /// Allocation-service region mode is active; its escape tracking is
    /// interpreter-only.
    RegionMode,
    /// An operand does not fit the template encodings (oversized global
    /// offset, out-of-procedure branch target, giant frame).
    UnsupportedOpcode,
    /// The compiled blob exceeded the per-procedure size cap.
    CodeTooLarge,
}

impl Fallback {
    /// Stable stats key.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Fallback::UnsupportedArch => "unsupported-arch",
            Fallback::ForcedByEnv => "forced-by-env",
            Fallback::ExcludedProc => "excluded-proc",
            Fallback::RegionMode => "region-mode",
            Fallback::UnsupportedOpcode => "unsupported-opcode",
            Fallback::CodeTooLarge => "code-too-large",
        }
    }

    /// Every reason, for stats rendering order.
    #[must_use]
    pub fn all() -> &'static [Fallback] {
        &[
            Fallback::UnsupportedArch,
            Fallback::ForcedByEnv,
            Fallback::ExcludedProc,
            Fallback::RegionMode,
            Fallback::UnsupportedOpcode,
            Fallback::CodeTooLarge,
        ]
    }
}

/// What the compiled code must do at `StB`/`Alloc`/shadow boundaries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flavor {
    /// Parallel machine (helper-only allocation, atomic-memory rules).
    pub par: bool,
    /// Shadow instrumentation armed: every instruction calls out to the
    /// shadow tracker (slow, used by the precision oracle / fuzzing).
    pub shadow: bool,
    /// Concurrent marking possible: `StB` must run the SATB barrier
    /// helper instead of a plain store.
    pub cms: bool,
}

/// Absolute addresses of the runtime call-out functions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Helpers {
    pub alloc: i64,
    pub stb: i64,
    pub sys: i64,
    pub shadow: i64,
}

/// One compiled procedure, offsets blob-relative except where noted.
pub(crate) struct ProcArtifact {
    pub code: Vec<u8>,
    /// `(global native offset, bytecode pc)` of every call continuation
    /// (the native return address the pushed token points at).
    pub gc_points: Vec<(u32, u32)>,
    /// `(bytecode pc, global native offset)` of every instruction start.
    pub entries: Vec<(u32, u32)>,
    /// `(blob offset of a call site's rel32, callee procedure)`: the
    /// jump is aimed at the site's `EXIT_TRANSFER` stub and may be
    /// re-aimed at the callee's native entry once that has an address.
    pub relocs: Vec<(u32, u16)>,
}

/// Per-procedure blob size cap; a baseline template should never get
/// near this, so exceeding it means something pathological.
const MAX_BLOB_BYTES: usize = 1 << 20;

/// Largest record (in words, header included) zeroed inline on the
/// allocation fast path; bigger objects take the helper.
const MAX_INLINE_ALLOC_WORDS: u32 = 16;

struct ProcCompiler<'a> {
    e: EmitState,
    module: &'a VmModule,
    decoded: &'a DecodedCode,
    flavor: Flavor,
    helpers: Helpers,
    global_base: u32,
    mem_len: i64,
    /// Pending out-of-line exit stubs.
    stubs: Vec<(Label, StubKind)>,
    gc_points: Vec<(u32, u32)>,
    entries: Vec<(u32, u32)>,
    relocs: Vec<(u32, u16)>,
    instr_table: &'a mut Vec<Instr>,
}

#[derive(Clone, Copy)]
enum StubKind {
    /// Plain exit: `exit_pc = pc`, `rax = reason`, optional trap code.
    Exit { pc: u32, reason: i64, trap: Option<VmTrap> },
    /// The `Ret` at `pc` found a linkage word it will not jump through;
    /// the frame is intact and the engine does the return.
    Return { pc: u32 },
    /// Helper returned nonzero in rax: 1 → needs-gc exit, else trap
    /// with code `rax - 2`.
    HelperOutcome { pc: u32 },
    /// Effective address in rcx was below the global base: NIL if
    /// non-negative, wild otherwise.
    MemLow { pc: u32 },
}

impl<'a> ProcCompiler<'a> {
    fn stub(&mut self, kind: StubKind) -> Label {
        let l = self.e.new_label();
        self.stubs.push((l, kind));
        l
    }

    fn exit_stub(&mut self, pc: u32, reason: i64) -> Label {
        self.stub(StubKind::Exit { pc, reason, trap: None })
    }

    fn trap_stub(&mut self, pc: u32, trap: VmTrap) -> Label {
        self.stub(StubKind::Exit { pc, reason: EXIT_TRAP, trap: Some(trap) })
    }

    /// `mov qword [rbx+EXIT_PC], pc; mov rax, reason; jmp [rbx+EXIT_THUNK]`
    fn emit_exit(&mut self, pc: u32, reason: i64) {
        self.e.store_imm32(Reg::Rbx, OFF_EXIT_PC, pc as i32);
        self.e.mov_ri(Reg::Rax, reason);
        self.e.jmp_mem(Reg::Rbx, OFF_EXIT_THUNK);
    }

    fn emit_stubs(&mut self) {
        for (label, kind) in std::mem::take(&mut self.stubs) {
            self.e.bind(label);
            match kind {
                StubKind::Exit { pc, reason, trap } => {
                    if let Some(t) = trap {
                        self.e.store_imm32(Reg::Rbx, OFF_EXIT_AUX, t.to_code() as i32);
                    }
                    self.emit_exit(pc, reason);
                }
                StubKind::Return { pc } => {
                    self.e.store_imm32(Reg::Rbx, OFF_EXIT_AUX, 1);
                    self.emit_exit(pc, EXIT_TRANSFER);
                }
                StubKind::HelperOutcome { pc } => {
                    let trap = self.e.new_label();
                    self.e.cmp_ri(Reg::Rax, 1);
                    self.e.jcc(Cc::Ne, trap);
                    self.emit_exit(pc, EXIT_NEEDGC);
                    self.e.bind(trap);
                    self.e.add_ri(Reg::Rax, -2);
                    self.e.store(Reg::Rbx, OFF_EXIT_AUX, Reg::Rax);
                    self.emit_exit(pc, EXIT_TRAP);
                }
                StubKind::MemLow { pc } => {
                    let wild = self.e.new_label();
                    self.e.cmp_ri(Reg::Rcx, 0);
                    self.e.jcc(Cc::L, wild);
                    self.e.store_imm32(Reg::Rbx, OFF_EXIT_AUX, VmTrap::NilError.to_code() as i32);
                    self.emit_exit(pc, EXIT_TRAP);
                    self.e.bind(wild);
                    self.e.store_imm32(
                        Reg::Rbx,
                        OFF_EXIT_AUX,
                        VmTrap::WildAddress.to_code() as i32,
                    );
                    self.emit_exit(pc, EXIT_TRAP);
                }
            }
        }
    }

    /// VM register slot as a (base, disp) pair off `r13`.
    fn vm_reg_disp(r: u8) -> i32 {
        i32::from(r) * 8
    }

    fn load_vm_reg(&mut self, dst: Reg, r: u8) {
        self.e.load(dst, Reg::R13, Self::vm_reg_disp(r));
    }

    fn store_vm_reg(&mut self, r: u8, src: Reg) {
        self.e.store(Reg::R13, Self::vm_reg_disp(r), src);
    }

    /// Safepoint poll + fuel check, emitted at every park site (an
    /// allocation or a poll the module's tables describe).
    fn emit_poll(&mut self, pc: u32) {
        self.e.inc_mem(Reg::Rbx, OFF_POLLS);
        self.e.load(Reg::Rax, Reg::Rbx, OFF_GC_FLAG);
        self.e.load_byte_zx(Reg::Rax, Reg::Rax, 0);
        self.e.test_rr(Reg::Rax, Reg::Rax);
        let gc = self.exit_stub(pc, EXIT_GC);
        self.e.jcc(Cc::Ne, gc);
        self.emit_fuel_check(pc);
    }

    /// Ends the burst if the fuel is spent; `resume` is the next pc to
    /// execute. Guards taken backward edges, calls and return landings.
    fn emit_fuel_check(&mut self, resume: u32) {
        self.e.test_rr(Reg::R12, Reg::R12);
        let fuel = self.exit_stub(resume, EXIT_FUEL);
        self.e.jcc(Cc::Le, fuel);
    }

    /// `call helper(ctx, a1, a2, a3)` with the SysV argument registers.
    /// Arguments must already sit in rsi/rdx/rcx as needed.
    fn emit_helper_call(&mut self, addr: i64) {
        self.e.mov_rr(Reg::Rdi, Reg::Rbx);
        self.e.mov_ri(Reg::Rax, addr);
        self.e.call_r(Reg::Rax);
    }

    /// Shadow instrumentation call-out; traps exit at `pc`.
    fn emit_shadow_call(&mut self, pc: u32, instr_id: u32) {
        self.e.mov_ri(Reg::Rsi, i64::from(instr_id));
        self.emit_helper_call(self.helpers.shadow);
        self.e.test_rr(Reg::Rax, Reg::Rax);
        let out = self.stub(StubKind::HelperOutcome { pc });
        self.e.jcc(Cc::Ne, out);
    }

    /// Effective-address computation + bounds check, leaving the checked
    /// VM word address in `rcx`. Traps mirror `Machine::read`/`write`:
    /// `[0, GLOBAL_BASE)` is NIL, anything else out of range is wild.
    fn emit_addr_check(&mut self, pc: u32) {
        self.e.cmp_ri(Reg::Rcx, GLOBAL_BASE as i64 as i32);
        let low = self.stub(StubKind::MemLow { pc });
        self.e.jcc(Cc::L, low);
        self.e.cmp_ri(Reg::Rcx, self.mem_len as i32);
        let wild = self.trap_stub(pc, VmTrap::WildAddress);
        self.e.jcc(Cc::Ge, wild);
    }

    /// reg[base] + off → rcx, bounds-checked.
    fn emit_reg_addr(&mut self, pc: u32, base: u8, off: i32) {
        self.load_vm_reg(Reg::Rcx, base);
        if off != 0 {
            self.e.add_ri(Reg::Rcx, off);
        }
        self.emit_addr_check(pc);
    }

    /// FP/SP/AP + off → rcx, bounds-checked.
    fn emit_frame_addr(&mut self, pc: u32, breg: BaseReg, off: i32) {
        let disp = match breg {
            BaseReg::Fp => OFF_FP,
            BaseReg::Sp => OFF_SP,
            BaseReg::Ap => OFF_AP,
        };
        self.e.load(Reg::Rcx, Reg::Rbx, disp);
        if off != 0 {
            self.e.add_ri(Reg::Rcx, off);
        }
        self.emit_addr_check(pc);
    }

    /// The `AluOp` result of rax ⊙ rcx, left in rax.
    fn emit_alu_op(&mut self, op: AluOp) {
        match op {
            AluOp::Add => self.e.add_rr(Reg::Rax, Reg::Rcx),
            AluOp::Sub => self.e.sub_rr(Reg::Rax, Reg::Rcx),
            AluOp::Mul => self.e.imul_rr(Reg::Rax, Reg::Rcx),
            AluOp::And => self.e.and_rr(Reg::Rax, Reg::Rcx),
            AluOp::Or => self.e.or_rr(Reg::Rax, Reg::Rcx),
            AluOp::Xor => self.e.xor_rr(Reg::Rax, Reg::Rcx),
            AluOp::Div | AluOp::Mod => {
                // Guarded idiv matching `AluOp::eval`'s wrapping
                // semantics: b == 0 → 0; b == -1 → wrapping negate
                // (Div) or 0 (Mod); no #DE possible.
                let zero = self.e.new_label();
                let minus1 = self.e.new_label();
                let done = self.e.new_label();
                self.e.test_rr(Reg::Rcx, Reg::Rcx);
                self.e.jcc(Cc::E, zero);
                self.e.cmp_ri(Reg::Rcx, -1);
                self.e.jcc(Cc::E, minus1);
                self.e.cqo();
                self.e.idiv(Reg::Rcx);
                if op == AluOp::Mod {
                    self.e.mov_rr(Reg::Rax, Reg::Rdx);
                }
                self.e.jmp(done);
                self.e.bind(minus1);
                if op == AluOp::Div {
                    self.e.neg(Reg::Rax);
                    self.e.jmp(done);
                    self.e.bind(zero);
                    self.e.mov_ri(Reg::Rax, 0);
                } else {
                    self.e.bind(zero);
                    self.e.mov_ri(Reg::Rax, 0);
                }
                self.e.bind(done);
            }
            AluOp::Eq | AluOp::Ne | AluOp::Lt | AluOp::Le | AluOp::Gt | AluOp::Ge => {
                let cc = match op {
                    AluOp::Eq => Cc::E,
                    AluOp::Ne => Cc::Ne,
                    AluOp::Lt => Cc::L,
                    AluOp::Le => Cc::Le,
                    AluOp::Gt => Cc::G,
                    _ => Cc::Ge,
                };
                self.e.cmp_rr(Reg::Rax, Reg::Rcx);
                self.e.setcc_zx(cc, Reg::Rax);
            }
        }
    }

    /// Allocation helper call-out: packed = ty << 16 | dst.
    fn emit_alloc_helper(&mut self, pc: u32, ty: u16, dst: u8, len_reg: Option<u8>) {
        self.e.mov_ri(Reg::Rsi, (i64::from(ty) << 16) | i64::from(dst));
        match len_reg {
            Some(r) => self.load_vm_reg(Reg::Rdx, r),
            None => self.e.mov_ri(Reg::Rdx, 0),
        }
        self.e.mov_ri(Reg::Rcx, i64::from(pc));
        self.emit_helper_call(self.helpers.alloc);
        self.e.test_rr(Reg::Rax, Reg::Rax);
        let out = self.stub(StubKind::HelperOutcome { pc });
        self.e.jcc(Cc::Ne, out);
    }

    fn emit_instr(
        &mut self,
        pc: u32,
        next_pc: u32,
        ins: &Instr,
        labels: &std::collections::HashMap<u32, Label>,
    ) -> Result<(), Fallback> {
        self.entries.push((pc, self.global_base + self.e.here()));
        if self.decoded.is_gc_point_pc(pc) {
            self.emit_poll(pc);
        }
        self.e.add_ri(Reg::R12, -1);
        if self.flavor.shadow {
            let id = self.instr_table.len() as u32;
            self.instr_table.push(*ins);
            self.emit_shadow_call(pc, id);
        }
        match *ins {
            Instr::MovI { dst, imm } => {
                if let Ok(v) = i32::try_from(imm) {
                    self.e.store_imm32(Reg::R13, Self::vm_reg_disp(dst), v);
                } else {
                    self.e.mov_ri(Reg::Rax, imm);
                    self.store_vm_reg(dst, Reg::Rax);
                }
            }
            Instr::Mov { dst, src } => {
                self.load_vm_reg(Reg::Rax, src);
                self.store_vm_reg(dst, Reg::Rax);
            }
            Instr::Alu { op, dst, a, b } => {
                self.load_vm_reg(Reg::Rax, a);
                self.load_vm_reg(Reg::Rcx, b);
                self.emit_alu_op(op);
                self.store_vm_reg(dst, Reg::Rax);
            }
            Instr::AluI { op, dst, a, imm } => {
                self.load_vm_reg(Reg::Rax, a);
                self.e.mov_ri(Reg::Rcx, imm);
                self.emit_alu_op(op);
                self.store_vm_reg(dst, Reg::Rax);
            }
            Instr::UnAlu { op, dst, a } => {
                self.load_vm_reg(Reg::Rax, a);
                match op {
                    UnAluOp::Neg => self.e.neg(Reg::Rax),
                    UnAluOp::Not => {
                        self.e.test_rr(Reg::Rax, Reg::Rax);
                        self.e.setcc_zx(Cc::E, Reg::Rax);
                    }
                }
                self.store_vm_reg(dst, Reg::Rax);
            }
            Instr::Ld { dst, base, off } => {
                self.emit_reg_addr(pc, base, off);
                self.e.load_sib8(Reg::Rax, Reg::R14, Reg::Rcx, 0);
                self.store_vm_reg(dst, Reg::Rax);
            }
            Instr::St { base, off, src } => {
                self.emit_reg_addr(pc, base, off);
                self.load_vm_reg(Reg::Rax, src);
                self.e.store_sib8(Reg::R14, Reg::Rcx, 0, Reg::Rax);
            }
            Instr::StB { base, off, src } => {
                if self.flavor.cms || !self.flavor.par {
                    // The whole barrier store (bounds checks included)
                    // runs in the helper, so the SATB protocol (cms) and
                    // the remembered-set hook with its counters
                    // (sequential) are byte-identical to the
                    // interpreter's.
                    self.load_vm_reg(Reg::Rsi, base);
                    if off != 0 {
                        self.e.add_ri(Reg::Rsi, off);
                    }
                    self.load_vm_reg(Reg::Rdx, src);
                    self.emit_helper_call(self.helpers.stb);
                    self.e.test_rr(Reg::Rax, Reg::Rax);
                    let out = self.stub(StubKind::HelperOutcome { pc });
                    self.e.jcc(Cc::Ne, out);
                } else {
                    self.emit_reg_addr(pc, base, off);
                    self.load_vm_reg(Reg::Rax, src);
                    self.e.store_sib8(Reg::R14, Reg::Rcx, 0, Reg::Rax);
                }
            }
            Instr::LdF { dst, breg, off } => {
                self.emit_frame_addr(pc, breg, off);
                self.e.load_sib8(Reg::Rax, Reg::R14, Reg::Rcx, 0);
                self.store_vm_reg(dst, Reg::Rax);
            }
            Instr::StF { breg, off, src } => {
                self.emit_frame_addr(pc, breg, off);
                self.load_vm_reg(Reg::Rax, src);
                self.e.store_sib8(Reg::R14, Reg::Rcx, 0, Reg::Rax);
            }
            Instr::Lea { dst, breg, off } => {
                let disp = match breg {
                    BaseReg::Fp => OFF_FP,
                    BaseReg::Sp => OFF_SP,
                    BaseReg::Ap => OFF_AP,
                };
                self.e.load(Reg::Rax, Reg::Rbx, disp);
                if off != 0 {
                    self.e.add_ri(Reg::Rax, off);
                }
                self.store_vm_reg(dst, Reg::Rax);
            }
            Instr::LdG { dst, goff } => {
                let addr = global_slot_disp(goff).ok_or(Fallback::UnsupportedOpcode)?;
                self.e.load(Reg::Rax, Reg::R14, addr);
                self.store_vm_reg(dst, Reg::Rax);
            }
            Instr::StG { goff, src } => {
                let addr = global_slot_disp(goff).ok_or(Fallback::UnsupportedOpcode)?;
                self.load_vm_reg(Reg::Rax, src);
                self.e.store(Reg::R14, addr, Reg::Rax);
            }
            Instr::LeaG { dst, goff } => {
                self.e.store_imm32(
                    Reg::R13,
                    Self::vm_reg_disp(dst),
                    i32::try_from(GLOBAL_BASE as u64 + u64::from(goff))
                        .map_err(|_| Fallback::UnsupportedOpcode)?,
                );
            }
            Instr::Push { src } => {
                self.e.load(Reg::Rax, Reg::Rbx, OFF_SP);
                self.e.cmp_r_mem(Reg::Rax, Reg::Rbx, OFF_STACK_LIMIT);
                let over = self.trap_stub(pc, VmTrap::StackOverflow);
                self.e.jcc(Cc::Ge, over);
                self.load_vm_reg(Reg::Rcx, src);
                self.e.store_sib8(Reg::R14, Reg::Rax, 0, Reg::Rcx);
                self.e.lea(Reg::Rcx, Reg::Rax, 1);
                self.e.store(Reg::Rbx, OFF_SP, Reg::Rcx);
            }
            Instr::Call { proc, nargs } => {
                let Some(meta) = self.module.procs.get(proc as usize) else {
                    let bad = self.trap_stub(pc, VmTrap::BadProc);
                    self.e.jmp(bad);
                    return Ok(());
                };
                let fw =
                    i32::try_from(meta.frame_words).map_err(|_| Fallback::UnsupportedOpcode)?;
                // Overflow check: sp + 3 + frame_words >= stack_limit.
                self.e.load(Reg::Rax, Reg::Rbx, OFF_SP);
                self.e.lea(Reg::Rcx, Reg::Rax, 3 + fw);
                self.e.cmp_r_mem(Reg::Rcx, Reg::Rbx, OFF_STACK_LIMIT);
                let over = self.trap_stub(pc, VmTrap::StackOverflow);
                self.e.jcc(Cc::Ge, over);
                // Linkage: mem[sp] = biased native return token (patched
                // once the continuation offset is known), saved fp, ap.
                self.e.lea_sib8(Reg::Rdx, Reg::R14, Reg::Rax, 0);
                let token_at = self.e.mov_ri64_patchable(Reg::Rsi, 0);
                self.e.store(Reg::Rdx, 0, Reg::Rsi);
                self.e.load(Reg::Rdi, Reg::Rbx, OFF_FP);
                self.e.store(Reg::Rdx, 8, Reg::Rdi);
                self.e.load(Reg::Rdi, Reg::Rbx, OFF_AP);
                self.e.store(Reg::Rdx, 16, Reg::Rdi);
                // ap = sp - nargs; fp = sp + 3; sp = fp + frame_words.
                self.e.lea(Reg::Rdi, Reg::Rax, -i32::from(nargs));
                self.e.store(Reg::Rbx, OFF_AP, Reg::Rdi);
                self.e.lea(Reg::Rdi, Reg::Rax, 3);
                self.e.store(Reg::Rbx, OFF_FP, Reg::Rdi);
                self.e.store(Reg::Rbx, OFF_SP, Reg::Rcx);
                // Zero the callee frame: mem[fp..sp].
                self.e.lea_sib8(Reg::Rdi, Reg::R14, Reg::Rdi, 0);
                self.e.xor_rr(Reg::Rax, Reg::Rax);
                self.e.mov_ri(Reg::Rcx, i64::from(meta.frame_words));
                self.e.rep_stosq();
                // Transfer to the callee: the jump is aimed at the stub
                // that hands the transfer to the engine, and the link
                // step re-aims it at the callee's blob if there is one.
                self.emit_fuel_check(meta.entry_pc);
                let engine = self.exit_stub(meta.entry_pc, EXIT_TRANSFER);
                let at = self.e.jmp(engine);
                self.relocs.push((at, proc));
                // The continuation: this native offset *is* the return
                // address the token denotes, and the key of the bytecode
                // return pc's table, which describes this frame while
                // the callee runs. Every continuation is recorded, but
                // only a call whose callee may park has a table, and only
                // such a call's frame is ever walked while it waits. A
                // return address is no park site, so no poll is emitted
                // for it. A direct return lands here, so a burst must be
                // able to end here: a fuel check does that, unless the
                // next op is a park site (hand-assembled modules only;
                // codegen pads those) whose poll checks the fuel itself.
                let cont = self.e.here();
                self.e.patch_imm64(token_at, JIT_RETPC_BIAS + i64::from(self.global_base + cont));
                self.gc_points.push((self.global_base + cont, next_pc));
                if !self.decoded.is_gc_point_pc(next_pc) {
                    self.emit_fuel_check(next_pc);
                }
            }
            Instr::Ret => {
                self.e.load(Reg::Rax, Reg::Rbx, OFF_FP);
                self.e.lea_sib8(Reg::Rcx, Reg::R14, Reg::Rax, -24);
                self.e.load(Reg::Rdx, Reg::Rcx, 0);
                self.e.cmp_ri(Reg::Rdx, -1);
                let fin = self.e.new_label();
                self.e.jcc(Cc::E, fin);
                // The word is trusted only as an index: a direct return
                // needs `word - BIAS` to be an offset into the blobs
                // (one unsigned compare also rejects every plain pc) at
                // which the link step recorded a call continuation.
                let slow = self.stub(StubKind::Return { pc });
                self.e.mov_ri(Reg::Rsi, JIT_RETPC_BIAS);
                self.e.sub_rr(Reg::Rdx, Reg::Rsi);
                self.e.cmp_r_mem(Reg::Rdx, Reg::Rbx, OFF_CODE_LEN);
                self.e.jcc(Cc::Ae, slow);
                self.e.load(Reg::Rsi, Reg::Rbx, OFF_CONTS);
                self.e.add_rr(Reg::Rsi, Reg::Rdx);
                self.e.load_byte_zx(Reg::Rsi, Reg::Rsi, 0);
                self.e.test_rr(Reg::Rsi, Reg::Rsi);
                self.e.jcc(Cc::E, slow);
                self.e.load(Reg::Rsi, Reg::Rcx, 8);
                self.e.load(Reg::Rdi, Reg::Rcx, 16);
                self.e.load(Reg::Rax, Reg::Rbx, OFF_AP);
                self.e.store(Reg::Rbx, OFF_SP, Reg::Rax);
                self.e.store(Reg::Rbx, OFF_FP, Reg::Rsi);
                self.e.store(Reg::Rbx, OFF_AP, Reg::Rdi);
                self.e.load(Reg::Rax, Reg::Rbx, OFF_CODE_BASE);
                self.e.add_rr(Reg::Rax, Reg::Rdx);
                self.e.jmp_r(Reg::Rax);
                self.e.bind(fin);
                // Leave pc at the `Ret` itself, as the interpreter does
                // on the bottom-frame sentinel.
                self.e.store_imm32(Reg::Rbx, OFF_EXIT_PC, pc as i32);
                self.e.mov_ri(Reg::Rax, EXIT_FINISHED);
                self.e.jmp_mem(Reg::Rbx, OFF_EXIT_THUNK);
            }
            Instr::Jmp { target } => {
                let label = *labels.get(&target).ok_or(Fallback::UnsupportedOpcode)?;
                if target <= pc {
                    self.emit_fuel_check(target);
                }
                self.e.jmp(label);
            }
            Instr::Brt { cond, target } | Instr::Brf { cond, target } => {
                let label = *labels.get(&target).ok_or(Fallback::UnsupportedOpcode)?;
                let taken = match ins {
                    Instr::Brt { .. } => Cc::Ne,
                    _ => Cc::E,
                };
                self.load_vm_reg(Reg::Rax, cond);
                self.e.test_rr(Reg::Rax, Reg::Rax);
                if target <= pc {
                    let skip = self.e.new_label();
                    let not_taken = match taken {
                        Cc::Ne => Cc::E,
                        _ => Cc::Ne,
                    };
                    self.e.jcc(not_taken, skip);
                    self.emit_fuel_check(target);
                    self.e.jmp(label);
                    self.e.bind(skip);
                } else {
                    self.e.jcc(taken, label);
                }
            }
            Instr::Alloc { dst, ty } => {
                let inline_words = (!self.flavor.par
                    && !self.flavor.shadow
                    && (ty as usize) < self.module.types.len())
                .then(|| self.module.types.get(TypeId(u32::from(ty))))
                .and_then(|desc| match desc {
                    HeapType::Record { .. } => Some(desc.object_words(0)),
                    HeapType::Array { .. } => None,
                })
                .filter(|&w| w <= MAX_INLINE_ALLOC_WORDS);
                match inline_words {
                    Some(words) => self.emit_inline_alloc(pc, ty, dst, words),
                    None => self.emit_alloc_helper(pc, ty, dst, None),
                }
            }
            Instr::AllocA { dst, ty, len } => self.emit_alloc_helper(pc, ty, dst, Some(len)),
            Instr::GcPoint => {}
            Instr::Sys { code, arg } => {
                self.e.mov_ri(Reg::Rsi, i64::from(code));
                self.load_vm_reg(Reg::Rdx, arg);
                self.emit_helper_call(self.helpers.sys);
                self.e.test_rr(Reg::Rax, Reg::Rax);
                let out = self.stub(StubKind::HelperOutcome { pc });
                self.e.jcc(Cc::Ne, out);
            }
            Instr::Halt => {
                self.e.store_imm32(Reg::Rbx, OFF_EXIT_PC, pc as i32);
                self.e.mov_ri(Reg::Rax, EXIT_FINISHED);
                self.e.jmp_mem(Reg::Rbx, OFF_EXIT_THUNK);
            }
        }
        Ok(())
    }

    /// The sequential bump fast path for a fixed-size record: one
    /// compare against `alloc_fast_limit` (pinned to `i64::MIN` under
    /// gc-torture, so the slow-path helper keeps exact accounting),
    /// unrolled zeroing, header store, counter bumps.
    fn emit_inline_alloc(&mut self, pc: u32, ty: u16, dst: u8, words: u32) {
        let total = words as i32;
        let slow = self.e.new_label();
        let done = self.e.new_label();
        self.e.load(Reg::Rcx, Reg::Rbx, OFF_ALLOC_PTR_P);
        self.e.load(Reg::Rax, Reg::Rcx, 0);
        self.e.lea(Reg::Rdx, Reg::Rax, total);
        self.e.load(Reg::Rsi, Reg::Rbx, OFF_ALLOC_FAST_LIMIT_P);
        self.e.cmp_r_mem(Reg::Rdx, Reg::Rsi, 0);
        self.e.jcc(Cc::G, slow);
        self.e.store(Reg::Rcx, 0, Reg::Rdx);
        for k in 1..total {
            self.e.store_sib8_imm32(Reg::R14, Reg::Rax, k * 8, 0);
        }
        self.e.store_sib8_imm32(Reg::R14, Reg::Rax, 0, i32::from(ty));
        self.e.load(Reg::Rsi, Reg::Rbx, OFF_ALLOC_COUNT_P);
        self.e.inc_mem(Reg::Rsi, 0);
        self.e.load(Reg::Rsi, Reg::Rbx, OFF_WORDS_P);
        self.e.add_mem_imm32(Reg::Rsi, 0, total);
        self.store_vm_reg(dst, Reg::Rax);
        self.e.jmp(done);
        self.e.bind(slow);
        self.emit_alloc_helper(pc, ty, dst, None);
        self.e.bind(done);
    }
}

fn global_slot_disp(goff: u32) -> Option<i32> {
    i32::try_from((GLOBAL_BASE as u64 + u64::from(goff)) * 8).ok()
}

/// Compiles one procedure. `global_base` is the blob's offset within
/// the engine's code region (gc-point keys and entry offsets are
/// registered globally); park sites are the ops `decoded` flagged from
/// the module's gc maps and opcodes.
#[allow(clippy::too_many_arguments)] // one call site, in the engine's compile loop
pub(crate) fn compile_proc(
    module: &VmModule,
    decoded: &DecodedCode,
    proc_idx: usize,
    global_base: u32,
    flavor: Flavor,
    helpers: Helpers,
    mem_len: i64,
    instr_table: &mut Vec<Instr>,
) -> Result<ProcArtifact, Fallback> {
    let meta = &module.procs[proc_idx];
    let instr_table_mark = instr_table.len();
    let mut c = ProcCompiler {
        e: EmitState::new(),
        module,
        decoded,
        flavor,
        helpers,
        global_base,
        mem_len,
        stubs: Vec::new(),
        gc_points: Vec::new(),
        entries: Vec::new(),
        relocs: Vec::new(),
        instr_table,
    };

    // Pre-scan: collect branch targets (they need labels) and validate
    // that every target is an instruction inside the procedure.
    let mut targets = std::collections::HashMap::new();
    let mut pc = meta.entry_pc;
    while pc < meta.end_pc {
        let (ins, next) = decoded.at(pc);
        if let Instr::Jmp { target } | Instr::Brt { target, .. } | Instr::Brf { target, .. } = ins {
            if !meta.contains(*target) || decoded.index_of(*target).is_none() {
                return Err(Fallback::UnsupportedOpcode);
            }
            targets.entry(*target).or_insert_with(|| c.e.new_label());
        }
        pc = next;
    }

    let mut pc = meta.entry_pc;
    let compile = loop {
        if pc >= meta.end_pc {
            break Ok(());
        }
        let (ins, next) = decoded.at(pc);
        if let Some(&label) = targets.get(&pc) {
            c.e.bind(label);
        }
        if let Err(f) = c.emit_instr(pc, next, ins, &targets) {
            break Err(f);
        }
        if c.e.here() as usize > MAX_BLOB_BYTES {
            break Err(Fallback::CodeTooLarge);
        }
        pc = next;
    };
    if let Err(f) = compile {
        c.instr_table.truncate(instr_table_mark);
        return Err(f);
    }
    // A procedure that does not end in a transfer runs on into whatever
    // follows it, as under the interpreter; a return landing behind a
    // final `Call` arrives here too.
    c.emit_exit(meta.end_pc, EXIT_FUEL);
    c.emit_stubs();
    let ProcCompiler { e, gc_points, entries, relocs, .. } = c;
    Ok(ProcArtifact { code: e.finish(), gc_points, entries, relocs })
}
