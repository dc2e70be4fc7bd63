//! A minimal x86-64 instruction emitter.
//!
//! Exactly the subset the template compiler needs: 64-bit register and
//! memory moves (base + scaled-index addressing for the word-addressed
//! VM memory), ALU ops, `setcc`, relative branches with label fixups,
//! and indirect calls/jumps for runtime call-outs. Memory operands
//! always use disp32 encodings — bigger code, but one uniform encoding
//! path (this is a *baseline* compiler).
//!
//! Labels follow the classic two-phase scheme: `new_label` allocates,
//! `bind` pins a label to the current offset, branch emitters record a
//! pending rel32 fixup when the target is unbound, and `finish` patches
//! every fixup. `jmp` also returns where its rel32 sits, so a caller can
//! record the jump as a cross-procedure relocation and the engine's link
//! step can re-aim it once every blob has an address.

/// General-purpose register numbers (hardware encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(dead_code)] // the full register file, documented even where unused
pub enum Reg {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rbx = 3,
    Rsp = 4,
    Rbp = 5,
    Rsi = 6,
    Rdi = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
}

impl Reg {
    fn low3(self) -> u8 {
        (self as u8) & 7
    }
    fn ext(self) -> bool {
        (self as u8) >= 8
    }
}

/// Condition codes (the `cc` in `jcc`/`setcc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(dead_code)]
pub enum Cc {
    /// Equal / zero.
    E = 0x4,
    /// Not equal / not zero.
    Ne = 0x5,
    /// Less (signed).
    L = 0xC,
    /// Greater or equal (signed).
    Ge = 0xD,
    /// Less or equal (signed).
    Le = 0xE,
    /// Greater (signed).
    G = 0xF,
    /// Sign (negative).
    S = 0x8,
    /// Above or equal (unsigned).
    Ae = 0x3,
}

/// A branch target; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Code buffer + label state.
#[derive(Debug, Default)]
pub struct EmitState {
    code: Vec<u8>,
    labels: Vec<Option<u32>>,
    fixups: Vec<(usize, Label)>,
}

impl EmitState {
    #[must_use]
    pub fn new() -> EmitState {
        EmitState::default()
    }

    /// Current offset (== next instruction's address, blob-relative).
    #[must_use]
    pub fn here(&self) -> u32 {
        self.code.len() as u32
    }

    #[must_use]
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Pins `label` to the current offset.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.here());
    }

    /// Patches every pending fixup and returns the finished code.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        for &(pos, label) in &self.fixups {
            let target = self.labels[label.0].expect("branch to unbound label");
            let rel = target as i64 - (pos as i64 + 4);
            let rel = i32::try_from(rel).expect("rel32 overflow");
            self.code[pos..pos + 4].copy_from_slice(&rel.to_le_bytes());
        }
        self.code
    }

    fn byte(&mut self, b: u8) {
        self.code.push(b);
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.code.extend_from_slice(bs);
    }

    fn imm32(&mut self, v: i32) {
        self.bytes(&v.to_le_bytes());
    }

    fn rex(&mut self, w: bool, reg: bool, index: bool, base: bool) {
        let mut b = 0x40;
        if w {
            b |= 8;
        }
        if reg {
            b |= 4;
        }
        if index {
            b |= 2;
        }
        if base {
            b |= 1;
        }
        self.byte(b);
    }

    /// ModRM `mod=10` (disp32) with a plain base register; emits the SIB
    /// byte required when the base is rsp/r12.
    fn modrm_base_disp32(&mut self, reg_field: u8, base: Reg, disp: i32) {
        if base.low3() == 4 {
            // rsp/r12 as base need a SIB byte (index = none).
            self.byte(0x80 | (reg_field << 3) | 4);
            self.byte(0x24);
        } else {
            self.byte(0x80 | (reg_field << 3) | base.low3());
        }
        self.imm32(disp);
    }

    /// ModRM+SIB for `[base + index*8 + disp32]`.
    fn modrm_sib8_disp32(&mut self, reg_field: u8, base: Reg, index: Reg, disp: i32) {
        assert!(index.low3() != 4 || index.ext(), "rsp cannot be an index");
        self.byte(0x80 | (reg_field << 3) | 4);
        self.byte(0xC0 | (index.low3() << 3) | base.low3()); // scale=8
        self.imm32(disp);
    }

    // ---- register moves -------------------------------------------------

    pub fn mov_rr(&mut self, dst: Reg, src: Reg) {
        self.rex(true, src.ext(), false, dst.ext());
        self.byte(0x89);
        self.byte(0xC0 | (src.low3() << 3) | dst.low3());
    }

    /// `mov dst, imm` — movabs for wide values, sign-extended imm32
    /// otherwise.
    pub fn mov_ri(&mut self, dst: Reg, imm: i64) {
        if let Ok(v) = i32::try_from(imm) {
            self.rex(true, false, false, dst.ext());
            self.byte(0xC7);
            self.byte(0xC0 | dst.low3());
            self.imm32(v);
        } else {
            self.rex(true, false, false, dst.ext());
            self.byte(0xB8 | dst.low3());
            self.bytes(&imm.to_le_bytes());
        }
    }

    /// `mov dst, imm` always in the 10-byte movabs form, returning the
    /// offset of the imm64 so it can be patched later.
    pub fn mov_ri64_patchable(&mut self, dst: Reg, imm: i64) -> usize {
        self.rex(true, false, false, dst.ext());
        self.byte(0xB8 | dst.low3());
        let at = self.code.len();
        self.bytes(&imm.to_le_bytes());
        at
    }

    /// Patches an imm64 recorded by [`EmitState::mov_ri64_patchable`].
    pub fn patch_imm64(&mut self, at: usize, imm: i64) {
        self.code[at..at + 8].copy_from_slice(&imm.to_le_bytes());
    }

    // ---- memory moves ---------------------------------------------------

    /// `mov dst, [base + disp]`
    pub fn load(&mut self, dst: Reg, base: Reg, disp: i32) {
        self.rex(true, dst.ext(), false, base.ext());
        self.byte(0x8B);
        self.modrm_base_disp32(dst.low3(), base, disp);
    }

    /// `mov [base + disp], src`
    pub fn store(&mut self, base: Reg, disp: i32, src: Reg) {
        self.rex(true, src.ext(), false, base.ext());
        self.byte(0x89);
        self.modrm_base_disp32(src.low3(), base, disp);
    }

    /// `mov qword [base + disp], imm32`
    pub fn store_imm32(&mut self, base: Reg, disp: i32, imm: i32) {
        self.rex(true, false, false, base.ext());
        self.byte(0xC7);
        self.modrm_base_disp32(0, base, disp);
        self.imm32(imm);
    }

    /// `mov dst, [base + index*8 + disp]`
    pub fn load_sib8(&mut self, dst: Reg, base: Reg, index: Reg, disp: i32) {
        self.rex(true, dst.ext(), index.ext(), base.ext());
        self.byte(0x8B);
        self.modrm_sib8_disp32(dst.low3(), base, index, disp);
    }

    /// `mov [base + index*8 + disp], src`
    pub fn store_sib8(&mut self, base: Reg, index: Reg, disp: i32, src: Reg) {
        self.rex(true, src.ext(), index.ext(), base.ext());
        self.byte(0x89);
        self.modrm_sib8_disp32(src.low3(), base, index, disp);
    }

    /// `mov qword [base + index*8 + disp], imm32`
    pub fn store_sib8_imm32(&mut self, base: Reg, index: Reg, disp: i32, imm: i32) {
        self.rex(true, false, index.ext(), base.ext());
        self.byte(0xC7);
        self.modrm_sib8_disp32(0, base, index, disp);
        self.imm32(imm);
    }

    /// `lea dst, [base + index*8 + disp]`
    pub fn lea_sib8(&mut self, dst: Reg, base: Reg, index: Reg, disp: i32) {
        self.rex(true, dst.ext(), index.ext(), base.ext());
        self.byte(0x8D);
        self.modrm_sib8_disp32(dst.low3(), base, index, disp);
    }

    /// `lea dst, [base + disp]`
    pub fn lea(&mut self, dst: Reg, base: Reg, disp: i32) {
        self.rex(true, dst.ext(), false, base.ext());
        self.byte(0x8D);
        self.modrm_base_disp32(dst.low3(), base, disp);
    }

    /// `movzx dst, byte [base + disp]`
    pub fn load_byte_zx(&mut self, dst: Reg, base: Reg, disp: i32) {
        self.rex(true, dst.ext(), false, base.ext());
        self.bytes(&[0x0F, 0xB6]);
        self.modrm_base_disp32(dst.low3(), base, disp);
    }

    // ---- ALU ------------------------------------------------------------

    fn alu_rr(&mut self, opcode: u8, dst: Reg, src: Reg) {
        self.rex(true, src.ext(), false, dst.ext());
        self.byte(opcode);
        self.byte(0xC0 | (src.low3() << 3) | dst.low3());
    }

    pub fn add_rr(&mut self, dst: Reg, src: Reg) {
        self.alu_rr(0x01, dst, src);
    }
    pub fn sub_rr(&mut self, dst: Reg, src: Reg) {
        self.alu_rr(0x29, dst, src);
    }
    pub fn and_rr(&mut self, dst: Reg, src: Reg) {
        self.alu_rr(0x21, dst, src);
    }
    pub fn or_rr(&mut self, dst: Reg, src: Reg) {
        self.alu_rr(0x09, dst, src);
    }
    pub fn xor_rr(&mut self, dst: Reg, src: Reg) {
        self.alu_rr(0x31, dst, src);
    }
    pub fn cmp_rr(&mut self, a: Reg, b: Reg) {
        self.alu_rr(0x39, a, b);
    }

    /// `imul dst, src`
    pub fn imul_rr(&mut self, dst: Reg, src: Reg) {
        self.rex(true, dst.ext(), false, src.ext());
        self.bytes(&[0x0F, 0xAF]);
        self.byte(0xC0 | (dst.low3() << 3) | src.low3());
    }

    fn alu_ri(&mut self, ext_op: u8, dst: Reg, imm: i32) {
        self.rex(true, false, false, dst.ext());
        if let Ok(v) = i8::try_from(imm) {
            self.bytes(&[0x83, 0xC0 | (ext_op << 3) | dst.low3(), v as u8]);
        } else {
            self.byte(0x81);
            self.byte(0xC0 | (ext_op << 3) | dst.low3());
            self.imm32(imm);
        }
    }

    pub fn add_ri(&mut self, dst: Reg, imm: i32) {
        self.alu_ri(0, dst, imm);
    }
    pub fn cmp_ri(&mut self, dst: Reg, imm: i32) {
        self.alu_ri(7, dst, imm);
    }

    /// `cmp a, qword [base + disp]`
    pub fn cmp_r_mem(&mut self, a: Reg, base: Reg, disp: i32) {
        self.rex(true, a.ext(), false, base.ext());
        self.byte(0x3B);
        self.modrm_base_disp32(a.low3(), base, disp);
    }

    pub fn test_rr(&mut self, a: Reg, b: Reg) {
        self.rex(true, b.ext(), false, a.ext());
        self.byte(0x85);
        self.byte(0xC0 | (b.low3() << 3) | a.low3());
    }

    pub fn neg(&mut self, r: Reg) {
        self.rex(true, false, false, r.ext());
        self.byte(0xF7);
        self.byte(0xC0 | (3 << 3) | r.low3());
    }

    /// `cqo` (sign-extend rax into rdx:rax).
    pub fn cqo(&mut self) {
        self.bytes(&[0x48, 0x99]);
    }

    /// `idiv r` (rdx:rax / r → quotient rax, remainder rdx).
    pub fn idiv(&mut self, r: Reg) {
        self.rex(true, false, false, r.ext());
        self.byte(0xF7);
        self.byte(0xC0 | (7 << 3) | r.low3());
    }

    /// `setcc dst_low8; movzx dst, dst_low8`
    pub fn setcc_zx(&mut self, cc: Cc, dst: Reg) {
        // setcc needs a REX prefix to address sil/dil/r8b+ uniformly.
        self.rex(false, false, false, dst.ext());
        self.bytes(&[0x0F, 0x90 | cc as u8]);
        self.byte(0xC0 | dst.low3());
        self.rex(true, dst.ext(), false, dst.ext());
        self.bytes(&[0x0F, 0xB6]);
        self.byte(0xC0 | (dst.low3() << 3) | dst.low3());
    }

    /// `inc qword [base + disp]`
    pub fn inc_mem(&mut self, base: Reg, disp: i32) {
        self.rex(true, false, false, base.ext());
        self.byte(0xFF);
        self.modrm_base_disp32(0, base, disp);
    }

    /// `add qword [base + disp], imm32`
    pub fn add_mem_imm32(&mut self, base: Reg, disp: i32, imm: i32) {
        self.rex(true, false, false, base.ext());
        self.byte(0x81);
        self.modrm_base_disp32(0, base, disp);
        self.imm32(imm);
    }

    // ---- control flow ---------------------------------------------------

    /// `jmp label`, returning the offset of the rel32 (the displacement
    /// counts from the end of those four bytes).
    pub fn jmp(&mut self, label: Label) -> u32 {
        self.byte(0xE9);
        let at = self.code.len();
        self.fixups.push((at, label));
        self.imm32(0);
        at as u32
    }

    pub fn jcc(&mut self, cc: Cc, label: Label) {
        self.bytes(&[0x0F, 0x80 | cc as u8]);
        self.fixups.push((self.code.len(), label));
        self.imm32(0);
    }

    /// `jmp qword [base + disp]`
    pub fn jmp_mem(&mut self, base: Reg, disp: i32) {
        self.rex(false, false, false, base.ext());
        self.byte(0xFF);
        self.modrm_base_disp32(4, base, disp);
    }

    /// `jmp r`
    pub fn jmp_r(&mut self, r: Reg) {
        self.rex(false, false, false, r.ext());
        self.byte(0xFF);
        self.byte(0xC0 | (4 << 3) | r.low3());
    }

    /// `call r`
    pub fn call_r(&mut self, r: Reg) {
        self.rex(false, false, false, r.ext());
        self.byte(0xFF);
        self.byte(0xC0 | (2 << 3) | r.low3());
    }

    pub fn push(&mut self, r: Reg) {
        if r.ext() {
            self.byte(0x41);
        }
        self.byte(0x50 | r.low3());
    }

    pub fn pop(&mut self, r: Reg) {
        if r.ext() {
            self.byte(0x41);
        }
        self.byte(0x58 | r.low3());
    }

    pub fn ret(&mut self) {
        self.byte(0xC3);
    }

    /// `sub rsp, imm8` / `add rsp, imm8` for alignment padding.
    pub fn sub_rsp_imm8(&mut self, imm: i8) {
        self.bytes(&[0x48, 0x83, 0xEC, imm as u8]);
    }
    pub fn add_rsp_imm8(&mut self, imm: i8) {
        self.bytes(&[0x48, 0x83, 0xC4, imm as u8]);
    }

    /// `rep stosq` (rcx qwords of rax at [rdi]).
    pub fn rep_stosq(&mut self) {
        self.bytes(&[0xF3, 0x48, 0xAB]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_fixups_patch() {
        let mut e = EmitState::new();
        let back = e.new_label();
        let fwd = e.new_label();
        e.bind(back);
        e.mov_ri(Reg::Rax, 1);
        e.jcc(Cc::E, fwd);
        e.jmp(back);
        e.bind(fwd);
        e.ret();
        let code = e.finish();
        // jcc rel32 sits after the 7-byte mov; its rel points at ret.
        let jcc_rel = i32::from_le_bytes(code[9..13].try_into().unwrap());
        assert_eq!(13 + jcc_rel as usize + 5, code.len() - 1 + 5);
        // backward jmp points at offset 0.
        let jmp_rel = i32::from_le_bytes(code[14..18].try_into().unwrap());
        assert_eq!(18i64 + i64::from(jmp_rel), 0);
    }

    #[cfg(all(target_arch = "x86_64", unix))]
    #[test]
    fn emitted_alu_executes() {
        use crate::exec::ExecMem;
        // fn(a: rdi, b: rsi) -> a*b + 7, exercising mov/imul/add/setcc paths.
        let mut e = EmitState::new();
        e.mov_rr(Reg::Rax, Reg::Rdi);
        e.imul_rr(Reg::Rax, Reg::Rsi);
        e.add_ri(Reg::Rax, 7);
        e.ret();
        let code = e.finish();
        let Some(mem) = ExecMem::new(&code) else { return };
        let f: extern "sysv64" fn(i64, i64) -> i64 = unsafe { std::mem::transmute(mem.base()) };
        assert_eq!(f(6, 7), 49);
        assert_eq!(f(-3, 5), -8);
    }
}
