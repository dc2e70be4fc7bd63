//! The instruction set.
//!
//! Twelve general-purpose registers `r0..r11` (r0 carries return values;
//! r0–r5 are caller-save, r6–r11 callee-save) plus three base registers
//! `FP`, `SP`, `AP` addressed by dedicated frame instructions. All memory
//! operands are word-granular.

use m3gc_core::layout::BaseReg;

/// Number of general-purpose registers (equals the register pointer
/// table's width).
pub const NUM_REGS: usize = m3gc_core::layout::NUM_HARD_REGS;

/// First callee-save register; `r6..r11` are callee-save.
pub const FIRST_CALLEE_SAVE: u8 = 6;

/// The register that carries return values.
pub const RET_REG: u8 = 0;

/// Binary ALU operations (same semantics as the IR's operators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    And,
    Or,
    Xor,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl AluOp {
    /// All operations, in opcode order.
    pub const ALL: [AluOp; 14] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Mod,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Eq,
        AluOp::Ne,
        AluOp::Lt,
        AluOp::Le,
        AluOp::Gt,
        AluOp::Ge,
    ];

    /// Evaluates the operation. `#[inline]`: the interpreter loop is
    /// instantiated in downstream crates, where this would otherwise be
    /// a call per ALU instruction.
    #[inline]
    #[must_use]
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Mod => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Eq => i64::from(a == b),
            AluOp::Ne => i64::from(a != b),
            AluOp::Lt => i64::from(a < b),
            AluOp::Le => i64::from(a <= b),
            AluOp::Gt => i64::from(a > b),
            AluOp::Ge => i64::from(a >= b),
        }
    }
}

/// Unary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnAluOp {
    Neg,
    Not,
}

impl UnAluOp {
    /// Evaluates the operation.
    #[inline]
    #[must_use]
    pub fn eval(self, a: i64) -> i64 {
        match self {
            UnAluOp::Neg => a.wrapping_neg(),
            UnAluOp::Not => i64::from(a == 0),
        }
    }
}

/// One machine instruction.
///
/// Branch/jump targets are absolute byte addresses in the module's code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `dst := imm`.
    MovI { dst: u8, imm: i64 },
    /// `dst := src`.
    Mov { dst: u8, src: u8 },
    /// `dst := a op b`.
    Alu { op: AluOp, dst: u8, a: u8, b: u8 },
    /// `dst := a op imm` (common enough to deserve an immediate form).
    AluI { op: AluOp, dst: u8, a: u8, imm: i64 },
    /// `dst := op a`.
    UnAlu { op: UnAluOp, dst: u8, a: u8 },
    /// `dst := mem[rbase + off]`.
    Ld { dst: u8, base: u8, off: i32 },
    /// `mem[rbase + off] := src`.
    St { base: u8, off: i32, src: u8 },
    /// `mem[rbase + off] := src` with a generational write barrier: if the
    /// target slot is tenured and the stored value points into the
    /// nursery, the slot address is recorded in the remembered set.
    /// Codegen emits this for pointer stores into heap objects; on a
    /// semispace heap it behaves exactly like `St`.
    StB { base: u8, off: i32, src: u8 },
    /// `dst := mem[breg + off]` — frame-relative load.
    LdF { dst: u8, breg: BaseReg, off: i32 },
    /// `mem[breg + off] := src` — frame-relative store.
    StF { breg: BaseReg, off: i32, src: u8 },
    /// `dst := breg + off` — frame address.
    Lea { dst: u8, breg: BaseReg, off: i32 },
    /// `dst := globals[goff]`.
    LdG { dst: u8, goff: u32 },
    /// `globals[goff] := src`.
    StG { goff: u32, src: u8 },
    /// `dst := &globals[goff]`.
    LeaG { dst: u8, goff: u32 },
    /// `mem[SP] := src; SP += 1` — push an outgoing argument.
    Push { src: u8 },
    /// Call procedure `proc` with `nargs` already pushed.
    Call { proc: u16, nargs: u8 },
    /// Return to the caller (return value, if any, in `r0`).
    Ret,
    /// Unconditional jump.
    Jmp { target: u32 },
    /// Branch if `cond != 0`.
    Brt { cond: u8, target: u32 },
    /// Branch if `cond == 0`.
    Brf { cond: u8, target: u32 },
    /// `dst := allocate(ty)` — a gc-point; pauses the machine when the
    /// heap is full.
    Alloc { dst: u8, ty: u16 },
    /// `dst := allocate(ty, rlen)` — open-array allocation.
    AllocA { dst: u8, ty: u16, len: u8 },
    /// Explicit gc-point (loop back edges, §5.3). No effect when no
    /// collection is pending.
    GcPoint,
    /// Non-allocating runtime service (print, fatal errors).
    Sys { code: u8, arg: u8 },
    /// Stop the machine.
    Halt,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_matches_reference_semantics() {
        assert_eq!(AluOp::Add.eval(i64::MAX, 1), i64::MIN);
        assert_eq!(AluOp::Div.eval(9, 0), 0);
        assert_eq!(AluOp::Lt.eval(-1, 0), 1);
        assert_eq!(UnAluOp::Not.eval(0), 1);
        assert_eq!(UnAluOp::Neg.eval(-5), 5);
    }

    #[test]
    fn register_partition() {
        assert_eq!(NUM_REGS, 12);
        assert!((FIRST_CALLEE_SAVE as usize) < NUM_REGS);
    }
}
