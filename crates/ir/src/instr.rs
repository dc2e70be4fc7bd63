//! IR instructions and block terminators.

use m3gc_core::heap::TypeId;

use crate::ids::{BlockId, FuncId, GlobalId, SlotId, Temp};

/// Binary operators. Comparisons yield 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition. On pointer-like operands, creates a derived value.
    Add,
    /// Wrapping subtraction. Pointer−pointer yields a (derived) non-pointer.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Truncating division.
    Div,
    /// Remainder (sign follows the dividend, as in Rust).
    Mod,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl BinOp {
    /// True for the comparison operators (result is 0/1, never a pointer).
    #[must_use]
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// Evaluates the operator on two integers (reference semantics, shared
    /// by the IR interpreter and the VM).
    #[must_use]
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Mod => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Eq => i64::from(a == b),
            BinOp::Ne => i64::from(a != b),
            BinOp::Lt => i64::from(a < b),
            BinOp::Le => i64::from(a <= b),
            BinOp::Gt => i64::from(a > b),
            BinOp::Ge => i64::from(a >= b),
        }
    }

    /// True if the operator is commutative.
    #[must_use]
    pub fn commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Ne
        )
    }
}

impl std::fmt::Display for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "div",
            BinOp::Mod => "mod",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (on 0/1).
    Not,
}

impl UnOp {
    /// Evaluates the operator.
    #[must_use]
    pub fn eval(self, a: i64) -> i64 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => i64::from(a == 0),
        }
    }
}

impl std::fmt::Display for UnOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnOp::Neg => write!(f, "neg"),
            UnOp::Not => write!(f, "not"),
        }
    }
}

/// Non-allocating runtime services. Calls to these are **not** gc-points:
/// the paper statically exempts known non-allocating procedures (run-time
/// error reporting and the like) from gc-point status (§5.3). A service
/// never parks, so it is the base case of codegen's may-park rule, under
/// which a procedure call is a gc-point exactly when its callee may park.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeFn {
    /// Print an integer (no newline).
    PrintInt,
    /// Print a character given its code.
    PrintChar,
    /// Print a newline.
    PrintLn,
    /// Abort with a subscript-range error.
    RangeError,
    /// Abort with a NIL-dereference error.
    NilError,
    /// Abort with an assertion failure.
    AssertError,
}

impl RuntimeFn {
    /// All runtime functions.
    pub const ALL: [RuntimeFn; 6] = [
        RuntimeFn::PrintInt,
        RuntimeFn::PrintChar,
        RuntimeFn::PrintLn,
        RuntimeFn::RangeError,
        RuntimeFn::NilError,
        RuntimeFn::AssertError,
    ];

    /// Stable numeric code used by the VM's `SYS` instruction.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            RuntimeFn::PrintInt => 0,
            RuntimeFn::PrintChar => 1,
            RuntimeFn::PrintLn => 2,
            RuntimeFn::RangeError => 3,
            RuntimeFn::NilError => 4,
            RuntimeFn::AssertError => 5,
        }
    }

    /// Inverse of [`RuntimeFn::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<RuntimeFn> {
        RuntimeFn::ALL.get(code as usize).copied()
    }

    /// Number of arguments the service takes.
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            RuntimeFn::PrintInt | RuntimeFn::PrintChar => 1,
            _ => 0,
        }
    }
}

impl std::fmt::Display for RuntimeFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RuntimeFn::PrintInt => "print_int",
            RuntimeFn::PrintChar => "print_char",
            RuntimeFn::PrintLn => "print_ln",
            RuntimeFn::RangeError => "range_error",
            RuntimeFn::NilError => "nil_error",
            RuntimeFn::AssertError => "assert_error",
        };
        write!(f, "{s}")
    }
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `dst := value`.
    Const { dst: Temp, value: i64 },
    /// `dst := src`.
    Copy { dst: Temp, src: Temp },
    /// `dst := a op b`.
    Bin { dst: Temp, op: BinOp, a: Temp, b: Temp },
    /// `dst := op a`.
    Un { dst: Temp, op: UnOp, a: Temp },
    /// `dst := mem[addr + offset]` (offset in words).
    Load { dst: Temp, addr: Temp, offset: i32 },
    /// `mem[addr + offset] := src`.
    Store { addr: Temp, offset: i32, src: Temp },
    /// `dst := slot[offset]` — read from a frame memory slot.
    LoadSlot { dst: Temp, slot: SlotId, offset: u32 },
    /// `slot[offset] := src`.
    StoreSlot { slot: SlotId, offset: u32, src: Temp },
    /// `dst := &slot` — address of a frame slot (for VAR/WITH on locals).
    SlotAddr { dst: Temp, slot: SlotId },
    /// `dst := global`.
    LoadGlobal { dst: Temp, global: GlobalId },
    /// `global := src`.
    StoreGlobal { global: GlobalId, src: Temp },
    /// `dst := &global` — address of a global (for VAR on globals).
    GlobalAddr { dst: Temp, global: GlobalId },
    /// Direct call. A gc-point when the callee (transitively) allocates.
    Call { dst: Option<Temp>, func: FuncId, args: Vec<Temp> },
    /// Call to a non-allocating runtime service. Never a gc-point.
    CallRuntime { dst: Option<Temp>, func: RuntimeFn, args: Vec<Temp> },
    /// Heap allocation: `dst := new ty[len]`. Always a gc-point.
    New { dst: Temp, ty: TypeId, len: Option<Temp> },
    /// Explicit gc-point (inserted in loops without a guaranteed one, §5.3).
    GcPoint,
}

impl Instr {
    /// The temp this instruction defines, if any.
    #[must_use]
    pub fn def(&self) -> Option<Temp> {
        match self {
            Instr::Const { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::LoadSlot { dst, .. }
            | Instr::SlotAddr { dst, .. }
            | Instr::LoadGlobal { dst, .. }
            | Instr::GlobalAddr { dst, .. }
            | Instr::New { dst, .. } => Some(*dst),
            Instr::Call { dst, .. } | Instr::CallRuntime { dst, .. } => *dst,
            Instr::Store { .. }
            | Instr::StoreSlot { .. }
            | Instr::StoreGlobal { .. }
            | Instr::GcPoint => None,
        }
    }

    /// Appends the temps this instruction uses to `out`.
    pub fn uses(&self, out: &mut Vec<Temp>) {
        self.for_each_use(|t| out.push(t));
    }

    /// Calls `f` on each temp this instruction uses, in [`Instr::uses`]
    /// order.
    #[inline]
    pub fn for_each_use(&self, mut f: impl FnMut(Temp)) {
        match self {
            Instr::Const { .. }
            | Instr::SlotAddr { .. }
            | Instr::LoadGlobal { .. }
            | Instr::GlobalAddr { .. }
            | Instr::LoadSlot { .. }
            | Instr::GcPoint => {}
            Instr::Copy { src, .. } => f(*src),
            Instr::Bin { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Instr::Un { a, .. } => f(*a),
            Instr::Load { addr, .. } => f(*addr),
            Instr::Store { addr, src, .. } => {
                f(*addr);
                f(*src);
            }
            Instr::StoreSlot { src, .. } | Instr::StoreGlobal { src, .. } => f(*src),
            Instr::Call { args, .. } | Instr::CallRuntime { args, .. } => {
                args.iter().copied().for_each(f);
            }
            Instr::New { len, .. } => len.iter().copied().for_each(f),
        }
    }

    /// True if this instruction can observe or modify memory / perform I/O
    /// and therefore must not be removed even if its result is dead.
    #[must_use]
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            Instr::Store { .. }
                | Instr::StoreSlot { .. }
                | Instr::StoreGlobal { .. }
                | Instr::Call { .. }
                | Instr::CallRuntime { .. }
                | Instr::New { .. }
                | Instr::GcPoint
        )
    }

    /// Rewrites every used temp through `f` (definitions are untouched).
    pub fn map_uses(&mut self, mut f: impl FnMut(Temp) -> Temp) {
        match self {
            Instr::Const { .. }
            | Instr::SlotAddr { .. }
            | Instr::LoadGlobal { .. }
            | Instr::GlobalAddr { .. }
            | Instr::LoadSlot { .. }
            | Instr::GcPoint => {}
            Instr::Copy { src, .. } => *src = f(*src),
            Instr::Bin { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Instr::Un { a, .. } => *a = f(*a),
            Instr::Load { addr, .. } => *addr = f(*addr),
            Instr::Store { addr, src, .. } => {
                *addr = f(*addr);
                *src = f(*src);
            }
            Instr::StoreSlot { src, .. } | Instr::StoreGlobal { src, .. } => *src = f(*src),
            Instr::Call { args, .. } | Instr::CallRuntime { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Instr::New { len, .. } => {
                if let Some(l) = len {
                    *l = f(*l);
                }
            }
        }
    }
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch on a 0/1 temp.
    Br { cond: Temp, then_bb: BlockId, else_bb: BlockId },
    /// Return, with optional value.
    Ret(Option<Temp>),
}

impl Terminator {
    /// Successor blocks (at most two; a branch lists `then_bb` first),
    /// without allocating.
    pub fn successors(&self) -> impl DoubleEndedIterator<Item = BlockId> + ExactSizeIterator {
        let (targets, n) = match *self {
            Terminator::Jump(b) => ([b, b], 1),
            Terminator::Br { then_bb, else_bb, .. } => ([then_bb, else_bb], 2),
            Terminator::Ret(_) => ([BlockId(0); 2], 0),
        };
        targets.into_iter().take(n)
    }

    /// Appends used temps to `out`.
    pub fn uses(&self, out: &mut Vec<Temp>) {
        self.for_each_use(|t| out.push(t));
    }

    /// Calls `f` on each used temp.
    #[inline]
    pub fn for_each_use(&self, mut f: impl FnMut(Temp)) {
        match self {
            Terminator::Br { cond, .. } => f(*cond),
            Terminator::Ret(Some(t)) => f(*t),
            _ => {}
        }
    }

    /// Rewrites every used temp through `f`.
    pub fn map_uses(&mut self, mut f: impl FnMut(Temp) -> Temp) {
        match self {
            Terminator::Br { cond, .. } => *cond = f(*cond),
            Terminator::Ret(Some(t)) => *t = f(*t),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval() {
        assert_eq!(BinOp::Add.eval(2, 3), 5);
        assert_eq!(BinOp::Sub.eval(2, 3), -1);
        assert_eq!(BinOp::Div.eval(7, 2), 3);
        assert_eq!(BinOp::Div.eval(7, 0), 0);
        assert_eq!(BinOp::Mod.eval(7, 0), 0);
        assert_eq!(BinOp::Lt.eval(1, 2), 1);
        assert_eq!(BinOp::Ge.eval(1, 2), 0);
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN);
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Neg.eval(5), -5);
        assert_eq!(UnOp::Not.eval(0), 1);
        assert_eq!(UnOp::Not.eval(7), 0);
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::Add.commutative());
        assert!(!BinOp::Sub.commutative());
    }

    #[test]
    fn runtime_fn_codes_roundtrip() {
        for f in RuntimeFn::ALL {
            assert_eq!(RuntimeFn::from_code(f.code()), Some(f));
        }
        assert_eq!(RuntimeFn::from_code(99), None);
    }

    #[test]
    fn def_use_extraction() {
        let i = Instr::Bin { dst: Temp(0), op: BinOp::Add, a: Temp(1), b: Temp(2) };
        assert_eq!(i.def(), Some(Temp(0)));
        let mut uses = Vec::new();
        i.uses(&mut uses);
        assert_eq!(uses, vec![Temp(1), Temp(2)]);
    }

    #[test]
    fn store_has_no_def_but_uses_both() {
        let i = Instr::Store { addr: Temp(3), offset: 1, src: Temp(4) };
        assert_eq!(i.def(), None);
        assert!(i.has_side_effects());
        let mut uses = Vec::new();
        i.uses(&mut uses);
        assert_eq!(uses, vec![Temp(3), Temp(4)]);
    }

    #[test]
    fn map_uses_rewrites() {
        let mut i = Instr::Bin { dst: Temp(0), op: BinOp::Add, a: Temp(1), b: Temp(2) };
        i.map_uses(|t| Temp(t.0 + 10));
        assert_eq!(i, Instr::Bin { dst: Temp(0), op: BinOp::Add, a: Temp(11), b: Temp(12) });
    }

    #[test]
    fn terminator_successors() {
        let succs = |t: &Terminator| t.successors().collect::<Vec<_>>();
        assert_eq!(succs(&Terminator::Jump(BlockId(2))), vec![BlockId(2)]);
        assert_eq!(succs(&Terminator::Ret(None)), vec![]);
        let br = Terminator::Br { cond: Temp(0), then_bb: BlockId(1), else_bb: BlockId(2) };
        assert_eq!(succs(&br), vec![BlockId(1), BlockId(2)]);
        assert_eq!(br.successors().rev().collect::<Vec<_>>(), vec![BlockId(2), BlockId(1)]);
    }
}
