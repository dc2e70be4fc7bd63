//! Ergonomic construction of IR functions, used by the front end's lowering
//! and by tests.

use m3gc_core::heap::TypeId;

use crate::func::{Function, SlotInfo, TempKind};
use crate::ids::{BlockId, FuncId, GlobalId, SlotId, Temp};
use crate::instr::{BinOp, Instr, RuntimeFn, Terminator, UnOp};

/// A cursor-style builder over a [`Function`].
#[derive(Debug)]
pub struct FuncBuilder {
    func: Function,
    current: BlockId,
    /// True once the current block's terminator has been set explicitly.
    terminated: bool,
}

impl FuncBuilder {
    /// Starts building a function with the given parameter kinds.
    #[must_use]
    pub fn new(name: &str, params: &[TempKind]) -> FuncBuilder {
        Self::with_ret(name, params, None)
    }

    /// Starts building a function that returns a value of `ret` kind.
    #[must_use]
    pub fn with_ret(name: &str, params: &[TempKind], ret: Option<TempKind>) -> FuncBuilder {
        let func = Function::new(name, FuncId(0), params, ret);
        let current = func.entry;
        FuncBuilder { func, current, terminated: false }
    }

    /// The parameter temp at `i`.
    #[must_use]
    pub fn param(&self, i: usize) -> Temp {
        assert!(i < self.func.n_params, "parameter index out of range");
        Temp(i as u32)
    }

    /// Allocates a fresh temp.
    pub fn temp(&mut self, kind: TempKind) -> Temp {
        self.func.new_temp(kind)
    }

    /// Allocates a frame slot.
    pub fn slot(&mut self, info: SlotInfo) -> SlotId {
        self.func.new_slot(info)
    }

    /// Creates a new (empty) block without switching to it.
    pub fn block(&mut self) -> BlockId {
        self.func.new_block()
    }

    /// Makes `b` the insertion point.
    pub fn switch_to(&mut self, b: BlockId) {
        self.current = b;
        self.terminated = false;
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, ins: Instr) {
        assert!(!self.terminated, "appending to a terminated block");
        self.func.block_mut(self.current).instrs.push(ins);
    }

    /// `dst := value`, fresh Int temp.
    pub fn constant(&mut self, value: i64) -> Temp {
        let dst = self.temp(TempKind::Int);
        self.push(Instr::Const { dst, value });
        dst
    }

    /// NIL constant (pointer kind).
    pub fn nil(&mut self) -> Temp {
        let dst = self.temp(TempKind::Ptr);
        self.push(Instr::Const { dst, value: 0 });
        dst
    }

    /// `dst := a op b`, fresh Int temp.
    pub fn bin(&mut self, op: BinOp, a: Temp, b: Temp) -> Temp {
        let dst = self.temp(TempKind::Int);
        self.push(Instr::Bin { dst, op, a, b });
        dst
    }

    /// `dst := op a`, fresh Int temp.
    pub fn un(&mut self, op: UnOp, a: Temp) -> Temp {
        let dst = self.temp(TempKind::Int);
        self.push(Instr::Un { dst, op, a });
        dst
    }

    /// Copies `src` into a fresh temp of kind `kind`.
    pub fn copy_of(&mut self, src: Temp, kind: TempKind) -> Temp {
        let dst = self.temp(kind);
        self.push(Instr::Copy { dst, src });
        dst
    }

    /// `dst := mem[addr + offset]`, result kind chosen by caller.
    pub fn load(&mut self, addr: Temp, offset: i32, kind: TempKind) -> Temp {
        let dst = self.temp(kind);
        self.push(Instr::Load { dst, addr, offset });
        dst
    }

    /// `mem[addr + offset] := src`.
    pub fn store(&mut self, addr: Temp, offset: i32, src: Temp) {
        self.push(Instr::Store { addr, offset, src });
    }

    /// Reads a frame slot word.
    pub fn load_slot(&mut self, slot: SlotId, offset: u32, kind: TempKind) -> Temp {
        let dst = self.temp(kind);
        self.push(Instr::LoadSlot { dst, slot, offset });
        dst
    }

    /// Writes a frame slot word.
    pub fn store_slot(&mut self, slot: SlotId, offset: u32, src: Temp) {
        self.push(Instr::StoreSlot { slot, offset, src });
    }

    /// Takes a frame slot's address.
    pub fn slot_addr(&mut self, slot: SlotId) -> Temp {
        let dst = self.temp(TempKind::Int);
        self.push(Instr::SlotAddr { dst, slot });
        dst
    }

    /// Reads a global.
    pub fn load_global(&mut self, global: GlobalId, kind: TempKind) -> Temp {
        let dst = self.temp(kind);
        self.push(Instr::LoadGlobal { dst, global });
        dst
    }

    /// Writes a global.
    pub fn store_global(&mut self, global: GlobalId, src: Temp) {
        self.push(Instr::StoreGlobal { global, src });
    }

    /// Calls `func`, returning a fresh temp of `ret` kind if given.
    pub fn call(&mut self, func: FuncId, args: Vec<Temp>, ret: Option<TempKind>) -> Option<Temp> {
        let dst = ret.map(|k| self.temp(k));
        self.push(Instr::Call { dst, func, args });
        dst
    }

    /// Calls a runtime service.
    pub fn call_runtime(&mut self, func: RuntimeFn, args: Vec<Temp>) {
        self.push(Instr::CallRuntime { dst: None, func, args });
    }

    /// Allocates a heap object, returning the pointer temp.
    pub fn new_object(&mut self, ty: TypeId, len: Option<Temp>) -> Temp {
        let dst = self.temp(TempKind::Ptr);
        self.push(Instr::New { dst, ty, len });
        dst
    }

    /// Terminates the current block with a jump.
    pub fn jump(&mut self, to: BlockId) {
        self.set_term(Terminator::Jump(to));
    }

    /// Terminates the current block with a conditional branch.
    pub fn br(&mut self, cond: Temp, then_bb: BlockId, else_bb: BlockId) {
        self.set_term(Terminator::Br { cond, then_bb, else_bb });
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Temp>) {
        self.set_term(Terminator::Ret(value));
    }

    fn set_term(&mut self, t: Terminator) {
        assert!(!self.terminated, "block already terminated");
        self.func.block_mut(self.current).term = t;
        self.terminated = true;
    }

    /// True if the current block has been explicitly terminated.
    #[must_use]
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// Finishes and returns the function.
    #[must_use]
    pub fn finish(self) -> Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_diamond() {
        let mut b =
            FuncBuilder::with_ret("max", &[TempKind::Int, TempKind::Int], Some(TempKind::Int));
        let (x, y) = (b.param(0), b.param(1));
        let c = b.bin(BinOp::Lt, x, y);
        let bt = b.block();
        let bf = b.block();
        b.br(c, bt, bf);
        b.switch_to(bt);
        b.ret(Some(y));
        b.switch_to(bf);
        b.ret(Some(x));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 3);
        assert_eq!(f.instr_count(), 1);
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_termination_panics() {
        let mut b = FuncBuilder::new("f", &[]);
        b.ret(None);
        b.ret(None);
    }

    #[test]
    #[should_panic(expected = "terminated block")]
    fn append_after_terminator_panics() {
        let mut b = FuncBuilder::new("f", &[]);
        b.ret(None);
        b.constant(1);
    }

    #[test]
    fn helpers_allocate_expected_kinds() {
        let mut b = FuncBuilder::new("f", &[TempKind::Ptr]);
        let c = b.constant(3);
        let p = b.nil();
        let f = b.finish();
        assert_eq!(f.kind(c), TempKind::Int);
        assert_eq!(f.kind(p), TempKind::Ptr);
    }
}
