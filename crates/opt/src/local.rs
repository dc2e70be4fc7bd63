//! Per-block value numbering: constant folding, copy propagation and
//! common subexpression elimination in one sweep.
//!
//! CSE over address arithmetic is §2's third untidy-pointer source: once
//! `t = &A[i]` is shared by two element accesses, `t` is a derived value
//! that must be described at any intervening gc-point. Loads are numbered
//! too, and invalidated by stores, calls and allocations.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use m3gc_ir::{Function, Instr, Temp};

/// The numbering table's hasher: one rotate, xor and multiply per word
/// written (the scheme of rustc's `FxHasher`). Keys are a few small
/// integers, which SipHash would spend most of the pass on. They come
/// from the program being compiled, as rustc's do: a collision costs
/// time, never a wrong answer.
#[derive(Default)]
struct MulHasher(u64);

impl MulHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Abstract value of a temp within a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Val {
    /// Known constant.
    Const(i64),
    /// Value class id (from the numbering table).
    Num(u32),
}

/// Expression key for the numbering table. Memory reads carry the
/// block's memory epoch, so a store, call or allocation (which starts a
/// new epoch) makes every earlier read's key unreachable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Bin(m3gc_ir::BinOp, Val, Val),
    Un(m3gc_ir::UnOp, Val),
    Load(Val, i32, u32),
    LoadSlot(u32, u32, u32),
    SlotAddr(u32),
    LoadGlobal(u32, u32),
    GlobalAddr(u32),
    Const(i64),
}

/// A numbering-table entry: the value and the representative temp
/// holding it, valid while the representative has had exactly `defs`
/// definitions.
#[derive(Clone, Copy)]
struct Entry {
    val: Val,
    rep: Temp,
    defs: u32,
}

/// The numbering state of one block, with buffers that outlive it: one
/// `BlockState` serves every block of every function it is given.
#[derive(Default)]
pub(crate) struct BlockState {
    /// Current abstract value of each temp (indexed by temp).
    vals: Vec<Option<Val>>,
    /// Temps whose `vals` entry this block set, to reset it in O(block).
    touched: Vec<Temp>,
    /// Definitions seen so far of each temp: an entry whose
    /// representative has been redefined since is stale.
    defs: Vec<u32>,
    /// Expression → entry.
    table: HashMap<Key, Entry, BuildHasherDefault<MulHasher>>,
    next_num: u32,
    /// Bumped by every store, call and allocation.
    memory: u32,
}

impl BlockState {
    /// Ready for a function of `n_temps` temps.
    fn prepare(&mut self, n_temps: usize) {
        self.reset();
        self.vals.resize(n_temps, None);
        self.defs.clear();
        self.defs.resize(n_temps, 0);
    }

    /// Forgets everything: a new block starts.
    fn reset(&mut self) {
        for t in self.touched.drain(..) {
            self.vals[t.index()] = None;
        }
        self.table.clear();
        self.next_num = 0;
        self.memory = 0;
    }

    fn fresh(&mut self) -> Val {
        let v = Val::Num(self.next_num);
        self.next_num += 1;
        v
    }

    fn set_val(&mut self, t: Temp, v: Val) {
        if self.vals[t.index()].replace(v).is_none() {
            self.touched.push(t);
        }
    }

    fn val_of(&mut self, t: Temp) -> Val {
        if let Some(v) = self.vals[t.index()] {
            return v;
        }
        let v = self.fresh();
        self.set_val(t, v);
        v
    }

    /// The value and representative of `key`'s live entry, if it holds
    /// one that `reuse` accepts. Otherwise `dst` becomes the
    /// representative of `key`'s value (fresh unless a constant) and
    /// holds it. One probe of the table either way.
    fn reuse_or_record(
        &mut self,
        key: Key,
        dst: Temp,
        reuse: impl Fn(Temp) -> bool,
    ) -> Option<(Val, Temp)> {
        use std::collections::hash_map::Entry as Slot;
        let val = match key {
            Key::Const(c) => Val::Const(c),
            _ => Val::Num(self.next_num),
        };
        let entry = Entry { val, rep: dst, defs: self.defs[dst.index()] };
        match self.table.entry(key) {
            Slot::Occupied(mut slot) => {
                let old = *slot.get();
                if self.defs[old.rep.index()] == old.defs && old.rep != dst && reuse(old.rep) {
                    return Some((old.val, old.rep));
                }
                slot.insert(entry);
            }
            Slot::Vacant(slot) => {
                slot.insert(entry);
            }
        }
        if let Val::Num(_) = val {
            self.next_num += 1;
        }
        self.set_val(dst, val);
        None
    }

    fn record(&mut self, key: Key, val: Val, rep: Temp) {
        self.table.insert(key, Entry { val, rep, defs: self.defs[rep.index()] });
    }

    /// Invalidate all memory-derived facts (on stores, calls, allocations).
    fn kill_memory(&mut self) {
        self.memory += 1;
    }

    /// A temp was (re)defined: any table entry whose representative is the
    /// temp is stale.
    fn kill_temp(&mut self, t: Temp) {
        self.defs[t.index()] += 1;
        self.vals[t.index()] = None;
    }
}

/// Runs local value numbering over every block; returns the number of
/// instructions simplified.
pub fn local_value_numbering(f: &mut Function) -> usize {
    number_values(f, &mut BlockState::default())
}

/// [`local_value_numbering`] with the state's buffers.
pub(crate) fn number_values(f: &mut Function, st: &mut BlockState) -> usize {
    let mut simplified = 0;
    st.prepare(f.temp_count());
    let (kinds, blocks) = (&f.temp_kinds, &mut f.blocks);
    for block in blocks {
        st.reset();
        for ins in &mut block.instrs {
            // First rewrite uses: copy-propagate through representatives.
            // (A use of t whose value class has a still-valid representative
            // can read the representative instead; we only rewrite when the
            // representative differs and is not the same temp.)
            // Constant operands stay as-is (the IR has no immediates).
            let key: Option<Key> = match ins {
                Instr::Const { value, .. } => Some(Key::Const(*value)),
                Instr::Copy { src, dst } => {
                    let (src, dst) = (*src, *dst);
                    let v = st.val_of(src);
                    // Copies don't get table entries; the dst just aliases.
                    st.kill_temp(dst);
                    st.set_val(dst, v);
                    continue;
                }
                Instr::Bin { op, a, b, dst } => {
                    let (op, dst) = (*op, *dst);
                    let va = st.val_of(*a);
                    let vb = st.val_of(*b);
                    // Constant folding.
                    if let (Val::Const(x), Val::Const(y)) = (va, vb) {
                        let folded = op.eval(x, y);
                        *ins = Instr::Const { dst, value: folded };
                        st.kill_temp(dst);
                        st.set_val(dst, Val::Const(folded));
                        st.record(Key::Const(folded), Val::Const(folded), dst);
                        simplified += 1;
                        continue;
                    }
                    // Canonicalize commutative operand order.
                    let (va, vb) = if op.commutative() && va > vb { (vb, va) } else { (va, vb) };
                    Some(Key::Bin(op, va, vb))
                }
                Instr::Un { op, a, dst } => {
                    let (op, dst) = (*op, *dst);
                    let va = st.val_of(*a);
                    if let Val::Const(x) = va {
                        let folded = op.eval(x);
                        *ins = Instr::Const { dst, value: folded };
                        st.kill_temp(dst);
                        st.set_val(dst, Val::Const(folded));
                        simplified += 1;
                        continue;
                    }
                    Some(Key::Un(op, va))
                }
                Instr::Load { addr, offset, .. } => {
                    let va = st.val_of(*addr);
                    Some(Key::Load(va, *offset, st.memory))
                }
                Instr::LoadSlot { slot, offset, .. } => {
                    Some(Key::LoadSlot(slot.0, *offset, st.memory))
                }
                Instr::SlotAddr { slot, .. } => Some(Key::SlotAddr(slot.0)),
                Instr::LoadGlobal { global, .. } => Some(Key::LoadGlobal(global.0, st.memory)),
                Instr::GlobalAddr { global, .. } => Some(Key::GlobalAddr(global.0)),
                Instr::Store { .. } | Instr::StoreSlot { .. } | Instr::StoreGlobal { .. } => {
                    st.kill_memory();
                    None
                }
                Instr::Call { .. } | Instr::CallRuntime { .. } | Instr::New { .. } => {
                    st.kill_memory();
                    if let Some(dst) = ins.def() {
                        st.kill_temp(dst);
                        let v = st.fresh();
                        st.set_val(dst, v);
                    }
                    continue;
                }
                Instr::GcPoint => None,
            };
            let Some(key) = key else { continue };
            let dst = match ins.def() {
                Some(d) => d,
                None => continue,
            };
            st.kill_temp(dst);
            let same_kind = |rep: Temp| kinds[rep.index()] == kinds[dst.index()];
            if let Some((v, rep)) = st.reuse_or_record(key, dst, same_kind) {
                // Same kind of value already available: reuse it.
                // Replacing a load/arith with a copy of the
                // representative is the CSE step.
                *ins = Instr::Copy { dst, src: rep };
                st.set_val(dst, v);
                simplified += 1;
            }
        }
    }
    simplified
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3gc_core::heap::TypeId;
    use m3gc_ir::builder::FuncBuilder;
    use m3gc_ir::{BinOp, FuncId, TempKind};

    #[test]
    fn folds_constants() {
        let mut b = FuncBuilder::with_ret("f", &[], Some(TempKind::Int));
        let x = b.constant(6);
        let y = b.constant(7);
        let z = b.bin(BinOp::Mul, x, y);
        b.ret(Some(z));
        let mut f = b.finish();
        let n = local_value_numbering(&mut f);
        assert!(n >= 1);
        assert!(matches!(f.blocks[0].instrs[2], Instr::Const { value: 42, .. }));
        let out = m3gc_ir::interp::run_program(&wrap(f)).unwrap();
        assert_eq!(out.result, Some(42));
    }

    fn wrap(func: m3gc_ir::Function) -> m3gc_ir::Program {
        let mut p = m3gc_ir::Program::new();
        let id = p.add_func(func);
        p.main = id;
        p
    }

    #[test]
    fn cse_shares_address_arithmetic() {
        // t1 = p + i; t2 = p + i  → t2 = copy t1
        let mut b = FuncBuilder::new("f", &[TempKind::Ptr, TempKind::Int]);
        let t1 = b.bin(BinOp::Add, b.param(0), b.param(1));
        let t2 = b.bin(BinOp::Add, b.param(0), b.param(1));
        let s = b.bin(BinOp::Sub, t1, t2);
        b.ret(Some(s));
        let mut f = b.finish();
        f.ret_kind = Some(TempKind::Int);
        let n = local_value_numbering(&mut f);
        assert!(n >= 1);
        assert!(matches!(f.blocks[0].instrs[1], Instr::Copy { .. }), "{:?}", f.blocks[0].instrs);
    }

    /// A store, a call and an allocation may each write memory: a load
    /// after any of them reads again.
    #[test]
    fn loads_are_killed_by_stores_calls_and_allocations() {
        for killer in ["store", "call", "new"] {
            let mut b = FuncBuilder::new("f", &[TempKind::Ptr]);
            let v1 = b.load(b.param(0), 1, TempKind::Int);
            match killer {
                "store" => b.store(b.param(0), 1, v1),
                "call" => {
                    b.call(FuncId(0), vec![], None);
                }
                _ => {
                    b.new_object(TypeId(0), None);
                }
            }
            let v2 = b.load(b.param(0), 1, TempKind::Int); // must NOT be CSE'd...
            let s = b.bin(BinOp::Add, v1, v2);
            b.ret(Some(s));
            let mut f = b.finish();
            f.ret_kind = Some(TempKind::Int);
            local_value_numbering(&mut f);
            assert!(
                matches!(f.blocks[0].instrs[2], Instr::Load { .. }),
                "load after {killer} must survive: {:?}",
                f.blocks[0].instrs
            );
        }
    }

    /// Once the temp holding a value is overwritten, the same expression
    /// computed again is computed, not copied from the stale holder.
    #[test]
    fn a_redefined_representative_is_never_reused() {
        let mut b = FuncBuilder::new("f", &[TempKind::Int, TempKind::Int]);
        let t = b.bin(BinOp::Add, b.param(0), b.param(1));
        b.push(Instr::Const { dst: t, value: 7 });
        let again = b.bin(BinOp::Add, b.param(0), b.param(1));
        let s = b.bin(BinOp::Sub, t, again);
        b.ret(Some(s));
        let mut f = b.finish();
        f.ret_kind = Some(TempKind::Int);
        local_value_numbering(&mut f);
        assert!(
            matches!(f.blocks[0].instrs[2], Instr::Bin { op: BinOp::Add, .. }),
            "{:?}",
            f.blocks[0].instrs
        );
    }

    #[test]
    fn redundant_loads_merge_without_stores() {
        let mut b = FuncBuilder::new("f", &[TempKind::Ptr]);
        let v1 = b.load(b.param(0), 1, TempKind::Int);
        let v2 = b.load(b.param(0), 1, TempKind::Int);
        let s = b.bin(BinOp::Add, v1, v2);
        b.ret(Some(s));
        let mut f = b.finish();
        f.ret_kind = Some(TempKind::Int);
        let n = local_value_numbering(&mut f);
        assert!(n >= 1);
        assert!(matches!(f.blocks[0].instrs[1], Instr::Copy { .. }));
    }

    #[test]
    fn copies_propagate_through_value_classes() {
        let mut b = FuncBuilder::new("f", &[TempKind::Int]);
        let c = b.copy_of(b.param(0), TempKind::Int);
        let d = b.bin(BinOp::Add, c, b.param(0));
        let e = b.bin(BinOp::Add, b.param(0), c); // commutative duplicate
        let s = b.bin(BinOp::Sub, d, e);
        b.ret(Some(s));
        let mut f = b.finish();
        f.ret_kind = Some(TempKind::Int);
        let n = local_value_numbering(&mut f);
        assert!(n >= 1, "commutative CSE should fire");
    }

    #[test]
    fn semantics_preserved_on_reference_run() {
        let mut b = FuncBuilder::with_ret("f", &[], Some(TempKind::Int));
        let a = b.constant(10);
        let bb = b.constant(4);
        let s = b.bin(BinOp::Sub, a, bb);
        let t = b.bin(BinOp::Mul, s, s);
        b.ret(Some(t));
        let mut f = b.finish();
        let before = m3gc_ir::interp::run_program(&wrap(f.clone())).unwrap();
        local_value_numbering(&mut f);
        let after = m3gc_ir::interp::run_program(&wrap(f)).unwrap();
        assert_eq!(before.result, after.result);
        assert_eq!(before.result, Some(36));
    }
}
