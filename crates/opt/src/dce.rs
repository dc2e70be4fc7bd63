//! Dead code elimination.
//!
//! Removes pure instructions whose results are not live. Note this uses
//! *plain* liveness — the dead-base rule (§4) is a property of gc-point
//! emission, not of program semantics: a base's defining instruction is
//! never "dead" while a derived value computed from it is used, because
//! the derivation itself consumes the base.
//!
//! Each sweep walks every block backward once, dropping a dead pure
//! instruction the moment it is found and not adding its uses, so a dead
//! chain inside a block goes in one walk. Removal is confluent: an
//! instruction's uses only ever leave, so liveness only shrinks and
//! whatever is dead stays dead — any removal order reaches the same
//! fixpoint, the one repeated global rounds reach. Liveness is re-solved
//! only when a block's upward-exposed uses changed (otherwise the old
//! solution is still the least one). A dead cycle, such as a
//! loop-carried `i := i + 1` nothing else reads, keeps itself live and
//! survives: this is plain-liveness DCE, not faint-variable elimination.

use m3gc_ir::liveness::Liveness;
use m3gc_ir::{BlockId, Function};

/// Removes dead pure instructions; returns how many were removed.
pub fn eliminate_dead_code(f: &mut Function) -> usize {
    Buffers::default().eliminate(f)
}

/// What the pass keeps from call to call: the liveness solution's
/// storage and the walk's two sets. Each set is a stamp array over the
/// temps (a temp is in it while its stamp is the block's), so a block
/// starts with both empty for free and a walk costs its instructions
/// plus its live-out set.
#[derive(Default)]
pub(crate) struct Buffers {
    lv: Liveness,
    live: Vec<u32>,
    exposed: Vec<u32>,
    stamp: u32,
    dead: Vec<bool>,
}

impl Buffers {
    /// A stamp no entry of `live` or `exposed` holds yet.
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.live.fill(0);
            self.exposed.fill(0);
            self.stamp = 1;
        }
        self.stamp
    }

    /// [`eliminate_dead_code`].
    pub(crate) fn eliminate(&mut self, f: &mut Function) -> usize {
        let n_temps = f.temp_count();
        self.live.resize(n_temps, 0);
        self.exposed.resize(n_temps, 0);
        let mut removed = 0;
        loop {
            self.lv.solve(f, None);
            let mut stale = false;
            for (bi, block) in f.blocks.iter_mut().enumerate() {
                let b = BlockId(bi as u32);
                // `live` walks back from the block's exit, `exposed` from
                // nothing: at the top they are the block's live-in and its
                // upward-exposed uses.
                let stamp = self.next_stamp();
                let Buffers { lv, live, exposed, dead, .. } = self;
                for t in lv.live_out(b).iter() {
                    live[t.index()] = stamp;
                }
                block.term.for_each_use(|t| {
                    live[t.index()] = stamp;
                    exposed[t.index()] = stamp;
                });
                dead.clear();
                dead.resize(block.instrs.len(), false);
                let mut n_dead = 0;
                for (i, ins) in block.instrs.iter().enumerate().rev() {
                    if let Some(d) = ins.def() {
                        if live[d.index()] != stamp && !ins.has_side_effects() {
                            dead[i] = true;
                            n_dead += 1;
                            continue;
                        }
                        live[d.index()] = 0;
                        exposed[d.index()] = 0;
                    }
                    ins.for_each_use(|t| {
                        live[t.index()] = stamp;
                        exposed[t.index()] = stamp;
                    });
                }
                if n_dead > 0 {
                    let mut flags = dead.iter();
                    block.instrs.retain(|_| !flags.next().copied().unwrap_or(false));
                    removed += n_dead;
                    // Dropping instructions only removes uses, so the
                    // block's exposed uses shrank or stayed: they changed
                    // exactly when one of the old ones is gone.
                    stale |= lv.gen(b).iter().any(|t| exposed[t.index()] != stamp);
                }
            }
            if !stale {
                return removed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3gc_ir::builder::FuncBuilder;
    use m3gc_ir::{BinOp, Instr, RuntimeFn, TempKind};

    #[test]
    fn removes_unused_arithmetic() {
        let mut b = FuncBuilder::with_ret("f", &[TempKind::Int], Some(TempKind::Int));
        let dead1 = b.constant(1);
        let _dead2 = b.bin(BinOp::Add, dead1, dead1);
        let live = b.bin(BinOp::Add, b.param(0), b.param(0));
        b.ret(Some(live));
        let mut f = b.finish();
        let n = eliminate_dead_code(&mut f);
        // dead2 removal makes dead1 dead too (cascade).
        assert_eq!(n, 2);
        assert_eq!(f.instr_count(), 1);
    }

    #[test]
    fn keeps_side_effects() {
        let mut b = FuncBuilder::new("f", &[]);
        let x = b.constant(3);
        b.call_runtime(RuntimeFn::PrintInt, vec![x]);
        let p = b.new_object(m3gc_core::heap::TypeId(0), None); // result unused, but allocation observable
        let _ = p;
        b.ret(None);
        let mut f = b.finish();
        eliminate_dead_code(&mut f);
        assert_eq!(f.instr_count(), 3);
    }

    #[test]
    fn keeps_values_live_across_blocks() {
        let mut b = FuncBuilder::with_ret("f", &[TempKind::Int], Some(TempKind::Int));
        let x = b.constant(9);
        let next = b.block();
        b.jump(next);
        b.switch_to(next);
        let y = b.bin(BinOp::Add, x, b.param(0));
        b.ret(Some(y));
        let mut f = b.finish();
        assert_eq!(eliminate_dead_code(&mut f), 0);
    }

    /// A chain whose links sit in three blocks goes entirely: each link
    /// dies once the block after it drops its only use.
    #[test]
    fn removes_a_dead_chain_across_three_blocks() {
        let mut b = FuncBuilder::with_ret("f", &[TempKind::Int], Some(TempKind::Int));
        let x1 = b.constant(1);
        let (second, third) = (b.block(), b.block());
        b.jump(second);
        b.switch_to(second);
        let x2 = b.bin(BinOp::Add, x1, x1);
        b.jump(third);
        b.switch_to(third);
        let _x3 = b.bin(BinOp::Add, x2, x2);
        let live = b.bin(BinOp::Add, b.param(0), b.param(0));
        b.ret(Some(live));
        let mut f = b.finish();
        assert_eq!(eliminate_dead_code(&mut f), 3);
        assert_eq!(f.instr_count(), 1, "only the returned value is left");
        assert_eq!(eliminate_dead_code(&mut f), 0, "a second run finds nothing");
    }

    /// `i := i + 1` in a loop that never reads `i` otherwise is dead by
    /// faint-variable reasoning, but each def feeds the next iteration's
    /// use, so plain liveness keeps the cycle — and so does this pass.
    #[test]
    fn keeps_a_dead_loop_carried_increment() {
        let mut b = FuncBuilder::new("f", &[TempKind::Int]);
        let i = b.temp(TempKind::Int);
        b.push(Instr::Const { dst: i, value: 0 });
        let (header, body, exit) = (b.block(), b.block(), b.block());
        b.jump(header);
        b.switch_to(header);
        let ten = b.constant(10);
        let c = b.bin(BinOp::Lt, b.param(0), ten);
        b.br(c, body, exit);
        b.switch_to(body);
        let one = b.constant(1);
        let ni = b.bin(BinOp::Add, i, one);
        b.push(Instr::Copy { dst: i, src: ni });
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        let before = f.instr_count();
        assert_eq!(eliminate_dead_code(&mut f), 0);
        assert_eq!(f.instr_count(), before);
    }

    #[test]
    fn dead_store_targets_are_not_removed() {
        // Stores are side effects even if the stored temp has other uses.
        let mut b = FuncBuilder::new("f", &[TempKind::Ptr]);
        let v = b.constant(1);
        b.store(b.param(0), 1, v);
        b.ret(None);
        let mut f = b.finish();
        assert_eq!(eliminate_dead_code(&mut f), 0);
    }
}
