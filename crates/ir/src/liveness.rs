//! Backward liveness over temps, with the paper's *dead base* rule (§4):
//! when derivation information is supplied, **a use of a derived value is a
//! use of each of its base values** (and of its path variable), which keeps
//! bases alive for the lifetime of values derived from them. Without the
//! rule, an optimizer may let a base die inside a loop that still uses a
//! value derived from it, leaving the collector unable to update the
//! derived value.

use crate::bitset::BitSet;
use crate::cfg;
use crate::deriv::DerivAnalysis;
use crate::func::Function;
use crate::ids::{BlockId, Temp};
use crate::instr::{Instr, Terminator};

/// Per-block liveness sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Temps live on entry to each block.
    pub live_in: Vec<BitSet>,
    /// Temps live on exit from each block.
    pub live_out: Vec<BitSet>,
}

/// Expands a plain use into the full use set: the temp itself plus, under
/// the dead-base rule, its transitive support.
fn expand_use(t: Temp, deriv: Option<&DerivAnalysis>, out: &mut Vec<Temp>) {
    out.push(t);
    if let Some(d) = deriv {
        d.expand_support(t, out);
    }
}

fn instr_uses(ins: &Instr, deriv: Option<&DerivAnalysis>, out: &mut Vec<Temp>) {
    let mut plain = Vec::new();
    ins.uses(&mut plain);
    for t in plain {
        expand_use(t, deriv, out);
    }
}

fn term_uses(term: &Terminator, deriv: Option<&DerivAnalysis>, out: &mut Vec<Temp>) {
    let mut plain = Vec::new();
    term.uses(&mut plain);
    for t in plain {
        expand_use(t, deriv, out);
    }
}

/// Computes liveness. Pass `Some(deriv)` to apply the dead-base rule; the
/// compiler always does, but `None` is useful to measure the rule's cost
/// (the §6.2 experiment compiles with gc support off).
#[must_use]
pub fn liveness(f: &Function, deriv: Option<&DerivAnalysis>) -> Liveness {
    let n_blocks = f.blocks.len();
    let n_temps = f.temp_count();
    let mut live_in = vec![BitSet::new(n_temps); n_blocks];
    let mut live_out = vec![BitSet::new(n_temps); n_blocks];
    let rpo = cfg::reverse_postorder(f);
    let mut uses_buf = Vec::new();
    let mut changed = true;
    while changed {
        changed = false;
        // Iterate blocks in post order (reverse of RPO) for fast backward
        // convergence.
        for &b in rpo.iter().rev() {
            let bi = b.index();
            // live_out = union of successors' live_in.
            let succs = f.block(b).term.successors();
            let mut out_set = BitSet::new(n_temps);
            for s in succs {
                out_set.union_with(&live_in[s.index()]);
            }
            if out_set != live_out[bi] {
                live_out[bi] = out_set.clone();
                changed = true;
            }
            // live_in = uses ∪ (live_out − defs), walked backward.
            let mut set = out_set;
            let block = f.block(b);
            uses_buf.clear();
            term_uses(&block.term, deriv, &mut uses_buf);
            for &t in &uses_buf {
                set.insert(t.index());
            }
            for ins in block.instrs.iter().rev() {
                if let Some(d) = ins.def() {
                    set.remove(d.index());
                }
                uses_buf.clear();
                instr_uses(ins, deriv, &mut uses_buf);
                for &t in &uses_buf {
                    set.insert(t.index());
                }
            }
            if set != live_in[bi] {
                live_in[bi] = set;
                changed = true;
            }
        }
    }
    Liveness { live_in, live_out }
}

impl Liveness {
    /// The set of temps live **after** each instruction of block `b` (index
    /// `i` of the result corresponds to the program point just after
    /// `instrs[i]`). Used by the back end to compute gc-point live sets.
    #[must_use]
    pub fn live_after_each(
        &self,
        f: &Function,
        b: BlockId,
        deriv: Option<&DerivAnalysis>,
    ) -> Vec<BitSet> {
        let block = f.block(b);
        let n = block.instrs.len();
        let mut result = vec![BitSet::new(f.temp_count()); n];
        let mut set = self.live_out[b.index()].clone();
        let mut uses_buf = Vec::new();
        uses_buf.clear();
        term_uses(&block.term, deriv, &mut uses_buf);
        for &t in &uses_buf {
            set.insert(t.index());
        }
        for i in (0..n).rev() {
            result[i] = set.clone();
            let ins = &block.instrs[i];
            if let Some(d) = ins.def() {
                set.remove(d.index());
            }
            uses_buf.clear();
            instr_uses(ins, deriv, &mut uses_buf);
            for &t in &uses_buf {
                set.insert(t.index());
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::deriv::analyze_and_resolve;
    use crate::func::TempKind;
    use crate::instr::BinOp;

    /// Straight-line: t1 used by t2 is live between.
    #[test]
    fn straight_line_liveness() {
        let mut b = FuncBuilder::with_ret("f", &[TempKind::Int], Some(TempKind::Int));
        let t1 = b.constant(5);
        let t2 = b.bin(BinOp::Add, b.param(0), t1);
        b.ret(Some(t2));
        let f = b.finish();
        let lv = liveness(&f, None);
        // After the Const, both the param and t1 are live.
        let pts = lv.live_after_each(&f, f.entry, None);
        assert!(pts[0].contains(t1.index()));
        assert!(pts[0].contains(0));
        // After the Add, only t2 is live.
        assert!(pts[1].contains(t2.index()));
        assert!(!pts[1].contains(t1.index()));
    }

    /// The dead-base rule: without derivation info the base dies after the
    /// derivation; with it, the base stays live as long as the derived
    /// value does.
    #[test]
    fn dead_base_rule_extends_base_lifetime() {
        let mut b = FuncBuilder::new("f", &[TempKind::Ptr, TempKind::Int]);
        let p = b.param(0);
        let d = b.bin(BinOp::Add, p, b.param(1)); // derived from p
        let use1 = b.bin(BinOp::Add, d, b.param(1)); // d used later (also derived)
        b.ret(Some(use1));
        let mut f = b.finish();
        f.ret_kind = Some(TempKind::Int);
        let deriv = analyze_and_resolve(&mut f);

        let without = liveness(&f, None);
        let with = liveness(&f, Some(&deriv));
        let pts_without = without.live_after_each(&f, f.entry, None);
        let pts_with = with.live_after_each(&f, f.entry, Some(&deriv));
        // After the derivation of `use1`... p is dead without the rule once
        // d has been consumed, but the rule keeps p live because use1 is
        // (transitively) derived from it.
        let last = pts_without.len() - 1;
        assert!(!pts_without[last].contains(p.index()), "base dead without the rule");
        assert!(pts_with[last].contains(p.index()), "base kept alive by the rule");
    }

    /// Loop liveness: a temp defined before a loop and used inside is live
    /// around the back edge.
    #[test]
    fn loop_carried_liveness() {
        let mut b = FuncBuilder::new("f", &[TempKind::Int]);
        let x = b.constant(7);
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.jump(header);
        b.switch_to(header);
        let c = b.bin(BinOp::Lt, b.param(0), x);
        b.br(c, body, exit);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let lv = liveness(&f, None);
        assert!(lv.live_in[header.index()].contains(x.index()));
        assert!(lv.live_out[body.index()].contains(x.index()));
        assert!(!lv.live_in[exit.index()].contains(x.index()));
    }

    /// An interior pointer derived from a heap base keeps the *base* temp
    /// live at a gc-point between derivation and use (dead-base rule) — the
    /// base must never be pruned from the map while the derived value lives.
    #[test]
    fn interior_pointer_base_live_at_gc_point() {
        let mut b = FuncBuilder::new("f", &[TempKind::Ptr, TempKind::Int]);
        let p = b.param(0);
        let d = b.bin(BinOp::Add, p, b.param(1)); // interior pointer into *p
        let _gc = b.new_object(m3gc_core::heap::TypeId(0), None);
        let v = b.bin(BinOp::Add, d, b.param(1)); // d consumed after the gc-point
        b.ret(Some(v));
        let mut f = b.finish();
        f.ret_kind = Some(TempKind::Int);
        let deriv = analyze_and_resolve(&mut f);
        let lv = liveness(&f, Some(&deriv));
        let after = lv.live_after_each(&f, f.entry, Some(&deriv));
        // instrs: Bin (derive), New, Bin (use). After the New, d is live and
        // the dead-base rule keeps p live with it.
        assert!(after[1].contains(d.index()));
        assert!(after[1].contains(p.index()), "base pinned live across the gc-point");
    }

    /// Path variables become live wherever the ambiguous derived value is.
    #[test]
    fn path_variable_liveness() {
        use crate::func::Function;
        use crate::ids::{FuncId, Temp};
        use crate::instr::{Instr, Terminator};
        let mut f =
            Function::new("t", FuncId(0), &[TempKind::Ptr, TempKind::Ptr, TempKind::Int], None);
        let t = f.new_temp(TempKind::Int);
        let bt = f.new_block();
        let bf = f.new_block();
        let join = f.new_block();
        f.block_mut(f.entry).term = Terminator::Br { cond: Temp(2), then_bb: bt, else_bb: bf };
        f.block_mut(bt).instrs.push(Instr::Bin { dst: t, op: BinOp::Add, a: Temp(0), b: Temp(2) });
        f.block_mut(bt).term = Terminator::Jump(join);
        f.block_mut(bf).instrs.push(Instr::Bin { dst: t, op: BinOp::Add, a: Temp(1), b: Temp(2) });
        f.block_mut(bf).term = Terminator::Jump(join);
        f.block_mut(join).term = Terminator::Ret(Some(t));
        f.ret_kind = Some(TempKind::Int);
        let deriv = analyze_and_resolve(&mut f);
        let pv = match deriv.deriv(t) {
            Some(crate::deriv::DerivKind::Ambiguous { path_var, .. }) => *path_var,
            other => panic!("expected ambiguous, got {other:?}"),
        };
        let lv = liveness(&f, Some(&deriv));
        assert!(lv.live_in[join.index()].contains(pv.index()), "path var live at join");
        assert!(lv.live_in[join.index()].contains(0), "base P live at join");
        assert!(lv.live_in[join.index()].contains(1), "base Q live at join");
    }
}
