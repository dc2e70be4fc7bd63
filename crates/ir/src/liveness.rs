//! Backward liveness over temps, with the paper's *dead base* rule (§4):
//! when derivation information is supplied, **a use of a derived value is a
//! use of each of its base values** (and of its path variable), which keeps
//! bases alive for the lifetime of values derived from them. Without the
//! rule, an optimizer may let a base die inside a loop that still uses a
//! value derived from it, leaving the collector unable to update the
//! derived value.
//!
//! The analysis is solved on block summaries: one backward walk per block
//! yields its upward-exposed uses (`gen`) and its defs (`kill`), and the
//! fixpoint then iterates `out = ∪ in[succ]`, `in = gen ∪ (out − kill)`
//! a word at a time. Each derived temp's support (what a use of it also
//! uses) is expanded once per analysis and kept for the back end.

use crate::bitset::BitSet;
use crate::cfg;
use crate::deriv::DerivAnalysis;
use crate::func::Function;
use crate::ids::{BlockId, Temp};
use crate::instr::Instr;

/// Per-block liveness sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Temps live on entry to each block.
    pub live_in: Vec<BitSet>,
    /// Temps live on exit from each block.
    pub live_out: Vec<BitSet>,
    /// Upward-exposed uses of each block: temps read before any write in
    /// it (the fixpoint's `gen` sets, the dead-base rule applied).
    pub gen: Vec<BitSet>,
    /// `support_of[support_at[t]..support_at[t + 1]]` is temp `t`'s
    /// dead-base support; empty when no derivation info was supplied.
    support_at: Vec<u32>,
    support_of: Vec<Temp>,
}

impl Liveness {
    /// What a use of `t` also uses under the dead-base rule: for a derived
    /// temp, its path variable and bases, transitively (the set
    /// [`DerivAnalysis::expand_support`] lists); empty for any other temp
    /// and for an analysis run without derivation info.
    #[must_use]
    pub fn support(&self, t: Temp) -> &[Temp] {
        match (self.support_at.get(t.index()), self.support_at.get(t.index() + 1)) {
            (Some(&lo), Some(&hi)) => &self.support_of[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Inserts `t` and its support into `set`.
    fn use_temp(&self, t: Temp, set: &mut BitSet) {
        set.insert(t.index());
        for s in self.support(t) {
            set.insert(s.index());
        }
    }

    /// One step of a backward walk: `live` goes from the point after `ins`
    /// to the point before it.
    fn step_back(&self, ins: &Instr, live: &mut BitSet, uses: &mut Vec<Temp>) {
        if let Some(d) = ins.def() {
            live.remove(d.index());
        }
        uses.clear();
        ins.uses(uses);
        for &t in uses.iter() {
            self.use_temp(t, live);
        }
    }

    /// Walks block `b` backward from its exit, calling `visit(i, live)`
    /// with the set of temps live just **after** `instrs[i]`. The back
    /// end uses it to compute live sets at the points it needs them.
    pub fn walk_back(&self, f: &Function, b: BlockId, mut visit: impl FnMut(usize, &BitSet)) {
        let block = f.block(b);
        let mut live = self.live_out[b.index()].clone();
        let mut uses = Vec::new();
        block.term.uses(&mut uses);
        for &t in &uses {
            self.use_temp(t, &mut live);
        }
        for (i, ins) in block.instrs.iter().enumerate().rev() {
            visit(i, &live);
            self.step_back(ins, &mut live, &mut uses);
        }
    }
}

/// Every derived temp's support, expanded once, in compressed rows.
fn supports(n_temps: usize, deriv: Option<&DerivAnalysis>) -> (Vec<u32>, Vec<Temp>) {
    let Some(d) = deriv else { return (Vec::new(), Vec::new()) };
    let mut at = Vec::with_capacity(n_temps + 1);
    let mut of = Vec::new();
    let mut row = Vec::new();
    at.push(0);
    for t in (0..n_temps as u32).map(Temp) {
        if d.is_derived(t) {
            row.clear();
            d.expand_support(t, &mut row);
            row.sort_unstable();
            row.dedup();
            of.extend_from_slice(&row);
        }
        at.push(of.len() as u32);
    }
    (at, of)
}

/// Computes liveness. Pass `Some(deriv)` to apply the dead-base rule; the
/// compiler always does, but `None` is useful to measure the rule's cost
/// (the §6.2 experiment compiles with gc support off).
#[must_use]
pub fn liveness(f: &Function, deriv: Option<&DerivAnalysis>) -> Liveness {
    let n_blocks = f.blocks.len();
    let n_temps = f.temp_count();
    let (support_at, support_of) = supports(n_temps, deriv);
    let mut lv = Liveness {
        live_in: vec![BitSet::new(n_temps); n_blocks],
        live_out: vec![BitSet::new(n_temps); n_blocks],
        gen: Vec::new(),
        support_at,
        support_of,
    };

    // Block summaries, by the same backward walk the fixpoint replaces.
    let mut kill = vec![BitSet::new(n_temps); n_blocks];
    let mut uses = Vec::new();
    let gen = f
        .blocks
        .iter()
        .zip(&mut kill)
        .map(|(block, kill)| {
            let mut gen = BitSet::new(n_temps);
            uses.clear();
            block.term.uses(&mut uses);
            for &t in &uses {
                lv.use_temp(t, &mut gen);
            }
            for ins in block.instrs.iter().rev() {
                if let Some(d) = ins.def() {
                    kill.insert(d.index());
                }
                lv.step_back(ins, &mut gen, &mut uses);
            }
            gen
        })
        .collect();
    lv.gen = gen;

    // Iterate in post order (reverse of RPO) for fast backward
    // convergence; unreachable blocks keep empty sets.
    let order: Vec<BlockId> = cfg::reverse_postorder(f).into_iter().rev().collect();
    let succs: Vec<Vec<usize>> = f
        .blocks
        .iter()
        .map(|block| block.term.successors().map(BlockId::index).collect())
        .collect();
    let mut set = BitSet::new(n_temps);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            let bi = b.index();
            set.clear();
            for &s in &succs[bi] {
                set.union_with(&lv.live_in[s]);
            }
            if set != lv.live_out[bi] {
                lv.live_out[bi].copy_from(&set);
                changed = true;
            }
            set.subtract(&kill[bi]);
            set.union_with(&lv.gen[bi]);
            if set != lv.live_in[bi] {
                lv.live_in[bi].copy_from(&set);
                changed = true;
            }
        }
    }
    lv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::deriv::analyze_and_resolve;
    use crate::func::TempKind;
    use crate::instr::BinOp;

    /// The set of temps live after each instruction of block `b`.
    fn live_after_each(lv: &Liveness, f: &Function, b: BlockId) -> Vec<BitSet> {
        let mut result = vec![BitSet::new(0); f.block(b).instrs.len()];
        lv.walk_back(f, b, |i, live| result[i] = live.clone());
        result
    }

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
        let pts = live_after_each(&lv, &f, f.entry);
        assert!(pts[0].contains(t1.index()));
        assert!(pts[0].contains(0));
        // After the Add, only t2 is live.
        assert!(pts[1].contains(t2.index()));
        assert!(!pts[1].contains(t1.index()));
        assert_eq!(lv.gen[f.entry.index()].iter().collect::<Vec<_>>(), vec![0], "only the param");
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
        let pts_without = live_after_each(&without, &f, f.entry);
        let pts_with = live_after_each(&with, &f, f.entry);
        // After the derivation of `use1`... p is dead without the rule once
        // d has been consumed, but the rule keeps p live because use1 is
        // (transitively) derived from it.
        let last = pts_without.len() - 1;
        assert!(!pts_without[last].contains(p.index()), "base dead without the rule");
        assert!(pts_with[last].contains(p.index()), "base kept alive by the rule");
        assert!(without.support(use1).is_empty(), "no rule, no support");
        assert_eq!(with.support(use1), &[p, d], "the transitive support, sorted");
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
        let after = live_after_each(&lv, &f, f.entry);
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
        assert!(lv.support(t).contains(&pv), "the path variable is support");
    }

    /// Blocks no path from the entry reaches keep empty sets, whatever
    /// they use: the solver iterates over reachable blocks only.
    #[test]
    fn unreachable_blocks_stay_empty() {
        let mut b = FuncBuilder::new("f", &[TempKind::Int]);
        let dead = b.block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(Some(b.param(0)));
        let f = b.finish();
        let lv = liveness(&f, None);
        assert!(lv.live_in[dead.index()].is_empty());
        assert!(lv.gen[dead.index()].contains(0), "its summary is still computed");
    }
}
