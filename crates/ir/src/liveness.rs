//! Backward liveness over temps, with the paper's *dead base* rule (§4):
//! when derivation information is supplied, **a use of a derived value is a
//! use of each of its base values** (and of its path variable), which keeps
//! bases alive for the lifetime of values derived from them. Without the
//! rule, an optimizer may let a base die inside a loop that still uses a
//! value derived from it, leaving the collector unable to update the
//! derived value.
//!
//! The analysis is solved on block summaries: one forward walk per block
//! yields its upward-exposed uses (`gen`), and the fixpoint then iterates
//! `out = ∪ in[succ]`, `in = gen ∪ (out − kill)` a word at a time. Only a
//! temp that is upward-exposed in some block can be live on a block
//! boundary (the *global names* of Briggs, Cooper, Harvey and Simpson,
//! 1998), so the sets span just those temps, numbered densely in
//! ascending temp order: every set iterates in temp order, as a set over
//! all temps would. Each derived temp's support (what a use of it also
//! uses) is expanded once per analysis and kept for the back end.

use crate::bitset::BitSet;
use crate::cfg;
use crate::deriv::DerivAnalysis;
use crate::func::Function;
use crate::ids::{BlockId, Temp};
use crate::instr::Instr;

/// `dense` entry of a temp that is live on no block boundary.
const LOCAL: u32 = u32::MAX;

/// Per-block liveness sets, over the temps that cross a block boundary.
///
/// [`Liveness::solve`] re-solves in place, reusing every buffer.
#[derive(Debug, Clone, Default)]
pub struct Liveness {
    /// The temps upward-exposed in some block, ascending.
    globals: Vec<Temp>,
    /// Each temp's index in `globals`, or [`LOCAL`].
    dense: Vec<u32>,
    /// Words per set.
    words: usize,
    /// `words` words per block, block after block.
    live_in: Vec<u64>,
    live_out: Vec<u64>,
    gen: Vec<u64>,
    kill: Vec<u64>,
    /// `support_of[support_at[t]..support_at[t + 1]]` is temp `t`'s
    /// dead-base support; empty when no derivation info was supplied.
    support_at: Vec<u32>,
    support_of: Vec<Temp>,
    summaries: Summaries,
}

/// Each block's upward-exposed uses, found by one forward walk: a use
/// counts when no earlier instruction of the block defines it.
#[derive(Debug, Clone, Default)]
struct Summaries {
    /// Block `b`'s exposed temps are `exposed[at[b].0..at[b + 1].0]`,
    /// the temps it defines `defined[at[b].1..at[b + 1].1]`.
    exposed: Vec<Temp>,
    defined: Vec<Temp>,
    at: Vec<(u32, u32)>,
    /// The `epoch` of the block that last defined (`def_seen`) or
    /// exposed (`use_seen`) each temp: one stamp per block, so no set is
    /// ever cleared.
    def_seen: Vec<u32>,
    use_seen: Vec<u32>,
    epoch: u32,
}

impl Summaries {
    fn exposed(&self, b: usize) -> &[Temp] {
        &self.exposed[self.at[b].0 as usize..self.at[b + 1].0 as usize]
    }

    fn defined(&self, b: usize) -> &[Temp] {
        &self.defined[self.at[b].1 as usize..self.at[b + 1].1 as usize]
    }

    /// A use of `t` in the block stamped `e`.
    fn expose(&mut self, t: Temp, e: u32) {
        let i = t.index();
        if self.def_seen[i] != e && self.use_seen[i] != e {
            self.use_seen[i] = e;
            self.exposed.push(t);
        }
    }

    /// A use of `t` and of its `support` in the block stamped `e`.
    fn use_temp(&mut self, t: Temp, support: &[Temp], e: u32) {
        self.expose(t, e);
        for &s in support {
            self.expose(s, e);
        }
    }

    fn summarize(&mut self, f: &Function, support_at: &[u32], support_of: &[Temp]) {
        let n_temps = f.temp_count();
        self.def_seen.resize(n_temps, 0);
        self.use_seen.resize(n_temps, 0);
        self.exposed.clear();
        self.defined.clear();
        self.at.clear();
        self.at.push((0, 0));
        for block in &f.blocks {
            self.epoch = self.epoch.wrapping_add(1);
            if self.epoch == 0 {
                self.def_seen.fill(0);
                self.use_seen.fill(0);
                self.epoch = 1;
            }
            let e = self.epoch;
            for ins in &block.instrs {
                ins.for_each_use(|u| self.use_temp(u, support_row(support_at, support_of, u), e));
                if let Some(d) = ins.def() {
                    if std::mem::replace(&mut self.def_seen[d.index()], e) != e {
                        self.defined.push(d);
                    }
                }
            }
            block
                .term
                .for_each_use(|u| self.use_temp(u, support_row(support_at, support_of, u), e));
            self.at.push((self.exposed.len() as u32, self.defined.len() as u32));
        }
    }
}

/// Row `t` of compressed support rows (empty past their end).
fn support_row<'a>(at: &[u32], of: &'a [Temp], t: Temp) -> &'a [Temp] {
    match (at.get(t.index()), at.get(t.index() + 1)) {
        (Some(&lo), Some(&hi)) => &of[lo as usize..hi as usize],
        _ => &[],
    }
}

/// One block's set: membership and ascending iteration by [`Temp`].
#[derive(Debug, Clone, Copy)]
pub struct LiveSet<'a> {
    words: &'a [u64],
    globals: &'a [Temp],
    dense: &'a [u32],
}

impl<'a> LiveSet<'a> {
    /// Membership test.
    #[must_use]
    pub fn contains(&self, t: Temp) -> bool {
        match self.dense.get(t.index()) {
            Some(&i) if i != LOCAL => self.words[i as usize / 64] & (1 << (i % 64)) != 0,
            _ => false,
        }
    }

    /// The members, in ascending temp order.
    pub fn iter(&self) -> impl Iterator<Item = Temp> + 'a {
        let globals = self.globals;
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(globals[wi * 64 + b])
            })
        })
    }
}

impl Liveness {
    /// What a use of `t` also uses under the dead-base rule: for a derived
    /// temp, its path variable and bases, transitively (the set
    /// [`DerivAnalysis::expand_support`] lists); empty for any other temp
    /// and for an analysis run without derivation info.
    #[must_use]
    pub fn support(&self, t: Temp) -> &[Temp] {
        support_row(&self.support_at, &self.support_of, t)
    }

    fn row<'s>(&'s self, sets: &'s [u64], b: BlockId) -> LiveSet<'s> {
        let at = b.index() * self.words;
        LiveSet { words: &sets[at..at + self.words], globals: &self.globals, dense: &self.dense }
    }

    /// Temps live on entry to `b`.
    #[must_use]
    pub fn live_in(&self, b: BlockId) -> LiveSet<'_> {
        self.row(&self.live_in, b)
    }

    /// Temps live on exit from `b`.
    #[must_use]
    pub fn live_out(&self, b: BlockId) -> LiveSet<'_> {
        self.row(&self.live_out, b)
    }

    /// Upward-exposed uses of `b`: temps read before any write in it (the
    /// fixpoint's `gen` set, the dead-base rule applied).
    #[must_use]
    pub fn gen(&self, b: BlockId) -> LiveSet<'_> {
        self.row(&self.gen, b)
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
    /// with the set of temps live just **after** `instrs[i]`, over all
    /// temps of `f`. The back end uses it to compute live sets at the
    /// points it needs them.
    pub fn walk_back(&self, f: &Function, b: BlockId, mut visit: impl FnMut(usize, &BitSet)) {
        let block = f.block(b);
        let mut live = BitSet::new(f.temp_count());
        for t in self.live_out(b).iter() {
            live.insert(t.index());
        }
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

    /// Every derived temp's support, expanded once, in compressed rows.
    fn expand_supports(&mut self, n_temps: usize, deriv: Option<&DerivAnalysis>) {
        self.support_at.clear();
        self.support_of.clear();
        let Some(d) = deriv else { return };
        self.support_at.reserve(n_temps + 1);
        self.support_at.push(0);
        let mut row = Vec::new();
        for t in (0..n_temps as u32).map(Temp) {
            if d.is_derived(t) {
                row.clear();
                d.expand_support(t, &mut row);
                row.sort_unstable();
                row.dedup();
                self.support_of.extend_from_slice(&row);
            }
            self.support_at.push(self.support_of.len() as u32);
        }
    }

    /// Solves liveness for `f` in place. Pass `Some(deriv)` to apply the
    /// dead-base rule; the compiler always does, but `None` is useful to
    /// measure the rule's cost (the §6.2 experiment compiles with gc
    /// support off) and is plain liveness, as DCE needs it.
    pub fn solve(&mut self, f: &Function, deriv: Option<&DerivAnalysis>) {
        let n_blocks = f.blocks.len();
        let n_temps = f.temp_count();
        self.expand_supports(n_temps, deriv);
        self.summaries.summarize(f, &self.support_at, &self.support_of);

        // Number the global temps densely, in ascending temp order.
        self.dense.clear();
        self.dense.resize(n_temps, LOCAL);
        for &t in &self.summaries.exposed {
            self.dense[t.index()] = 0;
        }
        self.globals.clear();
        for (t, d) in self.dense.iter_mut().enumerate() {
            if *d != LOCAL {
                *d = self.globals.len() as u32;
                self.globals.push(Temp(t as u32));
            }
        }
        let words = self.globals.len().div_ceil(64);
        self.words = words;
        for sets in [&mut self.live_in, &mut self.live_out, &mut self.gen, &mut self.kill] {
            sets.clear();
            sets.resize(n_blocks * words, 0);
        }
        if words == 0 {
            return;
        }
        for b in 0..n_blocks {
            let row = b * words;
            for &t in self.summaries.exposed(b) {
                let i = self.dense[t.index()] as usize;
                self.gen[row + i / 64] |= 1 << (i % 64);
            }
            for &d in self.summaries.defined(b) {
                let i = self.dense[d.index()];
                if i != LOCAL {
                    self.kill[row + i as usize / 64] |= 1 << (i % 64);
                }
            }
        }

        // Iterate in post order (reverse of RPO) for fast backward
        // convergence; unreachable blocks keep empty sets. Words are
        // independent, so each is solved in place.
        let rpo = cfg::reverse_postorder(f);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().rev() {
                let row = b.index() * words;
                let term = &f.block(b).term;
                for w in 0..words {
                    let out = term
                        .successors()
                        .fold(0, |out, s| out | self.live_in[s.index() * words + w]);
                    let live_in = (out & !self.kill[row + w]) | self.gen[row + w];
                    changed |= out != self.live_out[row + w] || live_in != self.live_in[row + w];
                    self.live_out[row + w] = out;
                    self.live_in[row + w] = live_in;
                }
            }
        }
    }
}

/// Computes liveness. Pass `Some(deriv)` to apply the dead-base rule (see
/// [`Liveness::solve`]).
#[must_use]
pub fn liveness(f: &Function, deriv: Option<&DerivAnalysis>) -> Liveness {
    let mut lv = Liveness::default();
    lv.solve(f, deriv);
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
        assert_eq!(lv.gen(f.entry).iter().collect::<Vec<_>>(), vec![Temp(0)], "only the param");
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
        assert!(lv.live_in(header).contains(x));
        assert!(lv.live_out(body).contains(x));
        assert!(!lv.live_in(exit).contains(x));
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
        assert!(lv.live_in(join).contains(pv), "path var live at join");
        assert!(lv.live_in(join).contains(Temp(0)), "base P live at join");
        assert!(lv.live_in(join).contains(Temp(1)), "base Q live at join");
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
        assert_eq!(lv.live_in(dead).iter().count(), 0);
        assert!(lv.gen(dead).contains(Temp(0)), "its summary is still computed");
    }
}
