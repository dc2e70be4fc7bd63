//! Gc-point placement (§5.3).
//!
//! A thread *parks* for a pending collection only at a **park site**: an
//! allocation or a `GcPoint` poll. Both get gc-point tables. A call gets
//! one exactly when its callee **may park** (holds a park site or calls
//! a procedure that may park): its table is keyed by the return address
//! and describes the caller's frame while the callee runs, and a stopped
//! thread's top frame sits at a park site, so every return address
//! beneath it belongs to such a call. Returns do not bound the time a
//! pre-empted thread needs to park. Placement bounds it:
//!
//! * a procedure **must park** when a reachable block that dominates all
//!   its returns holds a park site: an allocation, a poll or a call of a
//!   must-park procedure (the least fixpoint, so recursion alone proves
//!   nothing);
//! * a natural loop gets a `GcPoint` at its header unless a block that
//!   dominates its latch holds a park site;
//! * a recursive procedure gets a `GcPoint` at entry when two or more of
//!   its calls into its own cycle have no park site before them in their
//!   block or in a dominating block. One such call is linear recursion,
//!   whose depth the stack bounds.
//!
//! Procedures are placed callees first (the call graph's strongly
//! connected components in reverse topological order), so a poll placed
//! in a callee can make it must-park and spare its callers' loops one.

use m3gc_ir::cfg;
use m3gc_ir::{BlockId, Function, Instr, Program, Terminator};

use crate::GcConfig;

/// Is this instruction a park site, or a call of a procedure flagged in
/// `callee_parks`? Over [`may_park`] this is "is a gc-point", over the
/// must-park flags "is sure to reach a park site". Runtime services are
/// statically known not to allocate (§5.3).
#[must_use]
pub fn parks(ins: &Instr, callee_parks: &[bool]) -> bool {
    match ins {
        Instr::New { .. } | Instr::GcPoint => true,
        Instr::Call { func, .. } => callee_parks[func.index()],
        _ => false,
    }
}

/// Which procedures may park: those holding an allocation or a poll, or
/// calling a procedure that may park (the least fixpoint, so recursion
/// alone does not make a procedure may-park). Computed after placement,
/// since a poll makes its procedure may-park.
#[must_use]
pub fn may_park(prog: &Program) -> Vec<bool> {
    let mut may = vec![false; prog.funcs.len()];
    loop {
        let mut changed = false;
        for (i, f) in prog.funcs.iter().enumerate() {
            if !may[i] && f.blocks.iter().flat_map(|b| &b.instrs).any(|ins| parks(ins, &may)) {
                may[i] = true;
                changed = true;
            }
        }
        if !changed {
            return may;
        }
    }
}

fn block_parks(f: &Function, b: BlockId, must_park: &[bool]) -> bool {
    f.block(b).instrs.iter().any(|ins| parks(ins, must_park))
}

/// True if every return of `f` passes a park site: some block dominating
/// all reachable `Ret`s holds one. A procedure that never returns does
/// not count.
fn returns_past_a_park_site(f: &Function, idom: &[Option<BlockId>], must_park: &[bool]) -> bool {
    let rets: Vec<BlockId> = f
        .block_ids()
        .filter(|&b| idom[b.index()].is_some() && matches!(f.block(b).term, Terminator::Ret(_)))
        .collect();
    // The blocks that dominate every return lie on the first one's
    // dominator chain.
    let Some(&(mut b)) = rets.first() else { return false };
    loop {
        if block_parks(f, b, must_park) && rets.iter().all(|&r| cfg::dominates(idom, b, r)) {
            return true;
        }
        match idom[b.index()] {
            Some(d) if d != b => b = d,
            _ => return false,
        }
    }
}

/// Inserts a `GcPoint` at the header of every loop of `f` that lacks a
/// guaranteed park site. Returns how many were inserted.
pub fn insert_loop_gc_points(f: &mut Function, must_park: &[bool]) -> usize {
    let loops = cfg::natural_loops(f);
    if loops.is_empty() {
        return 0;
    }
    let idom = cfg::dominators(f);
    // Smaller (inner) loops first, so an inner poll can serve an
    // enclosing loop. A polled header serves every loop it heads.
    let mut order: Vec<usize> = (0..loops.len()).collect();
    order.sort_by_key(|&i| loops[i].body.len());
    let mut polled: Vec<BlockId> = Vec::new();
    for i in order {
        let l = &loops[i];
        if polled.contains(&l.header) {
            continue;
        }
        let guaranteed = l
            .body
            .iter()
            .any(|&b| cfg::dominates(&idom, b, l.latch) && block_parks(f, b, must_park));
        if !guaranteed {
            f.block_mut(l.header).instrs.insert(0, Instr::GcPoint);
            polled.push(l.header);
        }
    }
    polled.len()
}

/// How many of `f`'s calls into `cycle` have no park site before them,
/// neither earlier in their block nor in a dominating block.
fn unguarded_cycle_calls(
    f: &Function,
    idom: &[Option<BlockId>],
    cycle: &[bool],
    must_park: &[bool],
) -> usize {
    let mut calls = 0;
    for b in f.block_ids().filter(|b| idom[b.index()].is_some()) {
        let mut guarded = false;
        let mut d = b;
        while let Some(up) = idom[d.index()].filter(|&up| up != d) {
            guarded |= block_parks(f, up, must_park);
            d = up;
        }
        for ins in &f.block(b).instrs {
            if let Instr::Call { func, .. } = ins {
                calls += usize::from(cycle[func.index()] && !guarded);
            }
            guarded |= parks(ins, must_park);
        }
    }
    calls
}

/// Each procedure's callees, sorted and without repeats.
fn callees(prog: &Program) -> Vec<Vec<usize>> {
    prog.funcs
        .iter()
        .map(|f| {
            let mut cs: Vec<usize> = f
                .blocks
                .iter()
                .flat_map(|b| &b.instrs)
                .filter_map(|ins| match ins {
                    Instr::Call { func, .. } => Some(func.index()),
                    _ => None,
                })
                .collect();
            cs.sort_unstable();
            cs.dedup();
            cs
        })
        .collect()
}

/// The call graph's strongly connected components, callees first
/// (Tarjan's algorithm emits a component after every one it reaches).
fn call_graph_sccs(callees: &[Vec<usize>]) -> Vec<Vec<usize>> {
    struct Tarjan<'a> {
        callees: &'a [Vec<usize>],
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        sccs: Vec<Vec<usize>>,
    }
    impl Tarjan<'_> {
        fn visit(&mut self, v: usize) {
            self.index[v] = Some(self.next);
            self.low[v] = self.next;
            self.next += 1;
            self.stack.push(v);
            self.on_stack[v] = true;
            for &w in &self.callees[v] {
                match self.index[w] {
                    None => {
                        self.visit(w);
                        self.low[v] = self.low[v].min(self.low[w]);
                    }
                    Some(iw) if self.on_stack[w] => self.low[v] = self.low[v].min(iw),
                    Some(_) => {}
                }
            }
            if Some(self.low[v]) == self.index[v] {
                let mut scc = Vec::new();
                loop {
                    let w = self.stack.pop().expect("v is on the stack");
                    self.on_stack[w] = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                self.sccs.push(scc);
            }
        }
    }
    let n = callees.len();
    let mut t = Tarjan {
        callees,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        sccs: Vec::new(),
    };
    for v in 0..n {
        if t.index[v].is_none() {
            t.visit(v);
        }
    }
    t.sccs
}

/// Applies the configured gc-point placement to a whole program; returns
/// the number of polls inserted.
pub fn place_gc_points(prog: &mut Program, gc: &GcConfig) -> usize {
    if !gc.loop_gc_points {
        return 0;
    }
    let callees = callees(prog);
    let mut must_park = vec![false; prog.funcs.len()];
    let mut inserted = 0;
    for scc in call_graph_sccs(&callees) {
        // Polls change no edge, so the dominators hold throughout.
        let idoms: Vec<Vec<Option<BlockId>>> =
            scc.iter().map(|&i| cfg::dominators(&prog.funcs[i])).collect();
        let settle = |prog: &Program, must_park: &mut [bool]| loop {
            let mut changed = false;
            for (k, &i) in scc.iter().enumerate() {
                if !must_park[i] && returns_past_a_park_site(&prog.funcs[i], &idoms[k], must_park) {
                    must_park[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        };
        settle(prog, &mut must_park);
        for &i in &scc {
            inserted += insert_loop_gc_points(&mut prog.funcs[i], &must_park);
        }
        settle(prog, &mut must_park);
        if scc.len() > 1 || callees[scc[0]].contains(&scc[0]) {
            let mut cycle = vec![false; prog.funcs.len()];
            for &i in &scc {
                cycle[i] = true;
            }
            for (k, &i) in scc.iter().enumerate() {
                let f = &mut prog.funcs[i];
                if unguarded_cycle_calls(f, &idoms[k], &cycle, &must_park) >= 2 {
                    let entry = f.entry;
                    f.block_mut(entry).instrs.insert(0, Instr::GcPoint);
                    inserted += 1;
                }
            }
        }
        settle(prog, &mut must_park);
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3gc_core::heap::TypeId;
    use m3gc_ir::builder::FuncBuilder;
    use m3gc_ir::{BinOp, FuncId, TempKind};

    /// A counting loop with no calls: needs a loop gc-point.
    #[test]
    fn bare_loop_gets_gc_point() {
        let mut b = FuncBuilder::new("f", &[TempKind::Int]);
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.jump(header);
        b.switch_to(header);
        let c = b.bin(BinOp::Lt, b.param(0), b.param(0));
        b.br(c, body, exit);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        let n = insert_loop_gc_points(&mut f, &[]);
        assert_eq!(n, 1);
        assert_eq!(f.block(header).instrs[0], Instr::GcPoint);
    }

    /// A loop that allocates every iteration is already guaranteed.
    #[test]
    fn allocating_loop_is_guaranteed() {
        let mut b = FuncBuilder::new("f", &[TempKind::Int]);
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.jump(header);
        b.switch_to(header);
        let c = b.bin(BinOp::Lt, b.param(0), b.param(0));
        b.br(c, body, exit);
        b.switch_to(body);
        let _ = b.new_object(TypeId(0), None);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        let n = insert_loop_gc_points(&mut f, &[]);
        assert_eq!(n, 0);
    }

    /// A loop whose only gc-point is inside a conditional is NOT
    /// guaranteed (the other path could spin forever).
    #[test]
    fn conditional_gc_point_is_not_guaranteed() {
        let mut b = FuncBuilder::new("f", &[TempKind::Int]);
        let header = b.block();
        let then_b = b.block();
        let join = b.block();
        let exit = b.block();
        b.jump(header);
        b.switch_to(header);
        let c = b.bin(BinOp::Lt, b.param(0), b.param(0));
        b.br(c, then_b, join);
        b.switch_to(then_b);
        let _ = b.new_object(TypeId(0), None);
        b.jump(join);
        b.switch_to(join);
        let c2 = b.bin(BinOp::Lt, b.param(0), b.param(0));
        b.br(c2, header, exit);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        let n = insert_loop_gc_points(&mut f, &[]);
        assert_eq!(n, 1);
    }

    /// `f(n)`: a loop that calls `callee` once per iteration.
    fn loop_calling(callee: FuncId) -> Function {
        let mut b = FuncBuilder::new("loop", &[TempKind::Int]);
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.jump(header);
        b.switch_to(header);
        let c = b.bin(BinOp::Lt, b.param(0), b.param(0));
        b.br(c, body, exit);
        b.switch_to(body);
        let _ = b.call(callee, vec![], None);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        b.finish()
    }

    /// A leaf that allocates (or not) and returns.
    fn leaf(allocates: bool) -> Function {
        let mut b = FuncBuilder::new("leaf", &[]);
        if allocates {
            let _ = b.new_object(TypeId(0), None);
        }
        b.ret(None);
        b.finish()
    }

    fn polls(f: &Function) -> usize {
        f.blocks.iter().flat_map(|b| &b.instrs).filter(|ins| **ins == Instr::GcPoint).count()
    }

    fn placed(funcs: Vec<Function>) -> Program {
        let mut p = Program::new();
        for f in funcs {
            p.add_func(f);
        }
        place_gc_points(&mut p, &GcConfig::default());
        p
    }

    /// A return is no park site: a loop over a call of a leaf that never
    /// parks needs its own poll, one over an allocating leaf does not.
    #[test]
    fn only_must_park_calls_guarantee_a_loop() {
        let p = placed(vec![leaf(false), loop_calling(FuncId(0))]);
        assert_eq!((polls(&p.funcs[0]), polls(&p.funcs[1])), (0, 1));
        let p = placed(vec![leaf(true), loop_calling(FuncId(0))]);
        assert_eq!((polls(&p.funcs[0]), polls(&p.funcs[1])), (0, 0));
    }

    /// Callees are placed first: a callee whose loop gets a poll that
    /// dominates its return must park, so its caller's loop is guaranteed.
    #[test]
    fn a_polled_callee_spares_its_callers_loop() {
        let p = placed(vec![loop_calling(FuncId(1)), leaf(false), loop_calling(FuncId(0))]);
        assert_eq!(p.funcs.iter().map(polls).collect::<Vec<_>>(), [1, 0, 0]);
    }

    /// `f(n)` returns `n` below 2 and recurses twice otherwise (`Fib`'s
    /// shape); with `twice` false it recurses once (linear).
    fn recursive(twice: bool) -> Function {
        let mut b = FuncBuilder::with_ret("f", &[TempKind::Int], Some(TempKind::Int));
        let rec = b.block();
        let base = b.block();
        let c = b.bin(BinOp::Lt, b.param(0), b.param(0));
        b.br(c, rec, base);
        b.switch_to(rec);
        let mut r = b.call(FuncId(0), vec![b.param(0)], Some(TempKind::Int)).unwrap();
        if twice {
            let s = b.call(FuncId(0), vec![b.param(0)], Some(TempKind::Int)).unwrap();
            r = b.bin(BinOp::Add, r, s);
        }
        b.ret(Some(r));
        b.switch_to(base);
        b.ret(Some(b.param(0)));
        b.finish()
    }

    /// Tree recursion gets an entry poll; linear recursion, whose depth
    /// the stack bounds, does not; an allocation before the calls makes
    /// the poll unnecessary.
    #[test]
    fn only_unguarded_tree_recursion_gets_an_entry_poll() {
        let p = placed(vec![recursive(true)]);
        assert_eq!(p.funcs[0].block(p.funcs[0].entry).instrs[0], Instr::GcPoint);
        assert_eq!(polls(&p.funcs[0]), 1);
        assert_eq!(polls(&placed(vec![recursive(false)]).funcs[0]), 0);
        let mut f = recursive(true);
        let entry = f.entry;
        let t = f.new_temp(TempKind::Ptr);
        f.block_mut(entry).instrs.insert(0, Instr::New { dst: t, ty: TypeId(0), len: None });
        assert_eq!(polls(&placed(vec![f]).funcs[0]), 0);
    }

    /// A poll alone makes a procedure may-park, and so its callers;
    /// recursion alone does not.
    #[test]
    fn may_park_is_the_least_fixpoint() {
        let mut spin = leaf(false);
        let entry = spin.entry;
        spin.block_mut(entry).instrs.insert(0, Instr::GcPoint);
        let p = placed(vec![spin, loop_calling(FuncId(0))]);
        assert_eq!(may_park(&p), [true, true]);
        let p = placed(vec![recursive(false), leaf(false), leaf(true)]);
        assert_eq!(may_park(&p), [false, false, true]);
        let mut rec = recursive(false);
        let entry = rec.entry;
        let t = rec.new_temp(TempKind::Ptr);
        rec.block_mut(entry).instrs.insert(0, Instr::New { dst: t, ty: TypeId(0), len: None });
        assert_eq!(may_park(&placed(vec![rec])), [true]);
    }
}
