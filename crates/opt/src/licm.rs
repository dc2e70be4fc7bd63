//! Loop-invariant code motion, with the reassociation that creates
//! *virtual array origins* (§2).
//!
//! Lowering computes a heap element address as `addr := ptr + k` with
//! `k := i + adj` (where `adj = header − lo` folds the array's lower
//! bound into the index). Reassociation rewrites this to `vo := ptr +
//! adj; addr := vo + i`, and hoisting then moves `vo` — an untidy pointer
//! that may point *outside* its object when `lo > header` — out of the
//! loop, exactly the paper's virtual-origin example. `vo` is a derived
//! value live across every gc-point in the loop.

use m3gc_ir::cfg::{self, NaturalLoop};
use m3gc_ir::{BinOp, BlockId, Function, Instr, Temp, TempKind, Terminator};

/// Is this instruction pure (safe to speculate)? Division cannot trap in
/// this IR (x div 0 = 0), so all ALU operations qualify.
fn is_pure(ins: &Instr) -> bool {
    matches!(
        ins,
        Instr::Const { .. }
            | Instr::Copy { .. }
            | Instr::Bin { .. }
            | Instr::Un { .. }
            | Instr::SlotAddr { .. }
            | Instr::GlobalAddr { .. }
    )
}

/// Ensures `l.header` has a preheader: a block that is the only loop entry
/// edge source. Returns its id. `preds` are `f`'s predecessor lists, as
/// [`cfg::predecessors`] would list them (order aside); a new preheader
/// is entered in them.
pub fn ensure_preheader(
    f: &mut Function,
    l: &NaturalLoop,
    preds: &mut Vec<Vec<BlockId>>,
) -> BlockId {
    let outside: Vec<BlockId> =
        preds[l.header.index()].iter().copied().filter(|p| !l.contains(*p)).collect();
    // An existing unique outside predecessor that only jumps to the header
    // already serves as preheader.
    if outside.len() == 1 {
        let p = outside[0];
        if matches!(f.block(p).term, Terminator::Jump(t) if t == l.header) {
            return p;
        }
    }
    let pre = f.new_block();
    f.block_mut(pre).term = Terminator::Jump(l.header);
    for &p in &outside {
        let term = &mut f.block_mut(p).term;
        match term {
            Terminator::Jump(t) => {
                if *t == l.header {
                    *t = pre;
                }
            }
            Terminator::Br { then_bb, else_bb, .. } => {
                if *then_bb == l.header {
                    *then_bb = pre;
                }
                if *else_bb == l.header {
                    *else_bb = pre;
                }
            }
            Terminator::Ret(_) => {}
        }
    }
    let header_preds = &mut preds[l.header.index()];
    header_preds.retain(|p| l.contains(*p));
    header_preds.push(pre);
    preds.push(outside);
    pre
}

/// Which temps have at least one def inside the loop.
fn defined_in_loop(f: &Function, l: &NaturalLoop) -> Vec<bool> {
    let mut set = vec![false; f.temp_count()];
    for &b in &l.body {
        for ins in &f.block(b).instrs {
            if let Some(d) = ins.def() {
                set[d.index()] = true;
            }
        }
    }
    set
}

/// Reassociates `addr := p + k` / `k := i + adj` into
/// `vo := p + adj; addr := vo + i` when `p` and `adj` are invariant and
/// `i` varies, enabling the virtual-origin hoist. Returns rewrites done;
/// each defines one new temp, once, inside the loop, and leaves every
/// other temp's defs where they were.
fn reassociate(f: &mut Function, l: &NaturalLoop, counts: &[u32], in_loop: &[bool]) -> usize {
    let invariant = |t: Temp| !in_loop[t.index()];
    // Map single-def adds inside the loop: dst -> (a, b).
    let mut adds: Vec<Option<(Temp, Temp)>> = vec![None; f.temp_count()];
    for &b in &l.body {
        for ins in &f.block(b).instrs {
            if let Instr::Bin { dst, op: BinOp::Add, a, b } = ins {
                if counts[dst.index()] == 1 {
                    adds[dst.index()] = Some((*a, *b));
                }
            }
        }
    }
    let mut rewrites = Vec::new(); // (block, index, p, varying, invariant_addend)
    for &bid in &l.body {
        for (i, ins) in f.block(bid).instrs.iter().enumerate() {
            let Instr::Bin { dst, op: BinOp::Add, a, b } = ins else { continue };
            // One side an invariant pointer-ish temp `p`, the other a
            // single-def in-loop add `k = x + y` with exactly one
            // invariant side.
            for (p, k) in [(*a, *b), (*b, *a)] {
                if !invariant(p) {
                    continue;
                }
                let Some((x, y)) = adds[k.index()] else { continue };
                if !in_loop[k.index()] {
                    continue;
                }
                let (varying, inv) = if invariant(x) && !invariant(y) {
                    (y, x)
                } else if invariant(y) && !invariant(x) {
                    (x, y)
                } else {
                    continue;
                };
                rewrites.push((bid, i, *dst, p, varying, inv));
                break;
            }
        }
    }
    let n = rewrites.len();
    // Later indices first, so insertions don't shift pending positions.
    rewrites.sort_by_key(|&(bid, i, ..)| (bid, std::cmp::Reverse(i)));
    for (bid, i, dst, p, varying, inv) in rewrites {
        let vo = f.new_temp(TempKind::Int);
        let block = f.block_mut(bid);
        // Replace `dst = p + k` with `vo = p + inv; dst = vo + varying`.
        block.instrs[i] = Instr::Bin { dst, op: BinOp::Add, a: vo, b: varying };
        block.instrs.insert(i, Instr::Bin { dst: vo, op: BinOp::Add, a: p, b: inv });
    }
    n
}

/// The first instruction of `l`, in body order, that can leave it: pure,
/// the only def of a non-parameter temp, reading nothing defined in the
/// loop.
fn first_hoistable(
    f: &Function,
    l: &NaturalLoop,
    counts: &[u32],
    in_loop: &[bool],
    uses: &mut Vec<Temp>,
) -> Option<(BlockId, usize)> {
    for &bid in &l.body {
        for (i, ins) in f.block(bid).instrs.iter().enumerate() {
            if !is_pure(ins) {
                continue;
            }
            let Some(dst) = ins.def() else { continue };
            if counts[dst.index()] != 1 || dst.index() < f.n_params {
                continue;
            }
            uses.clear();
            ins.uses(uses);
            if uses.iter().all(|u| !in_loop[u.index()]) {
                return Some((bid, i));
            }
        }
    }
    None
}

/// Hoists invariant pure single-def instructions of loop `l` into its
/// preheader, first hoistable first. Returns how many were hoisted.
///
/// `counts` are `f`'s def counts; the in-loop def set and the preheader
/// are computed once: a hoist moves the single def of its temp, so no
/// count changes and only that temp leaves the loop. Reassociation's new
/// temps are defined once each.
fn hoist_loop(
    f: &mut Function,
    l: &NaturalLoop,
    counts: &mut Vec<u32>,
    preds: &mut Vec<Vec<BlockId>>,
) -> usize {
    let mut in_loop = defined_in_loop(f, l);
    reassociate(f, l, counts, &in_loop);
    counts.resize(f.temp_count(), 1);
    in_loop.resize(f.temp_count(), true);
    let mut preheader = None;
    let mut uses = Vec::new();
    let mut hoisted = 0;
    while let Some((bid, i)) = first_hoistable(f, l, counts, &in_loop, &mut uses) {
        let pre = *preheader.get_or_insert_with(|| ensure_preheader(f, l, preds));
        let ins = f.block_mut(bid).instrs.remove(i);
        in_loop[ins.def().expect("hoisted instructions define").index()] = false;
        f.block_mut(pre).instrs.push(ins);
        hoisted += 1;
    }
    hoisted
}

/// Runs LICM over every natural loop (innermost first). Returns the total
/// number of instructions hoisted.
///
/// Loops, predecessor lists and def counts are found once per pass. The
/// loops are not re-found after a hoist: an inner loop's new preheader is
/// missing from the bodies of the loops around it.
pub fn loop_invariant_code_motion(f: &mut Function) -> usize {
    let mut preds = cfg::predecessors(f);
    let mut loops = cfg::natural_loops_in(f, &preds, None);
    loops.sort_by_key(|l| l.body.len());
    let mut counts = f.def_counts();
    let mut seen_headers = Vec::new();
    let mut hoisted = 0;
    for l in loops {
        if seen_headers.contains(&l.header) {
            continue;
        }
        seen_headers.push(l.header);
        hoisted += hoist_loop(f, &l, &mut counts, &mut preds);
    }
    hoisted
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3gc_ir::builder::FuncBuilder;
    use m3gc_ir::interp;
    use m3gc_ir::Program;

    fn run(f: Function) -> Option<i64> {
        let mut p = Program::new();
        let id = p.add_func(f);
        p.main = id;
        interp::run_program(&p).unwrap().result
    }

    /// while (i < n) { s += n*3; i += 1 } — `n*3` must leave the loop.
    fn invariant_loop() -> (Function, Temp) {
        let mut b = FuncBuilder::with_ret("f", &[], Some(TempKind::Int));
        let n = b.constant(10);
        let i = b.temp(TempKind::Int);
        let s = b.temp(TempKind::Int);
        b.push(Instr::Const { dst: i, value: 0 });
        b.push(Instr::Const { dst: s, value: 0 });
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.jump(header);
        b.switch_to(header);
        let c = b.bin(BinOp::Lt, i, n);
        b.br(c, body, exit);
        b.switch_to(body);
        let three = b.constant(3);
        let inv = b.bin(BinOp::Mul, n, three); // invariant!
        let ns = b.bin(BinOp::Add, s, inv);
        b.push(Instr::Copy { dst: s, src: ns });
        let one = b.constant(1);
        let ni = b.bin(BinOp::Add, i, one);
        b.push(Instr::Copy { dst: i, src: ni });
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(s));
        (b.finish(), inv)
    }

    #[test]
    fn hoists_invariant_multiplication() {
        let (mut f, inv) = invariant_loop();
        let before = run(f.clone());
        let n = loop_invariant_code_motion(&mut f);
        assert!(n >= 2, "expected hoists, got {n}");
        assert_eq!(run(f.clone()), before);
        assert_eq!(before, Some(300));
        // The invariant def must now be outside the loop body.
        let loops = cfg::natural_loops(&f);
        let l = &loops[0];
        let still_inside =
            l.body.iter().any(|&b| f.block(b).instrs.iter().any(|ins| ins.def() == Some(inv)));
        assert!(!still_inside, "invariant def left inside the loop");
    }

    #[test]
    fn does_not_hoist_loop_varying() {
        let (mut f, _) = invariant_loop();
        loop_invariant_code_motion(&mut f);
        // `s + inv` depends on s (loop-varying): must stay inside.
        let loops = cfg::natural_loops(&f);
        let l = &loops[0];
        let adds_inside = l
            .body
            .iter()
            .flat_map(|&b| &f.block(b).instrs)
            .filter(|ins| matches!(ins, Instr::Bin { op: BinOp::Add, .. }))
            .count();
        assert!(adds_inside >= 2, "loop-varying adds must remain");
    }

    #[test]
    fn reassociation_creates_virtual_origin() {
        // addr = p + (i + adj): after LICM, vo = p + adj is hoisted and
        // addr = vo + i remains in the loop.
        let mut b = FuncBuilder::new("f", &[TempKind::Ptr]);
        let i = b.temp(TempKind::Int);
        b.push(Instr::Const { dst: i, value: 0 });
        let adj = b.constant(-5); // e.g. header - lo with lo=7
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.jump(header);
        let lim = {
            b.switch_to(header);

            b.constant(10)
        };
        let c = b.bin(BinOp::Lt, i, lim);
        b.br(c, body, exit);
        b.switch_to(body);
        let k = b.bin(BinOp::Add, i, adj);
        let addr = b.bin(BinOp::Add, b.param(0), k);
        let v = b.load(addr, 0, TempKind::Int);
        let _ = v;
        let one = b.constant(1);
        let ni = b.bin(BinOp::Add, i, one);
        b.push(Instr::Copy { dst: i, src: ni });
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        let n = loop_invariant_code_motion(&mut f);
        assert!(n >= 1);
        // There must now exist a hoisted `x = p + adj` outside the loop,
        // i.e. an Add of the pointer param in a non-loop block.
        let loops = cfg::natural_loops(&f);
        let l = &loops[0];
        let vo_outside = f
            .block_ids()
            .filter(|b| !l.contains(*b))
            .flat_map(|b| &f.block(b).instrs)
            .any(|ins| matches!(ins, Instr::Bin { op: BinOp::Add, a, .. } if *a == Temp(0)));
        assert!(
            vo_outside,
            "virtual origin not hoisted: {}",
            m3gc_ir::pretty::function_to_string(&f)
        );
    }

    /// `k := 3; prod := n * k; sum := prod + k` inside a loop: each link
    /// becomes invariant only once the one before it has left, and all of
    /// them (and the loop's `1`) land, in source order, in the single
    /// preheader the first hoist creates.
    #[test]
    fn hoists_a_dependent_chain_in_order_into_one_preheader() {
        let mut b = FuncBuilder::with_ret("f", &[], Some(TempKind::Int));
        let (i, s) = (b.temp(TempKind::Int), b.temp(TempKind::Int));
        b.push(Instr::Const { dst: i, value: 0 });
        b.push(Instr::Const { dst: s, value: 0 });
        let n = b.constant(4);
        let (header, body, exit) = (b.block(), b.block(), b.block());
        // A guarded entry, so the loop has no preheader yet.
        b.br(n, header, exit);
        b.switch_to(header);
        let c = b.bin(BinOp::Lt, i, n);
        b.br(c, body, exit);
        b.switch_to(body);
        let k = b.constant(3);
        let prod = b.bin(BinOp::Mul, n, k);
        let sum = b.bin(BinOp::Add, prod, k);
        let ns = b.bin(BinOp::Add, s, sum);
        b.push(Instr::Copy { dst: s, src: ns });
        let one = b.constant(1);
        let ni = b.bin(BinOp::Add, i, one);
        b.push(Instr::Copy { dst: i, src: ni });
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(s));
        let mut f = b.finish();
        let before = run(f.clone());
        let blocks = f.blocks.len();

        assert_eq!(loop_invariant_code_motion(&mut f), 4);
        assert_eq!(f.blocks.len(), blocks + 1, "one preheader for every hoist");
        let pre = f.block(BlockId(blocks as u32));
        let defs: Vec<Temp> = pre.instrs.iter().filter_map(Instr::def).collect();
        assert_eq!(defs, vec![k, prod, sum, one]);
        assert_eq!(pre.term, Terminator::Jump(header));
        assert_eq!(run(f), before);
        assert_eq!(before, Some(60));
    }

    #[test]
    fn preheader_creation_preserves_semantics() {
        let (mut f, _) = invariant_loop();
        let before = run(f.clone());
        loop_invariant_code_motion(&mut f);
        m3gc_ir::verify::verify_function(&f, None, None).unwrap();
        assert_eq!(run(f), before);
    }
}
