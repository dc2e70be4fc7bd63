//! Path splitting (paper Figure 2): the code-duplication alternative to
//! path variables for ambiguous derivations.
//!
//! When a temp `t` has two defs with different derivations (e.g.
//! `t := &P[0]+1` on one path and `t := &Q[0]+1` on the other) and the two
//! paths merge into a region that uses `t` (the loop in the paper's
//! example), the region is duplicated: one def keeps the original region,
//! the other jumps to a clone in which every occurrence of `t` is renamed
//! to a fresh temp. Each copy then has a unique derivation and no path
//! variable is needed — at the cost of code growth.
//!
//! The transformation applies when:
//!
//! * `t` has exactly two defining blocks, each ending in a jump to the
//!   same block (the region entry), and
//! * `t` is live only within a region whose blocks are reachable solely
//!   through that entry (no side entrances).
//!
//! Anything more complex falls back to path variables (the compiler's
//! default, and the paper's choice).

use m3gc_ir::cfg;
use m3gc_ir::deriv::find_ambiguous;
use m3gc_ir::liveness::liveness;
use m3gc_ir::{BlockId, Function, Temp, Terminator};

/// Attempts to split paths for every ambiguous temp; returns the number of
/// temps successfully split (the rest will get path variables).
pub fn split_paths(f: &mut Function) -> usize {
    let mut done = 0;
    // Splitting one temp changes the CFG; recompute after each success.
    loop {
        let ambiguous = find_ambiguous(f);
        let Some(&t) = ambiguous.iter().find(|&&t| try_split(f, t)) else {
            return done;
        };
        let _ = t;
        done += 1;
        if done > 64 {
            return done; // runaway guard
        }
    }
}

/// Attempts the Figure-2 transformation for one temp.
fn try_split(f: &mut Function, t: Temp) -> bool {
    // Locate t's defining blocks.
    let mut def_blocks: Vec<BlockId> = Vec::new();
    for b in f.block_ids() {
        if f.block(b).instrs.iter().any(|i| i.def() == Some(t)) && !def_blocks.contains(&b) {
            def_blocks.push(b);
        }
    }
    if def_blocks.len() != 2 || t.index() < f.n_params {
        return false;
    }
    let (da, db) = (def_blocks[0], def_blocks[1]);
    // Both def blocks must jump to the same region entry.
    let (Terminator::Jump(entry_a), Terminator::Jump(entry_b)) =
        (&f.block(da).term, &f.block(db).term)
    else {
        return false;
    };
    if entry_a != entry_b {
        return false;
    }
    let entry = *entry_a;
    if entry == f.entry || entry == da || entry == db {
        return false;
    }

    // The region: blocks where t is live-in, plus the entry.
    let lv = liveness(f, None);
    let mut region: Vec<BlockId> = f.block_ids().filter(|&b| lv.live_in(b).contains(t)).collect();
    if !region.contains(&entry) {
        region.push(entry);
    }
    // No defs of t inside the region; def blocks outside it.
    if region.contains(&da) || region.contains(&db) {
        return false;
    }
    for &b in &region {
        if f.block(b).instrs.iter().any(|i| i.def() == Some(t)) {
            return false;
        }
    }
    // Single entrance: every region block's predecessors are in the region
    // or (for the entry itself) the def blocks.
    let preds = cfg::predecessors(f);
    for &b in &region {
        for &p in &preds[b.index()] {
            let ok = region.contains(&p) || (b == entry && (p == da || p == db));
            if !ok {
                return false;
            }
        }
    }

    // Clone the region. In the clone, rename `t` and every *region-local*
    // temp (all defs inside the region, value not flowing in from outside)
    // to fresh temps — otherwise shared intermediates recreate the
    // ambiguity one level down. Temps that flow into the region (loop
    // counters initialized outside) or out of it keep their names; the two
    // copies never interleave, so shared updates are safe.
    let mut defs_in_region = vec![(0u32, 0u32); f.temp_count()]; // (in, out)
    for b in f.block_ids() {
        let inside = region.contains(&b);
        for d in f.block(b).instrs.iter().filter_map(m3gc_ir::Instr::def) {
            let e = &mut defs_in_region[d.index()];
            if inside {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
    }
    // Fresh temps in ascending order of the temps they rename.
    let mut rename: Vec<Option<Temp>> = vec![None; f.temp_count()];
    for (x, &(inside, outside)) in defs_in_region.iter().enumerate() {
        let x = Temp(x as u32);
        if inside > 0 && outside == 0 && x.index() >= f.n_params && !lv.live_in(entry).contains(x) {
            rename[x.index()] = Some(f.new_temp(f.kind(x)));
        }
    }
    let t2 = f.new_temp(f.kind(t));
    rename[t.index()] = Some(t2);
    let renamed = |u: Temp| rename.get(u.index()).copied().flatten().unwrap_or(u);
    let mut map: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    for &b in &region {
        map[b.index()] = Some(f.new_block());
    }
    for &b in &region {
        let mut clone = f.block(b).clone();
        for ins in &mut clone.instrs {
            ins.map_uses(renamed);
            if let Some(d) = ins.def() {
                rename_def(ins, d, renamed(d));
            }
        }
        clone.term.map_uses(renamed);
        // Internal edges go to the cloned counterparts.
        let remap = |b: &mut BlockId| {
            if let Some(nb) = map.get(b.index()).copied().flatten() {
                *b = nb;
            }
        };
        match &mut clone.term {
            Terminator::Jump(x) => remap(x),
            Terminator::Br { then_bb, else_bb, .. } => {
                remap(then_bb);
                remap(else_bb);
            }
            Terminator::Ret(_) => {}
        }
        *f.block_mut(map[b.index()].expect("region blocks are cloned")) = clone;
    }
    // Redirect def block B: rename its def of t to t2 and enter the clone.
    for ins in &mut f.block_mut(db).instrs {
        if ins.def() == Some(t) {
            // Rewrite the destination in place.
            rename_def(ins, t, t2);
        }
    }
    f.block_mut(db).term = Terminator::Jump(map[entry.index()].expect("the entry is cloned"));
    true
}

fn rename_def(ins: &mut m3gc_ir::Instr, from: Temp, to: Temp) {
    use m3gc_ir::Instr as I;
    match ins {
        I::Const { dst, .. }
        | I::Copy { dst, .. }
        | I::Bin { dst, .. }
        | I::Un { dst, .. }
        | I::Load { dst, .. }
        | I::LoadSlot { dst, .. }
        | I::SlotAddr { dst, .. }
        | I::LoadGlobal { dst, .. }
        | I::GlobalAddr { dst, .. }
        | I::New { dst, .. } => {
            if *dst == from {
                *dst = to;
            }
        }
        I::Call { dst, .. } | I::CallRuntime { dst, .. } => {
            if *dst == Some(from) {
                *dst = Some(to);
            }
        }
        I::Store { .. } | I::StoreSlot { .. } | I::StoreGlobal { .. } | I::GcPoint => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3gc_ir::builder::FuncBuilder;
    use m3gc_ir::deriv::analyze_and_resolve;
    use m3gc_ir::{BinOp, Instr, Program, TempKind};

    /// Builds the paper's Figure 2 shape: an invariant conditional selects
    /// t := P+1 or t := Q+1, then a loop uses *(t + i).
    fn figure2(split: bool) -> (Function, Temp) {
        let mut b = FuncBuilder::with_ret(
            "fig2",
            &[TempKind::Ptr, TempKind::Ptr, TempKind::Int],
            Some(TempKind::Int),
        );
        let t = b.temp(TempKind::Int);
        let one = b.constant(1);
        let branch_a = b.block();
        let branch_b = b.block();
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.br(b.param(2), branch_a, branch_b);
        b.switch_to(branch_a);
        b.push(Instr::Bin { dst: t, op: BinOp::Add, a: b.param(0), b: one });
        b.jump(header);
        b.switch_to(branch_b);
        b.push(Instr::Bin { dst: t, op: BinOp::Add, a: b.param(1), b: one });
        b.jump(header);
        // while (i < 3) print *(t + i++)
        let i = {
            b.switch_to(header);
            b.temp(TempKind::Int)
        };
        // (initialize i in both def blocks' predecessor isn't possible —
        //  init in entry instead; keep it simple: i initialized in header's
        //  first visit via const in def blocks would complicate; use a slot-free
        //  pattern: init i in entry block before the branch.)
        let mut f = b.finish();
        // Manually stitch: entry block gets `i := 0` before the branch.
        f.block_mut(f.entry).instrs.insert(0, Instr::Const { dst: i, value: 0 });
        // header: c := i < 3 ; br c body exit
        let c = f.new_temp(TempKind::Int);
        let lim = f.new_temp(TempKind::Int);
        f.block_mut(header).instrs.push(Instr::Const { dst: lim, value: 3 });
        f.block_mut(header).instrs.push(Instr::Bin { dst: c, op: BinOp::Lt, a: i, b: lim });
        f.block_mut(header).term = Terminator::Br { cond: c, then_bb: body, else_bb: exit };
        // body: addr := t + i; v := [addr]; print v; i := i + 1; jump header
        let addr = f.new_temp(TempKind::Int);
        let v = f.new_temp(TempKind::Int);
        let onec = f.new_temp(TempKind::Int);
        let ni = f.new_temp(TempKind::Int);
        let body_instrs = vec![
            Instr::Bin { dst: addr, op: BinOp::Add, a: t, b: i },
            Instr::Load { dst: v, addr, offset: 0 },
            Instr::CallRuntime { dst: None, func: m3gc_ir::RuntimeFn::PrintInt, args: vec![v] },
            Instr::Const { dst: onec, value: 1 },
            Instr::Bin { dst: ni, op: BinOp::Add, a: i, b: onec },
            Instr::Copy { dst: i, src: ni },
        ];
        f.block_mut(body).instrs = body_instrs;
        f.block_mut(body).term = Terminator::Jump(header);
        let zero = f.new_temp(TempKind::Int);
        f.block_mut(exit).instrs.push(Instr::Const { dst: zero, value: 0 });
        f.block_mut(exit).term = Terminator::Ret(Some(zero));
        if split {
            split_paths(&mut f);
        }
        (f, t)
    }

    fn run(f: Function, inv: i64) -> String {
        let mut p = Program::new();
        let ty = p.types.add(m3gc_core::heap::HeapType::Record {
            name: "A".into(),
            words: 4,
            ptr_offsets: vec![],
        });
        let fid = p.add_func(f);
        let mut mb = FuncBuilder::new("main", &[]);
        let arr_p = mb.new_object(ty, None);
        let arr_q = mb.new_object(ty, None);
        for (k, base) in [(arr_p, 10i64), (arr_q, 20)] {
            for w in 0..4 {
                let c = mb.constant(base + w);
                mb.store(k, w as i32 + 1, c);
            }
        }
        let sel = mb.constant(inv);
        let _ = mb.call(fid, vec![arr_p, arr_q, sel], Some(TempKind::Int));
        mb.ret(None);
        let mid = mb.finish();
        let mid = p.add_func(mid);
        p.main = mid;
        m3gc_ir::interp::run_program(&p).unwrap().output
    }

    #[test]
    fn figure2_is_ambiguous_without_splitting() {
        let (mut f, t) = figure2(false);
        let a = analyze_and_resolve(&mut f);
        assert!(
            matches!(a.deriv(t), Some(m3gc_ir::deriv::DerivKind::Ambiguous { .. })),
            "expected ambiguity: {:?}",
            a.deriv(t)
        );
    }

    #[test]
    fn splitting_removes_the_ambiguity() {
        let (mut f, _) = figure2(true);
        assert!(find_ambiguous(&f).is_empty(), "split left ambiguity behind");
        let a = analyze_and_resolve(&mut f);
        // No path variables inserted.
        let _ = a;
    }

    #[test]
    fn splitting_grows_the_code() {
        let (plain, _) = figure2(false);
        let (split, _) = figure2(true);
        assert!(split.blocks.len() > plain.blocks.len());
        assert!(split.instr_count() > plain.instr_count());
    }

    #[test]
    fn both_strategies_compute_the_same_output() {
        for inv in [0, 1] {
            let (plain, _) = figure2(false);
            let (split, _) = figure2(true);
            assert_eq!(run(plain, inv), run(split, inv), "inv={inv}");
        }
    }

    #[test]
    fn split_output_matches_source_semantics() {
        // inv=1 selects P (branch_a): prints P[1..3] = 11,12,13.
        let (split, _) = figure2(true);
        assert_eq!(run(split, 1), "101112");
        let (split, _) = figure2(true);
        assert_eq!(run(split, 0), "202122");
    }
}
