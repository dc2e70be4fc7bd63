//! CFG simplification: constant-branch folding, jump threading, block
//! merging and unreachable-block removal.

use m3gc_ir::cfg;
use m3gc_ir::{BlockId, Function, Instr, Terminator};

/// Folds branches whose condition is a block-local constant.
fn fold_constant_branches(f: &mut Function) -> usize {
    let mut changed = 0;
    for b in f.block_ids().collect::<Vec<_>>() {
        let block = f.block(b);
        let Terminator::Br { cond, then_bb, else_bb } = block.term else { continue };
        // Find the last def of `cond` in this block; if it is a constant,
        // the branch is decided.
        let mut value: Option<i64> = None;
        for ins in &block.instrs {
            if ins.def() == Some(cond) {
                value = match ins {
                    Instr::Const { value, .. } => Some(*value),
                    _ => None,
                };
            }
        }
        if let Some(v) = value {
            let target = if v != 0 { then_bb } else { else_bb };
            f.block_mut(b).term = Terminator::Jump(target);
            changed += 1;
        }
    }
    changed
}

/// Redirects edges through empty forwarding blocks (`instrs` empty,
/// terminator `Jump`).
fn thread_jumps(f: &mut Function) -> usize {
    let mut forward: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    let mut n_forward = 0;
    for b in f.block_ids() {
        let block = f.block(b);
        if block.instrs.is_empty() {
            if let Terminator::Jump(t) = block.term {
                if t != b {
                    forward[b.index()] = Some(t);
                    n_forward += 1;
                }
            }
        }
    }
    if n_forward == 0 {
        return 0;
    }
    // Resolve chains (with a cycle guard).
    let resolve = |mut b: BlockId| -> BlockId {
        let mut hops = 0;
        while let Some(t) = forward[b.index()] {
            b = t;
            hops += 1;
            if hops > n_forward {
                break; // cycle of empty blocks: leave as-is
            }
        }
        b
    };
    let mut changed = 0;
    for b in f.block_ids().collect::<Vec<_>>() {
        let term = f.block(b).term.clone();
        let new_term = match term {
            Terminator::Jump(t) => Terminator::Jump(resolve(t)),
            Terminator::Br { cond, then_bb, else_bb } => {
                Terminator::Br { cond, then_bb: resolve(then_bb), else_bb: resolve(else_bb) }
            }
            r @ Terminator::Ret(_) => r,
        };
        if new_term != f.block(b).term {
            f.block_mut(b).term = new_term;
            changed += 1;
        }
    }
    changed
}

/// Merges `b -> c` when `b` ends in `Jump(c)` and `c` has exactly one
/// predecessor (and is not the entry).
///
/// A merge moves `c`'s out-edges to `b` and leaves `c` an orphaned
/// self-loop, so every block keeps its predecessor *count*: one count
/// taken up front serves every merge, and `b` is retried until its new
/// jump target no longer qualifies.
fn merge_blocks(f: &mut Function) -> usize {
    let n_preds: Vec<usize> = cfg::predecessors(f).iter().map(Vec::len).collect();
    let mut changed = 0;
    for b in f.block_ids() {
        while let Terminator::Jump(c) = f.block(b).term {
            if c == b || c == f.entry || n_preds[c.index()] != 1 {
                break;
            }
            let mut tail = std::mem::take(&mut f.block_mut(c).instrs);
            let tail_term = std::mem::replace(&mut f.block_mut(c).term, Terminator::Jump(c));
            let head = f.block_mut(b);
            head.instrs.append(&mut tail);
            head.term = tail_term;
            changed += 1;
        }
    }
    changed
}

/// Removes unreachable blocks, compacting block ids.
fn remove_unreachable(f: &mut Function) -> usize {
    let reachable = cfg::reverse_postorder(f);
    if reachable.len() == f.blocks.len() {
        return 0;
    }
    let mut remap: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    for (new_idx, &b) in reachable.iter().enumerate() {
        remap[b.index()] = Some(BlockId(new_idx as u32));
    }
    let removed = f.blocks.len() - reachable.len();
    let mut new_blocks = Vec::with_capacity(reachable.len());
    for &b in &reachable {
        let mut block =
            std::mem::replace(f.block_mut(b), m3gc_ir::Block::new(Terminator::Ret(None)));
        match &mut block.term {
            Terminator::Jump(t) => *t = remap[t.index()].expect("reachable successor"),
            Terminator::Br { then_bb, else_bb, .. } => {
                *then_bb = remap[then_bb.index()].expect("reachable successor");
                *else_bb = remap[else_bb.index()].expect("reachable successor");
            }
            Terminator::Ret(_) => {}
        }
        new_blocks.push(block);
    }
    f.blocks = new_blocks;
    f.entry = remap[f.entry.index()].expect("entry reachable");
    removed
}

/// Runs all CFG simplifications to a fixpoint; returns total changes.
pub fn simplify_cfg(f: &mut Function) -> usize {
    let mut total = 0;
    loop {
        let mut round = 0;
        round += fold_constant_branches(f);
        round += thread_jumps(f);
        round += merge_blocks(f);
        round += remove_unreachable(f);
        total += round;
        if round == 0 {
            return total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3gc_ir::builder::FuncBuilder;
    use m3gc_ir::{BinOp, TempKind};

    #[test]
    fn threads_empty_blocks_and_merges() {
        let mut b = FuncBuilder::with_ret("f", &[TempKind::Int], Some(TempKind::Int));
        let hop = b.block();
        let dest = b.block();
        b.jump(hop);
        b.switch_to(hop);
        b.jump(dest);
        b.switch_to(dest);
        let t = b.bin(BinOp::Add, b.param(0), b.param(0));
        b.ret(Some(t));
        let mut f = b.finish();
        simplify_cfg(&mut f);
        assert_eq!(f.blocks.len(), 1, "everything merges into the entry");
        assert!(matches!(f.block(f.entry).term, Terminator::Ret(_)));
    }

    #[test]
    fn folds_constant_branches_and_prunes() {
        let mut b = FuncBuilder::with_ret("f", &[], Some(TempKind::Int));
        let c = b.constant(1);
        let t_blk = b.block();
        let e_blk = b.block();
        b.br(c, t_blk, e_blk);
        b.switch_to(t_blk);
        let one = b.constant(1);
        b.ret(Some(one));
        b.switch_to(e_blk);
        let two = b.constant(2);
        b.ret(Some(two));
        let mut f = b.finish();
        simplify_cfg(&mut f);
        let out = {
            let mut p = m3gc_ir::Program::new();
            let id = p.add_func(f.clone());
            p.main = id;
            m3gc_ir::interp::run_program(&p).unwrap()
        };
        assert_eq!(out.result, Some(1));
        assert_eq!(f.blocks.len(), 1, "dead arm removed: {f:?}");
    }

    #[test]
    fn loops_are_preserved() {
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
        simplify_cfg(&mut f);
        assert!(!cfg::natural_loops(&f).is_empty(), "loop must survive");
    }
}
