//! Control-flow graph utilities: predecessors, reverse postorder,
//! dominators and natural loops.

use crate::func::Function;
use crate::ids::BlockId;

/// Predecessor lists for every block.
#[must_use]
pub fn predecessors(f: &Function) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); f.blocks.len()];
    for b in f.block_ids() {
        for s in f.block(b).term.successors() {
            preds[s.index()].push(b);
        }
    }
    preds
}

/// Reverse postorder over blocks reachable from entry.
#[must_use]
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let n = f.blocks.len();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with an explicit stack of (block, next-successor-index).
    // Successors are visited in reverse so that a branch's *first*
    // successor (the then-side: loop bodies) ends up earliest in the RPO —
    // this keeps loop bodies adjacent to their headers in layout order,
    // which both the emitter (fallthrough) and the register allocator
    // (interval spans) rely on.
    let mut stack = vec![(f.entry, 0usize)];
    visited[f.entry.index()] = true;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        if let Some(s) = f.block(b).term.successors().rev().nth(*i) {
            *i += 1;
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Immediate dominators, computed with the Cooper–Harvey–Kennedy iterative
/// algorithm. Unreachable blocks get `None`; the entry dominates itself.
#[must_use]
pub fn dominators(f: &Function) -> Vec<Option<BlockId>> {
    let rpo = reverse_postorder(f);
    dominators_in(f, &predecessors(f), &rpo, &rpo_indices(f, &rpo))
}

/// Each block's position in `rpo` (`usize::MAX` when unreachable).
fn rpo_indices(f: &Function, rpo: &[BlockId]) -> Vec<usize> {
    let mut rpo_index = vec![usize::MAX; f.blocks.len()];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_index[b.index()] = i;
    }
    rpo_index
}

/// [`dominators`], given `f`'s [`predecessors`], reverse postorder and
/// [`rpo_indices`].
fn dominators_in(
    f: &Function,
    preds: &[Vec<BlockId>],
    rpo: &[BlockId],
    rpo_index: &[usize],
) -> Vec<Option<BlockId>> {
    let mut idom: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    idom[f.entry.index()] = Some(f.entry);
    let intersect = |idom: &[Option<BlockId>], a: BlockId, b: BlockId| -> BlockId {
        let (mut x, mut y) = (a, b);
        while x != y {
            while rpo_index[x.index()] > rpo_index[y.index()] {
                x = idom[x.index()].expect("processed block has idom");
            }
            while rpo_index[y.index()] > rpo_index[x.index()] {
                y = idom[y.index()].expect("processed block has idom");
            }
        }
        x
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo {
            if b == f.entry {
                continue;
            }
            let mut new_idom: Option<BlockId> = None;
            for &p in &preds[b.index()] {
                if idom[p.index()].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, cur, p),
                });
            }
            if new_idom.is_some() && idom[b.index()] != new_idom {
                idom[b.index()] = new_idom;
                changed = true;
            }
        }
    }
    idom
}

/// True if `a` dominates `b` under `idom`.
#[must_use]
pub fn dominates(idom: &[Option<BlockId>], a: BlockId, b: BlockId) -> bool {
    let mut cur = b;
    loop {
        if cur == a {
            return true;
        }
        match idom[cur.index()] {
            Some(d) if d != cur => cur = d,
            _ => return false,
        }
    }
}

/// A natural loop: its header and member blocks (header included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (target of the back edge).
    pub header: BlockId,
    /// The source of the back edge (the latch).
    pub latch: BlockId,
    /// All blocks in the loop, header first.
    pub body: Vec<BlockId>,
}

impl NaturalLoop {
    /// Membership test.
    #[must_use]
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.contains(&b)
    }
}

/// The body of the natural loop of back edge `latch → header` under
/// predecessor lists `preds`: the header, then every block that reaches
/// the latch without passing through the header, in the order a
/// depth-first search back from the latch first meets them. `seen` is
/// scratch, all `false` on entry and on return.
#[must_use]
pub fn loop_body(
    preds: &[Vec<BlockId>],
    header: BlockId,
    latch: BlockId,
    seen: &mut Vec<bool>,
) -> Vec<BlockId> {
    seen.resize(preds.len(), false);
    seen[header.index()] = true;
    let mut body = vec![header];
    let mut stack = vec![latch];
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut seen[b.index()], true) {
            continue;
        }
        body.push(b);
        stack.extend_from_slice(&preds[b.index()]);
    }
    for b in &body {
        seen[b.index()] = false;
    }
    body
}

/// Finds all natural loops (one per back edge `latch → header` where the
/// header dominates the latch), in order of latch, then of the latch's
/// successors.
#[must_use]
pub fn natural_loops(f: &Function) -> Vec<NaturalLoop> {
    natural_loops_in(f, &predecessors(f), None)
}

/// [`natural_loops`], given `f`'s [`predecessors`] and, when the caller
/// has them, its [`dominators`] (solved here otherwise, and only if some
/// edge could close a loop).
#[must_use]
pub fn natural_loops_in(
    f: &Function,
    preds: &[Vec<BlockId>],
    idom: Option<&[Option<BlockId>]>,
) -> Vec<NaturalLoop> {
    let rpo = reverse_postorder(f);
    let rpo_index = rpo_indices(f, &rpo);
    // A header dominates its latch, so it comes no later in reverse
    // postorder: only such a retreating edge can close a loop.
    let retreats =
        |latch: BlockId, header: BlockId| rpo_index[header.index()] <= rpo_index[latch.index()];
    if !rpo.iter().any(|&b| f.block(b).term.successors().any(|s| retreats(b, s))) {
        return Vec::new();
    }
    let solved;
    let idom = match idom {
        Some(idom) => idom,
        None => {
            solved = dominators_in(f, preds, &rpo, &rpo_index);
            &solved
        }
    };
    let mut seen = Vec::new();
    let mut loops = Vec::new();
    for latch in f.block_ids() {
        // Skip unreachable blocks.
        if idom[latch.index()].is_none() && latch != f.entry {
            continue;
        }
        for header in f.block(latch).term.successors() {
            if retreats(latch, header) && dominates(idom, header, latch) {
                let body = loop_body(preds, header, latch, &mut seen);
                loops.push(NaturalLoop { header, latch, body });
            }
        }
    }
    loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Function, TempKind};
    use crate::ids::FuncId;
    use crate::instr::Terminator;

    /// entry → cond; cond → (body | exit); body → cond (a while loop).
    fn while_loop() -> Function {
        let mut f = Function::new("w", FuncId(0), &[], None);
        let cond = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        let c = f.new_temp(TempKind::Int);
        f.block_mut(f.entry).term = Terminator::Jump(cond);
        f.block_mut(cond).term = Terminator::Br { cond: c, then_bb: body, else_bb: exit };
        f.block_mut(body).term = Terminator::Jump(cond);
        f.block_mut(exit).term = Terminator::Ret(None);
        f
    }

    #[test]
    fn rpo_starts_at_entry() {
        let f = while_loop();
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo[0], f.entry);
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn predecessors_of_loop_header() {
        let f = while_loop();
        let preds = predecessors(&f);
        // cond (block 1) has entry and body as predecessors.
        assert_eq!(preds[1].len(), 2);
    }

    #[test]
    fn dominator_tree() {
        let f = while_loop();
        let idom = dominators(&f);
        assert_eq!(idom[0], Some(BlockId(0)));
        assert_eq!(idom[1], Some(BlockId(0)));
        assert_eq!(idom[2], Some(BlockId(1)));
        assert_eq!(idom[3], Some(BlockId(1)));
        assert!(dominates(&idom, BlockId(0), BlockId(3)));
        assert!(dominates(&idom, BlockId(1), BlockId(2)));
        assert!(!dominates(&idom, BlockId(2), BlockId(3)));
    }

    #[test]
    fn finds_the_while_loop() {
        let f = while_loop();
        let loops = natural_loops(&f);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.latch, BlockId(2));
        assert!(l.contains(BlockId(1)) && l.contains(BlockId(2)));
        assert!(!l.contains(BlockId(0)) && !l.contains(BlockId(3)));
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut f = Function::new("s", FuncId(0), &[], None);
        let b = f.new_block();
        f.block_mut(f.entry).term = Terminator::Jump(b);
        f.block_mut(b).term = Terminator::Ret(None);
        assert!(natural_loops(&f).is_empty());
    }

    #[test]
    fn unreachable_blocks_are_ignored() {
        let mut f = while_loop();
        let dead = f.new_block();
        f.block_mut(dead).term = Terminator::Jump(dead);
        let rpo = reverse_postorder(&f);
        assert!(!rpo.contains(&dead));
        // The self-loop on an unreachable block must not be reported.
        assert_eq!(natural_loops(&f).len(), 1);
    }
}
