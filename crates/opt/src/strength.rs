//! Strength reduction of induction-variable addressing (§2's first
//! example).
//!
//! For a loop with a basic induction variable `i` (updated once per
//! iteration by a constant) and an address `addr := base + i` with `base`
//! invariant, the pass introduces an accumulator `sr` initialized to
//! `base + i` in the preheader and bumped by the step alongside `i`; the
//! address computation becomes a copy of `sr`. `sr` is a *loop-carried
//! derived value* — exactly the `*p++` pointer whose base the dead-base
//! rule (§4) must keep alive for the collector.

use m3gc_ir::cfg::{self, NaturalLoop};
use m3gc_ir::{BinOp, BlockId, Function, Instr, Temp, TempKind};

/// A detected basic induction variable.
struct BasicIv {
    /// The variable.
    iv: Temp,
    /// Constant step per iteration.
    step: i64,
    /// Location of the `iv := copy ni` update.
    update: (BlockId, usize),
}

/// What strength reduction knows of a function for one pass, kept
/// current as it adds preheaders and temps.
struct PassState {
    /// Predecessor lists.
    preds: Vec<Vec<BlockId>>,
    /// [`Function::def_counts`].
    counts: Vec<u32>,
    /// The value of each single-def `Const` temp.
    const_of: Vec<Option<i64>>,
    /// The latch of the first back edge into each header, in the order
    /// [`cfg::natural_loops`] lists them.
    first_latch: Vec<Option<BlockId>>,
    /// Scratch: each temp's in-loop defs (count and first location).
    loop_defs: Vec<(u32, (BlockId, usize))>,
    /// Scratch for [`cfg::loop_body`].
    seen: Vec<bool>,
}

impl PassState {
    fn new(f: &Function, preds: Vec<Vec<BlockId>>, loops: &[NaturalLoop]) -> PassState {
        // Def counts and constants in one walk: a temp's last `Const` def
        // is its value when it has no other def.
        let mut counts = vec![0u32; f.temp_count()];
        let mut const_of: Vec<Option<i64>> = vec![None; f.temp_count()];
        for block in &f.blocks {
            for ins in &block.instrs {
                if let Some(d) = ins.def() {
                    counts[d.index()] += 1;
                }
                if let Instr::Const { dst, value } = ins {
                    const_of[dst.index()] = Some(*value);
                }
            }
        }
        for (value, &n) in const_of.iter_mut().zip(&counts) {
            if n != 1 {
                *value = None;
            }
        }
        let mut first_latch = vec![None; f.blocks.len()];
        for l in loops {
            first_latch[l.header.index()].get_or_insert(l.latch);
        }
        PassState {
            preds,
            counts,
            const_of,
            first_latch,
            loop_defs: vec![(0, (BlockId(0), 0)); f.temp_count()],
            seen: Vec::new(),
        }
    }

    /// A new temp of `f`, defined `defs` times, `Some(c)` for a `Const`.
    fn new_temp(&mut self, f: &mut Function, defs: u32, value: Option<i64>) -> Temp {
        let t = f.new_temp(TempKind::Int);
        self.counts.push(defs);
        self.const_of.push(value);
        self.loop_defs.push((0, (BlockId(0), 0)));
        t
    }
}

/// Finds basic IVs of loop `l`: temps whose only in-loop def is
/// `iv := copy(ni)` where `ni := iv + c` (single-def, `c` a constant).
/// `defined` lists the temps with in-loop defs, ascending, and
/// `st.loop_defs` holds their defs.
fn find_basic_ivs(f: &Function, st: &PassState, defined: &[Temp]) -> Vec<BasicIv> {
    let mut ivs = Vec::new();
    for &t in defined {
        let (n, (bid, idx)) = st.loop_defs[t.index()];
        if n != 1 {
            continue;
        }
        let Instr::Copy { src: ni, .. } = &f.block(bid).instrs[idx] else { continue };
        let (ni_defs, (nb, nidx)) = st.loop_defs[ni.index()];
        if st.counts[ni.index()] != 1 || ni_defs != 1 {
            continue;
        }
        let Instr::Bin { op: BinOp::Add, a, b, .. } = &f.block(nb).instrs[nidx] else { continue };
        let step = if *a == t {
            st.const_of[b.index()]
        } else if *b == t {
            st.const_of[a.index()]
        } else {
            None
        };
        if let Some(step) = step {
            ivs.push(BasicIv { iv: t, step, update: (bid, idx) });
        }
    }
    ivs
}

/// Records the in-loop defs of `l` in `st.loop_defs` (cleared again by
/// [`reduce_loop`]); returns the temps defined, ascending.
fn note_loop_defs(f: &Function, l: &NaturalLoop, st: &mut PassState) -> Vec<Temp> {
    let mut defined = Vec::new();
    for &b in &l.body {
        for (i, ins) in f.block(b).instrs.iter().enumerate() {
            if let Some(d) = ins.def() {
                let entry = &mut st.loop_defs[d.index()];
                if entry.0 == 0 {
                    *entry = (0, (b, i));
                    defined.push(d);
                }
                entry.0 += 1;
            }
        }
    }
    defined.sort_unstable();
    defined
}

/// Applies strength reduction to one loop; returns rewrites performed.
fn reduce_loop(f: &mut Function, l: &NaturalLoop, st: &mut PassState) -> usize {
    let defined = note_loop_defs(f, l, st);
    let n = rewrite_loop(f, l, st, &defined);
    for t in defined {
        st.loop_defs[t.index()].0 = 0;
    }
    n
}

/// [`reduce_loop`] once `l`'s in-loop defs are noted.
fn rewrite_loop(f: &mut Function, l: &NaturalLoop, st: &mut PassState, defined: &[Temp]) -> usize {
    let ivs = find_basic_ivs(f, st, defined);
    if ivs.is_empty() {
        return 0;
    }
    let in_loop_def = |t: Temp| st.loop_defs[t.index()].0 > 0;
    // Candidates: single-def `addr := base + iv` in the loop with
    // invariant base.
    struct Candidate {
        at: (BlockId, usize),
        dst: Temp,
        base: Temp,
        iv_index: usize,
    }
    let mut candidates = Vec::new();
    for &bid in &l.body {
        for (i, ins) in f.block(bid).instrs.iter().enumerate() {
            let Instr::Bin { dst, op: BinOp::Add, a, b } = ins else { continue };
            if st.counts[dst.index()] != 1 {
                continue;
            }
            for (base, ivt) in [(*a, *b), (*b, *a)] {
                if in_loop_def(base) {
                    continue;
                }
                if let Some(ix) = ivs.iter().position(|c| c.iv == ivt) {
                    candidates.push(Candidate { at: (bid, i), dst: *dst, base, iv_index: ix });
                    break;
                }
            }
        }
    }
    if candidates.is_empty() {
        return 0;
    }
    // The preheader, against the loop with this header that
    // `natural_loops` lists first. Candidates only insert instructions,
    // so it serves them all. That loop's back edge is still there (only
    // this header's preheader would move it), but its body may have
    // gained preheaders of loops inside it since the pass began, so it
    // is walked again from the current predecessor lists.
    let Some(latch) = st.first_latch[l.header.index()] else { return 0 };
    let body = cfg::loop_body(&st.preds, l.header, latch, &mut st.seen);
    let l_now = NaturalLoop { header: l.header, latch, body };
    let pre = super::licm::ensure_preheader(f, &l_now, &mut st.preds);
    // Apply, one at a time; indices shift, so re-locate by dst each round.
    let n = candidates.len();
    for c in candidates {
        let iv = &ivs[c.iv_index];
        // `sr` is defined in the preheader and bumped in the loop.
        let sr = st.new_temp(f, 2, None);
        // Preheader: sr := base + iv (uses iv's entry value).
        f.block_mut(pre).instrs.push(Instr::Bin { dst: sr, op: BinOp::Add, a: c.base, b: iv.iv });
        // Replace the address computation with a copy of sr. Re-locate the
        // defining instruction by its dst (positions may have shifted).
        let (bid, _) = c.at;
        let block = f.block_mut(bid);
        let pos = block
            .instrs
            .iter()
            .position(|ins| ins.def() == Some(c.dst) && matches!(ins, Instr::Bin { .. }))
            .expect("candidate def still present");
        block.instrs[pos] = Instr::Copy { dst: c.dst, src: sr };
        // Bump sr next to the IV update: sr := sr + step.
        let step_t = st.new_temp(f, 1, Some(iv.step));
        let (ub, _) = iv.update;
        let ublock = f.block_mut(ub);
        let upos = ublock
            .instrs
            .iter()
            .position(|ins| ins.def() == Some(iv.iv) && matches!(ins, Instr::Copy { .. }))
            .expect("iv update still present");
        ublock.instrs.insert(upos + 1, Instr::Bin { dst: sr, op: BinOp::Add, a: sr, b: step_t });
        ublock.instrs.insert(upos + 1, Instr::Const { dst: step_t, value: iv.step });
    }
    n
}

/// Runs strength reduction over every loop; returns total rewrites.
///
/// Loops, predecessor lists, def counts and constants are found once
/// per pass.
pub fn strength_reduce(f: &mut Function) -> usize {
    let preds = cfg::predecessors(f);
    let mut loops = cfg::natural_loops_in(f, &preds, None);
    let mut st = PassState::new(f, preds, &loops);
    loops.sort_by_key(|l| l.body.len());
    let mut seen = Vec::new();
    let mut total = 0;
    for l in loops {
        if seen.contains(&l.header) {
            continue;
        }
        seen.push(l.header);
        total += reduce_loop(f, &l, &mut st);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3gc_ir::builder::FuncBuilder;
    use m3gc_ir::interp;
    use m3gc_ir::Program;

    /// s := Σ mem[p + i] for i in 0..4, with an explicit IV.
    fn indexed_sum() -> Function {
        let mut b = FuncBuilder::with_ret("f", &[TempKind::Ptr], Some(TempKind::Int));
        let i = b.temp(TempKind::Int);
        let s = b.temp(TempKind::Int);
        b.push(Instr::Const { dst: i, value: 1 }); // skip header word
        b.push(Instr::Const { dst: s, value: 0 });
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.jump(header);
        b.switch_to(header);
        let lim = b.constant(5);
        let c = b.bin(BinOp::Lt, i, lim);
        b.br(c, body, exit);
        b.switch_to(body);
        let addr = b.bin(BinOp::Add, b.param(0), i);
        let v = b.load(addr, 0, TempKind::Int);
        let ns = b.bin(BinOp::Add, s, v);
        b.push(Instr::Copy { dst: s, src: ns });
        let one = b.constant(1);
        let ni = b.bin(BinOp::Add, i, one);
        b.push(Instr::Copy { dst: i, src: ni });
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(s));
        b.finish()
    }

    fn run_with_array(f: Function) -> Option<i64> {
        // main: allocate a 4-element array [10,20,30,40], call f.
        let mut p = Program::new();
        let ty = p.types.add(m3gc_core::heap::HeapType::Record {
            name: "A".into(),
            words: 4,
            ptr_offsets: vec![],
        });
        let fid = p.add_func(f);
        let mut mb = FuncBuilder::with_ret("main", &[], Some(TempKind::Int));
        let obj = mb.new_object(ty, None);
        for (k, v) in [10i64, 20, 30, 40].iter().enumerate() {
            let c = mb.constant(*v);
            mb.store(obj, k as i32 + 1, c);
        }
        let r = mb.call(fid, vec![obj], Some(TempKind::Int)).unwrap();
        mb.ret(Some(r));
        let mid = p.add_func(mb.finish());
        p.main = mid;
        interp::run_program(&p).unwrap().result
    }

    #[test]
    fn detects_basic_iv() {
        let f = indexed_sum();
        let loops = cfg::natural_loops(&f);
        let mut st = PassState::new(&f, cfg::predecessors(&f), &loops);
        let defined = note_loop_defs(&f, &loops[0], &mut st);
        let found = find_basic_ivs(&f, &st, &defined);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].step, 1);
    }

    #[test]
    fn reduces_and_preserves_semantics() {
        let mut f = indexed_sum();
        let before = run_with_array(f.clone());
        let n = strength_reduce(&mut f);
        assert_eq!(n, 1, "{}", m3gc_ir::pretty::function_to_string(&f));
        m3gc_ir::verify::verify_function(&f, None, None).unwrap();
        let after = run_with_array(f.clone());
        assert_eq!(before, after);
        assert_eq!(before, Some(100));
        // The loop body's address computation became a copy.
        let loops = cfg::natural_loops(&f);
        let copies_in_loop = loops[0]
            .body
            .iter()
            .flat_map(|&b| &f.block(b).instrs)
            .filter(|i| matches!(i, Instr::Copy { .. }))
            .count();
        assert!(copies_in_loop >= 3, "{}", m3gc_ir::pretty::function_to_string(&f));
    }

    #[test]
    fn accumulator_is_derived_and_loop_carried() {
        let mut f = indexed_sum();
        strength_reduce(&mut f);
        let deriv = m3gc_ir::deriv::analyze_and_resolve(&mut f);
        // Some new temp must be derived from the pointer param.
        let derived_from_param = (0..f.temp_count() as u32)
            .map(Temp)
            .any(|t| deriv.deriv(t).is_some_and(|k| k.base_temps().any(|b| b == Temp(0))));
        assert!(derived_from_param, "strength-reduced pointer not derived from base");
    }

    /// A header with two latches is two natural loops. The pass reduces
    /// against the one `natural_loops` lists first; the other latch lies
    /// outside it, so its edge joins the entry's into the new preheader
    /// (re-deriving the accumulator from the current `i`, which keeps it
    /// right).
    #[test]
    fn two_latches_reduce_against_the_first_loop() {
        let mut b = FuncBuilder::with_ret("f", &[TempKind::Ptr], Some(TempKind::Int));
        let (i, s) = (b.temp(TempKind::Int), b.temp(TempKind::Int));
        b.push(Instr::Const { dst: i, value: 1 });
        b.push(Instr::Const { dst: s, value: 0 });
        let (header, body, low, high, exit) =
            (b.block(), b.block(), b.block(), b.block(), b.block());
        b.jump(header);
        b.switch_to(header);
        let lim = b.constant(5);
        let c = b.bin(BinOp::Lt, i, lim);
        b.br(c, body, exit);
        b.switch_to(body);
        let addr = b.bin(BinOp::Add, b.param(0), i);
        let v = b.load(addr, 0, TempKind::Int);
        let ns = b.bin(BinOp::Add, s, v);
        b.push(Instr::Copy { dst: s, src: ns });
        let one = b.constant(1);
        let ni = b.bin(BinOp::Add, i, one);
        b.push(Instr::Copy { dst: i, src: ni });
        let split = b.constant(25);
        let small = b.bin(BinOp::Lt, v, split);
        b.br(small, low, high);
        b.switch_to(low);
        b.jump(header);
        b.switch_to(high);
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(s));
        let mut f = b.finish();
        let first = &cfg::natural_loops(&f)[0];
        assert_eq!((first.header, first.latch), (header, low));
        assert!(!first.contains(high));
        let before = run_with_array(f.clone());
        let blocks = f.blocks.len();

        assert_eq!(strength_reduce(&mut f), 1);
        m3gc_ir::verify::verify_function(&f, None, None).unwrap();
        let pre = BlockId(blocks as u32);
        assert!(
            matches!(f.block(pre).instrs[..], [Instr::Bin { op: BinOp::Add, a, b, .. }] if a == Temp(0) && b == i),
            "{}",
            m3gc_ir::pretty::function_to_string(&f)
        );
        assert_eq!(f.block(high).term, m3gc_ir::Terminator::Jump(pre));
        assert_eq!(f.block(low).term, m3gc_ir::Terminator::Jump(header));
        assert_eq!(run_with_array(f), before);
        assert_eq!(before, Some(100));
    }

    #[test]
    fn negative_steps_work() {
        // i counts down; addr = p + i.
        let mut b = FuncBuilder::with_ret("f", &[TempKind::Ptr], Some(TempKind::Int));
        let i = b.temp(TempKind::Int);
        let s = b.temp(TempKind::Int);
        b.push(Instr::Const { dst: i, value: 4 });
        b.push(Instr::Const { dst: s, value: 0 });
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.jump(header);
        b.switch_to(header);
        let zero = b.constant(0);
        let c = b.bin(BinOp::Gt, i, zero);
        b.br(c, body, exit);
        b.switch_to(body);
        let addr = b.bin(BinOp::Add, b.param(0), i);
        let v = b.load(addr, 0, TempKind::Int);
        let ns = b.bin(BinOp::Add, s, v);
        b.push(Instr::Copy { dst: s, src: ns });
        let m1 = b.constant(-1);
        let ni = b.bin(BinOp::Add, i, m1);
        b.push(Instr::Copy { dst: i, src: ni });
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(s));
        let mut f = b.finish();
        let before = run_with_array(f.clone());
        let n = strength_reduce(&mut f);
        assert_eq!(n, 1);
        assert_eq!(run_with_array(f), before);
    }
}
