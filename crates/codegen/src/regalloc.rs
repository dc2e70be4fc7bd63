//! Linear-scan register allocation.
//!
//! Each temp gets one location for its whole lifetime: a register, a spill
//! slot, or (for parameters) its incoming `AP` argument slot. Temps whose
//! live interval crosses a call may only use **callee-save** registers —
//! this is what lets the collector reconstruct the register contents of a
//! suspended frame from callee save areas (§3): caller-save registers
//! never carry gc-relevant values across a call.

use m3gc_ir::cfg;
use m3gc_ir::deriv::DerivAnalysis;
use m3gc_ir::liveness::{liveness, Liveness};
use m3gc_ir::{BlockId, Function, Instr, Temp};
use m3gc_vm::isa::FIRST_CALLEE_SAVE;

/// Caller-save registers available for allocation (r0 and r1 are reserved
/// as scratch).
pub const CALLER_SAVE_POOL: [u8; 4] = [2, 3, 4, 5];
/// Callee-save registers available for allocation.
pub const CALLEE_SAVE_POOL: [u8; 6] = [6, 7, 8, 9, 10, 11];
/// Scratch registers used when materializing spilled operands.
pub const SCRATCH: [u8; 2] = [0, 1];

/// Where a temp lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TempLoc {
    /// A general-purpose register.
    Reg(u8),
    /// A frame spill slot (index into the spill area; the frame layout
    /// turns it into an FP offset).
    Spill(u32),
    /// The incoming argument word `AP + index` (parameters only).
    ApSlot(u32),
    /// Never used; reads yield garbage, writes are discarded via scratch.
    Unused,
}

/// The allocation result for one function.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Location of each temp.
    pub locs: Vec<TempLoc>,
    /// Callee-save registers this function uses (must be saved).
    pub used_callee_saves: Vec<u8>,
    /// Number of spill slots.
    pub n_spills: u32,
    /// Liveness (reused by the emitter for gc-point live sets).
    pub liveness: Liveness,
    /// Block layout order used for linearization.
    pub order: Vec<BlockId>,
    /// Linear position of the first instruction of each block.
    pub block_start: Vec<u32>,
}

#[derive(Debug, Clone)]
struct Interval {
    temp: Temp,
    start: u32,
    end: u32,
    crosses_call: bool,
}

/// Each temp's live interval, as the first and last linear position it
/// is live at (`u32::MAX`/`0` while it has none).
struct Spans {
    start: Vec<u32>,
    end: Vec<u32>,
}

impl Spans {
    fn extend(&mut self, t: Temp, p: u32) {
        let t = t.index();
        self.start[t] = self.start[t].min(p);
        self.end[t] = self.end[t].max(p);
    }

    /// A use of each of `uses` at `p`: the temp and, under the dead-base
    /// rule, its support.
    fn extend_uses(&mut self, lv: &Liveness, uses: &[Temp], p: u32) {
        for &u in uses {
            self.extend(u, p);
            for &s in lv.support(u) {
                self.extend(s, p);
            }
        }
    }
}

/// Computes the linear position of every instruction: blocks in `order`,
/// one position per instruction plus one for the terminator.
fn block_starts(f: &Function, order: &[BlockId]) -> Vec<u32> {
    let mut starts = vec![0u32; f.blocks.len()];
    let mut pos = 0u32;
    for &b in order {
        starts[b.index()] = pos;
        pos += f.block(b).instrs.len() as u32 + 1;
    }
    starts
}

/// Allocates registers for `f`.
///
/// `deriv` drives the dead-base liveness extension (pass the analysis the
/// emitter will also use); with gc support off, pass a no-derivations
/// analysis.
#[must_use]
pub fn allocate(f: &Function, deriv: Option<&DerivAnalysis>) -> Allocation {
    let order = cfg::reverse_postorder(f);
    let block_start = block_starts(f, &order);
    let lv = liveness(f, deriv);
    let n = f.temp_count();
    let mut span = Spans { start: vec![u32::MAX; n], end: vec![0u32; n] };

    // Parameters are live from position 0.
    for p in 0..f.n_params {
        span.extend(Temp(p as u32), 0);
    }
    // A temp live after an instruction is live out of its block or used
    // (itself or as support of a derived use) later in the block, so
    // defs, expanded uses at their own position and the blocks'
    // live-in/live-out sets span exactly the intervals the live set after
    // every instruction would.
    let mut call_positions: Vec<u32> = Vec::new();
    let mut uses = Vec::new();
    for &b in &order {
        let block = f.block(b);
        let p0 = block_start[b.index()];
        let tpos = p0 + block.instrs.len() as u32;
        for t in lv.live_in(b).iter() {
            span.extend(t, p0);
        }
        for t in lv.live_out(b).iter() {
            span.extend(t, tpos);
        }
        for (i, ins) in block.instrs.iter().enumerate() {
            let pos = p0 + i as u32;
            if let Some(d) = ins.def() {
                span.extend(d, pos);
            }
            uses.clear();
            ins.uses(&mut uses);
            span.extend_uses(&lv, &uses, pos);
            if let Instr::Call { args, .. } = ins {
                call_positions.push(pos);
                // Bases of derived arguments must survive the call so the
                // collector can update the pushed derived values (§3/§4).
                for &a in args {
                    for &s in lv.support(a) {
                        span.extend(s, pos + 1);
                    }
                }
            }
        }
        uses.clear();
        block.term.uses(&mut uses);
        span.extend_uses(&lv, &uses, tpos);
    }
    let Spans { start, end } = span;
    // Blocks are laid out in order, so the positions are sorted.
    debug_assert!(call_positions.is_sorted());

    let crosses_call = |s: u32, e: u32| -> bool {
        // A value crosses the call at position p when it is live into the
        // callee's execution: its interval starts no later than p and ends
        // strictly after it. (A call's own result starts at p and may end
        // later — it is written after the callee returns, so treating it
        // as crossing is conservative but harmless.)
        let first = call_positions.partition_point(|&p| p < s);
        call_positions.get(first).is_some_and(|&p| p < e)
    };

    let mut intervals: Vec<Interval> = (0..n)
        .filter(|&t| start[t] != u32::MAX)
        // By-ref (VAR) parameters are pinned to their incoming AP slot:
        // they hold possibly-interior addresses that the *caller's*
        // derivation record updates in place, so every use must re-read
        // the slot rather than a (potentially stale) register copy.
        .filter(|&t| !f.byref_params.get(t).copied().unwrap_or(false))
        .map(|t| Interval {
            temp: Temp(t as u32),
            start: start[t],
            end: end[t],
            crosses_call: crosses_call(start[t], end[t]),
        })
        .collect();
    intervals.sort_by_key(|iv| iv.start);

    let mut locs = vec![TempLoc::Unused; n];
    for (p, &byref) in f.byref_params.iter().enumerate() {
        if byref {
            locs[p] = TempLoc::ApSlot(p as u32);
        }
    }
    let mut active: Vec<(u32 /*end*/, u8 /*reg*/, Temp)> = Vec::new();
    let mut free_caller: Vec<u8> = CALLER_SAVE_POOL.to_vec();
    let mut free_callee: Vec<u8> = CALLEE_SAVE_POOL.to_vec();
    let mut used_callee_saves: Vec<u8> = Vec::new();
    let mut n_spills = 0u32;

    for iv in &intervals {
        // Expire finished intervals (strictly before this start: equal
        // endpoints conservatively conflict).
        active.retain(|&(e, r, _)| {
            if e < iv.start {
                if CALLEE_SAVE_POOL.contains(&r) {
                    free_callee.push(r);
                } else {
                    free_caller.push(r);
                }
                false
            } else {
                true
            }
        });
        let reg = if iv.crosses_call {
            free_callee.pop()
        } else {
            free_caller.pop().or_else(|| free_callee.pop())
        };
        match reg {
            Some(r) => {
                if CALLEE_SAVE_POOL.contains(&r) && !used_callee_saves.contains(&r) {
                    used_callee_saves.push(r);
                }
                locs[iv.temp.index()] = TempLoc::Reg(r);
                active.push((iv.end, r, iv.temp));
            }
            None => {
                // Spill. Parameters fall back to their incoming slot.
                if iv.temp.index() < f.n_params {
                    locs[iv.temp.index()] = TempLoc::ApSlot(iv.temp.0);
                } else {
                    locs[iv.temp.index()] = TempLoc::Spill(n_spills);
                    n_spills += 1;
                }
            }
        }
    }
    used_callee_saves.sort_unstable();
    debug_assert!(used_callee_saves.iter().all(|r| *r >= FIRST_CALLEE_SAVE));
    Allocation { locs, used_callee_saves, n_spills, liveness: lv, order, block_start }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3gc_ir::builder::FuncBuilder;
    use m3gc_ir::deriv::analyze_and_resolve;
    use m3gc_ir::{BinOp, FuncId, TempKind};

    #[test]
    fn values_across_calls_use_callee_save_or_spill() {
        let mut b = FuncBuilder::with_ret("f", &[TempKind::Int], Some(TempKind::Int));
        let x = b.constant(5);
        let _ = b.call(FuncId(0), vec![b.param(0)], Some(TempKind::Int));
        let r = b.bin(BinOp::Add, x, x); // x lives across the call
        b.ret(Some(r));
        let f = b.finish();
        let alloc = allocate(&f, None);
        match alloc.locs[x.index()] {
            TempLoc::Reg(r) => {
                assert!(CALLEE_SAVE_POOL.contains(&r), "x must be callee-save, got r{r}");
                assert!(alloc.used_callee_saves.contains(&r));
            }
            TempLoc::Spill(_) => {}
            other => panic!("unexpected loc {other:?}"),
        }
    }

    #[test]
    fn short_lived_values_prefer_caller_save() {
        let mut b = FuncBuilder::with_ret("f", &[TempKind::Int], Some(TempKind::Int));
        let x = b.constant(5);
        let y = b.bin(BinOp::Add, x, b.param(0));
        b.ret(Some(y));
        let f = b.finish();
        let alloc = allocate(&f, None);
        match alloc.locs[x.index()] {
            TempLoc::Reg(r) => assert!(CALLER_SAVE_POOL.contains(&r), "got r{r}"),
            other => panic!("unexpected loc {other:?}"),
        }
        assert!(alloc.used_callee_saves.is_empty());
        assert_eq!(alloc.n_spills, 0);
    }

    #[test]
    fn pressure_forces_spills() {
        // Create more simultaneously-live temps than registers.
        let mut b = FuncBuilder::with_ret("f", &[], Some(TempKind::Int));
        let temps: Vec<_> = (0..15).map(|i| b.constant(i)).collect();
        // Use them all at the end so they are simultaneously live.
        let mut acc = temps[0];
        for &t in &temps[1..] {
            acc = b.bin(BinOp::Add, acc, t);
        }
        b.ret(Some(acc));
        let f = b.finish();
        let alloc = allocate(&f, None);
        assert!(alloc.n_spills > 0, "expected spills with 15 live temps");
    }

    #[test]
    fn spilled_params_use_ap_slots() {
        // Eight parameters all live across a call: only six callee-save
        // registers exist, so at least two params fall back to their
        // incoming AP slots.
        let params = vec![TempKind::Int; 8];
        let mut b = FuncBuilder::with_ret("f", &params, Some(TempKind::Int));
        let _ = b.call(FuncId(0), vec![], None);
        let mut acc = b.param(0);
        for p in 1..8 {
            acc = b.bin(BinOp::Add, acc, b.param(p));
        }
        b.ret(Some(acc));
        let f = b.finish();
        let alloc = allocate(&f, None);
        let ap_params = (0..8)
            .filter(|&p| matches!(alloc.locs[p], TempLoc::ApSlot(i) if i == p as u32))
            .count();
        let reg_params = (0..8).filter(|&p| matches!(alloc.locs[p], TempLoc::Reg(_))).count();
        assert_eq!(ap_params + reg_params, 8);
        assert!(ap_params >= 2, "expected at least two AP-homed params, got {ap_params}");
    }

    #[test]
    fn derived_bases_survive_calls() {
        // d = p + i pushed as arg; base p must be callee-save/memory even
        // though its last plain use is the call itself.
        let mut b = FuncBuilder::new("f", &[TempKind::Ptr, TempKind::Int]);
        let d = b.bin(BinOp::Add, b.param(0), b.param(1));
        let _ = b.call(FuncId(0), vec![d], None);
        b.ret(None);
        let mut f = b.finish();
        let deriv = analyze_and_resolve(&mut f);
        let alloc = allocate(&f, Some(&deriv));
        match alloc.locs[0] {
            TempLoc::Reg(r) => assert!(
                CALLEE_SAVE_POOL.contains(&r),
                "base must survive the call in a callee-save register, got r{r}"
            ),
            TempLoc::ApSlot(_) | TempLoc::Spill(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unused_temps_get_no_location() {
        let mut b = FuncBuilder::new("f", &[]);
        let t = b.temp(TempKind::Int);
        let _ = t;
        b.ret(None);
        let f = b.finish();
        let alloc = allocate(&f, None);
        assert_eq!(alloc.locs[t.index()], TempLoc::Unused);
    }
}
