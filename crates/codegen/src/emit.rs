//! Instruction emission and gc-map construction.

use m3gc_core::derive::{order_derived_before_bases, DerivationRecord, Sign};
use m3gc_core::encode::encode_module;
use m3gc_core::layout::{BaseReg, GroundEntry, Location, RegSet};
use m3gc_core::tables::{GcPointTables, ModuleTables, ProcTables};
use m3gc_ir::bitset::BitSet;
use m3gc_ir::deriv::{analyze_and_resolve, DerivAnalysis, DerivKind};
use m3gc_ir::{Function, Instr as Ir, Program, Temp, TempKind, Terminator};
use m3gc_vm::asm::Assembler;
use m3gc_vm::isa::{AluOp, Instr as Vm, UnAluOp};
use m3gc_vm::module::{ProcMeta, VmModule};

use crate::gcpoints::{self, parks};
use crate::regalloc::{self, Allocation, TempLoc, SCRATCH};
use crate::CodegenOptions;

fn alu_of(op: m3gc_ir::BinOp) -> AluOp {
    use m3gc_ir::BinOp as B;
    match op {
        B::Add => AluOp::Add,
        B::Sub => AluOp::Sub,
        B::Mul => AluOp::Mul,
        B::Div => AluOp::Div,
        B::Mod => AluOp::Mod,
        B::And => AluOp::And,
        B::Or => AluOp::Or,
        B::Xor => AluOp::Xor,
        B::Eq => AluOp::Eq,
        B::Ne => AluOp::Ne,
        B::Lt => AluOp::Lt,
        B::Le => AluOp::Le,
        B::Gt => AluOp::Gt,
        B::Ge => AluOp::Ge,
    }
}

/// Frame layout of one procedure, all offsets FP-relative in words:
/// `[callee-save area][source slots][spill slots]`, with outgoing call
/// arguments pushed just past `frame_words`.
struct Frame {
    save_offsets: Vec<(u8, i32)>,
    slot_offsets: Vec<i32>,
    spill_base: i32,
    frame_words: u32,
}

impl Frame {
    fn layout(f: &Function, alloc: &Allocation) -> Frame {
        let mut off = 0i32;
        let save_offsets: Vec<(u8, i32)> = alloc
            .used_callee_saves
            .iter()
            .map(|&r| {
                let o = off;
                off += 1;
                (r, o)
            })
            .collect();
        let mut slot_offsets = Vec::with_capacity(f.slots.len());
        for s in &f.slots {
            slot_offsets.push(off);
            off += s.words as i32;
        }
        let spill_base = off;
        off += alloc.n_spills as i32;
        Frame { save_offsets, slot_offsets, spill_base, frame_words: off as u32 }
    }

    fn spill_off(&self, k: u32) -> i32 {
        self.spill_base + k as i32
    }
}

/// Everything needed while emitting one function.
struct FnEmit<'a> {
    f: &'a Function,
    deriv: Option<&'a DerivAnalysis>,
    alloc: &'a Allocation,
    frame: &'a Frame,
    /// Ground table under construction.
    ground: Vec<GroundEntry>,
    /// Ground indices of source-slot pointer words (always live).
    always_live: Vec<u32>,
    /// Ground index of each pointer param's AP slot.
    param_ground: Vec<Option<u32>>,
    /// Ground index of each spilled tidy-pointer temp's slot.
    temp_ground: Vec<Option<u32>>,
    /// Collected gc-points (pc ascending).
    points: Vec<GcPointTables>,
    /// The return address of the last call emitted.
    last_return: Option<u32>,
}

impl<'a> FnEmit<'a> {
    fn new(
        f: &'a Function,
        deriv: Option<&'a DerivAnalysis>,
        alloc: &'a Allocation,
        frame: &'a Frame,
    ) -> FnEmit<'a> {
        let mut e = FnEmit {
            f,
            deriv,
            alloc,
            frame,
            ground: Vec::new(),
            always_live: Vec::new(),
            param_ground: vec![None; f.n_params],
            temp_ground: vec![None; f.temp_count()],
            points: Vec::new(),
            last_return: None,
        };
        // Source-slot pointer words: every pointer in a frame slot is a
        // separate ground entry (§5.2) and is traced at every gc-point
        // (slots are NIL-initialized at frame setup).
        for (sid, s) in f.slots.iter().enumerate() {
            for &w in &s.ptr_words {
                let idx =
                    e.add_ground(GroundEntry::new(BaseReg::Fp, frame.slot_offsets[sid] + w as i32));
                e.always_live.push(idx);
            }
        }
        // Pointer parameters: their AP slots are roots while the parameter
        // is live.
        for p in 0..f.n_params {
            if f.kind(Temp(p as u32)) == TempKind::Ptr {
                let idx = e.add_ground(GroundEntry::new(BaseReg::Ap, p as i32));
                e.param_ground[p] = Some(idx);
            }
        }
        // Spilled tidy-pointer temps.
        for t in 0..f.temp_count() {
            if f.kind(Temp(t as u32)) == TempKind::Ptr {
                if let TempLoc::Spill(k) = alloc.locs[t] {
                    let idx = e.add_ground(GroundEntry::new(BaseReg::Fp, frame.spill_off(k)));
                    e.temp_ground[t] = Some(idx);
                }
            }
        }
        e
    }

    /// The pc of an allocation or poll about to be emitted. Where that
    /// would be a call's return address (a call falling through into an
    /// allocation or a poll), one pad instruction gives the park site a
    /// pc of its own: a call's table is keyed by its return address and
    /// one table cannot describe both points, and a return address is
    /// never a park site, whether or not its call has a table.
    fn park_site_pc(&self, asm: &mut Assembler) -> u32 {
        if self.last_return == Some(asm.here()) {
            asm.emit(&Vm::Mov { dst: 0, src: 0 });
        }
        asm.here()
    }

    fn add_ground(&mut self, entry: GroundEntry) -> u32 {
        if let Some(i) = self.ground.iter().position(|&g| g == entry) {
            return i as u32;
        }
        self.ground.push(entry);
        (self.ground.len() - 1) as u32
    }

    fn loc(&self, t: Temp) -> TempLoc {
        self.alloc.locs[t.index()]
    }

    /// The [`Location`] of a temp, for derivation records.
    fn location_of(&self, t: Temp) -> Location {
        match self.loc(t) {
            TempLoc::Reg(r) => Location::Reg(r),
            TempLoc::Spill(k) => Location::Slot(BaseReg::Fp, self.frame.spill_off(k)),
            TempLoc::ApSlot(i) => Location::Slot(BaseReg::Ap, i as i32),
            TempLoc::Unused => panic!("location of unused temp {t} (liveness bug)"),
        }
    }

    /// The canonical location of a *base* value, applying the paper's
    /// preference order: stack locations over registers (and user
    /// variables — parameters — over compiler temporaries).
    fn base_location(&self, t: Temp) -> Location {
        if t.index() < self.f.n_params
            && (self.f.kind(t) == TempKind::Ptr || self.f.is_byref_param(t))
        {
            // The incoming AP slot is always maintained for pointer params,
            // and by-ref params are pinned to it.
            return Location::Slot(BaseReg::Ap, t.0 as i32);
        }
        self.location_of(t)
    }

    fn derivation_record(&self, t: Temp, target: Location) -> DerivationRecord {
        let kind = self
            .deriv
            .and_then(|d| d.deriv(t))
            .unwrap_or_else(|| panic!("derivation record for non-derived temp {t}"));
        let map_bases = |bases: &Vec<(Temp, Sign)>| -> Vec<(Location, Sign)> {
            bases.iter().map(|&(b, s)| (self.base_location(b), s)).collect()
        };
        match kind {
            DerivKind::Simple(bases) => {
                DerivationRecord::Simple { target, bases: map_bases(bases) }
            }
            DerivKind::Ambiguous { path_var, variants } => DerivationRecord::Ambiguous {
                target,
                path_var: self.location_of(*path_var),
                variants: variants.iter().map(map_bases).collect(),
            },
        }
    }

    /// Builds the tables for a gc-point at `pc` given the set of live
    /// temps and extra derivation targets (pushed derived arguments).
    fn record_gc_point(
        &mut self,
        pc: u32,
        live: BitSet,
        extra_live: &[Temp],
        extra_targets: &[(Location, Temp)],
    ) {
        self.record_gc_point_with_byref(pc, live, extra_live, extra_targets, &[]);
    }

    /// Like [`Self::record_gc_point`], with additional records for by-ref
    /// parameters forwarded as VAR arguments: each pushed copy is derived
    /// (with `E = 0`) from the parameter's own AP slot.
    fn record_gc_point_with_byref(
        &mut self,
        pc: u32,
        mut live: BitSet,
        extra_live: &[Temp],
        extra_targets: &[(Location, Temp)],
        byref_passthrough: &[(Location, Temp)],
    ) {
        debug_assert!(
            self.points.last().is_none_or(|last| last.pc < pc),
            "two gc-points at pc {pc}"
        );
        for t in extra_live {
            live.insert(t.index());
        }

        let mut live_stack: Vec<u32> = self.always_live.clone();
        let mut regs = RegSet::EMPTY;
        let mut derived_live: Vec<Temp> = Vec::new();
        for t in live.iter().map(|t| Temp(t as u32)) {
            if self.loc(t) == TempLoc::Unused {
                continue;
            }
            let derived = self.deriv.is_some_and(|d| d.is_derived(t));
            if derived {
                derived_live.push(t);
                continue;
            }
            if self.f.kind(t) != TempKind::Ptr {
                continue;
            }
            match self.loc(t) {
                TempLoc::Reg(r) => {
                    regs.insert(r);
                    // A register-allocated pointer parameter also keeps its
                    // AP slot as a root (both copies are updated; updating
                    // tidy pointers is idempotent).
                    if let Some(g) = self.param_ground.get(t.index()).copied().flatten() {
                        live_stack.push(g);
                    }
                }
                TempLoc::Spill(_) => {
                    live_stack
                        .push(self.temp_ground[t.index()].expect("spilled ptr has ground entry"));
                }
                TempLoc::ApSlot(_) => {
                    live_stack
                        .push(self.param_ground[t.index()].expect("ptr param has ground entry"));
                }
                TempLoc::Unused => unreachable!("filtered above"),
            }
        }
        live_stack.sort_unstable();
        live_stack.dedup();

        let mut records: Vec<DerivationRecord> = Vec::new();
        for &t in &derived_live {
            records.push(self.derivation_record(t, self.location_of(t)));
        }
        for &(target, t) in extra_targets {
            records.push(self.derivation_record(t, target));
        }
        for &(target, t) in byref_passthrough {
            records.push(DerivationRecord::Simple {
                target,
                bases: vec![(Location::Slot(BaseReg::Ap, t.0 as i32), Sign::Plus)],
            });
        }
        let derivations = order_derived_before_bases(records);

        self.points.push(GcPointTables { pc, live_stack, regs, derivations });
    }
}

/// Emits one function; returns its metadata and gc tables.
#[allow(clippy::too_many_lines)]
fn emit_function(
    asm: &mut Assembler,
    f: &Function,
    deriv: Option<&DerivAnalysis>,
    global_offsets: &[u32],
    may_park: &[bool],
    options: &CodegenOptions,
) -> (ProcMeta, ProcTables) {
    let alloc = regalloc::allocate(f, deriv);
    let frame = Frame::layout(f, &alloc);
    let mut em = FnEmit::new(f, deriv, &alloc, &frame);
    let entry_pc = asm.here();

    // Block labels.
    let labels: Vec<_> = f.block_ids().map(|_| asm.new_label()).collect();

    // Prologue: save used callee-save registers, load register params.
    for &(r, off) in &frame.save_offsets {
        asm.emit(&Vm::StF { breg: BaseReg::Fp, off, src: r });
    }
    for p in 0..f.n_params {
        if let TempLoc::Reg(r) = alloc.locs[p] {
            asm.emit(&Vm::LdF { dst: r, breg: BaseReg::Ap, off: p as i32 });
        }
    }

    let order = alloc.order.clone();
    // Write-barrier elision state, reset at every block boundary:
    // `fresh` holds temps bound to an object allocated in this block with
    // no gc-point since (still in the nursery, so stores into it can never
    // create an old→young edge); `nonheap` holds temps bound to frame-slot
    // or global addresses (never inside a heap object). Both survive only
    // through `Copy`; any other redefinition clears the temp, and every
    // gc-point (allocations, polls, calls that may park) clears `fresh`
    // entirely — a collection may promote the object.
    let mut fresh = BitSet::new(f.temp_count());
    let mut nonheap = BitSet::new(f.temp_count());
    for (oi, &bid) in order.iter().enumerate() {
        asm.bind(labels[bid.index()]);
        let block = f.block(bid);
        let next_in_layout = order.get(oi + 1).copied();
        // Live sets after each gc-point instruction; only those points
        // record tables.
        let mut after: Vec<Option<BitSet>> = vec![None; block.instrs.len()];
        if options.gc.emit_tables {
            alloc.liveness.walk_back(f, bid, |i, live| {
                if parks(&block.instrs[i], may_park) {
                    after[i] = Some(live.clone());
                }
            });
        }
        fresh.clear();
        nonheap.clear();

        // read: materialize a temp into a register (scratch if spilled).
        macro_rules! read {
            ($t:expr, $scratch:expr) => {{
                let t: Temp = $t;
                match em.loc(t) {
                    TempLoc::Reg(r) => r,
                    TempLoc::Spill(k) => {
                        let s = SCRATCH[$scratch];
                        asm.emit(&Vm::LdF { dst: s, breg: BaseReg::Fp, off: frame.spill_off(k) });
                        s
                    }
                    TempLoc::ApSlot(i) => {
                        let s = SCRATCH[$scratch];
                        asm.emit(&Vm::LdF { dst: s, breg: BaseReg::Ap, off: i as i32 });
                        s
                    }
                    TempLoc::Unused => {
                        let s = SCRATCH[$scratch];
                        asm.emit(&Vm::MovI { dst: s, imm: 0 });
                        s
                    }
                }
            }};
        }
        // Target register for defining a temp, and the write-back.
        macro_rules! def_reg {
            ($t:expr) => {{
                match em.loc($t) {
                    TempLoc::Reg(r) => r,
                    _ => SCRATCH[0],
                }
            }};
        }
        macro_rules! finish_def {
            ($t:expr, $r:expr) => {{
                let t: Temp = $t;
                match em.loc(t) {
                    TempLoc::Reg(_) | TempLoc::Unused => {}
                    TempLoc::Spill(k) => {
                        asm.emit(&Vm::StF { breg: BaseReg::Fp, off: frame.spill_off(k), src: $r });
                    }
                    TempLoc::ApSlot(i) => {
                        asm.emit(&Vm::StF { breg: BaseReg::Ap, off: i as i32, src: $r });
                    }
                }
            }};
        }

        for (i, ins) in block.instrs.iter().enumerate() {
            let emit_tables = options.gc.emit_tables;
            match ins {
                Ir::Const { dst, value } => {
                    let r = def_reg!(*dst);
                    asm.emit(&Vm::MovI { dst: r, imm: *value });
                    finish_def!(*dst, r);
                }
                Ir::Copy { dst, src } => {
                    let rs = read!(*src, 0);
                    let rd = def_reg!(*dst);
                    if rd != rs {
                        asm.emit(&Vm::Mov { dst: rd, src: rs });
                    }
                    finish_def!(*dst, rd);
                }
                Ir::Bin { dst, op, a, b } => {
                    let ra = read!(*a, 0);
                    let rb = read!(*b, 1);
                    let rd = def_reg!(*dst);
                    asm.emit(&Vm::Alu { op: alu_of(*op), dst: rd, a: ra, b: rb });
                    finish_def!(*dst, rd);
                }
                Ir::Un { dst, op, a } => {
                    let ra = read!(*a, 0);
                    let rd = def_reg!(*dst);
                    let vop = match op {
                        m3gc_ir::UnOp::Neg => UnAluOp::Neg,
                        m3gc_ir::UnOp::Not => UnAluOp::Not,
                    };
                    asm.emit(&Vm::UnAlu { op: vop, dst: rd, a: ra });
                    finish_def!(*dst, rd);
                }
                Ir::Load { dst, addr, offset } => {
                    let ra = read!(*addr, 0);
                    let rd = def_reg!(*dst);
                    asm.emit(&Vm::Ld { dst: rd, base: ra, off: *offset });
                    finish_def!(*dst, rd);
                }
                Ir::Store { addr, offset, src } => {
                    let ra = read!(*addr, 0);
                    let rs = read!(*src, 1);
                    // Write barrier at pointer stores into heap objects,
                    // elided when the type checker proves the value is a
                    // non-pointer (`TempKind::Int` covers integers,
                    // booleans, stack addresses, path variables and
                    // derived values) or the target is nursery-fresh or
                    // outside the heap.
                    //
                    // The same `StB` serves two barrier modes, and every
                    // elision below must be sound for both. Generational
                    // mode records the *target* (old-to-young remembered
                    // set); SATB deletion mode enqueues the *old value*
                    // while concurrent marking runs. For SATB:
                    //
                    // * Non-pointer source: the overwritten slot of a
                    //   same-typed object is equally non-pointer — no
                    //   reference is deleted, nothing to preserve.
                    // * Fresh target: the object was allocated after the
                    //   snapshot with no gc-point (hence no pause, and
                    //   `marking` only toggles inside pauses) between
                    //   the allocation and this store, so its fields
                    //   are still NIL — the overwritten value is never
                    //   a snapshot-reachable pointer. If marking was on
                    //   at the allocation the object is also born black.
                    // * Frame/global targets (`StF`/`StG` sites): the
                    //   snapshot pause marks root *values* directly —
                    //   globals and every frame's tidy roots — so the
                    //   overwritten pointer was already marked at the
                    //   snapshot; only heap-to-heap edges can delete
                    //   the last unmarked path to an object.
                    let needs_barrier = f.kind(*src) == TempKind::Ptr
                        && !fresh.contains(addr.index())
                        && !nonheap.contains(addr.index());
                    if needs_barrier {
                        asm.emit(&Vm::StB { base: ra, off: *offset, src: rs });
                    } else {
                        asm.emit(&Vm::St { base: ra, off: *offset, src: rs });
                    }
                }
                Ir::LoadSlot { dst, slot, offset } => {
                    let rd = def_reg!(*dst);
                    let off = frame.slot_offsets[slot.index()] + *offset as i32;
                    asm.emit(&Vm::LdF { dst: rd, breg: BaseReg::Fp, off });
                    finish_def!(*dst, rd);
                }
                Ir::StoreSlot { slot, offset, src } => {
                    let rs = read!(*src, 0);
                    let off = frame.slot_offsets[slot.index()] + *offset as i32;
                    asm.emit(&Vm::StF { breg: BaseReg::Fp, off, src: rs });
                }
                Ir::SlotAddr { dst, slot } => {
                    let rd = def_reg!(*dst);
                    asm.emit(&Vm::Lea {
                        dst: rd,
                        breg: BaseReg::Fp,
                        off: frame.slot_offsets[slot.index()],
                    });
                    finish_def!(*dst, rd);
                }
                Ir::LoadGlobal { dst, global } => {
                    let rd = def_reg!(*dst);
                    asm.emit(&Vm::LdG { dst: rd, goff: global_offsets[global.index()] });
                    finish_def!(*dst, rd);
                }
                Ir::StoreGlobal { global, src } => {
                    let rs = read!(*src, 0);
                    asm.emit(&Vm::StG { goff: global_offsets[global.index()], src: rs });
                }
                Ir::GlobalAddr { dst, global } => {
                    let rd = def_reg!(*dst);
                    asm.emit(&Vm::LeaG { dst: rd, goff: global_offsets[global.index()] });
                    finish_def!(*dst, rd);
                }
                Ir::Call { dst, func, args } => {
                    for a in args {
                        let r = read!(*a, 0);
                        asm.emit(&Vm::Push { src: r });
                    }
                    asm.emit(&Vm::Call { proc: func.0 as u16, nargs: args.len() as u8 });
                    let retpc = asm.here();
                    em.last_return = Some(retpc);
                    if emit_tables && parks(ins, may_park) {
                        // The live set during the callee's execution: live
                        // after the call, *minus the call's own result* —
                        // the destination is not written until the callee
                        // returns, so its location holds garbage while a
                        // collection can run.
                        let mut live = after[i].take().expect("live set at a call");
                        if let Some(d) = dst {
                            live.remove(d.index());
                        }
                        // Pushed derived arguments and their support.
                        let mut extra_live = Vec::new();
                        let mut extra_targets = Vec::new();
                        let mut byref_passthrough = Vec::new();
                        if let Some(d) = deriv {
                            for (j, &a) in args.iter().enumerate() {
                                let target = Location::Slot(
                                    BaseReg::Fp,
                                    frame.frame_words as i32 + j as i32,
                                );
                                if d.is_derived(a) {
                                    extra_targets.push((target, a));
                                    extra_live.extend_from_slice(alloc.liveness.support(a));
                                } else if d.is_byref(a) {
                                    // A VAR parameter forwarded as a VAR
                                    // argument: the pushed copy is derived
                                    // from the incoming AP slot (which the
                                    // *caller's* record updates); the
                                    // re-derive ordering (caller before
                                    // callee) fixes the whole chain.
                                    byref_passthrough.push((target, a));
                                }
                            }
                        }
                        em.record_gc_point_with_byref(
                            retpc,
                            live,
                            &extra_live,
                            &extra_targets,
                            &byref_passthrough,
                        );
                    }
                    if let Some(dst) = dst {
                        let rd = def_reg!(*dst);
                        if rd != 0 {
                            asm.emit(&Vm::Mov { dst: rd, src: 0 });
                        }
                        finish_def!(*dst, rd);
                    }
                }
                Ir::CallRuntime { dst, func, args } => {
                    let arg_reg = if args.is_empty() { 0 } else { read!(args[0], 0) };
                    asm.emit(&Vm::Sys { code: func.code(), arg: arg_reg });
                    if let Some(dst) = dst {
                        let rd = def_reg!(*dst);
                        asm.emit(&Vm::MovI { dst: rd, imm: 0 });
                        finish_def!(*dst, rd);
                    }
                }
                Ir::New { dst, ty, len } => {
                    let len_reg = len.map(|l| read!(l, 1));
                    if emit_tables {
                        // The collection happens *before* the allocation:
                        // live values are those live just before this
                        // instruction (the result is not yet defined).
                        let mut before = after[i].take().expect("live set at an allocation");
                        if let Some(d) = ins.def() {
                            before.remove(d.index());
                        }
                        let mut uses = Vec::new();
                        ins.uses(&mut uses);
                        let alloc_pc = em.park_site_pc(asm);
                        em.record_gc_point(alloc_pc, before, &uses, &[]);
                    }
                    let rd = def_reg!(*dst);
                    match len_reg {
                        Some(rl) => asm.emit(&Vm::AllocA { dst: rd, ty: ty.0 as u16, len: rl }),
                        None => asm.emit(&Vm::Alloc { dst: rd, ty: ty.0 as u16 }),
                    };
                    finish_def!(*dst, rd);
                }
                Ir::GcPoint => {
                    if emit_tables {
                        let pc = em.park_site_pc(asm);
                        let before = after[i].take().expect("live set at a poll");
                        em.record_gc_point(pc, before, &[], &[]);
                    }
                    asm.emit(&Vm::GcPoint);
                }
            }

            // Update the barrier-elision state for the instruction just
            // emitted. A gc-point drops every freshness fact because the
            // collector may promote the objects; a call that cannot park
            // keeps them. A redefinition always clears the temp first;
            // `Copy` propagates both properties.
            if parks(ins, may_park) {
                fresh.clear();
            }
            match ins {
                Ir::Copy { dst, src } => {
                    let src_fresh = fresh.contains(src.index());
                    let src_nonheap = nonheap.contains(src.index());
                    fresh.remove(dst.index());
                    nonheap.remove(dst.index());
                    if src_fresh {
                        fresh.insert(dst.index());
                    }
                    if src_nonheap {
                        nonheap.insert(dst.index());
                    }
                }
                Ir::New { dst, .. } => {
                    nonheap.remove(dst.index());
                    fresh.insert(dst.index());
                }
                Ir::SlotAddr { dst, .. } | Ir::GlobalAddr { dst, .. } => {
                    fresh.remove(dst.index());
                    nonheap.insert(dst.index());
                }
                _ => {
                    if let Some(d) = ins.def() {
                        fresh.remove(d.index());
                        nonheap.remove(d.index());
                    }
                }
            }
        }

        // Terminator.
        let epilogue = |asm: &mut Assembler, frame: &Frame| {
            for &(r, off) in &frame.save_offsets {
                asm.emit(&Vm::LdF { dst: r, breg: BaseReg::Fp, off });
            }
        };
        match &block.term {
            Terminator::Jump(t) => {
                if Some(*t) != next_in_layout {
                    asm.jmp(labels[t.index()]);
                }
            }
            Terminator::Br { cond, then_bb, else_bb } => {
                let rc = read!(*cond, 0);
                if Some(*else_bb) == next_in_layout {
                    asm.brt(rc, labels[then_bb.index()]);
                } else if Some(*then_bb) == next_in_layout {
                    asm.brf(rc, labels[else_bb.index()]);
                } else {
                    asm.brt(rc, labels[then_bb.index()]);
                    asm.jmp(labels[else_bb.index()]);
                }
            }
            Terminator::Ret(v) => {
                if let Some(v) = v {
                    let r = read!(*v, 0);
                    if r != 0 {
                        asm.emit(&Vm::Mov { dst: 0, src: r });
                    }
                }
                epilogue(asm, &frame);
                asm.emit(&Vm::Ret);
            }
        }
    }

    let end_pc = asm.here();
    let meta = ProcMeta {
        name: f.name.clone(),
        entry_pc,
        end_pc,
        frame_words: frame.frame_words,
        save_regs: frame.save_offsets.clone(),
        n_args: f.n_params as u32,
    };
    let tables =
        ProcTables { name: f.name.clone(), entry_pc, ground: em.ground, points: em.points };
    (meta, tables)
}

/// Compiles a program (see [`crate::compile_program`]).
pub(crate) fn compile(prog: &mut Program, options: &CodegenOptions) -> VmModule {
    if options.gc.emit_tables {
        gcpoints::place_gc_points(prog, &options.gc);
    }
    let may_park = gcpoints::may_park(prog);
    let global_offsets: Vec<u32> =
        (0..prog.globals.len()).map(|i| prog.global_offset(m3gc_ir::GlobalId(i as u32))).collect();

    // Derivation analysis (mutates: inserts path variables).
    let derivs: Vec<Option<DerivAnalysis>> = prog
        .funcs
        .iter_mut()
        .map(|f| options.gc.emit_tables.then(|| analyze_and_resolve(f)))
        .collect();

    let mut asm = Assembler::new();
    let mut procs = Vec::new();
    let mut tables = ModuleTables::default();
    for (i, f) in prog.funcs.iter().enumerate() {
        let (meta, pt) = emit_function(
            &mut asm,
            f,
            derivs[i].as_deref_ref(),
            &global_offsets,
            &may_park,
            options,
        );
        procs.push(meta);
        if options.gc.emit_tables {
            tables.procs.push(pt);
        }
    }
    debug_assert_eq!(tables.validate(), Ok(()));
    let code = asm.finish();
    let gc_maps = encode_module(&tables, options.scheme);
    VmModule {
        code,
        procs,
        types: prog.types.clone(),
        globals_words: prog.globals_words(),
        global_ptr_roots: prog.global_ptr_roots(),
        main: prog.main.0 as u16,
        gc_maps,
        logical_maps: tables,
    }
}

/// `Option<DerivAnalysis>` → `Option<&DerivAnalysis>` helper.
trait AsDerefRef {
    fn as_deref_ref(&self) -> Option<&DerivAnalysis>;
}

impl AsDerefRef for Option<DerivAnalysis> {
    fn as_deref_ref(&self) -> Option<&DerivAnalysis> {
        self.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3gc_ir::builder::FuncBuilder;
    use m3gc_ir::{BinOp, Program, RuntimeFn, TempKind};
    use m3gc_vm::machine::{Machine, MachineLayout, RunOutcome};

    fn run_no_gc(mut prog: Program) -> String {
        let opts = CodegenOptions::default();
        let module = compile(&mut prog, &opts);
        let mut vm = Machine::new(
            module,
            MachineLayout {
                semi_words: 1 << 16,
                stack_words: 4096,
                max_threads: 2,
                ..MachineLayout::default()
            },
        );
        let main = vm.module.main;
        let tid = vm.spawn(main, &[]);
        let r = vm.run_thread(tid, 10_000_000);
        assert_eq!(r, RunOutcome::Finished, "output so far: {}", vm.output);
        vm.output.clone()
    }

    fn single(b: FuncBuilder) -> Program {
        let mut p = Program::new();
        let id = p.add_func(b.finish());
        p.main = id;
        p
    }

    #[test]
    fn arithmetic_pipeline() {
        let mut b = FuncBuilder::new("main", &[]);
        let x = b.constant(40);
        let y = b.constant(2);
        let s = b.bin(BinOp::Add, x, y);
        b.call_runtime(RuntimeFn::PrintInt, vec![s]);
        b.ret(None);
        assert_eq!(run_no_gc(single(b)), "42");
    }

    #[test]
    fn calls_with_args_and_results() {
        let mut p = Program::new();
        let mut add =
            FuncBuilder::with_ret("add", &[TempKind::Int, TempKind::Int], Some(TempKind::Int));
        let s = add.bin(BinOp::Add, add.param(0), add.param(1));
        add.ret(Some(s));
        let add_id = p.add_func(add.finish());
        let mut main = FuncBuilder::new("main", &[]);
        let a = main.constant(30);
        let bb = main.constant(12);
        let r = main.call(add_id, vec![a, bb], Some(TempKind::Int)).unwrap();
        main.call_runtime(RuntimeFn::PrintInt, vec![r]);
        main.ret(None);
        let id = p.add_func(main.finish());
        p.main = id;
        assert_eq!(run_no_gc(p), "42");
    }

    #[test]
    fn control_flow_loop() {
        // sum 1..=10
        let mut b = FuncBuilder::new("main", &[]);
        let i = b.temp(TempKind::Int);
        let s = b.temp(TempKind::Int);
        b.push(m3gc_ir::Instr::Const { dst: i, value: 1 });
        b.push(m3gc_ir::Instr::Const { dst: s, value: 0 });
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.jump(header);
        b.switch_to(header);
        let ten = b.constant(10);
        let c = b.bin(BinOp::Le, i, ten);
        b.br(c, body, exit);
        b.switch_to(body);
        let ns = b.bin(BinOp::Add, s, i);
        b.push(m3gc_ir::Instr::Copy { dst: s, src: ns });
        let one = b.constant(1);
        let ni = b.bin(BinOp::Add, i, one);
        b.push(m3gc_ir::Instr::Copy { dst: i, src: ni });
        b.jump(header);
        b.switch_to(exit);
        b.call_runtime(RuntimeFn::PrintInt, vec![s]);
        b.ret(None);
        assert_eq!(run_no_gc(single(b)), "55");
    }

    #[test]
    fn heap_allocation_and_access() {
        let mut p = Program::new();
        let ty = p.types.add(m3gc_core::heap::HeapType::Record {
            name: "R".into(),
            words: 2,
            ptr_offsets: vec![],
        });
        let mut b = FuncBuilder::new("main", &[]);
        let o = b.new_object(ty, None);
        let v = b.constant(7);
        b.store(o, 1, v);
        let r = b.load(o, 1, TempKind::Int);
        b.call_runtime(RuntimeFn::PrintInt, vec![r]);
        b.ret(None);
        let id = p.add_func(b.finish());
        p.main = id;
        assert_eq!(run_no_gc(p), "7");
    }

    #[test]
    fn gc_tables_are_emitted_for_gc_points() {
        let mut p = Program::new();
        let ty = p.types.add(m3gc_core::heap::HeapType::Record {
            name: "R".into(),
            words: 1,
            ptr_offsets: vec![],
        });
        let mut b = FuncBuilder::new("main", &[]);
        let o = b.new_object(ty, None);
        let o2 = b.new_object(ty, None); // o live across this gc-point
        b.store(o, 0, o2);
        b.ret(None);
        let id = p.add_func(b.finish());
        p.main = id;
        let module = compile(&mut p, &CodegenOptions::default());
        let maps = &module.logical_maps;
        assert_eq!(maps.procs.len(), 1);
        let pt = &maps.procs[0];
        assert_eq!(pt.points.len(), 2, "two allocations, two gc-points");
        // At the second allocation, `o` must be recorded somewhere (a
        // register or a slot).
        let second = &pt.points[1];
        let described = !second.regs.is_empty() || !second.live_stack.is_empty();
        assert!(described, "o must be described at the second gc-point: {second:?}");
    }

    #[test]
    fn derived_value_described_at_alloc() {
        let mut p = Program::new();
        let ty = p.types.add(m3gc_core::heap::HeapType::Array {
            name: "A".into(),
            elem_words: 1,
            elem_ptr_offsets: vec![],
        });
        let mut b = FuncBuilder::new("main", &[]);
        let n = b.constant(4);
        let arr = b.new_object(ty, Some(n));
        let k = b.constant(2);
        let interior = b.bin(BinOp::Add, arr, k); // derived from arr
        let o2 = b.new_object(ty, Some(n)); // gc-point with `interior` live
        let v = b.load(interior, 0, TempKind::Int);
        b.store(o2, 2, v);
        b.ret(None);
        let id = p.add_func(b.finish());
        p.main = id;
        let module = compile(&mut p, &CodegenOptions::default());
        let pt = &module.logical_maps.procs[0];
        let second_alloc = &pt.points[1];
        assert_eq!(second_alloc.derivations.len(), 1, "{second_alloc:?}");
        let rec = &second_alloc.derivations[0];
        assert_eq!(rec.bases_for_path(0).len(), 1);
    }

    #[test]
    fn gc_disabled_emits_no_tables() {
        let mut p = Program::new();
        let ty = p.types.add(m3gc_core::heap::HeapType::Record {
            name: "R".into(),
            words: 1,
            ptr_offsets: vec![],
        });
        let mut b = FuncBuilder::new("main", &[]);
        let _ = b.new_object(ty, None);
        b.ret(None);
        let id = p.add_func(b.finish());
        p.main = id;
        let mut opts = CodegenOptions::default();
        opts.gc.emit_tables = false;
        let module = compile(&mut p, &opts);
        assert!(module.logical_maps.procs.is_empty());
    }

    #[test]
    fn loop_gc_point_reaches_machine_code() {
        let mut b = FuncBuilder::new("main", &[]);
        let i = b.temp(TempKind::Int);
        b.push(m3gc_ir::Instr::Const { dst: i, value: 0 });
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.jump(header);
        b.switch_to(header);
        let lim = b.constant(10);
        let c = b.bin(BinOp::Lt, i, lim);
        b.br(c, body, exit);
        b.switch_to(body);
        let one = b.constant(1);
        let ni = b.bin(BinOp::Add, i, one);
        b.push(m3gc_ir::Instr::Copy { dst: i, src: ni });
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        let mut p = single(b);
        let module = compile(&mut p, &CodegenOptions::default());
        // The loop had no gc-point, so one must have been inserted and
        // appear in the tables.
        assert_eq!(module.logical_maps.procs[0].points.len(), 1);
    }

    // --- Write-barrier emission and elision ---

    fn ptr_record(p: &mut Program) -> m3gc_core::heap::TypeId {
        p.types.add(m3gc_core::heap::HeapType::Record {
            name: "Node".into(),
            words: 2,
            ptr_offsets: vec![0],
        })
    }

    fn stb_count(p: &mut Program, opts: &CodegenOptions) -> usize {
        let module = compile(p, opts);
        m3gc_vm::disasm::disassemble(&module).matches("stb").count()
    }

    #[test]
    fn barrier_emitted_for_unproven_pointer_store() {
        // The second allocation is a gc-point, so `a` is no longer
        // provably in the nursery when the store happens.
        let mut p = Program::new();
        let ty = ptr_record(&mut p);
        let mut b = FuncBuilder::new("main", &[]);
        let a = b.new_object(ty, None);
        let c = b.new_object(ty, None);
        b.store(a, 0, c);
        b.ret(None);
        let id = b.finish();
        p.main = p.add_func(id);
        assert_eq!(stb_count(&mut p, &CodegenOptions::default()), 1);
    }

    #[test]
    fn barrier_elided_for_non_pointer_store() {
        let mut p = Program::new();
        let ty = ptr_record(&mut p);
        let mut b = FuncBuilder::new("main", &[]);
        let a = b.new_object(ty, None);
        let v = b.constant(7);
        b.store(a, 1, v); // Int-kind source: never a pointer store.
        b.ret(None);
        let id = b.finish();
        p.main = p.add_func(id);
        assert_eq!(stb_count(&mut p, &CodegenOptions::default()), 0);
    }

    #[test]
    fn barrier_elided_for_fresh_target() {
        // `c` is allocated *after* `a`, so at the store `c` is provably
        // nursery-fresh (no gc-point separates its allocation from the
        // store) — no old→young edge is possible.
        let mut p = Program::new();
        let ty = ptr_record(&mut p);
        let mut b = FuncBuilder::new("main", &[]);
        let a = b.new_object(ty, None);
        let c = b.new_object(ty, None);
        b.store(c, 0, a);
        b.ret(None);
        let id = b.finish();
        p.main = p.add_func(id);
        assert_eq!(stb_count(&mut p, &CodegenOptions::default()), 0);
    }

    #[test]
    fn freshness_propagates_through_copy_and_dies_at_gc_points() {
        let mut p = Program::new();
        let ty = ptr_record(&mut p);

        // Copy of a fresh object is still fresh: elided.
        let mut b = FuncBuilder::new("main", &[]);
        let a = b.new_object(ty, None);
        let c = b.new_object(ty, None);
        let c2 = b.copy_of(c, TempKind::Ptr);
        b.store(c2, 0, a);
        b.ret(None);
        let id = b.finish();
        p.main = p.add_func(id);
        assert_eq!(stb_count(&mut p, &CodegenOptions::default()), 0);

        // An explicit gc-point between allocation and store kills the
        // freshness fact (a collection could promote the object).
        let mut p = Program::new();
        let ty = ptr_record(&mut p);
        let mut b = FuncBuilder::new("main", &[]);
        let a = b.new_object(ty, None);
        let c = b.new_object(ty, None);
        b.push(m3gc_ir::Instr::GcPoint);
        b.store(c, 0, a);
        b.ret(None);
        let id = b.finish();
        p.main = p.add_func(id);
        assert_eq!(stb_count(&mut p, &CodegenOptions::default()), 1);
    }

    #[test]
    fn barrier_elided_for_slot_address_target() {
        // A store through a frame-slot address (VAR-style) targets the
        // stack, which minor collections scan as roots: elided.
        let mut p = Program::new();
        let ty = ptr_record(&mut p);
        let mut b = FuncBuilder::new("main", &[]);
        let slot = b.slot(m3gc_ir::SlotInfo {
            name: "v".into(),
            words: 1,
            ptr_words: vec![0],
            addressable: true,
        });
        let a = b.new_object(ty, None);
        let sa = b.slot_addr(slot);
        b.store(sa, 0, a);
        b.ret(None);
        let id = b.finish();
        p.main = p.add_func(id);
        assert_eq!(stb_count(&mut p, &CodegenOptions::default()), 0);
    }

    /// `main` allocates `a` then `c`, calls `callee`, then stores `a`
    /// into `c`: how many barriers does the store get?
    fn barriers_after_call(callee: FuncBuilder) -> usize {
        let mut p = Program::new();
        let ty = ptr_record(&mut p);
        let callee_id = p.add_func(callee.finish());
        let mut b = FuncBuilder::new("main", &[]);
        let a = b.new_object(ty, None);
        let c = b.new_object(ty, None);
        b.call(callee_id, vec![], None);
        b.store(c, 0, a);
        b.ret(None);
        p.main = p.add_func(b.finish());
        stb_count(&mut p, &CodegenOptions::default())
    }

    #[test]
    fn call_invalidates_freshness() {
        // A call between the allocation and the store is a gc-point when
        // its callee allocates: the allocation may force a collection
        // that promotes `c`, so the store needs its barrier back.
        let mut callee = FuncBuilder::new("allocate", &[]);
        let _ = callee.new_object(m3gc_core::heap::TypeId(0), None);
        callee.ret(None);
        assert_eq!(barriers_after_call(callee), 1);
    }

    #[test]
    fn never_parking_call_keeps_freshness() {
        // A leaf that never parks cannot let a collection run, so `c` is
        // still nursery-fresh at the store.
        let mut leaf = FuncBuilder::new("leaf", &[]);
        leaf.ret(None);
        assert_eq!(barriers_after_call(leaf), 0);
    }

    #[test]
    fn barrier_elided_for_global_address_target() {
        // A store through a global's address targets the global area,
        // which every minor collection scans as roots — never an
        // old→young edge, so never a barrier (even after a gc-point).
        let mut p = Program::new();
        let ty = ptr_record(&mut p);
        let g = p.add_global(m3gc_ir::GlobalInfo::scalar("gp", TempKind::Ptr));
        let mut b = FuncBuilder::new("main", &[]);
        let a = b.new_object(ty, None);
        b.push(m3gc_ir::Instr::GcPoint);
        let ga = b.temp(TempKind::Int);
        b.push(m3gc_ir::Instr::GlobalAddr { dst: ga, global: g });
        b.store(ga, 0, a);
        b.ret(None);
        let id = b.finish();
        p.main = p.add_func(id);
        assert_eq!(stb_count(&mut p, &CodegenOptions::default()), 0);
    }
}
