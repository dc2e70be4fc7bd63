//! Lowering from the checked AST to the three-address IR.
//!
//! Pointerness decisions are made here: every temp, slot and global gets a
//! static kind, tidy pointers flow only through declared-`Ptr` storage, and
//! interior pointers arise exactly where the paper says they do (§2):
//! dynamic indexing of heap arrays, `WITH` aliases of heap designators, and
//! `VAR` arguments denoting heap fields or elements all materialize an
//! address temp *derived* from the tidy base pointer.
//!
//! Storage policy: scalar locals and value parameters live in temps unless
//! their address is taken (they are passed as `VAR` arguments somewhere in
//! the procedure), in which case they get frame slots; local fixed arrays
//! always get frame slots. Pointer slots are NIL-initialized at entry, so
//! the collector may trace them at any gc-point.
//!
//! The checker's results are read by [`ExprId`] from dense tables, and
//! types and signatures are borrowed from it, never cloned per
//! expression.

use m3gc_core::heap::{HeapType, TypeId, ARRAY_HEADER_WORDS, RECORD_HEADER_WORDS};
use m3gc_ir::builder::FuncBuilder;
use m3gc_ir::{
    BinOp as IrBin, BlockId, FuncId, GlobalId, GlobalInfo, Instr, Program, RuntimeFn, SlotId,
    SlotInfo, Temp, TempKind, UnOp as IrUn,
};

use crate::ast::{self, BinOp, Expr, ExprKind, Module, Stmt, StmtKind, UnOp};
use crate::typecheck::{Builtin, CallRes, Checked, NameRes, VarClass, VarInfo};
use crate::types::{Type, TypeArena, TypeRef};

/// Lowering options.
#[derive(Debug, Clone, Copy)]
pub struct LowerOptions {
    /// Emit array subscript range checks (on by default, as in Modula-3).
    pub bounds_checks: bool,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions { bounds_checks: true }
    }
}

/// Lowers a checked module to an IR program (see [`lower_with`]).
#[must_use]
pub fn lower(module: &Module, checked: &Checked) -> Program {
    lower_with(module, checked, LowerOptions::default())
}

/// Lowers a checked module with explicit options.
///
/// The returned program's `main` function runs the module body (after
/// global initializers); source procedure `i` becomes `FuncId(i)`.
#[must_use]
pub fn lower_with(module: &Module, checked: &Checked, options: LowerOptions) -> Program {
    let lw = Lowerer {
        module,
        checked,
        options,
        program: Program::new(),
        heap_types: Vec::new(),
        char_array_ty: None,
    };
    lw.lower_module()
}

/// A mutable location, as lowering sees it.
#[derive(Debug, Clone, Copy)]
enum LValue {
    /// A scalar variable held in a temp.
    TempVar(Temp),
    /// A word of a frame slot.
    Slot(SlotId, u32),
    /// A scalar global.
    Global(GlobalId),
    /// A memory word at `addr + offset`.
    Mem { addr: Temp, offset: i32 },
}

/// Where a source variable lives.
#[derive(Debug, Clone, Copy)]
enum Storage {
    /// Scalar in a temp.
    Temp(Temp),
    /// Addressable scalar in a frame slot.
    Slot(SlotId),
    /// Local fixed array in a frame slot.
    ArraySlot { slot: SlotId, lo: i64, len: u32 },
    /// VAR parameter: the temp holds the referent's address.
    RefParam(Temp),
    /// WITH alias of a designator.
    Alias(LValue),
    /// WITH binding of a non-designator value (read-only).
    Value(Temp),
}

/// Heap array metadata for indexing.
enum ArrLoc {
    /// Heap array behind a tidy pointer.
    Heap {
        ptr: Temp,
        /// `Some((lo, hi))` for fixed arrays, `None` for open arrays.
        bounds: Option<(i64, i64)>,
    },
    /// Local fixed array in a frame slot.
    Frame { slot: SlotId, lo: i64, len: u32 },
    /// Global fixed array.
    GlobalArr { id: GlobalId, lo: i64, len: u32 },
}

struct Lowerer<'a> {
    module: &'a Module,
    checked: &'a Checked<'a>,
    options: LowerOptions,
    program: Program,
    /// Cache mapping semantic referent types to heap type descriptors.
    heap_types: Vec<(TypeRef, TypeId)>,
    char_array_ty: Option<TypeId>,
}

struct ProcCtx<'a> {
    b: FuncBuilder,
    vars: &'a [VarInfo<'a>],
    storage: Vec<Option<Storage>>,
    /// Exit blocks of enclosing loops, innermost last.
    loop_exits: Vec<BlockId>,
    /// Cursor into `vars` for matching FOR/WITH bindings: the checker binds
    /// them in statement pre-order, and lowering walks statements in the
    /// same order, so each binding statement takes the next matching entry.
    binding_cursor: usize,
}

impl ProcCtx<'_> {
    fn take_binding(&mut self, name: &str, class: VarClass) -> u32 {
        let idx = (self.binding_cursor..self.vars.len())
            .find(|&i| self.vars[i].name == name && self.vars[i].class == class)
            .expect("checker bound the variable");
        self.binding_cursor = idx + 1;
        idx as u32
    }
}

impl<'a> Lowerer<'a> {
    fn arena(&self) -> &'a TypeArena {
        &self.checked.arena
    }

    fn name_res(&self, e: &Expr) -> NameRes {
        self.checked.name_res[e.id as usize].expect("checker resolved the name")
    }

    fn temp_kind_of(&self, t: TypeRef) -> TempKind {
        match self.arena().get(t) {
            Type::Ref(_) | Type::NilType => TempKind::Ptr,
            _ => TempKind::Int,
        }
    }

    /// Heap type descriptor for a referent type, deduplicated structurally.
    fn heap_type_id(&mut self, referent: TypeRef) -> TypeId {
        if let Some(&(_, id)) =
            self.heap_types.iter().find(|(r, _)| self.checked.arena.equal(*r, referent))
        {
            return id;
        }
        let desc = match self.arena().get(referent) {
            Type::Record { fields } => {
                let ptr_offsets = fields
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, t))| self.temp_kind_of(*t) == TempKind::Ptr)
                    .map(|(i, _)| i as u32)
                    .collect();
                HeapType::Record {
                    name: self.arena().display(referent),
                    words: fields.len() as u32,
                    ptr_offsets,
                }
            }
            Type::Array { elem, .. } | Type::OpenArray { elem } => {
                let elem_ptr_offsets =
                    if self.temp_kind_of(*elem) == TempKind::Ptr { vec![0] } else { vec![] };
                HeapType::Array {
                    name: self.arena().display(referent),
                    elem_words: 1,
                    elem_ptr_offsets,
                }
            }
            // REF of a scalar: a one-word record.
            _ => {
                let ptr_offsets =
                    if self.temp_kind_of(referent) == TempKind::Ptr { vec![0] } else { vec![] };
                HeapType::Record { name: self.arena().display(referent), words: 1, ptr_offsets }
            }
        };
        let id = self.program.types.add(desc);
        self.heap_types.push((referent, id));
        id
    }

    fn lower_module(mut self) -> Program {
        // Globals, in checker order so GlobalId == checker global index.
        for &(name, ty) in &self.checked.globals {
            let info = match *self.arena().get(ty) {
                Type::Array { lo, hi, elem } => {
                    let len = array_len(lo, hi);
                    let ptr_words = if self.temp_kind_of(elem) == TempKind::Ptr {
                        (0..len).collect()
                    } else {
                        vec![]
                    };
                    GlobalInfo { name: name.to_owned(), words: len, ptr_words }
                }
                _ => GlobalInfo::scalar(name, self.temp_kind_of(ty)),
            };
            self.program.add_global(info);
        }

        // Procedures: FuncId(i) == source procedure i.
        for (i, p) in self.module.procs.iter().enumerate() {
            let f = self.lower_proc(i, p);
            self.program.add_func(f);
        }

        // Main: global initializers then the module body.
        let main = self.lower_main();
        let main_id = self.program.add_func(main);
        self.program.main = main_id;
        self.program
    }

    fn param_kinds(&self, proc_idx: usize) -> Vec<TempKind> {
        self.checked.proc_sigs[proc_idx]
            .params
            .iter()
            .map(|(by_ref, t)| if *by_ref { TempKind::Int } else { self.temp_kind_of(*t) })
            .collect()
    }

    fn lower_proc(&mut self, idx: usize, p: &ast::ProcDecl) -> m3gc_ir::Function {
        let params = self.param_kinds(idx);
        let ret = self.checked.proc_sigs[idx].ret.map(|t| self.temp_kind_of(t));
        let b = FuncBuilder::with_ret(&p.name, &params, ret);
        let byref: Vec<usize> = self.checked.proc_sigs[idx]
            .params
            .iter()
            .enumerate()
            .filter(|(_, (by_ref, _))| *by_ref)
            .map(|(i, _)| i)
            .collect();
        let vars = &self.checked.proc_vars[idx];
        let mut ctx = ProcCtx {
            b,
            vars,
            storage: vec![None; vars.len()],
            loop_exits: Vec::new(),
            binding_cursor: 0,
        };
        // Parameters and locals.
        for (vid, v) in vars.iter().enumerate() {
            let vid = vid as u32;
            match v.class {
                VarClass::Param { index, by_ref } => {
                    let pt = Temp(index);
                    if by_ref {
                        ctx.storage[vid as usize] = Some(Storage::RefParam(pt));
                    } else if v.addressed {
                        // Copy the incoming value into an addressable slot.
                        let kind = self.temp_kind_of(v.ty);
                        let slot = ctx.b.slot(SlotInfo::scalar(v.name, kind, true));
                        ctx.b.store_slot(slot, 0, pt);
                        ctx.storage[vid as usize] = Some(Storage::Slot(slot));
                    } else {
                        ctx.storage[vid as usize] = Some(Storage::Temp(pt));
                    }
                }
                VarClass::Local => {
                    let st = self.local_storage(&mut ctx, v);
                    ctx.storage[vid as usize] = Some(st);
                }
                // FOR and WITH variables get storage at their statement.
                VarClass::For | VarClass::With => {}
            }
        }
        // Local initializers.
        for l in &p.locals {
            if let Some(init) = &l.init {
                for name in &l.names {
                    let vid = vars
                        .iter()
                        .position(|v| v.name == name && v.class == VarClass::Local)
                        .expect("checker bound the local") as u32;
                    let val = self.eval_expr(&mut ctx, init);
                    let lv = self.storage_lvalue(&mut ctx, vid);
                    self.store_lvalue(&mut ctx, &lv, val);
                }
            }
        }
        self.lower_stmts(&mut ctx, &p.body);
        if !ctx.b.is_terminated() {
            // Falling off the end of a function returns 0/NIL.
            match ret {
                Some(kind) => {
                    let z = ctx.b.temp(kind);
                    ctx.b.push(Instr::Const { dst: z, value: 0 });
                    ctx.b.ret(Some(z));
                }
                None => ctx.b.ret(None),
            }
        }
        let mut func = ctx.b.finish();
        for i in byref {
            func.set_byref_param(i);
        }
        func
    }

    fn lower_main(&mut self) -> m3gc_ir::Function {
        let b = FuncBuilder::new("main", &[]);
        let vars: &[VarInfo] = &self.checked.main_vars;
        let mut ctx = ProcCtx {
            b,
            vars,
            storage: vec![None; vars.len()],
            loop_exits: Vec::new(),
            binding_cursor: 0,
        };
        // Global initializers.
        let mut gi = 0u32;
        for v in &self.module.vars {
            for _name in &v.names {
                if let Some(init) = &v.init {
                    let val = self.eval_expr(&mut ctx, init);
                    ctx.b.store_global(GlobalId(gi), val);
                }
                gi += 1;
            }
        }
        self.lower_stmts(&mut ctx, &self.module.body);
        if !ctx.b.is_terminated() {
            ctx.b.ret(None);
        }
        ctx.b.finish()
    }

    fn local_storage(&mut self, ctx: &mut ProcCtx<'_>, v: &VarInfo) -> Storage {
        match *self.arena().get(v.ty) {
            Type::Array { lo, hi, elem } => {
                let len = array_len(lo, hi);
                let ptr_words = if self.temp_kind_of(elem) == TempKind::Ptr {
                    (0..len).collect()
                } else {
                    vec![]
                };
                let slot = ctx.b.slot(SlotInfo {
                    name: v.name.to_owned(),
                    words: len,
                    ptr_words,
                    addressable: true,
                });
                Storage::ArraySlot { slot, lo, len }
            }
            _ => {
                let kind = self.temp_kind_of(v.ty);
                if v.addressed {
                    let slot = ctx.b.slot(SlotInfo::scalar(v.name, kind, true));
                    Storage::Slot(slot)
                } else {
                    // NIL/zero initialize so pointer temps are always tidy.
                    let t = ctx.b.temp(kind);
                    ctx.b.push(Instr::Const { dst: t, value: 0 });
                    Storage::Temp(t)
                }
            }
        }
    }

    // ---- lvalues ----

    fn storage_lvalue(&mut self, ctx: &mut ProcCtx<'_>, vid: u32) -> LValue {
        match ctx.storage[vid as usize].expect("storage assigned") {
            Storage::Temp(t) => LValue::TempVar(t),
            Storage::Slot(s) => LValue::Slot(s, 0),
            Storage::RefParam(addr) => LValue::Mem { addr, offset: 0 },
            Storage::Alias(lv) => lv,
            Storage::Value(t) => LValue::TempVar(t),
            Storage::ArraySlot { .. } => panic!("array variable used as a scalar"),
        }
    }

    fn expr_type(&self, e: &Expr) -> TypeRef {
        self.checked.expr_types[e.id as usize]
    }

    /// The lvalue a designator denotes.
    fn eval_designator(&mut self, ctx: &mut ProcCtx<'_>, e: &Expr) -> LValue {
        match &e.kind {
            ExprKind::Name(_) => match self.name_res(e) {
                NameRes::Var(vid) => self.storage_lvalue(ctx, vid),
                NameRes::Global(g) => LValue::Global(GlobalId(g)),
                NameRes::Const(_) => panic!("constant used as designator"),
            },
            ExprKind::Field(base, fname) => {
                let (ptr, rec_ty) = self.record_pointer(ctx, base);
                let Type::Record { fields } = self.arena().get(rec_ty) else {
                    panic!("field access on non-record");
                };
                let fi = fields.iter().position(|(n, _)| n == fname).expect("checked field");
                LValue::Mem { addr: ptr, offset: (RECORD_HEADER_WORDS as usize + fi) as i32 }
            }
            ExprKind::Index(base, idx) => self.index_lvalue(ctx, base, idx),
            ExprKind::Deref(base) => {
                // Deref of a REF-to-scalar (one-word record).
                let ptr = self.eval_expr(ctx, base);
                LValue::Mem { addr: ptr, offset: RECORD_HEADER_WORDS as i32 }
            }
            _ => panic!("not a designator: {:?}", e.kind),
        }
    }

    /// Evaluates `base` to a tidy record pointer, handling the implicit and
    /// explicit dereference forms.
    fn record_pointer(&mut self, ctx: &mut ProcCtx<'_>, base: &Expr) -> (Temp, TypeRef) {
        let bt = self.expr_type(base);
        match self.arena().get(bt) {
            Type::Ref(inner) => {
                let inner = *inner;
                (self.eval_expr(ctx, base), inner)
            }
            Type::Record { .. } => match &base.kind {
                ExprKind::Deref(inner) => {
                    let ptr = self.eval_expr(ctx, inner);
                    (ptr, bt)
                }
                other => panic!("record designator {other:?} not behind a REF"),
            },
            other => panic!("field base has type {other:?}"),
        }
    }

    /// Locates the array a designator denotes.
    fn array_loc(&mut self, ctx: &mut ProcCtx<'_>, base: &Expr) -> ArrLoc {
        let bt = self.expr_type(base);
        match *self.arena().get(bt) {
            Type::Ref(inner) => {
                let ptr = self.eval_expr(ctx, base);
                let bounds = match self.arena().get(inner) {
                    Type::Array { lo, hi, .. } => Some((*lo, *hi)),
                    Type::OpenArray { .. } => None,
                    other => panic!("indexing REF of {other:?}"),
                };
                ArrLoc::Heap { ptr, bounds }
            }
            Type::Array { lo, hi, .. } => {
                // A direct fixed array: local slot, global, or deref.
                match &base.kind {
                    ExprKind::Name(_) => match self.name_res(base) {
                        NameRes::Var(vid) => {
                            match ctx.storage[vid as usize].expect("storage") {
                                Storage::ArraySlot { slot, lo, len } => {
                                    ArrLoc::Frame { slot, lo, len }
                                }
                                Storage::Alias(LValue::Mem { addr, offset }) => {
                                    // WITH alias of an array designator: the
                                    // alias holds the base address.
                                    debug_assert_eq!(offset, 0);
                                    ArrLoc::Heap { ptr: addr, bounds: Some((lo, hi)) }
                                }
                                other => panic!("array variable with storage {other:?}"),
                            }
                        }
                        NameRes::Global(g) => {
                            ArrLoc::GlobalArr { id: GlobalId(g), lo, len: array_len(lo, hi) }
                        }
                        NameRes::Const(_) => panic!("constant as array"),
                    },
                    ExprKind::Deref(inner) => {
                        let ptr = self.eval_expr(ctx, inner);
                        ArrLoc::Heap { ptr, bounds: Some((lo, hi)) }
                    }
                    other => panic!("fixed-array designator {other:?}"),
                }
            }
            Type::OpenArray { .. } => match &base.kind {
                ExprKind::Deref(inner) => {
                    let ptr = self.eval_expr(ctx, inner);
                    ArrLoc::Heap { ptr, bounds: None }
                }
                other => panic!("open-array designator {other:?}"),
            },
            ref other => panic!("indexing a {other:?}"),
        }
    }

    /// Emits `if !ok { RangeError }`.
    fn emit_range_check(&mut self, ctx: &mut ProcCtx<'_>, ok: Temp) {
        let err = ctx.b.block();
        let cont = ctx.b.block();
        ctx.b.br(ok, cont, err);
        ctx.b.switch_to(err);
        ctx.b.call_runtime(RuntimeFn::RangeError, vec![]);
        ctx.b.jump(cont);
        ctx.b.switch_to(cont);
    }

    /// Bounds-check `idx ∈ [lo, hi]` using constants.
    fn check_const_bounds(&mut self, ctx: &mut ProcCtx<'_>, idx: Temp, lo: i64, hi: i64) {
        if !self.options.bounds_checks {
            return;
        }
        let lo_t = ctx.b.constant(lo);
        let hi_t = ctx.b.constant(hi);
        let ge = ctx.b.bin(IrBin::Ge, idx, lo_t);
        let le = ctx.b.bin(IrBin::Le, idx, hi_t);
        let ok = ctx.b.bin(IrBin::And, ge, le);
        self.emit_range_check(ctx, ok);
    }

    fn index_lvalue(&mut self, ctx: &mut ProcCtx<'_>, base: &Expr, idx: &Expr) -> LValue {
        let loc = self.array_loc(ctx, base);
        let i = self.eval_expr(ctx, idx);
        match loc {
            ArrLoc::Heap { ptr, bounds: Some((lo, hi)) } => {
                self.check_const_bounds(ctx, i, lo, hi);
                // addr := ptr + (i + (HDR - lo)); the addition creates a
                // derived value based on `ptr`.
                let adj = ctx.b.constant(ARRAY_HEADER_WORDS as i64 - lo);
                let k = ctx.b.bin(IrBin::Add, i, adj);
                let addr = ctx.b.bin(IrBin::Add, ptr, k);
                LValue::Mem { addr, offset: 0 }
            }
            ArrLoc::Heap { ptr, bounds: None } => {
                if self.options.bounds_checks {
                    let len = ctx.b.load(ptr, 1, TempKind::Int);
                    let zero = ctx.b.constant(0);
                    let ge = ctx.b.bin(IrBin::Ge, i, zero);
                    let lt = ctx.b.bin(IrBin::Lt, i, len);
                    let ok = ctx.b.bin(IrBin::And, ge, lt);
                    self.emit_range_check(ctx, ok);
                }
                let adj = ctx.b.constant(ARRAY_HEADER_WORDS as i64);
                let k = ctx.b.bin(IrBin::Add, i, adj);
                let addr = ctx.b.bin(IrBin::Add, ptr, k);
                LValue::Mem { addr, offset: 0 }
            }
            ArrLoc::Frame { slot, lo, len } => {
                self.check_const_bounds(ctx, i, lo, lo + i64::from(len) - 1);
                if let ExprKind::Int(c) = idx.kind {
                    // Constant index: address the slot word directly.
                    return LValue::Slot(slot, (c - lo) as u32);
                }
                let base_addr = ctx.b.slot_addr(slot);
                let lo_t = ctx.b.constant(lo);
                let rel = ctx.b.bin(IrBin::Sub, i, lo_t);
                let addr = ctx.b.bin(IrBin::Add, base_addr, rel);
                LValue::Mem { addr, offset: 0 }
            }
            ArrLoc::GlobalArr { id, lo, len } => {
                self.check_const_bounds(ctx, i, lo, lo + i64::from(len) - 1);
                let base_addr = ctx.b.temp(TempKind::Int);
                ctx.b.push(Instr::GlobalAddr { dst: base_addr, global: id });
                let lo_t = ctx.b.constant(lo);
                let rel = ctx.b.bin(IrBin::Sub, i, lo_t);
                let addr = ctx.b.bin(IrBin::Add, base_addr, rel);
                LValue::Mem { addr, offset: 0 }
            }
        }
    }

    fn load_lvalue(&mut self, ctx: &mut ProcCtx<'_>, lv: &LValue, kind: TempKind) -> Temp {
        match lv {
            LValue::TempVar(t) => *t,
            LValue::Slot(s, off) => ctx.b.load_slot(*s, *off, kind),
            LValue::Global(g) => ctx.b.load_global(*g, kind),
            LValue::Mem { addr, offset } => ctx.b.load(*addr, *offset, kind),
        }
    }

    fn store_lvalue(&mut self, ctx: &mut ProcCtx<'_>, lv: &LValue, src: Temp) {
        match lv {
            LValue::TempVar(t) => ctx.b.push(Instr::Copy { dst: *t, src }),
            LValue::Slot(s, off) => ctx.b.store_slot(*s, *off, src),
            LValue::Global(g) => ctx.b.store_global(*g, src),
            LValue::Mem { addr, offset } => ctx.b.store(*addr, *offset, src),
        }
    }

    /// The address of a designator, for VAR argument passing. Returns a
    /// temp holding the address (derived when it points into the heap).
    fn designator_address(&mut self, ctx: &mut ProcCtx<'_>, e: &Expr) -> Temp {
        let lv = self.eval_designator(ctx, e);
        match lv {
            LValue::TempVar(_) => {
                panic!("VAR argument of a non-addressable variable (lowering bug)")
            }
            LValue::Slot(s, off) => {
                let base = ctx.b.slot_addr(s);
                if off == 0 {
                    base
                } else {
                    let o = ctx.b.constant(i64::from(off));
                    ctx.b.bin(IrBin::Add, base, o)
                }
            }
            LValue::Global(g) => {
                let t = ctx.b.temp(TempKind::Int);
                ctx.b.push(Instr::GlobalAddr { dst: t, global: g });
                t
            }
            LValue::Mem { addr, offset } => {
                if offset == 0 {
                    addr
                } else {
                    let o = ctx.b.constant(i64::from(offset));
                    ctx.b.bin(IrBin::Add, addr, o)
                }
            }
        }
    }

    // ---- expressions ----

    fn eval_expr(&mut self, ctx: &mut ProcCtx<'_>, e: &Expr) -> Temp {
        let ty = self.expr_type(e);
        let kind = self.temp_kind_of(ty);
        match &e.kind {
            ExprKind::Int(v) => {
                let t = ctx.b.temp(TempKind::Int);
                ctx.b.push(Instr::Const { dst: t, value: *v });
                t
            }
            ExprKind::CharLit(v) => {
                let t = ctx.b.temp(TempKind::Int);
                ctx.b.push(Instr::Const { dst: t, value: *v });
                t
            }
            ExprKind::Bool(v) => {
                let t = ctx.b.temp(TempKind::Int);
                ctx.b.push(Instr::Const { dst: t, value: i64::from(*v) });
                t
            }
            ExprKind::Nil => ctx.b.nil(),
            ExprKind::Text(s) => self.lower_text(ctx, s),
            ExprKind::Name(_) => match self.name_res(e) {
                NameRes::Const(v) => {
                    let t = ctx.b.temp(TempKind::Int);
                    ctx.b.push(Instr::Const { dst: t, value: v });
                    t
                }
                NameRes::Var(vid) => {
                    let lv = self.storage_lvalue(ctx, vid);
                    self.load_lvalue(ctx, &lv, kind)
                }
                NameRes::Global(g) => ctx.b.load_global(GlobalId(g), kind),
            },
            ExprKind::Field(..) | ExprKind::Index(..) | ExprKind::Deref(..) => {
                let lv = self.eval_designator(ctx, e);
                self.load_lvalue(ctx, &lv, kind)
            }
            ExprKind::Un(UnOp::Neg, x) => {
                let t = self.eval_expr(ctx, x);
                ctx.b.un(IrUn::Neg, t)
            }
            ExprKind::Un(UnOp::Not, x) => {
                let t = self.eval_expr(ctx, x);
                ctx.b.un(IrUn::Not, t)
            }
            ExprKind::Bin(BinOp::And, a, bx) => self.lower_short_circuit(ctx, a, bx, true),
            ExprKind::Bin(BinOp::Or, a, bx) => self.lower_short_circuit(ctx, a, bx, false),
            ExprKind::Bin(op, a, bx) => {
                let ta = self.eval_expr(ctx, a);
                let tb = self.eval_expr(ctx, bx);
                let ir_op = match op {
                    BinOp::Add => IrBin::Add,
                    BinOp::Sub => IrBin::Sub,
                    BinOp::Mul => IrBin::Mul,
                    BinOp::Div => IrBin::Div,
                    BinOp::Mod => IrBin::Mod,
                    BinOp::Eq => IrBin::Eq,
                    BinOp::Ne => IrBin::Ne,
                    BinOp::Lt => IrBin::Lt,
                    BinOp::Le => IrBin::Le,
                    BinOp::Gt => IrBin::Gt,
                    BinOp::Ge => IrBin::Ge,
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                };
                ctx.b.bin(ir_op, ta, tb)
            }
            ExprKind::New { len, .. } => {
                let referent = self.checked.new_types[e.id as usize].expect("checker typed NEW");
                let ty_id = self.heap_type_id(referent);
                match *self.arena().get(referent) {
                    Type::Array { lo, hi, .. } => {
                        let l = ctx.b.constant(i64::from(array_len(lo, hi)));
                        ctx.b.new_object(ty_id, Some(l))
                    }
                    Type::OpenArray { .. } => {
                        let l = self.eval_expr(ctx, len.as_ref().expect("checked"));
                        ctx.b.new_object(ty_id, Some(l))
                    }
                    _ => ctx.b.new_object(ty_id, None),
                }
            }
            ExprKind::Call { name, args } => self
                .lower_call(ctx, e, name, args)
                .expect("checker rejects value-less calls in expressions"),
        }
    }

    fn lower_short_circuit(
        &mut self,
        ctx: &mut ProcCtx<'_>,
        a: &Expr,
        b: &Expr,
        is_and: bool,
    ) -> Temp {
        let result = ctx.b.temp(TempKind::Int);
        let ta = self.eval_expr(ctx, a);
        ctx.b.push(Instr::Copy { dst: result, src: ta });
        let eval_b = ctx.b.block();
        let done = ctx.b.block();
        if is_and {
            ctx.b.br(ta, eval_b, done);
        } else {
            ctx.b.br(ta, done, eval_b);
        }
        ctx.b.switch_to(eval_b);
        let tb = self.eval_expr(ctx, b);
        ctx.b.push(Instr::Copy { dst: result, src: tb });
        ctx.b.jump(done);
        ctx.b.switch_to(done);
        result
    }

    fn lower_text(&mut self, ctx: &mut ProcCtx<'_>, s: &str) -> Temp {
        let ty_id = match self.char_array_ty {
            Some(t) => t,
            None => {
                let t = self.program.types.add(HeapType::Array {
                    name: "ARRAY OF CHAR".into(),
                    elem_words: 1,
                    elem_ptr_offsets: vec![],
                });
                self.char_array_ty = Some(t);
                t
            }
        };
        let len = ctx.b.constant(s.chars().count() as i64);
        let arr = ctx.b.new_object(ty_id, Some(len));
        for (i, c) in s.chars().enumerate() {
            let cv = ctx.b.constant(c as i64);
            ctx.b.store(arr, (ARRAY_HEADER_WORDS as usize + i) as i32, cv);
        }
        arr
    }

    /// Lowers a call; returns the result temp for value-returning calls.
    fn lower_call(
        &mut self,
        ctx: &mut ProcCtx<'_>,
        e: &Expr,
        _name: &str,
        args: &[Expr],
    ) -> Option<Temp> {
        match self.checked.call_res[e.id as usize].expect("checker resolved the call") {
            CallRes::Proc(pi) => {
                let sig = &self.checked.proc_sigs[pi as usize];
                let mut arg_temps = Vec::with_capacity(args.len());
                for (arg, (by_ref, _)) in args.iter().zip(&sig.params) {
                    if *by_ref {
                        arg_temps.push(self.designator_address(ctx, arg));
                    } else {
                        arg_temps.push(self.eval_expr(ctx, arg));
                    }
                }
                let ret_kind = sig.ret.map(|t| self.temp_kind_of(t));
                ctx.b.call(FuncId(pi), arg_temps, ret_kind)
            }
            CallRes::Builtin(b) => self.lower_builtin(ctx, b, args),
        }
    }

    fn lower_builtin(&mut self, ctx: &mut ProcCtx<'_>, b: Builtin, args: &[Expr]) -> Option<Temp> {
        match b {
            Builtin::PutInt | Builtin::PutChar => {
                let t = self.eval_expr(ctx, &args[0]);
                let f =
                    if b == Builtin::PutInt { RuntimeFn::PrintInt } else { RuntimeFn::PrintChar };
                ctx.b.call_runtime(f, vec![t]);
                None
            }
            Builtin::PutLn => {
                ctx.b.call_runtime(RuntimeFn::PrintLn, vec![]);
                None
            }
            Builtin::Ord | Builtin::Val => {
                // CHAR and BOOLEAN share the integer representation.
                Some(self.eval_expr(ctx, &args[0]))
            }
            Builtin::Abs => {
                let t = self.eval_expr(ctx, &args[0]);
                let result = ctx.b.temp(TempKind::Int);
                ctx.b.push(Instr::Copy { dst: result, src: t });
                let zero = ctx.b.constant(0);
                let neg = ctx.b.bin(IrBin::Lt, t, zero);
                let flip = ctx.b.block();
                let done = ctx.b.block();
                ctx.b.br(neg, flip, done);
                ctx.b.switch_to(flip);
                let n = ctx.b.un(IrUn::Neg, t);
                ctx.b.push(Instr::Copy { dst: result, src: n });
                ctx.b.jump(done);
                ctx.b.switch_to(done);
                Some(result)
            }
            Builtin::Min | Builtin::Max => {
                let x = self.eval_expr(ctx, &args[0]);
                let y = self.eval_expr(ctx, &args[1]);
                let result = ctx.b.temp(TempKind::Int);
                ctx.b.push(Instr::Copy { dst: result, src: x });
                let cmp = if b == Builtin::Min {
                    ctx.b.bin(IrBin::Lt, y, x)
                } else {
                    ctx.b.bin(IrBin::Gt, y, x)
                };
                let take_y = ctx.b.block();
                let done = ctx.b.block();
                ctx.b.br(cmp, take_y, done);
                ctx.b.switch_to(take_y);
                ctx.b.push(Instr::Copy { dst: result, src: y });
                ctx.b.jump(done);
                ctx.b.switch_to(done);
                Some(result)
            }
            Builtin::First | Builtin::Last | Builtin::Number => {
                let arg = &args[0];
                let t = self.expr_type(arg);
                let arr_ty = match self.arena().get(t) {
                    Type::Ref(inner) => *inner,
                    _ => t,
                };
                match *self.arena().get(arr_ty) {
                    Type::Array { lo, hi, .. } => {
                        let v = match b {
                            Builtin::First => lo,
                            Builtin::Last => hi,
                            _ => i64::from(array_len(lo, hi)),
                        };
                        Some(ctx.b.constant(v))
                    }
                    Type::OpenArray { .. } => {
                        let ptr = self.eval_expr(ctx, arg);
                        let len = ctx.b.load(ptr, 1, TempKind::Int);
                        match b {
                            Builtin::First => Some(ctx.b.constant(0)),
                            Builtin::Number => Some(len),
                            _ => {
                                let one = ctx.b.constant(1);
                                Some(ctx.b.bin(IrBin::Sub, len, one))
                            }
                        }
                    }
                    ref other => panic!("FIRST/LAST/NUMBER of {other:?}"),
                }
            }
            Builtin::Inc | Builtin::Dec => {
                let lv = self.eval_designator(ctx, &args[0]);
                let cur = self.load_lvalue(ctx, &lv, TempKind::Int);
                let step =
                    if args.len() == 2 { self.eval_expr(ctx, &args[1]) } else { ctx.b.constant(1) };
                let next = if b == Builtin::Inc {
                    ctx.b.bin(IrBin::Add, cur, step)
                } else {
                    ctx.b.bin(IrBin::Sub, cur, step)
                };
                self.store_lvalue(ctx, &lv, next);
                None
            }
            Builtin::Assert => {
                let c = self.eval_expr(ctx, &args[0]);
                let fail = ctx.b.block();
                let cont = ctx.b.block();
                ctx.b.br(c, cont, fail);
                ctx.b.switch_to(fail);
                ctx.b.call_runtime(RuntimeFn::AssertError, vec![]);
                ctx.b.jump(cont);
                ctx.b.switch_to(cont);
                None
            }
        }
    }

    // ---- statements ----

    fn lower_stmts(&mut self, ctx: &mut ProcCtx<'_>, stmts: &[Stmt]) {
        for s in stmts {
            if ctx.b.is_terminated() {
                // Unreachable code after RETURN/EXIT: lower it into a dead
                // block anyway so FOR/WITH binding order stays in sync with
                // the checker; it is removed as unreachable later.
                let dead = ctx.b.block();
                ctx.b.switch_to(dead);
            }
            self.lower_stmt(ctx, s);
        }
    }

    fn lower_stmt(&mut self, ctx: &mut ProcCtx<'_>, s: &Stmt) {
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                let lv = self.eval_designator(ctx, lhs);
                let v = self.eval_expr(ctx, rhs);
                self.store_lvalue(ctx, &lv, v);
            }
            StmtKind::Call(e) => {
                let ExprKind::Call { name, args } = &e.kind else { unreachable!("parser") };
                let _ = self.lower_call(ctx, e, name, args);
            }
            StmtKind::If { arms, else_body } => {
                let done = ctx.b.block();
                for (cond, body) in arms {
                    let c = self.eval_expr(ctx, cond);
                    let then_b = ctx.b.block();
                    let next = ctx.b.block();
                    ctx.b.br(c, then_b, next);
                    ctx.b.switch_to(then_b);
                    self.lower_stmts(ctx, body);
                    if !ctx.b.is_terminated() {
                        ctx.b.jump(done);
                    }
                    ctx.b.switch_to(next);
                }
                self.lower_stmts(ctx, else_body);
                if !ctx.b.is_terminated() {
                    ctx.b.jump(done);
                }
                ctx.b.switch_to(done);
            }
            StmtKind::While { cond, body } => {
                let header = ctx.b.block();
                let body_b = ctx.b.block();
                let exit = ctx.b.block();
                ctx.b.jump(header);
                ctx.b.switch_to(header);
                let c = self.eval_expr(ctx, cond);
                ctx.b.br(c, body_b, exit);
                ctx.b.switch_to(body_b);
                ctx.loop_exits.push(exit);
                self.lower_stmts(ctx, body);
                ctx.loop_exits.pop();
                if !ctx.b.is_terminated() {
                    ctx.b.jump(header);
                }
                ctx.b.switch_to(exit);
            }
            StmtKind::Repeat { body, cond } => {
                let body_b = ctx.b.block();
                let exit = ctx.b.block();
                ctx.b.jump(body_b);
                ctx.b.switch_to(body_b);
                ctx.loop_exits.push(exit);
                self.lower_stmts(ctx, body);
                ctx.loop_exits.pop();
                if !ctx.b.is_terminated() {
                    let c = self.eval_expr(ctx, cond);
                    ctx.b.br(c, exit, body_b);
                }
                ctx.b.switch_to(exit);
            }
            StmtKind::Loop { body } => {
                let body_b = ctx.b.block();
                let exit = ctx.b.block();
                ctx.b.jump(body_b);
                ctx.b.switch_to(body_b);
                ctx.loop_exits.push(exit);
                self.lower_stmts(ctx, body);
                ctx.loop_exits.pop();
                if !ctx.b.is_terminated() {
                    ctx.b.jump(body_b);
                }
                ctx.b.switch_to(exit);
            }
            StmtKind::For { var, from, to, by, body } => {
                // Find the FOR variable's id: the checker bound it for this
                // statement; match by name and class among unassigned vars.
                let vid = ctx.take_binding(var, VarClass::For);
                let step = by.as_ref().map_or(1, const_step);
                let iv = ctx.b.temp(TempKind::Int);
                ctx.storage[vid as usize] = Some(Storage::Temp(iv));
                let f = self.eval_expr(ctx, from);
                ctx.b.push(Instr::Copy { dst: iv, src: f });
                let limit = self.eval_expr(ctx, to);
                let header = ctx.b.block();
                let body_b = ctx.b.block();
                let exit = ctx.b.block();
                ctx.b.jump(header);
                ctx.b.switch_to(header);
                let c = if step > 0 {
                    ctx.b.bin(IrBin::Le, iv, limit)
                } else {
                    ctx.b.bin(IrBin::Ge, iv, limit)
                };
                ctx.b.br(c, body_b, exit);
                ctx.b.switch_to(body_b);
                ctx.loop_exits.push(exit);
                self.lower_stmts(ctx, body);
                ctx.loop_exits.pop();
                if !ctx.b.is_terminated() {
                    let st = ctx.b.constant(step);
                    let next = ctx.b.bin(IrBin::Add, iv, st);
                    ctx.b.push(Instr::Copy { dst: iv, src: next });
                    ctx.b.jump(header);
                }
                ctx.b.switch_to(exit);
            }
            StmtKind::Exit => {
                let exit = *ctx.loop_exits.last().expect("checker verified EXIT inside a loop");
                ctx.b.jump(exit);
            }
            StmtKind::Return(v) => {
                let t = v.as_ref().map(|e| self.eval_expr(ctx, e));
                ctx.b.ret(t);
            }
            StmtKind::With { bindings, body } => {
                for (name, d) in bindings {
                    let vid = ctx.take_binding(name, VarClass::With);
                    let storage = if is_designator(d) {
                        Storage::Alias(self.eval_designator(ctx, d))
                    } else {
                        Storage::Value(self.eval_expr(ctx, d))
                    };
                    ctx.storage[vid as usize] = Some(storage);
                }
                self.lower_stmts(ctx, body);
            }
        }
    }
}

/// Elements of `ARRAY [lo..hi]`; the checker admits only counts that fit.
fn array_len(lo: i64, hi: i64) -> u32 {
    u32::try_from(hi - lo + 1).expect("checker bounds array lengths")
}

fn is_designator(e: &Expr) -> bool {
    matches!(
        e.kind,
        ExprKind::Name(_) | ExprKind::Field(..) | ExprKind::Index(..) | ExprKind::Deref(..)
    )
}

fn const_step(e: &Expr) -> i64 {
    match &e.kind {
        ExprKind::Int(v) => *v,
        ExprKind::Un(UnOp::Neg, inner) => match &inner.kind {
            ExprKind::Int(v) => -v,
            _ => 1,
        },
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Program {
        crate::compile_to_ir(src).unwrap_or_else(|e| panic!("{e}"))
    }

    fn run(src: &str) -> String {
        let p = compile(src);
        m3gc_ir::verify::verify_program(&p).unwrap_or_else(|e| panic!("{e}"));
        m3gc_ir::interp::run_program(&p).unwrap_or_else(|e| panic!("{e}")).output
    }

    #[test]
    fn hello_sum() {
        assert_eq!(run("MODULE M; VAR x: INTEGER; BEGIN x := 40 + 2; PutInt(x); END M."), "42");
    }

    #[test]
    fn for_loop_sums() {
        let out = run("MODULE M; VAR s, i: INTEGER;
             BEGIN s := 0; FOR i := 1 TO 10 DO s := s + i; END; PutInt(s); END M.");
        assert_eq!(out, "55");
    }

    #[test]
    fn for_downto() {
        let out = run("MODULE M; VAR i: INTEGER;
             BEGIN FOR i := 3 TO 1 BY -1 DO PutInt(i); END; END M.");
        assert_eq!(out, "321");
    }

    #[test]
    fn heap_records_and_lists() {
        let out = run("MODULE M;
             TYPE List = REF RECORD head: INTEGER; tail: List END;
             VAR l, p: List; s: INTEGER;
             BEGIN
               l := NIL;
               FOR s := 1 TO 3 DO
                 p := NEW(List); p.head := s; p.tail := l; l := p;
               END;
               s := 0;
               WHILE l # NIL DO s := s * 10 + l.head; l := l.tail; END;
               PutInt(s);
             END M.");
        assert_eq!(out, "321");
    }

    #[test]
    fn heap_fixed_arrays_with_lower_bound() {
        let out = run("MODULE M;
             TYPE A = REF ARRAY [7..13] OF INTEGER;
             VAR a: A; i, s: INTEGER;
             BEGIN
               a := NEW(A);
               FOR i := 7 TO 13 DO a[i] := i; END;
               s := 0;
               FOR i := FIRST(a) TO LAST(a) DO s := s + a[i]; END;
               PutInt(s);
             END M.");
        assert_eq!(out, "70");
    }

    #[test]
    fn open_arrays() {
        let out = run("MODULE M;
             TYPE V = REF ARRAY OF INTEGER;
             VAR v: V; i, s: INTEGER;
             BEGIN
               v := NEW(V, 5);
               FOR i := 0 TO NUMBER(v) - 1 DO v[i] := i * i; END;
               s := 0;
               FOR i := 0 TO LAST(v) DO s := s + v[i]; END;
               PutInt(s);
             END M.");
        assert_eq!(out, "30");
    }

    #[test]
    fn local_arrays_in_frame() {
        let out = run("MODULE M;
             PROCEDURE F(): INTEGER =
             VAR a: ARRAY [1..4] OF INTEGER; i, s: INTEGER;
             BEGIN
               FOR i := 1 TO 4 DO a[i] := 10 * i; END;
               s := 0;
               FOR i := 1 TO 4 DO s := s + a[i]; END;
               RETURN s;
             END F;
             BEGIN PutInt(F()); END M.");
        assert_eq!(out, "100");
    }

    #[test]
    fn var_params_on_locals_and_heap() {
        let out = run("MODULE M;
             TYPE R = REF RECORD x: INTEGER END;
             PROCEDURE Bump(VAR v: INTEGER) = BEGIN v := v + 1; END Bump;
             VAR r: R; n: INTEGER;
             BEGIN
               n := 5; Bump(n); PutInt(n);
               r := NEW(R); r.x := 10; Bump(r.x); PutInt(r.x);
             END M.");
        assert_eq!(out, "611");
    }

    #[test]
    fn with_aliases() {
        let out = run("MODULE M;
             TYPE A = REF ARRAY [1..3] OF INTEGER;
             VAR a: A; i: INTEGER;
             BEGIN
               a := NEW(A);
               FOR i := 1 TO 3 DO
                 WITH h = a[i] DO h := i * 7; END;
               END;
               PutInt(a[1] + a[2] + a[3]);
             END M.");
        assert_eq!(out, "42");
    }

    #[test]
    fn short_circuit_evaluation() {
        // The second conjunct would trap on NIL if evaluated.
        let out = run("MODULE M;
             TYPE R = REF RECORD x: INTEGER END;
             VAR r: R;
             BEGIN
               r := NIL;
               IF (r # NIL) AND (r.x > 0) THEN PutInt(1); ELSE PutInt(0); END;
             END M.");
        assert_eq!(out, "0");
    }

    #[test]
    fn range_error_on_bad_subscript() {
        let p = compile(
            "MODULE M;
             TYPE A = REF ARRAY [1..3] OF INTEGER;
             VAR a: A; i: INTEGER;
             BEGIN a := NEW(A); i := 9; a[i] := 1; END M.",
        );
        let r = m3gc_ir::interp::run_program(&p);
        assert_eq!(r, Err(m3gc_ir::interp::Trap::RangeError));
    }

    #[test]
    fn assertion_failure_traps() {
        let p = compile("MODULE M; BEGIN ASSERT(FALSE); END M.");
        assert_eq!(m3gc_ir::interp::run_program(&p), Err(m3gc_ir::interp::Trap::AssertError));
    }

    #[test]
    fn text_literals_allocate_char_arrays() {
        let out = run("MODULE M;
             TYPE S = REF ARRAY OF CHAR;
             VAR s: S; i: INTEGER;
             BEGIN
               s := \"hi!\";
               FOR i := 0 TO LAST(s) DO PutChar(ORD(s[i])); END;
             END M.");
        assert_eq!(out, "hi!");
    }

    #[test]
    fn exit_leaves_loop() {
        let out = run("MODULE M; VAR i: INTEGER;
             BEGIN
               i := 0;
               LOOP
                 i := i + 1;
                 IF i = 4 THEN EXIT; END;
               END;
               PutInt(i);
             END M.");
        assert_eq!(out, "4");
    }

    #[test]
    fn repeat_until() {
        let out = run("MODULE M; VAR i: INTEGER;
             BEGIN i := 0; REPEAT i := i + 2; UNTIL i >= 5; PutInt(i); END M.");
        assert_eq!(out, "6");
    }

    #[test]
    fn global_initializers_run_first() {
        let out = run("MODULE M; VAR x: INTEGER := 9; BEGIN PutInt(x); END M.");
        assert_eq!(out, "9");
    }

    #[test]
    fn global_arrays() {
        let out = run("MODULE M;
             VAR g: ARRAY [2..4] OF INTEGER; i, s: INTEGER;
             BEGIN
               FOR i := 2 TO 4 DO g[i] := i; END;
               s := 0;
               FOR i := 2 TO 4 DO s := s + g[i]; END;
               PutInt(s);
             END M.");
        assert_eq!(out, "9");
    }

    #[test]
    fn recursion_fib() {
        let out = run("MODULE M;
             PROCEDURE Fib(n: INTEGER): INTEGER =
             BEGIN
               IF n < 2 THEN RETURN n; END;
               RETURN Fib(n - 1) + Fib(n - 2);
             END Fib;
             BEGIN PutInt(Fib(12)); END M.");
        assert_eq!(out, "144");
    }

    #[test]
    fn min_max_abs() {
        let out = run("MODULE M;
             BEGIN PutInt(MIN(3, 5)); PutInt(MAX(3, 5)); PutInt(ABS(-7)); END M.");
        assert_eq!(out, "357");
    }

    #[test]
    fn value_param_passed_by_var_elsewhere() {
        // A value parameter whose address is taken must be slot-allocated.
        let out = run("MODULE M;
             PROCEDURE Bump(VAR v: INTEGER) = BEGIN v := v + 1; END Bump;
             PROCEDURE F(x: INTEGER): INTEGER =
             BEGIN Bump(x); RETURN x; END F;
             BEGIN PutInt(F(41)); END M.");
        assert_eq!(out, "42");
    }

    #[test]
    fn var_argument_in_a_local_initializer_gets_a_slot() {
        let out = run("MODULE M;
             PROCEDURE Bump(VAR v: INTEGER): INTEGER = BEGIN v := v + 1; RETURN v; END Bump;
             PROCEDURE F(x: INTEGER): INTEGER =
             VAR y: INTEGER := Bump(x);
             BEGIN RETURN x + y; END F;
             BEGIN PutInt(F(1)); END M.");
        assert_eq!(out, "4");
    }

    #[test]
    fn every_function_verifies_with_derivations() {
        let mut p = compile(
            "MODULE M;
             TYPE A = REF ARRAY [1..8] OF INTEGER;
             VAR a: A; i: INTEGER;
             BEGIN
               a := NEW(A);
               FOR i := 1 TO 8 DO a[i] := i; END;
               PutInt(a[3]);
             END M.",
        );
        for f in &mut p.funcs {
            let deriv = m3gc_ir::deriv::analyze_and_resolve(f);
            m3gc_ir::verify::verify_function(f, None, Some(&deriv))
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}
