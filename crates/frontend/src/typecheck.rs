//! Type checker for Mini-M3.
//!
//! Produces a [`Checked`] side structure: the semantic type of every
//! expression, the resolution of every name and call, and per-procedure
//! variable tables — everything the lowering phase needs without re-doing
//! scope analysis.
//!
//! Names are borrowed from the module, never copied: the name tables and
//! the scope are keyed by `&str` slices of the AST, and the per-expression
//! results are dense vectors indexed by [`ExprId`].

use std::collections::HashMap;

use crate::ast::*;
use crate::error::{Diagnostic, Phase, Pos};
use crate::types::{Type, TypeArena, TypeRef};

/// Builtin procedures and functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `PutInt(i)` — print an integer.
    PutInt,
    /// `PutChar(c)` — print a character.
    PutChar,
    /// `PutLn()` — print a newline.
    PutLn,
    /// `ORD(c)` — character/boolean code.
    Ord,
    /// `VAL(i)` — integer to character.
    Val,
    /// `ABS(i)`.
    Abs,
    /// `MIN(a, b)`.
    Min,
    /// `MAX(a, b)`.
    Max,
    /// `FIRST(a)` — lower bound of an array.
    First,
    /// `LAST(a)` — upper bound of an array.
    Last,
    /// `NUMBER(a)` — element count of an array.
    Number,
    /// `INC(v[, n])` — statement.
    Inc,
    /// `DEC(v[, n])` — statement.
    Dec,
    /// `ASSERT(b)` — statement.
    Assert,
}

fn builtin_by_name(name: &str) -> Option<Builtin> {
    Some(match name {
        "PutInt" => Builtin::PutInt,
        "PutChar" => Builtin::PutChar,
        "PutLn" => Builtin::PutLn,
        "ORD" => Builtin::Ord,
        "VAL" => Builtin::Val,
        "ABS" => Builtin::Abs,
        "MIN" => Builtin::Min,
        "MAX" => Builtin::Max,
        "FIRST" => Builtin::First,
        "LAST" => Builtin::Last,
        "NUMBER" => Builtin::Number,
        "INC" => Builtin::Inc,
        "DEC" => Builtin::Dec,
        "ASSERT" => Builtin::Assert,
        _ => return None,
    })
}

/// What a name expression resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameRes {
    /// A variable in the enclosing procedure's [`VarInfo`] table.
    Var(u32),
    /// A module-level variable (index into [`Checked::globals`]).
    Global(u32),
    /// A compile-time constant.
    Const(i64),
}

/// What a call expression resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallRes {
    /// User procedure (index into the module's procedure list).
    Proc(u32),
    /// Builtin.
    Builtin(Builtin),
}

/// Classification of a procedure-scope variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarClass {
    /// A parameter (`index` is its position; `by_ref` for VAR parameters).
    Param {
        /// Zero-based parameter position.
        index: u32,
        /// True for VAR parameters.
        by_ref: bool,
    },
    /// An ordinary local.
    Local,
    /// A FOR-loop control variable.
    For,
    /// A WITH-bound alias.
    With,
}

/// One procedure-scope variable.
#[derive(Debug, Clone, Copy)]
pub struct VarInfo<'m> {
    /// Source name.
    pub name: &'m str,
    /// Semantic type (for VAR params, the referent type).
    pub ty: TypeRef,
    /// Classification.
    pub class: VarClass,
    /// Passed as a `VAR` argument somewhere, so it needs an address.
    pub addressed: bool,
}

/// A procedure signature.
#[derive(Debug, Clone)]
pub struct ProcSig {
    /// Parameter passing modes and types.
    pub params: Vec<(bool, TypeRef)>,
    /// Return type.
    pub ret: Option<TypeRef>,
}

/// The checker's output, borrowing its names from the checked module.
#[derive(Debug, Clone)]
pub struct Checked<'m> {
    /// The type arena.
    pub arena: TypeArena,
    /// Type of every expression, indexed by [`ExprId`].
    pub expr_types: Vec<TypeRef>,
    /// Resolution of every `Name` expression, indexed by [`ExprId`].
    pub name_res: Vec<Option<NameRes>>,
    /// Resolution of every `Call` expression, indexed by [`ExprId`].
    pub call_res: Vec<Option<CallRes>>,
    /// Referent type allocated by each `New` expression, indexed by
    /// [`ExprId`].
    pub new_types: Vec<Option<TypeRef>>,
    /// Flattened module-level variables (one entry per declared name).
    pub globals: Vec<(&'m str, TypeRef)>,
    /// Signatures, indexed like `module.procs`.
    pub proc_sigs: Vec<ProcSig>,
    /// Variable tables, indexed like `module.procs`.
    pub proc_vars: Vec<Vec<VarInfo<'m>>>,
    /// Variable table for the module body (FOR/WITH variables).
    pub main_vars: Vec<VarInfo<'m>>,
}

type CResult<T> = Result<T, Diagnostic>;

fn terr<T>(pos: Pos, msg: impl Into<String>) -> CResult<T> {
    Err(Diagnostic::new(Phase::Type, pos, msg))
}

/// What a module-level name denotes in each namespace: types, constants,
/// variables and procedures are declared apart but looked up together,
/// so one table answers every question about a name with one probe.
#[derive(Debug, Clone, Copy, Default)]
struct ModuleName {
    ty: Option<TypeRef>,
    konst: Option<i64>,
    global: Option<u32>,
    procedure: Option<u32>,
}

struct Checker<'m> {
    arena: TypeArena,
    names: HashMap<&'m str, ModuleName>,
    globals: Vec<(&'m str, TypeRef)>,
    proc_sigs: Vec<ProcSig>,

    expr_types: Vec<TypeRef>,
    name_res: Vec<Option<NameRes>>,
    call_res: Vec<Option<CallRes>>,
    new_types: Vec<Option<TypeRef>>,

    // Per-procedure state.
    vars: Vec<VarInfo<'m>>,
    /// Stack of (name, var id) visible bindings, innermost last.
    scope: Vec<(&'m str, u32)>,
    loop_depth: u32,
    ret: Option<TypeRef>,
}

impl<'m> Checker<'m> {
    fn module_name(&self, name: &str) -> ModuleName {
        self.names.get(name).copied().unwrap_or_default()
    }

    // ---- type expressions ----

    fn const_eval(&self, e: &Expr) -> CResult<i64> {
        match &e.kind {
            ExprKind::Int(v) => Ok(*v),
            ExprKind::CharLit(c) => Ok(*c),
            ExprKind::Bool(b) => Ok(i64::from(*b)),
            ExprKind::Name(n) => self.module_name(n).konst.ok_or_else(|| {
                Diagnostic::new(Phase::Type, e.pos, format!("`{n}` is not a constant"))
            }),
            ExprKind::Un(UnOp::Neg, x) => Ok(self.const_eval(x)?.wrapping_neg()),
            ExprKind::Bin(op, a, b) => {
                let (x, y) = (self.const_eval(a)?, self.const_eval(b)?);
                Ok(match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div if y != 0 => x.wrapping_div(y),
                    BinOp::Mod if y != 0 => x.wrapping_rem(y),
                    _ => return terr(e.pos, "unsupported constant expression"),
                })
            }
            _ => terr(e.pos, "expected a compile-time constant"),
        }
    }

    fn word_type(&self, r: TypeRef) -> bool {
        // `Unresolved` is a forward reference to a named type; it is
        // accepted here and validated once every name is resolved.
        matches!(
            self.arena.get(r),
            Type::Int | Type::Bool | Type::Char | Type::Ref(_) | Type::NilType | Type::Unresolved
        )
    }

    fn convert_type(&mut self, te: &TypeExpr) -> CResult<TypeRef> {
        match &te.kind {
            TypeExprKind::Int => Ok(TypeArena::INT),
            TypeExprKind::Bool => Ok(TypeArena::BOOL),
            TypeExprKind::Char => Ok(TypeArena::CHAR),
            TypeExprKind::Named(n) => self
                .module_name(n)
                .ty
                .ok_or_else(|| Diagnostic::new(Phase::Type, te.pos, format!("unknown type `{n}`"))),
            TypeExprKind::Ref(inner) => {
                let t = self.convert_type(inner)?;
                Ok(self.arena.add(Type::Ref(t)))
            }
            TypeExprKind::Array { lo, hi, elem } => {
                let l = self.const_eval(lo)?;
                let h = self.const_eval(hi)?;
                if l > h {
                    return terr(te.pos, format!("empty array range [{l}..{h}]"));
                }
                // Lowering sizes objects, slots and globals by this count.
                let count = h.checked_sub(l).and_then(|d| d.checked_add(1));
                if count.and_then(|n| u32::try_from(n).ok()).is_none() {
                    return terr(
                        te.pos,
                        format!("array range [{l}..{h}] has more than {} elements", u32::MAX),
                    );
                }
                let e = self.convert_type(elem)?;
                if !self.word_type(e) {
                    return terr(te.pos, "array elements must be scalars or REF types");
                }
                Ok(self.arena.add(Type::Array { lo: l, hi: h, elem: e }))
            }
            TypeExprKind::OpenArray(elem) => {
                let e = self.convert_type(elem)?;
                if !self.word_type(e) {
                    return terr(te.pos, "array elements must be scalars or REF types");
                }
                Ok(self.arena.add(Type::OpenArray { elem: e }))
            }
            TypeExprKind::Record(fields) => {
                let mut fs = Vec::with_capacity(fields.len());
                for (name, fty) in fields {
                    let t = self.convert_type(fty)?;
                    if !self.word_type(t) {
                        return terr(
                            te.pos,
                            format!("record field `{name}` must be a scalar or REF type"),
                        );
                    }
                    if fs.iter().any(|(n, _)| n == name) {
                        return terr(te.pos, format!("duplicate field `{name}`"));
                    }
                    fs.push((name.clone(), t));
                }
                Ok(self.arena.add(Type::Record { fields: fs }))
            }
        }
    }

    // ---- scopes ----

    fn bind(&mut self, name: &'m str, ty: TypeRef, class: VarClass) -> u32 {
        let id = self.vars.len() as u32;
        self.vars.push(VarInfo { name, ty, class, addressed: false });
        self.scope.push((name, id));
        id
    }

    /// The innermost variable in scope called `name`.
    fn local(&self, name: &str) -> Option<u32> {
        self.scope.iter().rev().find(|(n, _)| *n == name).map(|&(_, id)| id)
    }

    fn lookup(&self, name: &str) -> Option<NameRes> {
        if let Some(id) = self.local(name) {
            return Some(NameRes::Var(id));
        }
        let m = self.module_name(name);
        m.global.map(NameRes::Global).or(m.konst.map(NameRes::Const))
    }

    fn set_type(&mut self, e: &Expr, t: TypeRef) -> TypeRef {
        self.expr_types[e.id as usize] = t;
        t
    }

    // ---- designators ----

    /// True if `e` denotes a mutable location.
    fn is_lvalue(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Name(_) => match self.name_res[e.id as usize] {
                Some(NameRes::Var(id)) => !matches!(self.vars[id as usize].class, VarClass::For),
                Some(NameRes::Global(_)) => true,
                _ => false,
            },
            ExprKind::Field(..) | ExprKind::Index(..) | ExprKind::Deref(..) => true,
            _ => false,
        }
    }

    // ---- expressions ----

    fn check_expr(&mut self, e: &'m Expr) -> CResult<TypeRef> {
        let t = match &e.kind {
            ExprKind::Int(_) => TypeArena::INT,
            ExprKind::Bool(_) => TypeArena::BOOL,
            ExprKind::CharLit(_) => TypeArena::CHAR,
            ExprKind::Nil => TypeArena::NIL,
            ExprKind::Text(_) => {
                // REF ARRAY OF CHAR.
                let oa = self.arena.add(Type::OpenArray { elem: TypeArena::CHAR });
                self.arena.add(Type::Ref(oa))
            }
            ExprKind::Name(n) => {
                let res = self.lookup(n).ok_or_else(|| {
                    Diagnostic::new(Phase::Type, e.pos, format!("unknown name `{n}`"))
                })?;
                self.name_res[e.id as usize] = Some(res);
                match res {
                    NameRes::Var(id) => self.vars[id as usize].ty,
                    NameRes::Global(i) => self.globals[i as usize].1,
                    NameRes::Const(_) => TypeArena::INT,
                }
            }
            ExprKind::Field(base, fname) => {
                let bt = self.check_expr(base)?;
                // Implicit dereference through REF.
                let rec_t = match self.arena.get(bt) {
                    Type::Ref(inner) => *inner,
                    _ => bt,
                };
                match self.arena.get(rec_t) {
                    Type::Record { fields } => {
                        fields.iter().find(|(n, _)| n == fname).map(|(_, t)| *t).ok_or_else(
                            || Diagnostic::new(Phase::Type, e.pos, format!("no field `{fname}`")),
                        )?
                    }
                    other => {
                        return terr(
                            e.pos,
                            format!("`.{fname}` applied to non-record {}", type_name(other)),
                        )
                    }
                }
            }
            ExprKind::Index(base, idx) => {
                let bt = self.check_expr(base)?;
                let it = self.check_expr(idx)?;
                if !self.arena.equal(it, TypeArena::INT) {
                    return terr(idx.pos, "array index must be an INTEGER");
                }
                let arr_t = match self.arena.get(bt) {
                    Type::Ref(inner) => *inner,
                    _ => bt,
                };
                match self.arena.get(arr_t) {
                    Type::Array { elem, .. } | Type::OpenArray { elem } => *elem,
                    other => {
                        return terr(e.pos, format!("indexing non-array {}", type_name(other)))
                    }
                }
            }
            ExprKind::Deref(base) => {
                let bt = self.check_expr(base)?;
                match self.arena.get(bt) {
                    Type::Ref(inner) => *inner,
                    other => {
                        return terr(e.pos, format!("`^` applied to non-REF {}", type_name(other)))
                    }
                }
            }
            ExprKind::Un(UnOp::Neg, x) => {
                let t = self.check_expr(x)?;
                if !self.arena.equal(t, TypeArena::INT) {
                    return terr(e.pos, "unary `-` needs an INTEGER");
                }
                TypeArena::INT
            }
            ExprKind::Un(UnOp::Not, x) => {
                let t = self.check_expr(x)?;
                if !self.arena.equal(t, TypeArena::BOOL) {
                    return terr(e.pos, "NOT needs a BOOLEAN");
                }
                TypeArena::BOOL
            }
            ExprKind::Bin(op, a, b) => {
                let ta = self.check_expr(a)?;
                let tb = self.check_expr(b)?;
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                        if !self.arena.equal(ta, TypeArena::INT)
                            || !self.arena.equal(tb, TypeArena::INT)
                        {
                            return terr(e.pos, "arithmetic needs INTEGER operands");
                        }
                        TypeArena::INT
                    }
                    BinOp::And | BinOp::Or => {
                        if !self.arena.equal(ta, TypeArena::BOOL)
                            || !self.arena.equal(tb, TypeArena::BOOL)
                        {
                            return terr(e.pos, "AND/OR need BOOLEAN operands");
                        }
                        TypeArena::BOOL
                    }
                    BinOp::Eq | BinOp::Ne => {
                        let ok = self.arena.assignable(ta, tb) || self.arena.assignable(tb, ta);
                        if !ok {
                            return terr(
                                e.pos,
                                format!(
                                    "cannot compare {} with {}",
                                    self.arena.display(ta),
                                    self.arena.display(tb)
                                ),
                            );
                        }
                        TypeArena::BOOL
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        let both_int = self.arena.equal(ta, TypeArena::INT)
                            && self.arena.equal(tb, TypeArena::INT);
                        let both_char = self.arena.equal(ta, TypeArena::CHAR)
                            && self.arena.equal(tb, TypeArena::CHAR);
                        if !(both_int || both_char) {
                            return terr(
                                e.pos,
                                "ordering comparisons need INTEGER or CHAR operands",
                            );
                        }
                        TypeArena::BOOL
                    }
                }
            }
            ExprKind::New { ty, len } => {
                let referent = {
                    let t = self.convert_type(ty)?;
                    match self.arena.get(t) {
                        Type::Ref(inner) => *inner,
                        _ => return terr(e.pos, "NEW needs a REF type"),
                    }
                };
                match (self.arena.get(referent), len) {
                    (Type::OpenArray { .. }, Some(l)) => {
                        let lt = self.check_expr(l)?;
                        if !self.arena.equal(lt, TypeArena::INT) {
                            return terr(l.pos, "array length must be an INTEGER");
                        }
                    }
                    (Type::OpenArray { .. }, None) => {
                        return terr(e.pos, "NEW of an open array needs a length")
                    }
                    (_, Some(l)) => {
                        return terr(l.pos, "length argument only allowed for open arrays")
                    }
                    (_, None) => {}
                }
                self.new_types[e.id as usize] = Some(referent);
                self.arena.add(Type::Ref(referent))
            }
            ExprKind::Call { name, args } => self.check_call(e, name, args, false)?,
        };
        Ok(self.set_type(e, t))
    }

    /// Checks a call in expression (`stmt = false`) or statement position.
    fn check_call(
        &mut self,
        e: &Expr,
        name: &str,
        args: &'m [Expr],
        stmt: bool,
    ) -> CResult<TypeRef> {
        // A local variable may not shadow a call target.
        let m = self.module_name(name);
        if self.local(name).is_some() || m.global.is_some() {
            return terr(e.pos, format!("`{name}` is a variable, not a procedure"));
        }
        if let Some(pi) = m.procedure {
            self.call_res[e.id as usize] = Some(CallRes::Proc(pi));
            let n_params = self.proc_sigs[pi as usize].params.len();
            if n_params != args.len() {
                return terr(
                    e.pos,
                    format!("`{name}` expects {n_params} argument(s), got {}", args.len()),
                );
            }
            for (k, arg) in args.iter().enumerate() {
                let (by_ref, pt) = self.proc_sigs[pi as usize].params[k];
                let at = self.check_expr(arg)?;
                if by_ref {
                    if !self.is_lvalue(arg) {
                        return terr(arg.pos, "VAR argument must be a designator");
                    }
                    if let (ExprKind::Name(_), Some(NameRes::Var(id))) =
                        (&arg.kind, self.name_res[arg.id as usize])
                    {
                        self.vars[id as usize].addressed = true;
                    }
                    if !self.arena.equal(at, pt) {
                        return terr(
                            arg.pos,
                            format!(
                                "VAR argument type {} does not match formal {}",
                                self.arena.display(at),
                                self.arena.display(pt)
                            ),
                        );
                    }
                } else if !self.arena.assignable(pt, at) {
                    return terr(
                        arg.pos,
                        format!(
                            "argument type {} not assignable to formal {}",
                            self.arena.display(at),
                            self.arena.display(pt)
                        ),
                    );
                }
            }
            return Ok(self.proc_sigs[pi as usize].ret.unwrap_or(TypeArena::VOID));
        }
        let Some(b) = builtin_by_name(name) else {
            return terr(e.pos, format!("unknown procedure `{name}`"));
        };
        self.call_res[e.id as usize] = Some(CallRes::Builtin(b));
        let arg_types: Vec<TypeRef> =
            args.iter().map(|a| self.check_expr(a)).collect::<CResult<_>>()?;
        let arity_err = |n: usize| -> CResult<TypeRef> {
            terr(e.pos, format!("`{name}` expects {n} argument(s), got {}", args.len()))
        };
        match b {
            Builtin::PutInt => {
                if args.len() != 1 {
                    return arity_err(1);
                }
                if !self.arena.equal(arg_types[0], TypeArena::INT) {
                    return terr(args[0].pos, "PutInt needs an INTEGER");
                }
                Ok(TypeArena::VOID)
            }
            Builtin::PutChar => {
                if args.len() != 1 {
                    return arity_err(1);
                }
                let t = arg_types[0];
                if !self.arena.equal(t, TypeArena::CHAR) && !self.arena.equal(t, TypeArena::INT) {
                    return terr(args[0].pos, "PutChar needs a CHAR or INTEGER");
                }
                Ok(TypeArena::VOID)
            }
            Builtin::PutLn => {
                if !args.is_empty() {
                    return arity_err(0);
                }
                Ok(TypeArena::VOID)
            }
            Builtin::Ord => {
                if args.len() != 1 {
                    return arity_err(1);
                }
                let t = arg_types[0];
                if !self.arena.equal(t, TypeArena::CHAR) && !self.arena.equal(t, TypeArena::BOOL) {
                    return terr(args[0].pos, "ORD needs a CHAR or BOOLEAN");
                }
                Ok(TypeArena::INT)
            }
            Builtin::Val => {
                if args.len() != 1 {
                    return arity_err(1);
                }
                if !self.arena.equal(arg_types[0], TypeArena::INT) {
                    return terr(args[0].pos, "VAL needs an INTEGER");
                }
                Ok(TypeArena::CHAR)
            }
            Builtin::Abs => {
                if args.len() != 1 {
                    return arity_err(1);
                }
                if !self.arena.equal(arg_types[0], TypeArena::INT) {
                    return terr(args[0].pos, "ABS needs an INTEGER");
                }
                Ok(TypeArena::INT)
            }
            Builtin::Min | Builtin::Max => {
                if args.len() != 2 {
                    return arity_err(2);
                }
                for (a, t) in args.iter().zip(&arg_types) {
                    if !self.arena.equal(*t, TypeArena::INT) {
                        return terr(a.pos, "MIN/MAX need INTEGER operands");
                    }
                }
                Ok(TypeArena::INT)
            }
            Builtin::First | Builtin::Last | Builtin::Number => {
                if args.len() != 1 {
                    return arity_err(1);
                }
                let t = arg_types[0];
                let arr = match self.arena.get(t) {
                    Type::Ref(inner) => *inner,
                    _ => t,
                };
                if !matches!(self.arena.get(arr), Type::Array { .. } | Type::OpenArray { .. }) {
                    return terr(args[0].pos, format!("`{name}` needs an array"));
                }
                Ok(TypeArena::INT)
            }
            Builtin::Inc | Builtin::Dec => {
                if !stmt {
                    return terr(e.pos, format!("`{name}` is a statement, not an expression"));
                }
                if args.is_empty() || args.len() > 2 {
                    return arity_err(1);
                }
                if !self.is_lvalue(&args[0]) {
                    return terr(args[0].pos, "INC/DEC need a designator");
                }
                if !self.arena.equal(arg_types[0], TypeArena::INT) {
                    return terr(args[0].pos, "INC/DEC need an INTEGER designator");
                }
                if args.len() == 2 && !self.arena.equal(arg_types[1], TypeArena::INT) {
                    return terr(args[1].pos, "INC/DEC step must be an INTEGER");
                }
                Ok(TypeArena::VOID)
            }
            Builtin::Assert => {
                if !stmt {
                    return terr(e.pos, "`ASSERT` is a statement, not an expression");
                }
                if args.len() != 1 {
                    return arity_err(1);
                }
                if !self.arena.equal(arg_types[0], TypeArena::BOOL) {
                    return terr(args[0].pos, "ASSERT needs a BOOLEAN");
                }
                Ok(TypeArena::VOID)
            }
        }
    }

    // ---- statements ----

    fn check_stmts(&mut self, stmts: &'m [Stmt]) -> CResult<()> {
        for s in stmts {
            self.check_stmt(s)?;
        }
        Ok(())
    }

    fn check_stmt(&mut self, s: &'m Stmt) -> CResult<()> {
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                let lt = self.check_expr(lhs)?;
                if !self.is_lvalue(lhs) {
                    return terr(lhs.pos, "left side of `:=` is not a designator");
                }
                let rt = self.check_expr(rhs)?;
                if !self.arena.assignable(lt, rt) {
                    return terr(
                        s.pos,
                        format!(
                            "cannot assign {} to {}",
                            self.arena.display(rt),
                            self.arena.display(lt)
                        ),
                    );
                }
                Ok(())
            }
            StmtKind::Call(e) => {
                let ExprKind::Call { name, args } = &e.kind else {
                    return terr(e.pos, "expected a call");
                };
                let t = self.check_call(e, name, args, true)?;
                self.set_type(e, t);
                Ok(())
            }
            StmtKind::If { arms, else_body } => {
                for (cond, body) in arms {
                    let t = self.check_expr(cond)?;
                    if !self.arena.equal(t, TypeArena::BOOL) {
                        return terr(cond.pos, "IF condition must be BOOLEAN");
                    }
                    self.check_stmts(body)?;
                }
                self.check_stmts(else_body)
            }
            StmtKind::While { cond, body } => {
                let t = self.check_expr(cond)?;
                if !self.arena.equal(t, TypeArena::BOOL) {
                    return terr(cond.pos, "WHILE condition must be BOOLEAN");
                }
                self.loop_depth += 1;
                self.check_stmts(body)?;
                self.loop_depth -= 1;
                Ok(())
            }
            StmtKind::Repeat { body, cond } => {
                self.loop_depth += 1;
                self.check_stmts(body)?;
                self.loop_depth -= 1;
                let t = self.check_expr(cond)?;
                if !self.arena.equal(t, TypeArena::BOOL) {
                    return terr(cond.pos, "UNTIL condition must be BOOLEAN");
                }
                Ok(())
            }
            StmtKind::Loop { body } => {
                self.loop_depth += 1;
                self.check_stmts(body)?;
                self.loop_depth -= 1;
                Ok(())
            }
            StmtKind::For { var, from, to, by, body } => {
                let ft = self.check_expr(from)?;
                let tt = self.check_expr(to)?;
                if !self.arena.equal(ft, TypeArena::INT) || !self.arena.equal(tt, TypeArena::INT) {
                    return terr(s.pos, "FOR bounds must be INTEGER");
                }
                if let Some(b) = by {
                    let step = self.const_eval(b)?;
                    if step == 0 {
                        return terr(b.pos, "FOR step must be non-zero");
                    }
                    // Also type it for the lowering's convenience.
                    self.check_expr(b)?;
                }
                let scope_mark = self.scope.len();
                self.bind(var, TypeArena::INT, VarClass::For);
                self.loop_depth += 1;
                self.check_stmts(body)?;
                self.loop_depth -= 1;
                self.scope.truncate(scope_mark);
                Ok(())
            }
            StmtKind::Exit => {
                if self.loop_depth == 0 {
                    return terr(s.pos, "EXIT outside a loop");
                }
                Ok(())
            }
            StmtKind::Return(value) => match (&self.ret, value) {
                (None, None) => Ok(()),
                (None, Some(v)) => terr(v.pos, "RETURN with a value in a proper procedure"),
                (Some(_), None) => terr(s.pos, "RETURN needs a value here"),
                (Some(rt), Some(v)) => {
                    let rt = *rt;
                    let vt = self.check_expr(v)?;
                    if !self.arena.assignable(rt, vt) {
                        return terr(
                            v.pos,
                            format!(
                                "cannot return {} as {}",
                                self.arena.display(vt),
                                self.arena.display(rt)
                            ),
                        );
                    }
                    Ok(())
                }
            },
            StmtKind::With { bindings, body } => {
                let scope_mark = self.scope.len();
                for (name, d) in bindings {
                    let t = self.check_expr(d)?;
                    self.bind(name, t, VarClass::With);
                }
                self.check_stmts(body)?;
                self.scope.truncate(scope_mark);
                Ok(())
            }
        }
    }
}

fn type_name(t: &Type) -> String {
    match t {
        Type::Int => "INTEGER".into(),
        Type::Bool => "BOOLEAN".into(),
        Type::Char => "CHAR".into(),
        Type::NilType => "NIL".into(),
        Type::Void => "(no value)".into(),
        Type::Unresolved => "(unresolved)".into(),
        Type::Ref(_) => "REF type".into(),
        Type::Array { .. } => "fixed array".into(),
        Type::OpenArray { .. } => "open array".into(),
        Type::Record { .. } => "record".into(),
    }
}

/// Type-checks a module.
///
/// # Errors
///
/// Returns the first type [`Diagnostic`].
pub fn check(module: &Module) -> Result<Checked<'_>, Diagnostic> {
    let n_exprs = module.n_exprs as usize;
    let mut ck = Checker {
        arena: TypeArena::new(),
        names: HashMap::new(),
        globals: Vec::new(),
        proc_sigs: Vec::new(),
        expr_types: vec![TypeArena::VOID; n_exprs],
        name_res: vec![None; n_exprs],
        call_res: vec![None; n_exprs],
        new_types: vec![None; n_exprs],
        vars: Vec::new(),
        scope: Vec::new(),
        loop_depth: 0,
        ret: None,
    };

    // Constants first (array bounds may use them).
    for c in &module.consts {
        let v = ck.const_eval(&c.value)?;
        if ck.names.entry(&c.name).or_default().konst.replace(v).is_some() {
            return terr(c.pos, format!("duplicate constant `{}`", c.name));
        }
    }

    // Named types: pre-declare placeholders to permit recursion, then
    // resolve each definition.
    for td in &module.types {
        let slot = ck.arena.add(Type::Unresolved);
        if ck.names.entry(&td.name).or_default().ty.replace(slot).is_some() {
            return terr(td.pos, format!("duplicate type `{}`", td.name));
        }
    }
    for td in &module.types {
        let slot = ck.module_name(&td.name).ty.expect("declared above");
        let t = ck.convert_type(&td.ty)?;
        // Copied once per declaration, never per expression.
        let resolved = match ck.arena.get(t) {
            Type::Unresolved => {
                return terr(td.pos, format!("type `{}` is directly circular", td.name))
            }
            defined => defined.clone(),
        };
        ck.arena.resolve(slot, resolved);
    }
    // Forward references are resolved now; re-validate that record fields
    // and array elements are single words, everywhere in the arena.
    let module_pos = module.types.first().map_or(Pos::default(), |t| t.pos);
    let not_a_word = |t: TypeRef| !ck.word_type(t) || matches!(ck.arena.get(t), Type::Unresolved);
    for i in 0..ck.arena.len() as TypeRef {
        match ck.arena.get(i) {
            Type::Record { fields } => {
                if let Some((fname, _)) = fields.iter().find(|&&(_, ft)| not_a_word(ft)) {
                    return terr(
                        module_pos,
                        format!("record field `{fname}` must be a scalar or REF type"),
                    );
                }
            }
            Type::Array { elem, .. } | Type::OpenArray { elem } if not_a_word(*elem) => {
                return terr(module_pos, "array elements must be scalars or REF types");
            }
            _ => {}
        }
    }

    // Globals.
    for v in &module.vars {
        let t = ck.convert_type(&v.ty)?;
        match ck.arena.get(t) {
            Type::OpenArray { .. } => {
                return terr(v.pos, "open arrays may only appear under REF");
            }
            Type::Record { .. } => {
                return terr(
                    v.pos,
                    "record variables must be allocated with NEW (heap-only records)",
                );
            }
            _ => {}
        }
        for name in &v.names {
            let index = ck.globals.len() as u32;
            if ck.names.entry(name).or_default().global.replace(index).is_some() {
                return terr(v.pos, format!("duplicate variable `{name}`"));
            }
            ck.globals.push((name, t));
        }
    }

    // Procedure signatures (two-pass for forward references).
    for (i, p) in module.procs.iter().enumerate() {
        if ck.module_name(&p.name).procedure.is_some() {
            return terr(p.pos, format!("duplicate procedure `{}`", p.name));
        }
        let mut params = Vec::new();
        for formal in &p.formals {
            let t = ck.convert_type(&formal.ty)?;
            if matches!(
                ck.arena.get(t),
                Type::OpenArray { .. } | Type::Record { .. } | Type::Array { .. }
            ) {
                return terr(p.pos, "parameters must be scalars or REF types");
            }
            for _ in &formal.names {
                params.push((formal.var, t));
            }
        }
        let ret = match &p.ret {
            Some(te) => {
                let t = ck.convert_type(te)?;
                if !ck.word_type(t) {
                    return terr(p.pos, "return type must be a scalar or REF type");
                }
                Some(t)
            }
            None => None,
        };
        ck.names.entry(&p.name).or_default().procedure = Some(i as u32);
        ck.proc_sigs.push(ProcSig { params, ret });
    }

    // Procedure bodies.
    let mut proc_vars = Vec::with_capacity(module.procs.len());
    for (i, p) in module.procs.iter().enumerate() {
        ck.vars.clear();
        ck.scope.clear();
        ck.loop_depth = 0;
        ck.ret = ck.proc_sigs[i].ret;
        let mut pi = 0u32;
        for formal in &p.formals {
            let t = ck.convert_type(&formal.ty)?;
            for name in &formal.names {
                ck.bind(name, t, VarClass::Param { index: pi, by_ref: formal.var });
                pi += 1;
            }
        }
        for l in &p.locals {
            let t = ck.convert_type(&l.ty)?;
            match ck.arena.get(t) {
                Type::OpenArray { .. } => {
                    return terr(l.pos, "open arrays may only appear under REF")
                }
                Type::Record { .. } => {
                    return terr(
                        l.pos,
                        "record variables must be allocated with NEW (heap-only records)",
                    )
                }
                Type::Array { lo, hi, .. } if hi - lo + 1 > 4096 => {
                    return terr(l.pos, "local array too large (limit 4096 elements)");
                }
                _ => {}
            }
            for name in &l.names {
                ck.bind(name, t, VarClass::Local);
            }
            if let Some(init) = &l.init {
                let it = ck.check_expr(init)?;
                if !ck.arena.assignable(t, it) {
                    return terr(l.pos, "initializer type mismatch");
                }
            }
        }
        ck.check_stmts(&p.body)?;
        proc_vars.push(std::mem::take(&mut ck.vars));
    }

    // Module body (globals' initializers then statements).
    ck.vars.clear();
    ck.scope.clear();
    ck.loop_depth = 0;
    ck.ret = None;
    for v in &module.vars {
        if let Some(init) = &v.init {
            let g = ck.module_name(&v.names[0]).global.expect("declared above");
            let gt = ck.globals[g as usize].1;
            let it = ck.check_expr(init)?;
            if !ck.arena.assignable(gt, it) {
                return terr(v.pos, "initializer type mismatch");
            }
        }
    }
    ck.check_stmts(&module.body)?;
    let main_vars = std::mem::take(&mut ck.vars);

    Ok(Checked {
        arena: ck.arena,
        expr_types: ck.expr_types,
        name_res: ck.name_res,
        call_res: ck.call_res,
        new_types: ck.new_types,
        globals: ck.globals,
        proc_sigs: ck.proc_sigs,
        proc_vars,
        main_vars,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    /// Checks `src`, keeping what a test inspects of the result.
    fn check_src(src: &str) -> Result<usize, Diagnostic> {
        check(&parse(lex(src).unwrap()).unwrap()).map(|c| c.globals.len())
    }

    fn ok(src: &str) -> usize {
        check_src(src).unwrap_or_else(|e| panic!("{e}"))
    }

    fn fails(src: &str) -> Diagnostic {
        check_src(src).expect_err("expected a type error")
    }

    #[test]
    fn simple_module_checks() {
        ok("MODULE M; VAR x: INTEGER; BEGIN x := 1 + 2; PutInt(x); END M.");
    }

    #[test]
    fn type_mismatch_detected() {
        let e = fails("MODULE M; VAR x: INTEGER; b: BOOLEAN; BEGIN x := b; END M.");
        assert!(e.message.contains("cannot assign"), "{e}");
    }

    #[test]
    fn structural_equivalence_across_names() {
        ok("MODULE M;
            TYPE A = REF RECORD x: INTEGER END;
                 B = REF RECORD x: INTEGER END;
            VAR a: A; b: B;
            BEGIN a := b; END M.");
    }

    #[test]
    fn recursive_list_type() {
        ok("MODULE M;
            TYPE List = REF RECORD head: INTEGER; tail: List END;
            VAR l: List;
            BEGIN
              l := NEW(List);
              l.head := 1;
              l.tail := NIL;
            END M.");
    }

    #[test]
    fn var_params_need_designators() {
        let e = fails(
            "MODULE M;
             PROCEDURE P(VAR x: INTEGER) = BEGIN x := 1; END P;
             BEGIN P(3); END M.",
        );
        assert!(e.message.contains("designator"), "{e}");
    }

    #[test]
    fn var_param_type_must_match_exactly() {
        let e = fails(
            "MODULE M;
             TYPE R = REF RECORD x: INTEGER END;
             PROCEDURE P(VAR x: R) = BEGIN END P;
             VAR i: INTEGER;
             BEGIN P(i); END M.",
        );
        assert!(e.message.contains("does not match"), "{e}");
    }

    #[test]
    fn for_variable_not_assignable() {
        let e = fails("MODULE M; BEGIN FOR i := 1 TO 3 DO i := 5; END; END M.");
        assert!(e.message.contains("not a designator"), "{e}");
    }

    #[test]
    fn exit_outside_loop_rejected() {
        let e = fails("MODULE M; BEGIN EXIT; END M.");
        assert!(e.message.contains("EXIT"), "{e}");
    }

    #[test]
    fn nil_into_ref_ok_into_int_not() {
        ok("MODULE M; TYPE R = REF RECORD x: INTEGER END; VAR r: R; BEGIN r := NIL; END M.");
        fails("MODULE M; VAR x: INTEGER; BEGIN x := NIL; END M.");
    }

    #[test]
    fn new_open_array_needs_length() {
        let e =
            fails("MODULE M; TYPE A = REF ARRAY OF INTEGER; VAR a: A; BEGIN a := NEW(A); END M.");
        assert!(e.message.contains("length"), "{e}");
    }

    #[test]
    fn with_binds_field_alias() {
        ok("MODULE M;
            TYPE R = REF RECORD f: INTEGER END;
            VAR r: R;
            BEGIN
              r := NEW(R);
              WITH h = r.f DO h := 3; PutInt(h); END;
            END M.");
    }

    #[test]
    fn char_and_int_are_distinct() {
        fails("MODULE M; VAR x: INTEGER; c: CHAR; BEGIN x := c; END M.");
        ok("MODULE M; VAR x: INTEGER; c: CHAR; BEGIN c := 'a'; x := ORD(c); c := VAL(x); END M.");
    }

    #[test]
    fn array_bounds_are_constant() {
        ok("MODULE M; CONST N = 5; VAR a: ARRAY [1..N] OF INTEGER; BEGIN a[3] := 1; END M.");
        let e = fails("MODULE M; VAR n: INTEGER; a: ARRAY [1..n] OF INTEGER; BEGIN END M.");
        assert!(e.message.contains("constant"), "{e}");
    }

    #[test]
    fn first_last_number_on_arrays() {
        ok("MODULE M;
            TYPE A = REF ARRAY [3..7] OF INTEGER;
            VAR a: A; x: INTEGER;
            BEGIN a := NEW(A); x := FIRST(a) + LAST(a) + NUMBER(a); END M.");
    }

    #[test]
    fn call_arity_checked() {
        let e = fails(
            "MODULE M;
             PROCEDURE P(x: INTEGER) = BEGIN END P;
             BEGIN P(); END M.",
        );
        assert!(e.message.contains("expects 1"), "{e}");
    }

    #[test]
    fn return_type_checked() {
        let e = fails(
            "MODULE M;
             PROCEDURE F(): INTEGER = BEGIN RETURN TRUE; END F;
             BEGIN END M.",
        );
        assert!(e.message.contains("cannot return"), "{e}");
    }

    #[test]
    fn assert_is_statement_only() {
        let e = fails("MODULE M; VAR b: BOOLEAN; BEGIN b := ASSERT(b); END M.");
        assert!(e.message.contains("statement"), "{e}");
    }

    #[test]
    fn text_literal_is_ref_array_of_char() {
        let globals = ok("MODULE M;
            TYPE S = REF ARRAY OF CHAR;
            VAR s: S;
            BEGIN s := \"hi\"; END M.");
        assert_eq!(globals, 1);
    }

    #[test]
    fn records_are_heap_only() {
        let e = fails("MODULE M; VAR r: RECORD x: INTEGER END; BEGIN END M.");
        assert!(e.message.contains("heap-only"), "{e}");
    }
}
