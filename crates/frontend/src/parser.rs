//! Recursive-descent parser for Mini-M3.

use crate::ast::*;
use crate::error::{Diagnostic, Phase, Pos};
use crate::lexer::{unescape, Spanned, Tok};

/// Tokens are `Copy` and borrow the source, so looking at or consuming
/// one is a copy; a name becomes a `String` only when the AST stores it.
struct Parser<'src> {
    toks: Vec<Spanned<'src>>,
    pos: usize,
    next_expr_id: ExprId,
}

type PResult<T> = Result<T, Diagnostic>;

// Precedence levels, loosest first. `NOT` is a prefix between `AND` and
// the relations; a relation does not associate (`a < b < c` is an error).
const OR: u8 = 1;
const AND: u8 = 2;
const NOT: u8 = 3;
const REL: u8 = 4;
const ADD: u8 = 5;
const MUL: u8 = 6;
const OPERAND: u8 = 7;

/// The binary operator `t` spells, with its level.
fn binop(t: Tok<'_>) -> Option<(BinOp, u8)> {
    Some(match t {
        Tok::Or => (BinOp::Or, OR),
        Tok::And => (BinOp::And, AND),
        Tok::Eq => (BinOp::Eq, REL),
        Tok::Hash => (BinOp::Ne, REL),
        Tok::Lt => (BinOp::Lt, REL),
        Tok::Le => (BinOp::Le, REL),
        Tok::Gt => (BinOp::Gt, REL),
        Tok::Ge => (BinOp::Ge, REL),
        Tok::Plus => (BinOp::Add, ADD),
        Tok::Minus => (BinOp::Sub, ADD),
        Tok::Star => (BinOp::Mul, MUL),
        Tok::Div => (BinOp::Div, MUL),
        Tok::Mod => (BinOp::Mod, MUL),
        _ => return None,
    })
}

impl<'src> Parser<'src> {
    fn peek(&self) -> Tok<'src> {
        self.toks[self.pos].tok
    }

    fn peek2(&self) -> Tok<'src> {
        self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn here(&self) -> Pos {
        self.toks[self.pos].pos
    }

    fn bump(&mut self) -> Tok<'src> {
        let t = self.toks[self.pos].tok;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(Diagnostic::new(Phase::Parse, self.here(), msg))
    }

    fn expect(&mut self, t: Tok<'_>) -> PResult<()> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {t}, found {}", self.peek()))
        }
    }

    fn eat(&mut self, t: Tok<'_>) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    /// An identifier, still borrowed from the source.
    fn name(&mut self) -> PResult<&'src str> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    /// An identifier the AST stores.
    fn ident(&mut self) -> PResult<String> {
        self.name().map(str::to_owned)
    }

    fn mk(&mut self, pos: Pos, kind: ExprKind) -> Expr {
        let id = self.next_expr_id;
        self.next_expr_id += 1;
        Expr { id, pos, kind }
    }

    // ---- types ----

    fn type_expr(&mut self) -> PResult<TypeExpr> {
        let pos = self.here();
        let kind = match self.peek() {
            Tok::Integer => {
                self.bump();
                TypeExprKind::Int
            }
            Tok::Boolean => {
                self.bump();
                TypeExprKind::Bool
            }
            Tok::CharKw => {
                self.bump();
                TypeExprKind::Char
            }
            Tok::Ident(name) => {
                self.bump();
                TypeExprKind::Named(name.to_owned())
            }
            Tok::Ref => {
                self.bump();
                TypeExprKind::Ref(Box::new(self.type_expr()?))
            }
            Tok::Array => {
                self.bump();
                if self.eat(Tok::LBracket) {
                    let lo = self.expr()?;
                    self.expect(Tok::DotDot)?;
                    let hi = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    self.expect(Tok::Of)?;
                    let elem = self.type_expr()?;
                    TypeExprKind::Array { lo: Box::new(lo), hi: Box::new(hi), elem: Box::new(elem) }
                } else {
                    self.expect(Tok::Of)?;
                    TypeExprKind::OpenArray(Box::new(self.type_expr()?))
                }
            }
            Tok::Record => {
                self.bump();
                let mut fields = Vec::new();
                while !self.eat(Tok::End) {
                    let mut names = vec![self.ident()?];
                    while self.eat(Tok::Comma) {
                        names.push(self.ident()?);
                    }
                    self.expect(Tok::Colon)?;
                    let fty = self.type_expr()?;
                    // The semicolon after the last field is optional.
                    if !self.eat(Tok::Semi) && self.peek() != Tok::End {
                        return self.err(format!("expected `;` or END, found {}", self.peek()));
                    }
                    for n in names {
                        fields.push((n, fty.clone()));
                    }
                }
                TypeExprKind::Record(fields)
            }
            other => return self.err(format!("expected a type, found {other}")),
        };
        Ok(TypeExpr { pos, kind })
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> PResult<Expr> {
        self.binary(OR)
    }

    /// An expression whose operators bind at least as tightly as `min`.
    /// One loop climbs every level, so an operand costs a few calls
    /// rather than one per level.
    fn binary(&mut self, min: u8) -> PResult<Expr> {
        let (mut lhs, mut level) = if min <= NOT && self.peek() == Tok::Not {
            let pos = self.here();
            self.bump();
            let e = self.binary(NOT)?;
            (self.mk(pos, ExprKind::Un(UnOp::Not, Box::new(e))), NOT)
        } else {
            (self.unary_expr()?, OPERAND)
        };
        // `level` is the loosest operator in `lhs`: an operator takes
        // `lhs` as its left operand only if that binds no looser than the
        // operator itself, strictly tighter for a relation.
        while let Some((op, prec)) = binop(self.peek()) {
            let needs = if prec == REL { REL + 1 } else { prec };
            if prec < min || level < needs {
                break;
            }
            let pos = self.here();
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = self.mk(pos, ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)));
            level = prec;
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        if self.peek() == Tok::Minus {
            let pos = self.here();
            self.bump();
            let e = self.unary_expr()?;
            Ok(self.mk(pos, ExprKind::Un(UnOp::Neg, Box::new(e))))
        } else {
            self.postfix_expr()
        }
    }

    fn postfix_expr(&mut self) -> PResult<Expr> {
        let mut e = self.primary_expr()?;
        loop {
            let pos = self.here();
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let field = self.ident()?;
                    e = self.mk(pos, ExprKind::Field(Box::new(e), field));
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    e = self.mk(pos, ExprKind::Index(Box::new(e), Box::new(idx)));
                }
                Tok::Caret => {
                    self.bump();
                    e = self.mk(pos, ExprKind::Deref(Box::new(e)));
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> PResult<Expr> {
        let pos = self.here();
        match self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(self.mk(pos, ExprKind::Int(v)))
            }
            Tok::Char(c) => {
                self.bump();
                Ok(self.mk(pos, ExprKind::CharLit(c)))
            }
            Tok::Text(raw) => {
                self.bump();
                Ok(self.mk(pos, ExprKind::Text(unescape(raw))))
            }
            Tok::True => {
                self.bump();
                Ok(self.mk(pos, ExprKind::Bool(true)))
            }
            Tok::False => {
                self.bump();
                Ok(self.mk(pos, ExprKind::Bool(false)))
            }
            Tok::Nil => {
                self.bump();
                Ok(self.mk(pos, ExprKind::Nil))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident("NEW") => {
                self.bump();
                self.expect(Tok::LParen)?;
                let ty = self.type_expr()?;
                let len = if self.eat(Tok::Comma) { Some(Box::new(self.expr()?)) } else { None };
                self.expect(Tok::RParen)?;
                Ok(self.mk(pos, ExprKind::New { ty, len }))
            }
            Tok::Ident(name) => {
                self.bump();
                if self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != Tok::RParen {
                        args.push(self.expr()?);
                        while self.eat(Tok::Comma) {
                            args.push(self.expr()?);
                        }
                    }
                    self.expect(Tok::RParen)?;
                    Ok(self.mk(pos, ExprKind::Call { name: name.to_owned(), args }))
                } else {
                    Ok(self.mk(pos, ExprKind::Name(name.to_owned())))
                }
            }
            other => self.err(format!("expected an expression, found {other}")),
        }
    }

    // ---- statements ----

    fn stmt_list(&mut self, enders: &[Tok<'_>]) -> PResult<Vec<Stmt>> {
        let mut out = Vec::new();
        while !enders.contains(&self.peek()) {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        let pos = self.here();
        let kind = match self.peek() {
            Tok::If => {
                self.bump();
                let mut arms = Vec::new();
                let cond = self.expr()?;
                self.expect(Tok::Then)?;
                let body = self.stmt_list(&[Tok::Elsif, Tok::Else, Tok::End])?;
                arms.push((cond, body));
                while self.eat(Tok::Elsif) {
                    let c = self.expr()?;
                    self.expect(Tok::Then)?;
                    let b = self.stmt_list(&[Tok::Elsif, Tok::Else, Tok::End])?;
                    arms.push((c, b));
                }
                let else_body =
                    if self.eat(Tok::Else) { self.stmt_list(&[Tok::End])? } else { Vec::new() };
                self.expect(Tok::End)?;
                self.expect(Tok::Semi)?;
                StmtKind::If { arms, else_body }
            }
            Tok::While => {
                self.bump();
                let cond = self.expr()?;
                self.expect(Tok::Do)?;
                let body = self.stmt_list(&[Tok::End])?;
                self.expect(Tok::End)?;
                self.expect(Tok::Semi)?;
                StmtKind::While { cond, body }
            }
            Tok::Repeat => {
                self.bump();
                let body = self.stmt_list(&[Tok::Until])?;
                self.expect(Tok::Until)?;
                let cond = self.expr()?;
                self.expect(Tok::Semi)?;
                StmtKind::Repeat { body, cond }
            }
            Tok::Loop => {
                self.bump();
                let body = self.stmt_list(&[Tok::End])?;
                self.expect(Tok::End)?;
                self.expect(Tok::Semi)?;
                StmtKind::Loop { body }
            }
            Tok::For => {
                self.bump();
                let var = self.ident()?;
                self.expect(Tok::Assign)?;
                let from = self.expr()?;
                self.expect(Tok::To)?;
                let to = self.expr()?;
                let by = if self.eat(Tok::By) { Some(self.expr()?) } else { None };
                self.expect(Tok::Do)?;
                let body = self.stmt_list(&[Tok::End])?;
                self.expect(Tok::End)?;
                self.expect(Tok::Semi)?;
                StmtKind::For { var, from, to, by, body }
            }
            Tok::Exit => {
                self.bump();
                self.expect(Tok::Semi)?;
                StmtKind::Exit
            }
            Tok::Return => {
                self.bump();
                let value = if self.peek() == Tok::Semi { None } else { Some(self.expr()?) };
                self.expect(Tok::Semi)?;
                StmtKind::Return(value)
            }
            Tok::With => {
                self.bump();
                let mut bindings = Vec::new();
                loop {
                    let name = self.ident()?;
                    self.expect(Tok::Eq)?;
                    let e = self.expr()?;
                    bindings.push((name, e));
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::Do)?;
                let body = self.stmt_list(&[Tok::End])?;
                self.expect(Tok::End)?;
                self.expect(Tok::Semi)?;
                StmtKind::With { bindings, body }
            }
            Tok::Ident(_) => {
                // Either an assignment to a designator or a call statement.
                let e = self.postfix_expr()?;
                if self.eat(Tok::Assign) {
                    let rhs = self.expr()?;
                    self.expect(Tok::Semi)?;
                    StmtKind::Assign { lhs: e, rhs }
                } else {
                    if !matches!(e.kind, ExprKind::Call { .. }) {
                        return Err(Diagnostic::new(
                            Phase::Parse,
                            pos,
                            "expected `:=` or a call statement",
                        ));
                    }
                    self.expect(Tok::Semi)?;
                    StmtKind::Call(e)
                }
            }
            other => return self.err(format!("expected a statement, found {other}")),
        };
        Ok(Stmt { pos, kind })
    }

    // ---- declarations ----

    fn var_decl(&mut self) -> PResult<VarDecl> {
        let pos = self.here();
        let mut names = vec![self.ident()?];
        while self.eat(Tok::Comma) {
            names.push(self.ident()?);
        }
        self.expect(Tok::Colon)?;
        let ty = self.type_expr()?;
        let init = if self.eat(Tok::Assign) { Some(self.expr()?) } else { None };
        self.expect(Tok::Semi)?;
        Ok(VarDecl { names, ty, init, pos })
    }

    fn proc_decl(&mut self) -> PResult<ProcDecl> {
        let pos = self.here();
        let name = self.name()?;
        self.expect(Tok::LParen)?;
        let mut formals = Vec::new();
        if self.peek() != Tok::RParen {
            loop {
                let var = self.eat(Tok::Var);
                let mut names = vec![self.ident()?];
                while self.eat(Tok::Comma) {
                    names.push(self.ident()?);
                }
                self.expect(Tok::Colon)?;
                let ty = self.type_expr()?;
                formals.push(Formal { var, names, ty });
                if !self.eat(Tok::Semi) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let ret = if self.eat(Tok::Colon) { Some(self.type_expr()?) } else { None };
        self.expect(Tok::Eq)?;
        let mut locals = Vec::new();
        while self.eat(Tok::Var) {
            while matches!(self.peek(), Tok::Ident(_)) {
                locals.push(self.var_decl()?);
            }
        }
        self.expect(Tok::Begin)?;
        let body = self.stmt_list(&[Tok::End])?;
        self.expect(Tok::End)?;
        let end_name = self.name()?;
        if end_name != name {
            return Err(Diagnostic::new(
                Phase::Parse,
                pos,
                format!("procedure `{name}` ends with mismatched name `{end_name}`"),
            ));
        }
        self.expect(Tok::Semi)?;
        Ok(ProcDecl { name: name.to_owned(), formals, ret, locals, body, pos })
    }

    fn module(&mut self) -> PResult<Module> {
        self.expect(Tok::Module)?;
        let name = self.name()?;
        self.expect(Tok::Semi)?;
        let mut module = Module {
            name: name.to_owned(),
            types: Vec::new(),
            consts: Vec::new(),
            vars: Vec::new(),
            procs: Vec::new(),
            body: Vec::new(),
            n_exprs: 0,
        };
        loop {
            match self.peek() {
                Tok::Type => {
                    self.bump();
                    while matches!(self.peek(), Tok::Ident(_)) && self.peek2() == Tok::Eq {
                        let pos = self.here();
                        let tname = self.ident()?;
                        self.expect(Tok::Eq)?;
                        let ty = self.type_expr()?;
                        self.expect(Tok::Semi)?;
                        module.types.push(TypeDecl { name: tname, ty, pos });
                    }
                }
                Tok::Const => {
                    self.bump();
                    while matches!(self.peek(), Tok::Ident(_)) && self.peek2() == Tok::Eq {
                        let pos = self.here();
                        let cname = self.ident()?;
                        self.expect(Tok::Eq)?;
                        let value = self.expr()?;
                        self.expect(Tok::Semi)?;
                        module.consts.push(ConstDecl { name: cname, value, pos });
                    }
                }
                Tok::Var => {
                    self.bump();
                    while matches!(self.peek(), Tok::Ident(_)) {
                        module.vars.push(self.var_decl()?);
                    }
                }
                Tok::Procedure => {
                    self.bump();
                    module.procs.push(self.proc_decl()?);
                }
                Tok::Begin => break,
                other => {
                    return self.err(format!("expected a declaration or BEGIN, found {other}"))
                }
            }
        }
        self.expect(Tok::Begin)?;
        module.body = self.stmt_list(&[Tok::End])?;
        self.expect(Tok::End)?;
        let end_name = self.name()?;
        if end_name != name {
            return self.err(format!("module `{name}` ends with mismatched name `{end_name}`"));
        }
        self.expect(Tok::Dot)?;
        module.n_exprs = self.next_expr_id;
        Ok(module)
    }
}

/// Parses a token stream into a module.
///
/// # Errors
///
/// Returns the first syntax [`Diagnostic`].
pub fn parse(tokens: Vec<Spanned<'_>>) -> Result<Module, Diagnostic> {
    let mut p = Parser { toks: tokens, pos: 0, next_expr_id: 0 };
    p.module()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Module {
        parse(lex(src).unwrap()).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn minimal_module() {
        let m = parse_src("MODULE M; BEGIN END M.");
        assert_eq!(m.name, "M");
        assert!(m.body.is_empty());
    }

    #[test]
    fn declarations() {
        let m = parse_src(
            "MODULE M;
             TYPE List = REF RECORD head: INTEGER; tail: List END;
             CONST N = 10;
             VAR a, b: INTEGER; p: List;
             BEGIN END M.",
        );
        assert_eq!(m.types.len(), 1);
        assert_eq!(m.consts.len(), 1);
        assert_eq!(m.vars.len(), 2);
        assert_eq!(m.vars[0].names, vec!["a", "b"]);
    }

    #[test]
    fn procedure_with_var_params() {
        let m = parse_src(
            "MODULE M;
             PROCEDURE Swap(VAR x, y: INTEGER) =
             VAR t: INTEGER;
             BEGIN
               t := x; x := y; y := t;
             END Swap;
             BEGIN END M.",
        );
        assert_eq!(m.procs.len(), 1);
        let p = &m.procs[0];
        assert!(p.formals[0].var);
        assert_eq!(p.formals[0].names, vec!["x", "y"]);
        assert_eq!(p.locals.len(), 1);
        assert_eq!(p.body.len(), 3);
    }

    #[test]
    fn control_flow_statements() {
        let m = parse_src(
            "MODULE M;
             VAR i, s: INTEGER; done: BOOLEAN;
             BEGIN
               FOR i := 1 TO 10 DO s := s + i; END;
               WHILE s > 0 DO s := s - 1; END;
               REPEAT s := s + 1; UNTIL s = 5;
               LOOP EXIT; END;
               IF s = 5 THEN s := 0; ELSIF s > 5 THEN s := 1; ELSE s := 2; END;
             END M.",
        );
        assert_eq!(m.body.len(), 5);
    }

    #[test]
    fn designators_and_calls() {
        let m = parse_src(
            "MODULE M;
             TYPE T = REF ARRAY [1..5] OF INTEGER;
             VAR a: T; x: INTEGER;
             BEGIN
               x := a[2] + a^[3];
               PutInt(x);
             END M.",
        );
        assert_eq!(m.body.len(), 2);
        match &m.body[1].kind {
            StmtKind::Call(e) => {
                assert!(matches!(&e.kind, ExprKind::Call { name, .. } if name == "PutInt"))
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn new_with_length() {
        let m = parse_src(
            "MODULE M;
             TYPE A = REF ARRAY OF INTEGER;
             VAR a: A;
             BEGIN a := NEW(A, 10); END M.",
        );
        match &m.body[0].kind {
            StmtKind::Assign { rhs, .. } => assert!(matches!(rhs.kind, ExprKind::New { .. })),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn with_statement() {
        let m = parse_src(
            "MODULE M;
             TYPE R = REF RECORD f: INTEGER END;
             VAR r: R;
             BEGIN WITH h = r.f DO h := 3; END; END M.",
        );
        assert!(matches!(m.body[0].kind, StmtKind::With { .. }));
    }

    #[test]
    fn operator_precedence() {
        let m = parse_src(
            "MODULE M; VAR x: BOOLEAN; a: INTEGER; BEGIN x := a + 1 * 2 < 3 AND NOT x; END M.",
        );
        // Shape: (a + (1*2)) < 3 AND (NOT x) → And(Lt(...), Not(x))
        let StmtKind::Assign { rhs, .. } = &m.body[0].kind else { panic!() };
        let ExprKind::Bin(BinOp::And, l, r) = &rhs.kind else { panic!("{rhs:?}") };
        assert!(matches!(l.kind, ExprKind::Bin(BinOp::Lt, _, _)));
        assert!(matches!(r.kind, ExprKind::Un(UnOp::Not, _)));
    }

    #[test]
    fn not_binds_below_relations_which_do_not_associate() {
        let m =
            parse_src("MODULE M; VAR x: BOOLEAN; a: INTEGER; BEGIN x := NOT a = 1 OR x; END M.");
        let StmtKind::Assign { rhs, .. } = &m.body[0].kind else { panic!() };
        let ExprKind::Bin(BinOp::Or, l, _) = &rhs.kind else { panic!("{rhs:?}") };
        let ExprKind::Un(UnOp::Not, e) = &l.kind else { panic!("{l:?}") };
        assert!(matches!(e.kind, ExprKind::Bin(BinOp::Eq, _, _)));
        for src in [
            "MODULE M; VAR x: BOOLEAN; BEGIN x := 1 < 2 < 3; END M.",
            "MODULE M; VAR x: BOOLEAN; BEGIN x := x AND 1 < 2 < 3; END M.",
            "MODULE M; VAR x: BOOLEAN; BEGIN x := NOT 1 < 2 = x; END M.",
        ] {
            let e = parse(lex(src).unwrap()).unwrap_err();
            assert!(e.message.starts_with("expected `;`, found `"), "{src}: {e}");
        }
    }

    #[test]
    fn mismatched_end_name_is_error() {
        let r = parse(lex("MODULE M; BEGIN END N.").unwrap());
        assert!(r.is_err());
    }

    #[test]
    fn expr_ids_are_unique_and_dense() {
        let m = parse_src("MODULE M; VAR x: INTEGER; BEGIN x := 1 + 2; END M.");
        assert!(m.n_exprs >= 3);
    }
}
