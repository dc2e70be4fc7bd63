//! Derivation inference and path-variable insertion (paper §3–4).
//!
//! A temp is *pointer-like* if it is a declared tidy pointer or a derived
//! value. A def `t := a ± b` with pointer-like operands makes `t` derived,
//! with the pointer-like operands as its bases (note a base may itself be a
//! derived value — the collector orders updates to cope, §3). Because the
//! IR is not SSA, a temp may have several defs with *different* base lists;
//! that is exactly the paper's *ambiguous derivation* (§4), and we resolve
//! it the way the paper does: introduce a *path variable*, assign it a
//! variant index at each def, and emit one derivation variant per distinct
//! base list.

use m3gc_core::derive::Sign;

use crate::func::{Function, TempKind};
use crate::ids::Temp;
use crate::instr::{BinOp, Instr, UnOp};

/// How a derived temp's value was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DerivKind {
    /// One derivation reaches every use.
    Simple(Vec<(Temp, Sign)>),
    /// Multiple derivations; `path_var` holds the index of the one that
    /// actually happened.
    Ambiguous {
        /// The compiler-introduced path variable.
        path_var: Temp,
        /// Distinct base lists, indexed by the path variable's value.
        variants: Vec<Vec<(Temp, Sign)>>,
    },
}

impl DerivKind {
    /// Every temp that can appear as a base, across all variants.
    pub fn base_temps(&self) -> impl Iterator<Item = Temp> + '_ {
        let slices: Vec<&[(Temp, Sign)]> = match self {
            DerivKind::Simple(b) => vec![b.as_slice()],
            DerivKind::Ambiguous { variants, .. } => variants.iter().map(Vec::as_slice).collect(),
        };
        slices.into_iter().flatten().map(|&(t, _)| t).collect::<Vec<_>>().into_iter()
    }
}

/// The result of derivation inference over one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivAnalysis {
    /// Per-temp derivation, `None` for non-derived temps. Indexed by temp.
    pub derivs: Vec<Option<DerivKind>>,
    /// By-reference parameter flags (copied from the function): such
    /// parameters are pointer-like (values derived from them record them
    /// as bases) but are updated by the **caller's** derivation record for
    /// the argument slot, never traced directly.
    pub byref: Vec<bool>,
}

impl DerivAnalysis {
    /// Is `t` a derived value?
    #[must_use]
    pub fn is_derived(&self, t: Temp) -> bool {
        self.derivs.get(t.index()).is_some_and(Option::is_some)
    }

    /// The derivation of `t`, if derived.
    #[must_use]
    pub fn deriv(&self, t: Temp) -> Option<&DerivKind> {
        self.derivs.get(t.index()).and_then(Option::as_ref)
    }

    /// Is `t` a by-reference parameter?
    #[must_use]
    pub fn is_byref(&self, t: Temp) -> bool {
        self.byref.get(t.index()).copied().unwrap_or(false)
    }

    /// Is `t` pointer-like (tidy pointer, derived value, or by-ref
    /// parameter) in `f`?
    #[must_use]
    pub fn is_ptr_like(&self, f: &Function, t: Temp) -> bool {
        f.is_ptr(t) || self.is_derived(t) || self.is_byref(t)
    }

    /// Appends `t`'s transitive support to `out`: for a derived temp, its
    /// path variable (if any) and all variant bases, recursively through
    /// derived bases. This is what the *dead base* rule (§4) turns into at
    /// liveness time: a use of a derived value is a use of its bases.
    pub fn expand_support(&self, t: Temp, out: &mut Vec<Temp>) {
        // A support is a handful of temps: a list of the ones seen is
        // cheaper than a flag per temp of the function.
        let mut stack = vec![t];
        let mut seen = Vec::new();
        while let Some(x) = stack.pop() {
            if seen.contains(&x) {
                continue;
            }
            seen.push(x);
            if let Some(kind) = self.deriv(x) {
                if let DerivKind::Ambiguous { path_var, .. } = kind {
                    out.push(*path_var);
                }
                for b in kind.base_temps() {
                    out.push(b);
                    stack.push(b);
                }
            }
        }
    }
}

/// The base list contributed by one defining instruction, given the current
/// pointer-like set. `None` means "this instruction cannot define a derived
/// value" (e.g. loads, calls).
fn def_bases(ins: &Instr, ptr_like: &[bool]) -> Option<Vec<(Temp, Sign)>> {
    let pl = |t: Temp| ptr_like[t.index()];
    match ins {
        Instr::Copy { src, .. } => {
            if pl(*src) {
                Some(vec![(*src, Sign::Plus)])
            } else {
                Some(vec![])
            }
        }
        Instr::Bin { op: BinOp::Add, a, b, .. } => {
            let mut bases = Vec::new();
            if pl(*a) {
                bases.push((*a, Sign::Plus));
            }
            if pl(*b) {
                bases.push((*b, Sign::Plus));
            }
            Some(bases)
        }
        Instr::Bin { op: BinOp::Sub, a, b, .. } => {
            let mut bases = Vec::new();
            if pl(*a) {
                bases.push((*a, Sign::Plus));
            }
            if pl(*b) {
                bases.push((*b, Sign::Minus));
            }
            Some(bases)
        }
        Instr::Un { op: UnOp::Neg, a, .. } => {
            if pl(*a) {
                Some(vec![(*a, Sign::Minus)])
            } else {
                Some(vec![])
            }
        }
        Instr::Const { .. } => Some(vec![]),
        // Loads, address-ofs, calls, allocations produce tidy pointers or
        // plain integers, never derived values.
        _ => Some(vec![]),
    }
}

/// Computes the pointer-like set of `f` without mutating it.
fn ptr_like_fixpoint(f: &Function) -> Vec<bool> {
    let n = f.temp_count();
    let mut ptr_like: Vec<bool> = (0..n)
        .map(|i| {
            f.temp_kinds[i] == TempKind::Ptr || f.byref_params.get(i).copied().unwrap_or(false)
        })
        .collect();
    loop {
        let mut changed = false;
        for block in &f.blocks {
            for ins in &block.instrs {
                let Some(dst) = ins.def() else { continue };
                if f.temp_kinds[dst.index()] == TempKind::Ptr {
                    continue;
                }
                if let Some(bases) = def_bases(ins, &ptr_like) {
                    if !bases.is_empty() && !ptr_like[dst.index()] {
                        ptr_like[dst.index()] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return ptr_like;
        }
    }
}

/// Finds temps whose defs produce **conflicting** derivations (ambiguous
/// derivations, §4), without mutating the function. The path-splitting
/// alternative (Figure 2) uses this to decide what to duplicate;
/// [`analyze_and_resolve`] would instead give these temps path variables.
#[must_use]
pub fn find_ambiguous(f: &Function) -> Vec<Temp> {
    let ptr_like = ptr_like_fixpoint(f);
    let n = f.temp_count();
    let derived = |t: Temp| {
        ptr_like[t.index()]
            && f.temp_kinds[t.index()] != TempKind::Ptr
            && !f.byref_params.get(t.index()).copied().unwrap_or(false)
    };
    let mut variants: Vec<Vec<Vec<(Temp, Sign)>>> = vec![Vec::new(); n];
    for (p, v) in variants.iter_mut().enumerate().take(f.n_params) {
        if derived(Temp(p as u32)) {
            v.push(Vec::new());
        }
    }
    for block in &f.blocks {
        for ins in &block.instrs {
            let Some(dst) = ins.def() else { continue };
            if !derived(dst) {
                continue;
            }
            let bases = def_bases(ins, &ptr_like).unwrap_or_default();
            if !variants[dst.index()].contains(&bases) {
                variants[dst.index()].push(bases);
            }
        }
    }
    (0..n as u32).map(Temp).filter(|t| derived(*t) && variants[t.index()].len() > 1).collect()
}

/// Infers derivations for every temp of `f`, inserting path-variable
/// assignments where a temp has conflicting derivations (§4), and returns
/// the analysis. Declared-`Ptr` temps are never derived (the verifier
/// rejects pointer arithmetic targeting them).
pub fn analyze_and_resolve(f: &mut Function) -> DerivAnalysis {
    let n = f.temp_count();
    // Fixpoint on the pointer-like set: derivedness feeds back into base
    // extraction (a base may be a derived temp).
    let mut ptr_like: Vec<bool> = (0..n)
        .map(|i| {
            f.temp_kinds[i] == TempKind::Ptr || f.byref_params.get(i).copied().unwrap_or(false)
        })
        .collect();
    loop {
        let mut changed = false;
        for block in &f.blocks {
            for ins in &block.instrs {
                let Some(dst) = ins.def() else { continue };
                if f.temp_kinds[dst.index()] == TempKind::Ptr {
                    continue; // tidy by declaration
                }
                if let Some(bases) = def_bases(ins, &ptr_like) {
                    if !bases.is_empty() && !ptr_like[dst.index()] {
                        ptr_like[dst.index()] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Collect per-def base lists for each derived temp (derived = Int temp
    // that is pointer-like).
    let kinds: Vec<TempKind> = f.temp_kinds.clone();
    let byref = f.byref_params.clone();
    let ptr_like_final = ptr_like.clone();
    let byref_flag = byref.clone();
    let derived = move |t: Temp| {
        ptr_like_final[t.index()]
            && kinds[t.index()] != TempKind::Ptr
            && !byref_flag.get(t.index()).copied().unwrap_or(false)
    };
    // variants[t] = distinct base lists in first-seen order.
    let mut variants: Vec<Vec<Vec<(Temp, Sign)>>> = vec![Vec::new(); n];
    // A derived temp that is also a parameter has an implicit entry def
    // with unknown (empty) bases.
    for (p, v) in variants.iter_mut().enumerate().take(f.n_params) {
        if derived(Temp(p as u32)) {
            v.push(Vec::new());
        }
    }
    for block in &f.blocks {
        for ins in &block.instrs {
            let Some(dst) = ins.def() else { continue };
            if !derived(dst) {
                continue;
            }
            let bases = def_bases(ins, &ptr_like).unwrap_or_default();
            if !variants[dst.index()].contains(&bases) {
                variants[dst.index()].push(bases);
            }
        }
    }

    // Assign path variables to ambiguous temps and record the variant index
    // chosen at each def.
    let mut path_vars: Vec<Option<Temp>> = vec![None; n];
    let ambiguous: Vec<Temp> =
        (0..n as u32).map(Temp).filter(|&t| derived(t) && variants[t.index()].len() > 1).collect();
    for &t in &ambiguous {
        path_vars[t.index()] = Some(f.new_temp(TempKind::Int));
    }
    if !ambiguous.is_empty() {
        // Insert `pv := variant_index` immediately after each def.
        for block in &mut f.blocks {
            let mut i = 0;
            while i < block.instrs.len() {
                let ins = &block.instrs[i];
                if let Some(dst) = ins.def() {
                    if let Some(pv) = path_vars[dst.index()] {
                        let bases = def_bases(ins, &ptr_like).unwrap_or_default();
                        let idx = variants[dst.index()]
                            .iter()
                            .position(|v| *v == bases)
                            .expect("variant recorded during collection");
                        block.instrs.insert(i + 1, Instr::Const { dst: pv, value: idx as i64 });
                        i += 1;
                    }
                }
                i += 1;
            }
        }
        // Parameters' implicit entry defs take variant 0 (the empty list):
        // initialize their path variables at function entry.
        let entry = f.entry;
        for p in (0..f.n_params).rev() {
            let t = Temp(p as u32);
            if let Some(pv) = path_vars[t.index()] {
                f.block_mut(entry).instrs.insert(0, Instr::Const { dst: pv, value: 0 });
            }
        }
    }

    // Build the final analysis (path vars themselves are plain ints).
    let mut derivs: Vec<Option<DerivKind>> = vec![None; f.temp_count()];
    for t in (0..n as u32).map(Temp) {
        if !derived(t) {
            continue;
        }
        let v = std::mem::take(&mut variants[t.index()]);
        derivs[t.index()] = Some(match path_vars[t.index()] {
            None => DerivKind::Simple(v.into_iter().next().unwrap_or_default()),
            Some(pv) => DerivKind::Ambiguous { path_var: pv, variants: v },
        });
    }
    DerivAnalysis { derivs, byref }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::func::Function;
    use crate::ids::FuncId;
    use crate::instr::Terminator;

    /// `d := p + i` where p is a pointer: d is derived from p.
    #[test]
    fn simple_derivation() {
        let mut b = FuncBuilder::new("t", &[TempKind::Ptr, TempKind::Int]);
        let d = b.bin(BinOp::Add, Temp(0), Temp(1));
        b.ret(None);
        let mut f = b.finish();
        let a = analyze_and_resolve(&mut f);
        assert!(a.is_derived(d));
        assert_eq!(a.deriv(d), Some(&DerivKind::Simple(vec![(Temp(0), Sign::Plus)])));
    }

    /// `d := p - q`: derived from both, q negatively (double indexing, §2).
    #[test]
    fn pointer_difference() {
        let mut b = FuncBuilder::new("t", &[TempKind::Ptr, TempKind::Ptr]);
        let d = b.bin(BinOp::Sub, Temp(0), Temp(1));
        b.ret(None);
        let mut f = b.finish();
        let a = analyze_and_resolve(&mut f);
        assert_eq!(
            a.deriv(d),
            Some(&DerivKind::Simple(vec![(Temp(0), Sign::Plus), (Temp(1), Sign::Minus)]))
        );
    }

    /// Chained derivation: d2 := d1 + k keeps d1 (itself derived) as base.
    #[test]
    fn chained_derivation_and_support() {
        let mut b = FuncBuilder::new("t", &[TempKind::Ptr, TempKind::Int]);
        let d1 = b.bin(BinOp::Add, Temp(0), Temp(1));
        let d2 = b.bin(BinOp::Add, d1, Temp(1));
        b.ret(None);
        let mut f = b.finish();
        let a = analyze_and_resolve(&mut f);
        assert_eq!(a.deriv(d2), Some(&DerivKind::Simple(vec![(d1, Sign::Plus)])));
        let mut support = Vec::new();
        a.expand_support(d2, &mut support);
        assert!(support.contains(&d1), "derived base in support");
        assert!(support.contains(&Temp(0)), "transitive tidy base in support");
    }

    /// The paper's ambiguous case: t is derived from P in one branch and Q
    /// in the other; a path variable must be introduced.
    #[test]
    fn ambiguous_derivation_gets_path_variable() {
        let mut f =
            Function::new("t", FuncId(0), &[TempKind::Ptr, TempKind::Ptr, TempKind::Int], None);
        let t = f.new_temp(TempKind::Int);
        let bt = f.new_block();
        let bf = f.new_block();
        let join = f.new_block();
        f.block_mut(f.entry).term = Terminator::Br { cond: Temp(2), then_bb: bt, else_bb: bf };
        f.block_mut(bt).instrs.push(Instr::Bin { dst: t, op: BinOp::Add, a: Temp(0), b: Temp(2) });
        f.block_mut(bt).term = Terminator::Jump(join);
        f.block_mut(bf).instrs.push(Instr::Bin { dst: t, op: BinOp::Add, a: Temp(1), b: Temp(2) });
        f.block_mut(bf).term = Terminator::Jump(join);
        f.block_mut(join).term = Terminator::Ret(None);

        let a = analyze_and_resolve(&mut f);
        let Some(DerivKind::Ambiguous { path_var, variants }) = a.deriv(t) else {
            panic!("expected ambiguous derivation, got {:?}", a.deriv(t));
        };
        assert_eq!(variants.len(), 2);
        assert_eq!(variants[0], vec![(Temp(0), Sign::Plus)]);
        assert_eq!(variants[1], vec![(Temp(1), Sign::Plus)]);
        // Each branch must now set the path variable to its variant index.
        let assigned: Vec<i64> = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter_map(|i| match i {
                Instr::Const { dst, value } if dst == path_var => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(assigned, vec![0, 1]);
    }

    /// Same base list in both branches: no ambiguity, no path variable.
    #[test]
    fn agreeing_defs_stay_simple() {
        let mut f = Function::new("t", FuncId(0), &[TempKind::Ptr, TempKind::Int], None);
        let t = f.new_temp(TempKind::Int);
        let bt = f.new_block();
        let bf = f.new_block();
        let join = f.new_block();
        f.block_mut(f.entry).term = Terminator::Br { cond: Temp(1), then_bb: bt, else_bb: bf };
        f.block_mut(bt).instrs.push(Instr::Bin { dst: t, op: BinOp::Add, a: Temp(0), b: Temp(1) });
        f.block_mut(bt).term = Terminator::Jump(join);
        f.block_mut(bf).instrs.push(Instr::Bin { dst: t, op: BinOp::Add, a: Temp(0), b: Temp(1) });
        f.block_mut(bf).term = Terminator::Jump(join);
        f.block_mut(join).term = Terminator::Ret(None);
        let n_before = f.instr_count();
        let a = analyze_and_resolve(&mut f);
        assert!(matches!(a.deriv(t), Some(DerivKind::Simple(_))));
        assert_eq!(f.instr_count(), n_before, "no path-variable assignments inserted");
    }

    /// An init-to-zero def plus a deriving def: variant 0 is the empty base
    /// list (strength-reduction init pattern).
    #[test]
    fn int_init_plus_derivation_is_ambiguous_with_empty_variant() {
        let mut b = FuncBuilder::new("t", &[TempKind::Ptr]);
        let t = b.constant(0);
        let t2 = b.bin(BinOp::Add, Temp(0), t);
        // redefine t with pointer arithmetic
        b.push(Instr::Bin { dst: t, op: BinOp::Add, a: Temp(0), b: t2 });
        b.ret(None);
        let mut f = b.finish();
        let a = analyze_and_resolve(&mut f);
        let Some(DerivKind::Ambiguous { variants, .. }) = a.deriv(t) else {
            panic!("expected ambiguous");
        };
        assert_eq!(variants[0], vec![]);
        assert_eq!(variants.len(), 2);
    }

    /// Declared pointers are never derived.
    #[test]
    fn tidy_pointers_not_derived() {
        let mut b = FuncBuilder::new("t", &[TempKind::Ptr]);
        let p = b.copy_of(Temp(0), TempKind::Ptr);
        b.ret(Some(p));
        let mut f = b.finish();
        let a = analyze_and_resolve(&mut f);
        assert!(!a.is_derived(p));
        assert!(a.is_ptr_like(&f, p));
    }
}
