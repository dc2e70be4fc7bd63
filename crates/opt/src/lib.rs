//! Optimization passes over the m3gc IR.
//!
//! The paper's point is that gc support must coexist with a *highly
//! optimizing* compiler, because optimization is what manufactures untidy
//! pointers (§2). This crate implements the optimizations named there —
//! each one maintains (or rather, is made transparent to) the derivation
//! model, because derived values are re-inferred syntactically from the
//! optimized code:
//!
//! * [`local`] — per-block value numbering: constant folding, copy
//!   propagation and common subexpression elimination (CSE is §2's third
//!   example: `&A[i]` computed once and indexed twice);
//! * [`dce`] — dead code elimination;
//! * [`simplify`] — CFG cleanup (jump threading, block merging,
//!   unreachable-code removal);
//! * [`licm`] — loop-invariant code motion with reassociation, which
//!   hoists `&A[0]`-style *virtual array origins* out of loops (§2's
//!   second example: an untidy pointer that may point outside its
//!   object);
//! * [`strength`] — strength reduction of induction-variable addressing
//!   (§2's first example: `A[i]; INC(i)` becomes `*p++`), creating
//!   loop-carried derived values whose base the *dead base* rule must
//!   keep alive;
//! * [`split`] — *path splitting* (Figure 2), the code-duplication
//!   alternative to path variables for ambiguous derivations.

pub mod dce;
pub mod licm;
pub mod local;
pub mod simplify;
pub mod split;
pub mod strength;

use std::time::{Duration, Instant};

use m3gc_ir::{Function, Program};

/// Optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// No optimization (straight lowering output).
    O0,
    /// Local optimizations: value numbering, DCE, CFG cleanup.
    O1,
    /// Plus loop optimizations: LICM/reassociation, strength reduction.
    O2,
}

/// How ambiguous derivations are resolved (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathStrategy {
    /// Introduce path variables (the paper's choice).
    #[default]
    Variables,
    /// Duplicate code so each copy has a unique derivation (Figure 2).
    /// Falls back to path variables where the pattern is too complex.
    Splitting,
}

/// Optimizer options.
#[derive(Debug, Clone, Copy)]
pub struct OptOptions {
    /// Level.
    pub level: OptLevel,
    /// Ambiguity resolution strategy.
    pub path_strategy: PathStrategy,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions { level: OptLevel::O2, path_strategy: PathStrategy::Variables }
    }
}

/// Wall-clock time of each pass, as [`optimize_program_timed`] measured
/// it, summed over every function and round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassTimes {
    /// Local value numbering.
    pub lvn: Duration,
    /// Loop-invariant code motion.
    pub licm: Duration,
    /// Strength reduction.
    pub sr: Duration,
    /// Dead code elimination.
    pub dce: Duration,
    /// CFG simplification.
    pub simplify: Duration,
    /// Path splitting.
    pub split: Duration,
}

/// `lvn 12 µs licm 3 µs …`: every pass, in pipeline order.
impl std::fmt::Display for PassTimes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let passes = [
            ("lvn", self.lvn),
            ("licm", self.licm),
            ("sr", self.sr),
            ("dce", self.dce),
            ("simplify", self.simplify),
            ("split", self.split),
        ];
        for (i, (name, time)) in passes.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{name} {} µs", time.as_micros())?;
        }
        Ok(())
    }
}

/// Where the driver reports each pass's time: nowhere (`()`, which
/// compiles to the bare calls) or into a [`PassTimes`].
trait Clock {
    fn time<T>(&mut self, pass: fn(&mut PassTimes) -> &mut Duration, run: impl FnOnce() -> T) -> T;
}

impl Clock for () {
    fn time<T>(&mut self, _: fn(&mut PassTimes) -> &mut Duration, run: impl FnOnce() -> T) -> T {
        run()
    }
}

impl Clock for PassTimes {
    fn time<T>(&mut self, pass: fn(&mut PassTimes) -> &mut Duration, run: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = run();
        *pass(self) += started.elapsed();
        out
    }
}

/// Buffers the passes reuse from one call to the next.
#[derive(Default)]
struct Scratch {
    lvn: local::BlockState,
    dce: dce::Buffers,
}

/// Optimizes one function in place.
pub fn optimize_function(f: &mut Function, options: &OptOptions) {
    optimize_with(f, options, &mut Scratch::default(), &mut ());
}

fn optimize_with(
    f: &mut Function,
    options: &OptOptions,
    scratch: &mut Scratch,
    clock: &mut impl Clock,
) {
    if options.level == OptLevel::O0 {
        return;
    }
    // A few rounds to let the passes feed each other; each is idempotent
    // so over-iterating is merely wasted work.
    for round in 0..3 {
        let mut changed = false;
        changed |= clock.time(|t| &mut t.lvn, || local::number_values(f, &mut scratch.lvn)) > 0;
        if options.level >= OptLevel::O2 && round == 0 {
            changed |= clock.time(|t| &mut t.licm, || licm::loop_invariant_code_motion(f)) > 0;
            changed |= clock.time(|t| &mut t.sr, || strength::strength_reduce(f)) > 0;
        }
        changed |= clock.time(|t| &mut t.dce, || scratch.dce.eliminate(f)) > 0;
        changed |= clock.time(|t| &mut t.simplify, || simplify::simplify_cfg(f)) > 0;
        if !changed {
            break;
        }
    }
    if options.path_strategy == PathStrategy::Splitting {
        clock.time(|t| &mut t.split, || split::split_paths(f));
    }
}

/// Optimizes every function of a program.
pub fn optimize_program(prog: &mut Program, options: &OptOptions) {
    let mut scratch = Scratch::default();
    for f in &mut prog.funcs {
        optimize_with(f, options, &mut scratch, &mut ());
    }
}

/// [`optimize_program`], adding each pass's time to `times`.
pub fn optimize_program_timed(prog: &mut Program, options: &OptOptions, times: &mut PassTimes) {
    let mut scratch = Scratch::default();
    for f in &mut prog.funcs {
        optimize_with(f, options, &mut scratch, times);
    }
}
