//! IR → VM code generation with gc-map emission.
//!
//! This crate implements the compiler-side half of the paper:
//!
//! * **gc-point placement** (§5.3): calls are gc-points (all of them, or —
//!   with the interprocedural refinement — only calls to transitively
//!   allocating procedures), allocations are gc-points, and loops that do
//!   not execute a guaranteed gc-point on every iteration get an explicit
//!   one on the back edge so pre-empted threads reach a gc-point in
//!   bounded time;
//! * **liveness-driven map emission**: at every gc-point the generator
//!   records which frame slots and registers hold live tidy pointers and
//!   the derivation of every live derived value (with path variables for
//!   ambiguous ones), honouring the *dead base* rule — the bases of a
//!   derived value pushed as a `VAR` argument stay live (and in
//!   callee-save registers or memory) for the duration of the call;
//! * **register allocation** ([`regalloc`]): linear scan over liveness
//!   intervals; values live across calls use callee-save registers or
//!   spill, so a suspended frame's register contents can always be
//!   reconstructed from save areas;
//! * **frame layout**: callee-save area, source variable slots, spill
//!   slots — all described by ground-table entries relative to `FP`/`AP`
//!   exactly as in Figure 4.

pub mod emit;
pub mod gcpoints;
pub mod regalloc;

use m3gc_core::encode::Scheme;
use m3gc_ir::Program;
use m3gc_vm::VmModule;

/// Which calls are gc-points (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallPolicy {
    /// Every call except non-allocating runtime services — the paper's
    /// implementation (required for pre-emptive threads).
    AllCalls,
    /// Only calls to (transitively) allocating procedures — the
    /// interprocedural refinement the paper mentions; sound only
    /// single-threaded.
    AllocatingOnly,
}

/// GC-related code generation configuration.
#[derive(Debug, Clone, Copy)]
pub struct GcConfig {
    /// Emit gc maps and apply gc liveness rules. Turning this off gives
    /// the §6.2 baseline compiler for code-difference measurements.
    pub emit_tables: bool,
    /// Which calls are gc-points.
    pub calls: CallPolicy,
    /// Insert gc-points in loops without a guaranteed one.
    pub loop_gc_points: bool,
    /// Emit write barriers ([`m3gc_vm::isa::Instr::StB`]) at pointer
    /// stores into heap objects, for generational collection. Barriers
    /// are elided when the stored value is statically a non-pointer or
    /// the target object is provably nursery-fresh (allocated in this
    /// block with no gc-point since) or provably outside the heap (a
    /// frame-slot or global address). On a non-generational heap the
    /// barrier instruction degenerates to a plain store, so barrier-
    /// compiled code runs unchanged under either collector.
    pub write_barriers: bool,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            emit_tables: true,
            calls: CallPolicy::AllCalls,
            loop_gc_points: true,
            write_barriers: true,
        }
    }
}

/// Code generation options.
#[derive(Debug, Clone, Copy)]
pub struct CodegenOptions {
    /// GC strategy.
    pub gc: GcConfig,
    /// Encoding scheme for the emitted tables.
    pub scheme: Scheme,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions { gc: GcConfig::default(), scheme: Scheme::DELTA_MAIN_PP }
    }
}

/// Compiles an IR program to a VM module.
///
/// The program is mutated: loop gc-points and path-variable assignments
/// are inserted as needed.
///
/// # Panics
///
/// Panics on malformed IR (run `m3gc_ir::verify` first).
#[must_use]
pub fn compile_program(prog: &mut Program, options: &CodegenOptions) -> VmModule {
    emit::compile(prog, options)
}
