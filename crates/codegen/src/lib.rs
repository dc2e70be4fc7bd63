//! IR → VM code generation with gc-map emission.
//!
//! This crate implements the compiler-side half of the paper:
//!
//! * **gc-point placement** (§5.3): allocations are gc-points, loops
//!   that do not execute a guaranteed gc-point on every iteration get an
//!   explicit poll at their header so pre-empted threads reach a gc-point
//!   in bounded time, and a call is a gc-point exactly when its callee
//!   may park — holds an allocation or a poll, or calls a procedure that
//!   may park ([`gcpoints::may_park`]);
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

/// GC-related code generation configuration: the two knobs a paper
/// experiment turns. Which calls are gc-points is not a knob: a call is
/// one exactly when its callee may park (see [`gcpoints`]).
///
/// Pointer stores into heap objects always get a write barrier
/// ([`m3gc_vm::isa::Instr::StB`]), elided when the stored value is
/// statically a non-pointer, the target object is provably nursery-fresh
/// (allocated in this block with no gc-point since) or provably outside
/// the heap (a frame-slot or global address). On a non-generational heap
/// the barrier degenerates to a plain store.
#[derive(Debug, Clone, Copy)]
pub struct GcConfig {
    /// Emit gc maps and apply gc liveness rules. Turning this off gives
    /// the §6.2 baseline compiler for code-difference measurements (E62).
    pub emit_tables: bool,
    /// Insert gc-points in loops without a guaranteed one (ablation A2).
    pub loop_gc_points: bool,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig { emit_tables: true, loop_gc_points: true }
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
