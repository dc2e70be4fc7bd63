//! Baseline native JIT with gc-maps keyed by native return addresses.
//!
//! The paper's thesis is that the compiler can emit tables precise
//! enough for the collector to walk *any* stopped frame. The rest of
//! this repository proves that for a byte-coded interpreter whose
//! frames hold bytecode pcs; this crate pushes the claim to its
//! logical end: procedures are template-compiled to x86-64 at load
//! time, and a JIT frame's linkage word holds a **biased native return
//! address** instead of a pc. A [`CodeMap`](m3gc_vm::codemap::CodeMap)
//! resolves such a token — by floor search over the registered native
//! call-return offsets — to the bytecode gc-point it stands for, after
//! which the ordinary pc-keyed machinery (table decoder, decode cache,
//! stack walk) applies unchanged. No
//! collector source changes: semispace, generational, parallel and
//! concurrent-marking collectors all walk mixed interpreter/JIT stacks
//! through the one resolution seam.
//!
//! The compiler ([`compile`]) is a classic baseline/template design:
//! no register allocation (VM registers stay in memory), every
//! interpreter-observable effect reproduced exactly — the same bounds
//! checks, the same trap codes, the same safepoint protocol (native
//! code polls the *same* gc flag at the *same* park sites and stops
//! with the same outcome), the same allocation fast path
//! discipline (one compare against the torture-aware fast limit).
//! Anything the templates cannot express falls back per-procedure to
//! the interpreter with a counted, `--stats`-visible reason, and mixed
//! stacks — JIT calling interpreted and vice versa — walk correctly
//! because call/return transfers always round-trip through the engine.
//!
//! Layering: `m3gc-core` ← `m3gc-vm` ← **`m3gc-jit`** ← `m3gc-runtime`.
//! The runtime drives every thread through [`JitEngine::run`] — over an
//! engine compiled from the machine when `--jit` is set, over
//! [`JitEngine::interpreter`] otherwise; everything else is unchanged.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod compile;
pub mod emit;
pub mod engine;
pub mod exec;

pub use compile::Fallback;
pub use engine::{JitContext, JitEngine, JitStats, JitSummary};
