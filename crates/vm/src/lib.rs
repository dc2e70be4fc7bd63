//! A VAX-flavoured virtual register machine.
//!
//! The paper's measurements are tied to a concrete machine: Table 1
//! reports program sizes in bytes, ground-table entries encode `{FP, SP,
//! AP} + offset` (Figure 4), and the collector reconstructs register
//! contents "as of the time of the call" from callee save areas. This
//! crate provides that machine:
//!
//! * a word-addressed memory (`i64` words) holding globals, per-thread
//!   stacks and a two-semispace heap,
//! * twelve general-purpose registers (r6–r11 callee-save) plus `FP`
//!   (frame pointer), `SP` (stack pointer) and `AP` (argument pointer),
//! * a byte-encoded instruction stream with variable-length operands
//!   ([`encode`]), an assembler with labels ([`asm`]), a decoder and a
//!   disassembler,
//! * one execution core ([`exec`]: a `Cpu`, one `step`, one shadow
//!   tracker) run against two memory formats behind the `World` trait —
//!   the sequential [`machine`] and the thread-safe [`par`] machine.
//!   `ALLOC` *pauses* the thread when the heap is full — the collector
//!   (in `m3gc-runtime`) runs and the instruction is retried — and the
//!   frame layout (`CALL` pushes return pc, saved FP, saved AP) is what
//!   the collector's stack walk decodes.

pub mod asm;
pub mod codemap;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod exec;
pub mod isa;
pub mod machine;
pub mod module;
pub mod par;
pub mod shadow;

pub use codemap::{CodeMap, CodeMapBuilder, ProcRange, JIT_RETPC_BIAS};
pub use exec::{Cpu, Step, World};
pub use isa::{AluOp, Instr, UnAluOp};
pub use machine::{Machine, MachineLayout, SeqWorld, VmTrap};
pub use module::{ProcMeta, VmModule};
pub use par::{
    CmsHeap, Mutator, MutatorLocal, ParLayout, ParMachine, ParWorld, SatbFault, DEFAULT_TLAB_WORDS,
};
