//! GC map tables for precise, fully compacting garbage collection.
//!
//! This crate is the heart of the reproduction of Diwan, Moss & Hudson,
//! *"Compiler Support for Garbage Collection in a Statically Typed
//! Language"* (PLDI 1992). The compiler emits, for every *gc-point* (a
//! program point where a collection may occur), three kinds of tables:
//!
//! * **stack pointer tables** — which frame slots hold live *tidy* pointers,
//! * **register pointer tables** — which hard registers hold live tidy
//!   pointers, and
//! * **derivation tables** — for every live *derived value* (a value created
//!   by pointer arithmetic), the locations of its base values and the sign
//!   with which each base participates.
//!
//! The collector uses these tables to find and update every pointer in the
//! stack and registers, which is what makes *every* heap object movable.
//!
//! The crate provides:
//!
//! * the logical table model ([`tables::ModuleTables`] and friends),
//! * the paper's encodings: the *δ-main* scheme (per-procedure ground table
//!   plus per-gc-point delta bitmaps) and the *full information* scheme,
//!   each with optional *Previous* (identical-to-previous elision via a
//!   per-gc-point descriptor byte) and *Packing* (variable-length byte
//!   packing of 32-bit words, Figure 3) compression ([`encode`]),
//! * a decoder used by the collector at trace time, plus a memoizing
//!   [`decode::DecodeCache`] that amortizes the compression/decoding
//!   trade-off across collections ([`decode`]),
//! * the pc→gc-point map stored as inter-gc-point distances ([`pcmap`]),
//! * and size/statistics accounting used to regenerate Tables 1 and 2 of
//!   the paper ([`stats`]).
//!
//! # Example
//!
//! ```
//! use m3gc_core::layout::{BaseReg, GroundEntry, RegSet};
//! use m3gc_core::tables::{GcPointTables, ModuleTables, ProcTables};
//! use m3gc_core::encode::{encode_module, Scheme};
//! use m3gc_core::decode::TableDecoder;
//!
//! let proc_tables = ProcTables {
//!     name: "main".into(),
//!     entry_pc: 0,
//!     ground: vec![GroundEntry::new(BaseReg::Fp, 2)],
//!     points: vec![GcPointTables {
//!         pc: 10,
//!         live_stack: vec![0],
//!         regs: RegSet::EMPTY,
//!         derivations: vec![],
//!     }],
//! };
//! let module = ModuleTables { procs: vec![proc_tables] };
//! let encoded = encode_module(&module, Scheme::DELTA_MAIN_PP);
//! let decoder = TableDecoder::build(&encoded).expect("well-formed tables");
//! let point = decoder.lookup(10).expect("gc-point at pc 10");
//! assert_eq!(point.stack_slots, vec![GroundEntry::new(BaseReg::Fp, 2)]);
//! ```

pub mod decode;
pub mod derive;
pub mod encode;
pub mod heap;
pub mod layout;
pub mod pack;
pub mod pcmap;
pub mod stats;
pub mod tables;

pub use decode::{DecodeCache, DecodeCounters, DecodedPoint, TableDecoder};
pub use derive::{DerivationRecord, Sign};
pub use encode::{encode_module, EncodedTables, Scheme, TableLayout};
pub use layout::{BaseReg, GroundEntry, Location, RegSet, NUM_HARD_REGS};
pub use tables::{GcPointTables, ModuleTables, ProcTables};
