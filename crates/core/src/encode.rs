//! Binary encoding of gc-map tables under the paper's schemes (§5.1–5.2).
//!
//! Two **layouts**:
//!
//! * **full information**: each gc-point lists all of its live pointer
//!   slots directly;
//! * **δ-main**: each procedure has a *ground* (main) table of every slot
//!   that holds a pointer at some gc-point, and each gc-point carries only a
//!   *delta* bitmap — one liveness bit per ground entry.
//!
//! Two independent **compressions**:
//!
//! * **Previous**: a per-gc-point descriptor records when a table is empty
//!   or identical to the table at the preceding gc-point, in which case the
//!   table body is not emitted at all;
//! * **Packing**: phase-two byte packing of 32-bit words ([`crate::pack`]).
//!
//! Table 2 of the paper reports sizes for FullInfo×{Plain, Packing} and
//! δ-main×{Plain, Previous, Packing, Previous+Packing}; [`encode_module`]
//! reproduces all six. A descriptor is kept at each gc-point in every
//! scheme (one byte packed, one word plain).

use crate::derive::{DerivationRecord, Sign};
use crate::layout::{GroundEntry, Location};
use crate::pack;
use crate::tables::{GcPointTables, ModuleTables, ProcTables};

/// Which per-gc-point stack-table layout is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableLayout {
    /// Store the full list of live pointer slots at each gc-point.
    FullInfo,
    /// Per-procedure ground table plus per-gc-point liveness delta bitmaps.
    DeltaMain,
}

impl std::fmt::Display for TableLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableLayout::FullInfo => write!(f, "full-info"),
            TableLayout::DeltaMain => write!(f, "delta-main"),
        }
    }
}

/// A complete encoding scheme: layout plus the two compressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scheme {
    /// Stack-table layout.
    pub layout: TableLayout,
    /// Phase-two byte packing (Figure 3).
    pub packing: bool,
    /// Identical-to-previous elision via descriptor bits.
    pub previous: bool,
}

impl Scheme {
    /// Full information, no compression ("Plain" column).
    pub const FULL_PLAIN: Scheme =
        Scheme { layout: TableLayout::FullInfo, packing: false, previous: false };
    /// Full information with byte packing.
    pub const FULL_PACKED: Scheme =
        Scheme { layout: TableLayout::FullInfo, packing: true, previous: false };
    /// δ-main, no compression.
    pub const DELTA_PLAIN: Scheme =
        Scheme { layout: TableLayout::DeltaMain, packing: false, previous: false };
    /// δ-main with identical-to-previous elision only.
    pub const DELTA_PREVIOUS: Scheme =
        Scheme { layout: TableLayout::DeltaMain, packing: false, previous: true };
    /// δ-main with byte packing only.
    pub const DELTA_PACKED: Scheme =
        Scheme { layout: TableLayout::DeltaMain, packing: true, previous: false };
    /// δ-main with both compressions ("PP") — the production scheme.
    pub const DELTA_MAIN_PP: Scheme =
        Scheme { layout: TableLayout::DeltaMain, packing: true, previous: true };

    /// The six scheme combinations Table 2 reports, in column order.
    pub const TABLE2: [Scheme; 6] = [
        Scheme::FULL_PLAIN,
        Scheme::FULL_PACKED,
        Scheme::DELTA_PLAIN,
        Scheme::DELTA_PREVIOUS,
        Scheme::DELTA_PACKED,
        Scheme::DELTA_MAIN_PP,
    ];
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.layout)?;
        if self.previous {
            write!(f, "+previous")?;
        }
        if self.packing {
            write!(f, "+packing")?;
        }
        Ok(())
    }
}

/// Byte counts attributed to each table section, for Tables 1 and 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SectionSizes {
    /// Per-module and per-procedure headers (counts, entry pcs).
    pub headers: usize,
    /// Ground (main) tables (δ-main only).
    pub ground: usize,
    /// The pc→gc-point map (gc-point distances).
    pub pcmap: usize,
    /// Per-gc-point descriptors.
    pub descriptors: usize,
    /// Stack pointer tables (delta bitmaps or full slot lists).
    pub stack: usize,
    /// Register pointer tables.
    pub regs: usize,
    /// Derivation tables.
    pub derivations: usize,
}

impl SectionSizes {
    /// Total bytes across all sections.
    #[must_use]
    pub fn total(&self) -> usize {
        self.headers
            + self.ground
            + self.pcmap
            + self.descriptors
            + self.stack
            + self.regs
            + self.derivations
    }
}

/// Section tags for size accounting.
#[derive(Debug, Clone, Copy)]
enum Section {
    Headers,
    Ground,
    PcMap,
    Descriptors,
    Stack,
    Regs,
    Derivations,
}

/// Descriptor bits (one descriptor per gc-point).
pub(crate) mod descriptor {
    pub const STACK_EMPTY: u8 = 1 << 0;
    pub const STACK_SAME: u8 = 1 << 1;
    pub const REGS_EMPTY: u8 = 1 << 2;
    pub const REGS_SAME: u8 = 1 << 3;
    pub const DER_EMPTY: u8 = 1 << 4;
    pub const DER_SAME: u8 = 1 << 5;
    /// Every assigned bit; the decoder rejects a descriptor with any other.
    pub const ALL: u8 = STACK_EMPTY | STACK_SAME | REGS_EMPTY | REGS_SAME | DER_EMPTY | DER_SAME;
}

/// The encoded tables for a module, plus size accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedTables {
    /// The scheme the bytes were produced under.
    pub scheme: Scheme,
    /// The encoded byte stream.
    pub bytes: Vec<u8>,
    /// Bytes attributed to each section.
    pub sizes: SectionSizes,
}

struct Sink {
    packing: bool,
    bytes: Vec<u8>,
    sizes: SectionSizes,
}

impl Sink {
    fn new(packing: bool) -> Sink {
        Sink { packing, bytes: Vec::new(), sizes: SectionSizes::default() }
    }

    fn charge(&mut self, sec: Section, n: usize) {
        let slot = match sec {
            Section::Headers => &mut self.sizes.headers,
            Section::Ground => &mut self.sizes.ground,
            Section::PcMap => &mut self.sizes.pcmap,
            Section::Descriptors => &mut self.sizes.descriptors,
            Section::Stack => &mut self.sizes.stack,
            Section::Regs => &mut self.sizes.regs,
            Section::Derivations => &mut self.sizes.derivations,
        };
        *slot += n;
    }

    /// A signed 32-bit word: packed or fixed 4 bytes.
    fn word(&mut self, sec: Section, v: i32) {
        let n = if self.packing {
            pack::pack_word(v, &mut self.bytes)
        } else {
            self.bytes.extend_from_slice(&v.to_le_bytes());
            4
        };
        self.charge(sec, n);
    }

    /// An unsigned 32-bit word (bitmaps, counts): packed or fixed 4 bytes.
    fn uword(&mut self, sec: Section, v: u32) {
        let n = if self.packing {
            pack::pack_uword(v, &mut self.bytes)
        } else {
            self.bytes.extend_from_slice(&v.to_le_bytes());
            4
        };
        self.charge(sec, n);
    }

    /// A gc-point descriptor: one byte packed, one word plain.
    fn descriptor(&mut self, v: u8) {
        if self.packing {
            self.bytes.push(v);
            self.charge(Section::Descriptors, 1);
        } else {
            self.uword(Section::Descriptors, u32::from(v));
        }
    }

    /// A fixed two-byte pc distance (§5.2: "our compiler assumes that
    /// distances between adjacent gc-points can fit in two bytes").
    fn pc_distance(&mut self, d: u32) {
        assert!(d <= u32::from(u16::MAX), "gc-point distance {d} exceeds two bytes");
        self.bytes.extend_from_slice(&(d as u16).to_le_bytes());
        self.charge(Section::PcMap, 2);
    }
}

fn delta_bitmap(indices: &[u32], n_ground: usize) -> Vec<u32> {
    let n_words = n_ground.div_ceil(32);
    let mut words = vec![0u32; n_words];
    for &idx in indices {
        words[idx as usize / 32] |= 1 << (idx % 32);
    }
    words
}

fn encode_signed_loc(sink: &mut Sink, loc: Location, sign: Sign) {
    let bit = match sign {
        Sign::Plus => 0,
        Sign::Minus => 1,
    };
    sink.word(Section::Derivations, (loc.to_word() << 1) | bit);
}

fn encode_derivations(sink: &mut Sink, derivations: &[DerivationRecord]) {
    sink.uword(Section::Derivations, derivations.len() as u32);
    for rec in derivations {
        sink.word(Section::Derivations, rec.target().to_word());
        match rec {
            DerivationRecord::Simple { bases, .. } => {
                sink.word(Section::Derivations, bases.len() as i32);
                for &(loc, sign) in bases {
                    encode_signed_loc(sink, loc, sign);
                }
            }
            DerivationRecord::Ambiguous { path_var, variants, .. } => {
                sink.word(Section::Derivations, -(variants.len() as i32));
                sink.word(Section::Derivations, path_var.to_word());
                for variant in variants {
                    sink.uword(Section::Derivations, variant.len() as u32);
                    for &(loc, sign) in variant {
                        encode_signed_loc(sink, loc, sign);
                    }
                }
            }
        }
    }
}

fn encode_proc(sink: &mut Sink, proc: &ProcTables, scheme: Scheme) {
    sink.uword(Section::Headers, proc.entry_pc);
    sink.uword(Section::Headers, proc.points.len() as u32);
    if scheme.layout == TableLayout::DeltaMain {
        sink.uword(Section::Headers, proc.ground.len() as u32);
        for entry in &proc.ground {
            sink.word(Section::Ground, entry.to_word());
        }
    }
    // pc map: distance of each point from the previous (first from entry).
    let mut prev_pc = proc.entry_pc;
    for point in &proc.points {
        sink.pc_distance(point.pc - prev_pc);
        prev_pc = point.pc;
    }
    let mut prev: Option<&GcPointTables> = None;
    for point in &proc.points {
        let mut desc = 0u8;
        let stack_same = scheme.previous && prev.is_some_and(|p| p.live_stack == point.live_stack);
        let regs_same = scheme.previous && prev.is_some_and(|p| p.regs == point.regs);
        let der_same = scheme.previous && prev.is_some_and(|p| p.derivations == point.derivations);
        if point.live_stack.is_empty() {
            desc |= descriptor::STACK_EMPTY;
        } else if stack_same {
            desc |= descriptor::STACK_SAME;
        }
        if point.regs.is_empty() {
            desc |= descriptor::REGS_EMPTY;
        } else if regs_same {
            desc |= descriptor::REGS_SAME;
        }
        if point.derivations.is_empty() {
            desc |= descriptor::DER_EMPTY;
        } else if der_same {
            desc |= descriptor::DER_SAME;
        }
        sink.descriptor(desc);

        if desc & (descriptor::STACK_EMPTY | descriptor::STACK_SAME) == 0 {
            match scheme.layout {
                TableLayout::DeltaMain => {
                    for w in delta_bitmap(&point.live_stack, proc.ground.len()) {
                        sink.uword(Section::Stack, w);
                    }
                }
                TableLayout::FullInfo => {
                    sink.uword(Section::Stack, point.live_stack.len() as u32);
                    for &idx in &point.live_stack {
                        let entry: GroundEntry = proc.ground[idx as usize];
                        sink.word(Section::Stack, entry.to_word());
                    }
                }
            }
        }
        if desc & (descriptor::REGS_EMPTY | descriptor::REGS_SAME) == 0 {
            sink.uword(Section::Regs, point.regs.0);
        }
        if desc & (descriptor::DER_EMPTY | descriptor::DER_SAME) == 0 {
            encode_derivations(sink, &point.derivations);
        }
        prev = Some(point);
    }
}

/// Encodes a module's tables under `scheme`.
///
/// # Panics
///
/// Panics if the distance between adjacent gc-points exceeds two bytes
/// (the compiler keeps procedures small enough that it never does), or if
/// the module fails [`ModuleTables::validate`] in debug builds.
#[must_use]
pub fn encode_module(module: &ModuleTables, scheme: Scheme) -> EncodedTables {
    debug_assert_eq!(module.validate(), Ok(()));
    let mut sink = Sink::new(scheme.packing);
    sink.uword(Section::Headers, module.procs.len() as u32);
    for proc in &module.procs {
        encode_proc(&mut sink, proc, scheme);
    }
    EncodedTables { scheme, bytes: sink.bytes, sizes: sink.sizes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{BaseReg, RegSet};

    fn ge(off: i32) -> GroundEntry {
        GroundEntry::new(BaseReg::Fp, off)
    }

    fn sample_module() -> ModuleTables {
        ModuleTables {
            procs: vec![ProcTables {
                name: "p".into(),
                entry_pc: 0,
                ground: vec![ge(0), ge(1), ge(2)],
                points: vec![
                    GcPointTables {
                        pc: 8,
                        live_stack: vec![0, 2],
                        regs: RegSet::single(3),
                        derivations: vec![DerivationRecord::Simple {
                            target: Location::Reg(4),
                            bases: vec![(Location::Slot(BaseReg::Fp, 0), Sign::Plus)],
                        }],
                    },
                    GcPointTables {
                        pc: 20,
                        live_stack: vec![0, 2],
                        regs: RegSet::single(3),
                        derivations: vec![],
                    },
                ],
            }],
        }
    }

    #[test]
    fn packing_always_smaller_than_plain() {
        let m = sample_module();
        let plain = encode_module(&m, Scheme::DELTA_PLAIN);
        let packed = encode_module(&m, Scheme::DELTA_PACKED);
        assert!(packed.bytes.len() < plain.bytes.len());
    }

    #[test]
    fn previous_elides_identical_tables() {
        let m = sample_module();
        let without = encode_module(&m, Scheme::DELTA_PACKED);
        let with = encode_module(&m, Scheme::DELTA_MAIN_PP);
        // Second point's stack and reg tables are identical to the first and
        // must vanish under Previous.
        assert!(with.sizes.stack < without.sizes.stack);
        assert!(with.sizes.regs < without.sizes.regs);
    }

    #[test]
    fn sizes_sum_to_byte_length() {
        let m = sample_module();
        for scheme in Scheme::TABLE2 {
            let enc = encode_module(&m, scheme);
            assert_eq!(enc.sizes.total(), enc.bytes.len(), "{scheme}");
        }
    }

    #[test]
    fn full_info_has_no_ground_section() {
        let m = sample_module();
        let enc = encode_module(&m, Scheme::FULL_PACKED);
        assert_eq!(enc.sizes.ground, 0);
    }

    #[test]
    fn empty_module_encodes() {
        let m = ModuleTables::default();
        let enc = encode_module(&m, Scheme::DELTA_MAIN_PP);
        assert_eq!(enc.bytes, vec![0]);
    }

    #[test]
    fn scheme_display_names() {
        assert_eq!(Scheme::DELTA_MAIN_PP.to_string(), "delta-main+previous+packing");
        assert_eq!(Scheme::FULL_PLAIN.to_string(), "full-info");
    }
}
