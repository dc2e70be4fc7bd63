//! Decoding of encoded gc-map tables at collection time.
//!
//! At garbage collection time the first task is to locate the tables for
//! each frame on the stack: return addresses extracted from frames are
//! looked up in the pc map, then the gc-point's tables are decoded. Because
//! the *Previous* compression makes a gc-point's tables depend on the
//! preceding gc-point's, decoding is sequential within a procedure; the
//! decoder walks from the procedure's first gc-point to the requested one.
//! This is the decoding overhead §6.3 measures — compactly encoded tables
//! are cheap to store but cost more to read.
//!
//! The tables of a loaded module are immutable, so that sequential walk
//! never has to recur: [`DecodeCache`] memoizes every [`DecodedPoint`] it
//! resolves and keeps, per procedure, a *prefix checkpoint* (the byte
//! position and last decoded point of the longest already-decoded prefix).
//! A miss at gc-point *k* resumes decoding from the checkpoint instead of
//! the procedure's first gc-point, so across the lifetime of a module each
//! gc-point's tables are decoded at most once no matter how many
//! collections consult them.

use std::sync::Arc;

use crate::derive::{DerivationRecord, Sign};
use crate::encode::{descriptor, EncodedTables, Scheme, TableLayout};
use crate::layout::{GroundEntry, Location, RegSet};
use crate::pack;
use crate::tables::ModuleTables;

/// The fully resolved tables for one gc-point, as the collector consumes
/// them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecodedPoint {
    /// Code address of the gc-point.
    pub pc: u32,
    /// Frame slots containing live tidy pointers.
    pub stack_slots: Vec<GroundEntry>,
    /// Registers containing live tidy pointers.
    pub regs: RegSet,
    /// Derivations of live derived values, derived-before-base order.
    pub derivations: Vec<DerivationRecord>,
}

/// Error produced when the encoded stream is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// The gc-point whose tables hold the bad byte, when the failure is
    /// inside one (headers, ground tables and pc maps belong to none).
    pub pc: Option<u32>,
    /// Human-readable description.
    pub what: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gc-table decode error at byte {}", self.offset)?;
        if let Some(pc) = self.pc {
            write!(f, " (gc-point pc {pc})")?;
        }
        write!(f, ": {}", self.what)
    }
}

impl std::error::Error for DecodeError {}

struct Reader<'a> {
    packing: bool,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, what: &'static str) -> DecodeError {
        DecodeError { offset: self.pos, pc: None, what }
    }

    fn word(&mut self) -> Result<i32, DecodeError> {
        if self.packing {
            let (v, n) = pack::unpack_word(self.bytes, self.pos)
                .map_err(|_| self.err("truncated packed word"))?;
            self.pos += n;
            Ok(v)
        } else {
            let end = self.pos + 4;
            let slice = self.bytes.get(self.pos..end).ok_or_else(|| self.err("truncated word"))?;
            self.pos = end;
            Ok(i32::from_le_bytes(slice.try_into().expect("4-byte slice")))
        }
    }

    fn uword(&mut self) -> Result<u32, DecodeError> {
        if self.packing {
            let (v, n) = pack::unpack_uword(self.bytes, self.pos)
                .map_err(|_| self.err("truncated packed uword"))?;
            self.pos += n;
            Ok(v)
        } else {
            self.word().map(|w| w as u32)
        }
    }

    /// A gc-point descriptor; a bit outside the six assigned ones means
    /// the stream is not one the encoder wrote.
    fn descriptor(&mut self) -> Result<u8, DecodeError> {
        let w = if self.packing {
            let b = *self.bytes.get(self.pos).ok_or_else(|| self.err("truncated descriptor"))?;
            self.pos += 1;
            u32::from(b)
        } else {
            self.uword()?
        };
        if w & !u32::from(descriptor::ALL) != 0 {
            return Err(self.err("unassigned descriptor bit set"));
        }
        Ok(w as u8)
    }

    fn pc_distance(&mut self) -> Result<u32, DecodeError> {
        let end = self.pos + 2;
        let slice =
            self.bytes.get(self.pos..end).ok_or_else(|| self.err("truncated pc distance"))?;
        self.pos = end;
        Ok(u32::from(u16::from_le_bytes(slice.try_into().expect("2-byte slice"))))
    }

    fn location(&mut self) -> Result<Location, DecodeError> {
        let w = self.word()?;
        Location::from_word(w).ok_or_else(|| self.err("bad location word"))
    }

    fn signed_location(&mut self) -> Result<(Location, Sign), DecodeError> {
        let w = self.word()?;
        let sign = if w & 1 == 0 { Sign::Plus } else { Sign::Minus };
        let loc = Location::from_word(w >> 1).ok_or_else(|| self.err("bad base location"))?;
        Ok((loc, sign))
    }
}

fn read_derivations(r: &mut Reader<'_>) -> Result<Vec<DerivationRecord>, DecodeError> {
    let n = r.uword()? as usize;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let target = r.location()?;
        let ctl = r.word()?;
        if ctl >= 0 {
            let mut bases = Vec::with_capacity(ctl as usize);
            for _ in 0..ctl {
                bases.push(r.signed_location()?);
            }
            records.push(DerivationRecord::Simple { target, bases });
        } else {
            let n_variants = (-ctl) as usize;
            let path_var = r.location()?;
            let mut variants = Vec::with_capacity(n_variants);
            for _ in 0..n_variants {
                let k = r.uword()? as usize;
                let mut bases = Vec::with_capacity(k);
                for _ in 0..k {
                    bases.push(r.signed_location()?);
                }
                variants.push(bases);
            }
            records.push(DerivationRecord::Ambiguous { target, path_var, variants });
        }
    }
    Ok(records)
}

/// Index entry for one procedure's region of the encoded stream.
#[derive(Debug, Clone)]
struct ProcIndex {
    entry_pc: u32,
    n_points: usize,
    n_ground: usize,
    /// Offset of the ground table words (δ-main) — unused for full-info.
    ground_off: usize,
    /// Offset of the first gc-point's data (after the pc map).
    points_off: usize,
    /// Decoded gc-point pcs (from the pc map), ascending.
    pcs: Vec<u32>,
}

/// The owned, reusable part of a decoder: procedure boundaries and the
/// decoded pc map. The paper's pc→tables map is static emitted data; a
/// production runtime builds this index once at module load and keeps it
/// for every collection.
#[derive(Debug, Clone)]
pub struct DecoderIndex {
    scheme: Scheme,
    procs: Vec<ProcIndex>,
    /// (pc, proc index, point index), sorted by pc.
    point_index: Vec<(u32, u32, u32)>,
}

/// A decoder over an encoded table stream: an index plus the bytes.
///
/// Construction makes a single indexing pass (finding procedure boundaries
/// and decoding the pc maps); [`TableDecoder::lookup`] then decodes the
/// requested gc-point's tables from the bytes, walking the owning
/// procedure's gc-points from the start as the *Previous* compression
/// requires.
pub struct TableDecoder<'a> {
    index: DecoderIndex,
    bytes: &'a [u8],
}

impl DecoderIndex {
    /// Builds the index with a single pass over the stream.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the stream is truncated or contains
    /// invalid words.
    pub fn build(encoded: &EncodedTables) -> Result<DecoderIndex, DecodeError> {
        let scheme = encoded.scheme;
        let mut r = Reader { packing: scheme.packing, bytes: &encoded.bytes, pos: 0 };
        let n_procs = r.uword()? as usize;
        let mut procs = Vec::with_capacity(n_procs);
        let mut point_index = Vec::new();
        for proc_i in 0..n_procs {
            let entry_pc = r.uword()?;
            let n_points = r.uword()? as usize;
            let mut n_ground = 0;
            let mut ground_off = r.pos;
            if scheme.layout == TableLayout::DeltaMain {
                n_ground = r.uword()? as usize;
                ground_off = r.pos;
                for _ in 0..n_ground {
                    r.word()?;
                }
            }
            let mut pcs = Vec::with_capacity(n_points);
            let mut pc = entry_pc;
            for _ in 0..n_points {
                pc += r.pc_distance()?;
                pcs.push(pc);
            }
            let points_off = r.pos;
            for (pt_i, &pc) in pcs.iter().enumerate() {
                point_index.push((pc, proc_i as u32, pt_i as u32));
            }
            procs.push(ProcIndex { entry_pc, n_points, n_ground, ground_off, points_off, pcs });
            // Skip over the per-point data to find the next procedure.
            let mut prev = DecodedPoint::default();
            let idx = procs.last().expect("just pushed");
            let ground = Self::read_ground(scheme, &encoded.bytes, idx)?;
            for &pc in &idx.pcs {
                prev = Self::read_point(scheme, &mut r, &ground, &prev)
                    .map_err(|e| DecodeError { pc: Some(pc), ..e })?;
            }
        }
        point_index.sort_unstable();
        Ok(DecoderIndex { scheme, procs, point_index })
    }

    /// Number of procedures in the stream.
    #[must_use]
    pub fn num_procs(&self) -> usize {
        self.procs.len()
    }

    /// All gc-point pcs, ascending.
    pub fn gc_point_pcs(&self) -> impl Iterator<Item = u32> + '_ {
        self.point_index.iter().map(|&(pc, _, _)| pc)
    }

    /// Entry pc of the procedure containing gc-point `pc`, if any.
    #[must_use]
    pub fn proc_entry_of(&self, pc: u32) -> Option<u32> {
        let i = self.point_index.binary_search_by_key(&pc, |&(p, _, _)| p).ok()?;
        let (_, proc_i, _) = self.point_index[i];
        Some(self.procs[proc_i as usize].entry_pc)
    }

    /// Decodes the tables for the gc-point at exactly `pc` from `bytes`
    /// (which must be the same stream the index was built from).
    #[must_use]
    pub fn lookup(&self, bytes: &[u8], pc: u32) -> Option<DecodedPoint> {
        let i = self.point_index.binary_search_by_key(&pc, |&(p, _, _)| p).ok()?;
        let (_, proc_i, pt_i) = self.point_index[i];
        let idx = &self.procs[proc_i as usize];
        let ground = Self::read_ground(self.scheme, bytes, idx).expect("validated at construction");
        let mut r = Reader { packing: self.scheme.packing, bytes, pos: idx.points_off };
        let mut point = DecodedPoint::default();
        for k in 0..=pt_i {
            point = Self::read_point(self.scheme, &mut r, &ground, &point)
                .expect("validated at construction");
            point.pc = idx.pcs[k as usize];
        }
        debug_assert_eq!(point.pc, pc);
        Some(point)
    }

    fn read_ground(
        scheme: Scheme,
        bytes: &[u8],
        idx: &ProcIndex,
    ) -> Result<Vec<GroundEntry>, DecodeError> {
        if scheme.layout != TableLayout::DeltaMain {
            return Ok(Vec::new());
        }
        let mut r = Reader { packing: scheme.packing, bytes, pos: idx.ground_off };
        let mut ground = Vec::with_capacity(idx.n_ground);
        for _ in 0..idx.n_ground {
            let w = r.word()?;
            ground.push(GroundEntry::from_word(w).ok_or_else(|| r.err("bad ground entry"))?);
        }
        Ok(ground)
    }

    /// Decodes one gc-point's tables at the reader's position, given the
    /// previous point's decoded tables (for the *Previous* compression).
    fn read_point(
        scheme: Scheme,
        r: &mut Reader<'_>,
        ground: &[GroundEntry],
        prev: &DecodedPoint,
    ) -> Result<DecodedPoint, DecodeError> {
        let desc = r.descriptor()?;
        let stack_slots = if desc & descriptor::STACK_EMPTY != 0 {
            Vec::new()
        } else if desc & descriptor::STACK_SAME != 0 {
            prev.stack_slots.clone()
        } else {
            match scheme.layout {
                TableLayout::DeltaMain => {
                    let n_words = ground.len().div_ceil(32);
                    let mut slots = Vec::new();
                    for w in 0..n_words {
                        let bits = r.uword()?;
                        for b in 0..32 {
                            if bits & (1 << b) != 0 {
                                let gi = w * 32 + b;
                                let entry = ground
                                    .get(gi)
                                    .ok_or_else(|| r.err("delta bit out of range"))?;
                                slots.push(*entry);
                            }
                        }
                    }
                    slots
                }
                TableLayout::FullInfo => {
                    let n = r.uword()? as usize;
                    let mut slots = Vec::with_capacity(n);
                    for _ in 0..n {
                        let w = r.word()?;
                        slots
                            .push(GroundEntry::from_word(w).ok_or_else(|| r.err("bad slot word"))?);
                    }
                    slots
                }
            }
        };
        let regs = if desc & descriptor::REGS_EMPTY != 0 {
            RegSet::EMPTY
        } else if desc & descriptor::REGS_SAME != 0 {
            prev.regs
        } else {
            RegSet(r.uword()?)
        };
        let derivations = if desc & descriptor::DER_EMPTY != 0 {
            Vec::new()
        } else if desc & descriptor::DER_SAME != 0 {
            prev.derivations.clone()
        } else {
            read_derivations(r)?
        };
        Ok(DecodedPoint { pc: 0, stack_slots, regs, derivations })
    }
}

impl<'a> TableDecoder<'a> {
    /// Indexes an encoded table stream. This is the one constructor:
    /// indexing reads the whole stream, so construction is inherently
    /// fallible and every caller must face the [`DecodeError`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the stream is truncated or contains
    /// invalid words.
    pub fn build(encoded: &'a EncodedTables) -> Result<TableDecoder<'a>, DecodeError> {
        Ok(TableDecoder { index: DecoderIndex::build(encoded)?, bytes: &encoded.bytes })
    }

    /// Wraps a prebuilt (already validated) index around the stream it was
    /// built from.
    #[must_use]
    pub fn from_index(index: DecoderIndex, encoded: &'a EncodedTables) -> TableDecoder<'a> {
        TableDecoder { index, bytes: &encoded.bytes }
    }

    /// Number of procedures in the stream.
    #[must_use]
    pub fn num_procs(&self) -> usize {
        self.index.num_procs()
    }

    /// All gc-point pcs, ascending.
    pub fn gc_point_pcs(&self) -> impl Iterator<Item = u32> + '_ {
        self.index.gc_point_pcs()
    }

    /// Entry pc of the procedure containing gc-point `pc`, if any.
    #[must_use]
    pub fn proc_entry_of(&self, pc: u32) -> Option<u32> {
        self.index.proc_entry_of(pc)
    }

    /// Decodes the tables for the gc-point at exactly `pc`.
    ///
    /// Returns `None` if `pc` is not a gc-point. This is the per-frame
    /// operation the collector performs during a stack trace: find the
    /// tables via the pc map, then decode them (sequentially from the
    /// procedure's first gc-point, as *Previous* requires).
    #[must_use]
    pub fn lookup(&self, pc: u32) -> Option<DecodedPoint> {
        self.index.lookup(self.bytes, pc)
    }

    /// Decodes every gc-point of every procedure, in stream order.
    ///
    /// Used by tests and by bulk consumers; collectors use a
    /// [`DecodeCache`].
    #[must_use]
    pub fn decode_all(&self) -> Vec<DecodedPoint> {
        let mut out = Vec::new();
        for idx in &self.index.procs {
            let ground = DecoderIndex::read_ground(self.index.scheme, self.bytes, idx)
                .expect("validated at construction");
            let mut r = Reader {
                packing: self.index.scheme.packing,
                bytes: self.bytes,
                pos: idx.points_off,
            };
            let mut point = DecodedPoint::default();
            for k in 0..idx.n_points {
                point = DecoderIndex::read_point(self.index.scheme, &mut r, &ground, &point)
                    .expect("validated at construction");
                point.pc = idx.pcs[k];
                out.push(point.clone());
            }
        }
        out
    }
}

/// Counters describing the decode work a [`DecodeCache`] has performed.
///
/// `points_decoded` counts individual gc-point decode operations (the unit
/// §6.3's overhead discussion is about); without a cache, a lookup at the
/// *k*-th gc-point of a procedure costs *k*+1 of them, every time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCounters {
    /// Lookups served entirely from memoized points.
    pub hits: u64,
    /// Lookups that had to decode at least one gc-point.
    pub misses: u64,
    /// Individual gc-point decode operations performed.
    pub points_decoded: u64,
}

impl DecodeCounters {
    /// Component-wise difference against an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: DecodeCounters) -> DecodeCounters {
        DecodeCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            points_decoded: self.points_decoded - earlier.points_decoded,
        }
    }

    /// Total lookups (hits + misses).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Per-procedure memoization state: the decoded prefix and the checkpoint
/// from which decoding resumes.
#[derive(Debug, Clone)]
struct ProcCacheState {
    /// Lazily decoded ground table (δ-main layouts only).
    ground: Option<Vec<GroundEntry>>,
    /// Fully resolved gc-points `0..points.len()` — always a prefix, since
    /// *Previous* makes decoding strictly sequential.
    points: Vec<DecodedPoint>,
    /// Byte position just past the last decoded point: the resume
    /// checkpoint for the next miss in this procedure.
    resume_pos: usize,
}

/// A memoizing decode front-end for the collector.
///
/// The encoded tables of a loaded module never change, so every
/// [`DecodedPoint`] this cache resolves is kept for the lifetime of the
/// module. A miss at gc-point *k* of a procedure resumes the sequential
/// decode from the procedure's prefix checkpoint (the last point already
/// decoded) rather than from the procedure's first gc-point, so each
/// gc-point is decoded **at most once** ever; repeated collections of the
/// same stacks are pure cache hits.
///
/// Invariants (see DESIGN.md §"Decode cache"):
///
/// * the cache must only be consulted with the byte stream its index was
///   built from (same module, immutable tables);
/// * memoized points per procedure always form a prefix — checkpoint
///   granularity is exactly one gc-point;
/// * memory is bounded by the fully decoded tables of the module (what
///   [`TableDecoder::decode_all`] would return), reached only if every
///   gc-point is eventually consulted.
#[derive(Debug, Clone)]
pub struct DecodeCache {
    /// The validated index, shareable across caches: parallel gc workers
    /// each keep a private memoizing cache over one `Arc`'d index built
    /// at module load (the encoded bytes themselves live in the module).
    index: Arc<DecoderIndex>,
    procs: Vec<ProcCacheState>,
    /// Identity of the module this cache is bound to (a VM-assigned
    /// token); `None` until first bound.
    module_token: Option<u64>,
    counters: DecodeCounters,
}

impl DecodeCache {
    /// Wraps a prebuilt index.
    #[must_use]
    pub fn new(index: DecoderIndex) -> DecodeCache {
        DecodeCache::with_shared_index(Arc::new(index))
    }

    /// Wraps an index that is already shared. Several caches built over
    /// the same `Arc` (one per gc worker) memoize independently but pay
    /// the indexing pass only once.
    #[must_use]
    pub fn with_shared_index(index: Arc<DecoderIndex>) -> DecodeCache {
        let procs = index
            .procs
            .iter()
            .map(|p| ProcCacheState { ground: None, points: Vec::new(), resume_pos: p.points_off })
            .collect();
        DecodeCache { index, procs, module_token: None, counters: DecodeCounters::default() }
    }

    /// Indexes an encoded table stream and wraps it in a fresh cache.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the stream is truncated or contains
    /// invalid words.
    pub fn build(encoded: &EncodedTables) -> Result<DecodeCache, DecodeError> {
        Ok(DecodeCache::new(DecoderIndex::build(encoded)?))
    }

    /// The underlying index.
    #[must_use]
    pub fn index(&self) -> &DecoderIndex {
        &self.index
    }

    /// Binds the cache to a module identity token (e.g.
    /// `Machine::module_token`). The first bind sticks; rebinding to a
    /// different token panics, because memoized points from one module's
    /// tables must never serve another's.
    ///
    /// # Panics
    ///
    /// Panics if already bound to a different token.
    pub fn bind_module(&mut self, token: u64) {
        match self.module_token {
            None => self.module_token = Some(token),
            Some(t) => assert_eq!(t, token, "DecodeCache reused across modules"),
        }
    }

    /// The module token this cache is bound to, if any.
    #[must_use]
    pub fn module_token(&self) -> Option<u64> {
        self.module_token
    }

    /// Cumulative hit/miss/decode-op counters.
    #[must_use]
    pub fn counters(&self) -> DecodeCounters {
        self.counters
    }

    /// Number of gc-points currently memoized (the memory bound is the
    /// module's total gc-point count).
    #[must_use]
    pub fn memoized_points(&self) -> usize {
        self.procs.iter().map(|p| p.points.len()).sum()
    }

    /// Decodes (or serves from memo) the tables for the gc-point at
    /// exactly `pc`. `bytes` must be the stream the index was built from.
    ///
    /// Returns `None` if `pc` is not a gc-point.
    ///
    /// # Panics
    ///
    /// Panics if the stream differs from the one validated at
    /// construction.
    pub fn lookup(&mut self, bytes: &[u8], pc: u32) -> Option<&DecodedPoint> {
        let i = self.index.point_index.binary_search_by_key(&pc, |&(p, _, _)| p).ok()?;
        let (_, proc_i, pt_i) = self.index.point_index[i];
        let pt_i = pt_i as usize;
        let idx = &self.index.procs[proc_i as usize];
        let scheme = self.index.scheme;
        let ProcCacheState { ground, points, resume_pos } = &mut self.procs[proc_i as usize];
        if pt_i < points.len() {
            self.counters.hits += 1;
            return Some(&points[pt_i]);
        }
        self.counters.misses += 1;
        if ground.is_none() {
            *ground = Some(
                DecoderIndex::read_ground(scheme, bytes, idx).expect("validated at construction"),
            );
        }
        let ground = ground.as_deref().expect("just populated");
        let mut r = Reader { packing: scheme.packing, bytes, pos: *resume_pos };
        let empty = DecodedPoint::default();
        for k in points.len()..=pt_i {
            let prev = points.last().unwrap_or(&empty);
            let mut point = DecoderIndex::read_point(scheme, &mut r, ground, prev)
                .expect("validated at construction");
            point.pc = idx.pcs[k];
            points.push(point);
            self.counters.points_decoded += 1;
        }
        *resume_pos = r.pos;
        Some(&points[pt_i])
    }
}

/// Proves `encoded` a lossless encoding of `tables`, the way a collector
/// reads it: a [`DecodeCache`] is built from the bytes (so a malformed
/// byte is a [`DecodeError`]), every gc-point pc of `tables` is looked up
/// in an order shuffled by `order_seed` (so misses resume from prefix
/// checkpoints at varied depths), each decoded point must equal the
/// logical one, and the pc map may hold no pc that `tables` lacks.
///
/// # Errors
///
/// Returns the first difference, naming the scheme and the gc-point pc.
pub fn check_lossless(
    tables: &ModuleTables,
    encoded: &EncodedTables,
    order_seed: u64,
) -> Result<(), String> {
    let scheme = encoded.scheme;
    let mut cache = DecodeCache::build(encoded).map_err(|e| format!("{scheme}: {e}"))?;
    let mut order: Vec<(usize, usize)> = tables
        .procs
        .iter()
        .enumerate()
        .flat_map(|(p, proc)| (0..proc.points.len()).map(move |i| (p, i)))
        .collect();
    // Fisher–Yates over a SplitMix64 stream.
    let mut state = order_seed;
    for k in (1..order.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        order.swap(k, ((z ^ (z >> 31)) % (k as u64 + 1)) as usize);
    }
    for &(p, i) in &order {
        let proc = &tables.procs[p];
        let point = &proc.points[i];
        let pc = point.pc;
        let want = DecodedPoint {
            pc,
            stack_slots: proc.live_slots(i),
            regs: point.regs,
            derivations: point.derivations.clone(),
        };
        match cache.lookup(&encoded.bytes, pc) {
            None => return Err(format!("{scheme}: pc {pc}: gc-point missing from the pc map")),
            Some(got) if *got != want => {
                return Err(format!("{scheme}: pc {pc}: decodes as {got:?}, tables say {want:?}"));
            }
            Some(_) => {}
        }
    }
    if cache.index().gc_point_pcs().count() != order.len() {
        let mut known: Vec<u32> =
            tables.procs.iter().flat_map(|p| p.points.iter().map(|pt| pt.pc)).collect();
        known.sort_unstable();
        let extra = cache.index().gc_point_pcs().find(|pc| known.binary_search(pc).is_err());
        return Err(match extra {
            Some(pc) => format!("{scheme}: pc {pc}: in the pc map but not in the tables"),
            None => format!("{scheme}: the pc map lists a gc-point pc twice"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_module;
    use crate::layout::BaseReg;
    use crate::tables::{GcPointTables, ModuleTables, ProcTables};

    fn ge(off: i32) -> GroundEntry {
        GroundEntry::new(BaseReg::Fp, off)
    }

    fn sample_module() -> ModuleTables {
        ModuleTables {
            procs: vec![
                ProcTables {
                    name: "a".into(),
                    entry_pc: 0,
                    ground: vec![ge(0), ge(1), ge(4)],
                    points: vec![
                        GcPointTables {
                            pc: 6,
                            live_stack: vec![0, 1],
                            regs: RegSet::single(2),
                            derivations: vec![DerivationRecord::Simple {
                                target: Location::Reg(5),
                                bases: vec![
                                    (Location::Slot(BaseReg::Fp, 0), Sign::Plus),
                                    (Location::Slot(BaseReg::Fp, 1), Sign::Minus),
                                ],
                            }],
                        },
                        GcPointTables {
                            pc: 14,
                            live_stack: vec![0, 1],
                            regs: RegSet::single(2),
                            derivations: vec![],
                        },
                        GcPointTables { pc: 30, live_stack: vec![2], ..Default::default() },
                    ],
                },
                ProcTables {
                    name: "b".into(),
                    entry_pc: 100,
                    ground: vec![ge(-2)],
                    points: vec![GcPointTables {
                        pc: 108,
                        live_stack: vec![0],
                        regs: RegSet::EMPTY,
                        derivations: vec![DerivationRecord::Ambiguous {
                            target: Location::Reg(1),
                            path_var: Location::Slot(BaseReg::Fp, 3),
                            variants: vec![
                                vec![(Location::Slot(BaseReg::Fp, -2), Sign::Plus)],
                                vec![(Location::Reg(2), Sign::Plus)],
                            ],
                        }],
                    }],
                },
            ],
        }
    }

    fn expect_roundtrip(scheme: Scheme) {
        let m = sample_module();
        let enc = encode_module(&m, scheme);
        assert_eq!(TableDecoder::build(&enc).unwrap().num_procs(), 2);
        for order_seed in 0..4 {
            check_lossless(&m, &enc, order_seed).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn roundtrip_all_schemes() {
        for scheme in Scheme::TABLE2 {
            expect_roundtrip(scheme);
        }
    }

    #[test]
    fn lookup_misses_non_gc_points() {
        let enc = encode_module(&sample_module(), Scheme::DELTA_MAIN_PP);
        let dec = TableDecoder::build(&enc).unwrap();
        assert_eq!(dec.lookup(7), None);
        assert_eq!(dec.lookup(0), None);
    }

    #[test]
    fn decode_all_matches_lookups() {
        let enc = encode_module(&sample_module(), Scheme::DELTA_MAIN_PP);
        let dec = TableDecoder::build(&enc).unwrap();
        let all = dec.decode_all();
        assert_eq!(all.len(), 4);
        for p in &all {
            assert_eq!(dec.lookup(p.pc).as_ref(), Some(p));
        }
    }

    #[test]
    fn proc_entry_lookup() {
        let enc = encode_module(&sample_module(), Scheme::DELTA_MAIN_PP);
        let dec = TableDecoder::build(&enc).unwrap();
        assert_eq!(dec.proc_entry_of(108), Some(100));
        assert_eq!(dec.proc_entry_of(6), Some(0));
        assert_eq!(dec.proc_entry_of(7), None);
    }

    #[test]
    fn from_index_reuses_a_prebuilt_index() {
        let enc = encode_module(&sample_module(), Scheme::DELTA_MAIN_PP);
        let index = DecoderIndex::build(&enc).unwrap();
        let dec = TableDecoder::from_index(index, &enc);
        assert_eq!(dec.num_procs(), 2);
        assert!(dec.lookup(14).is_some());
    }

    #[test]
    fn truncated_stream_reports_error() {
        let mut enc = encode_module(&sample_module(), Scheme::DELTA_MAIN_PP);
        enc.bytes.truncate(enc.bytes.len() / 2);
        assert!(TableDecoder::build(&enc).is_err());
        assert!(DecodeCache::build(&enc).is_err());
    }

    /// Bits 6 and 7 of a descriptor are unassigned: a stream carrying
    /// either was not written by the encoder and must not decode.
    #[test]
    fn unassigned_descriptor_bits_are_rejected() {
        let one_point = ModuleTables {
            procs: vec![ProcTables {
                name: "p".into(),
                entry_pc: 0,
                ground: vec![ge(0)],
                points: vec![GcPointTables { pc: 4, live_stack: vec![0], ..Default::default() }],
            }],
        };
        for scheme in Scheme::TABLE2 {
            let enc = encode_module(&one_point, scheme);
            // The first (only) descriptor follows the headers, the ground
            // table and the one two-byte pc distance.
            let at = enc.sizes.headers + enc.sizes.ground + enc.sizes.pcmap;
            for bit in [6, 7] {
                let mut bad = enc.clone();
                bad.bytes[at] |= 1 << bit;
                let err = TableDecoder::build(&bad).err().expect("unassigned bit must not decode");
                assert_eq!(err.what, "unassigned descriptor bit set", "{scheme} bit {bit}");
                assert_eq!(err.pc, Some(4), "{scheme} bit {bit}");
                assert!(DecodeCache::build(&bad).is_err(), "{scheme} bit {bit}");
                assert_eq!(check_lossless(&one_point, &bad, 0), Err(format!("{scheme}: {err}")));
            }
        }
    }

    /// Tables that lose a register root, or a whole gc-point, no longer
    /// match their encoding: the check names the scheme and the pc.
    #[test]
    fn check_lossless_names_the_scheme_and_pc_of_a_difference() {
        for scheme in Scheme::TABLE2 {
            let enc = encode_module(&sample_module(), scheme);
            let mut dropped_reg = sample_module();
            dropped_reg.procs[0].points[1].regs = RegSet::EMPTY;
            let err = check_lossless(&dropped_reg, &enc, 7).unwrap_err();
            assert!(err.starts_with(&format!("{scheme}: pc 14: decodes as ")), "{err}");
            let mut dropped_point = sample_module();
            dropped_point.procs[1].points.clear();
            assert_eq!(
                check_lossless(&dropped_point, &enc, 7),
                Err(format!("{scheme}: pc 108: in the pc map but not in the tables"))
            );
        }
    }

    #[test]
    fn fresh_cache_for_second_module_does_not_serve_stale_points() {
        // Two modules whose procedures collide on index *and* pc layout
        // but carry different tables: the second module's cache must
        // decode its own stream cold (miss, not hit) and must not leak
        // the first module's memoized entries.
        let first = sample_module();
        let mut second = sample_module();
        second.procs[0].points[0].live_stack = vec![2]; // FP+4, not {FP+0, FP+1}
        let enc_a = encode_module(&first, Scheme::DELTA_MAIN_PP);
        let enc_b = encode_module(&second, Scheme::DELTA_MAIN_PP);

        let mut cache_a = DecodeCache::build(&enc_a).unwrap();
        cache_a.bind_module(1);
        let slots_a = cache_a.lookup(&enc_a.bytes, 6).unwrap().stack_slots.clone();
        assert_eq!(cache_a.counters(), DecodeCounters { hits: 0, misses: 1, points_decoded: 1 });

        let mut cache_b = DecodeCache::build(&enc_b).unwrap();
        cache_b.bind_module(2);
        let slots_b = cache_b.lookup(&enc_b.bytes, 6).unwrap().stack_slots.clone();
        assert_eq!(
            cache_b.counters(),
            DecodeCounters { hits: 0, misses: 1, points_decoded: 1 },
            "second cache must start cold, not inherit memos"
        );
        assert_ne!(slots_a, slots_b, "colliding pc must decode per-module tables");
        assert_eq!(slots_b, vec![ge(4)]);

        // The first cache is untouched and still serves its own entry.
        assert_eq!(cache_a.lookup(&enc_a.bytes, 6).unwrap().stack_slots, slots_a);
        assert_eq!(cache_a.counters(), DecodeCounters { hits: 1, misses: 1, points_decoded: 1 });
    }

    #[test]
    #[should_panic(expected = "DecodeCache reused across modules")]
    fn rebinding_cache_to_another_module_panics() {
        let enc = encode_module(&sample_module(), Scheme::DELTA_MAIN_PP);
        let mut cache = DecodeCache::build(&enc).unwrap();
        cache.bind_module(1);
        cache.bind_module(2);
    }

    #[test]
    fn cache_agrees_with_decoder_under_every_scheme() {
        let m = sample_module();
        for scheme in Scheme::TABLE2 {
            let enc = encode_module(&m, scheme);
            let dec = TableDecoder::build(&enc).unwrap();
            let mut cache = DecodeCache::build(&enc).unwrap();
            // Twice: first pass populates, second pass must serve memos.
            for _ in 0..2 {
                for pc in dec.gc_point_pcs().collect::<Vec<_>>() {
                    assert_eq!(
                        cache.lookup(&enc.bytes, pc),
                        dec.lookup(pc).as_ref(),
                        "{scheme}: pc {pc}"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_counts_hits_misses_and_decode_ops() {
        let enc = encode_module(&sample_module(), Scheme::DELTA_MAIN_PP);
        let mut cache = DecodeCache::build(&enc).unwrap();
        // Procedure `a` has points at pcs 6, 14, 30; `b` at 108.
        // Cold lookup at the *last* point of `a` decodes the whole prefix.
        assert!(cache.lookup(&enc.bytes, 30).is_some());
        assert_eq!(cache.counters(), DecodeCounters { hits: 0, misses: 1, points_decoded: 3 });
        // Earlier points of `a` are now memoized: pure hits.
        assert!(cache.lookup(&enc.bytes, 6).is_some());
        assert!(cache.lookup(&enc.bytes, 14).is_some());
        assert_eq!(cache.counters(), DecodeCounters { hits: 2, misses: 1, points_decoded: 3 });
        // A different procedure misses independently.
        assert!(cache.lookup(&enc.bytes, 108).is_some());
        assert_eq!(cache.counters(), DecodeCounters { hits: 2, misses: 2, points_decoded: 4 });
        // Warm repeat of everything: hits only, no further decode ops.
        for pc in [6, 14, 30, 108] {
            assert!(cache.lookup(&enc.bytes, pc).is_some());
        }
        assert_eq!(cache.counters(), DecodeCounters { hits: 6, misses: 2, points_decoded: 4 });
        assert_eq!(cache.memoized_points(), 4);
        assert_eq!(cache.lookup(&enc.bytes, 7), None, "non-gc-point pc");
    }

    #[test]
    fn cache_resumes_from_prefix_checkpoint() {
        let enc = encode_module(&sample_module(), Scheme::DELTA_MAIN_PP);
        let mut cache = DecodeCache::build(&enc).unwrap();
        // Decode the prefix up to the middle point, then extend by one:
        // the extension must cost exactly one decode op, not a rewalk.
        assert!(cache.lookup(&enc.bytes, 14).is_some());
        let mid = cache.counters();
        assert_eq!(mid.points_decoded, 2);
        assert!(cache.lookup(&enc.bytes, 30).is_some());
        let end = cache.counters();
        assert_eq!(end.since(mid), DecodeCounters { hits: 0, misses: 1, points_decoded: 1 });
    }

    #[test]
    fn cache_module_binding_is_sticky() {
        let enc = encode_module(&sample_module(), Scheme::DELTA_MAIN_PP);
        let mut cache = DecodeCache::build(&enc).unwrap();
        assert_eq!(cache.module_token(), None);
        cache.bind_module(17);
        cache.bind_module(17);
        assert_eq!(cache.module_token(), Some(17));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cache.bind_module(18)));
        assert!(r.is_err(), "rebinding to another module must panic");
    }
}
