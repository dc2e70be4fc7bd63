//! The compacting copying collector.
//!
//! A classic two-space Cheney collector, made possible by the tables: all
//! roots (globals, stack slots, registers) are known precisely, so every
//! object can move. Derived values are updated in the paper's two steps
//! (§3): first `E := derived − Σ ±base` using the old base values (in
//! un-derive order: callee frames before callers, derived values before
//! their bases), then the graph is evacuated, then `derived := E + Σ
//! ±base` using the relocated bases, in exactly the reverse order.

use std::time::{Duration, Instant};

use m3gc_core::decode::{DecodeCache, DecodeCounters};
use m3gc_core::heap::{header_type_id, HeapType, TypeTable};
use m3gc_core::stats::GcKind;
use m3gc_vm::exec::World;
use m3gc_vm::machine::{Machine, SeqWorld, GLOBAL_BASE};
use m3gc_vm::shadow::Shadow;

use crate::trace::{
    gather_global_roots, gather_stack_roots, read_root, write_root, RegFiles, RootRef, StackRoots,
};

/// Statistics for one collection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// What kind of collection this was (full / minor / major).
    pub kind: GcKind,
    /// Objects evacuated.
    pub objects_copied: u64,
    /// Words evacuated (including headers).
    pub words_copied: u64,
    /// Objects promoted from the nursery to tenured space (generational
    /// collections only; a subset of `objects_copied`).
    pub promoted_objects: u64,
    /// Words promoted to tenured space.
    pub promoted_words: u64,
    /// Remembered-set slots drained and processed (minor collections).
    pub remembered_processed: u64,
    /// Remembered-set slots re-recorded for surviving old→young edges
    /// (minor collections).
    pub remembered_added: u64,
    /// Tidy root references processed.
    pub roots: u64,
    /// Always 0 (nothing writes it): `bench/src/workloads/gc.rs` reads it
    /// and `bench/` is frozen, so it stays until a benchmark PR drops both.
    pub roots_killed: u64,
    /// Derived values un-derived and re-derived.
    pub derived_updated: u64,
    /// Stack frames traced.
    pub frames_traced: u64,
    /// Gc-point table lookups served from the decode cache's memos.
    pub decode_hits: u64,
    /// Gc-point table lookups that had to decode at least one point.
    pub decode_misses: u64,
    /// Individual gc-point decode operations performed (the §6.3 decoding
    /// cost; bounded by the module's gc-point count over a machine's
    /// lifetime thanks to the cache).
    pub decode_ops: u64,
    /// Time spent locating+decoding tables and walking stacks (the §6.3
    /// "stack tracing" cost), including the derived-value updates.
    pub trace_time: Duration,
    /// Total collection time.
    pub total_time: Duration,
}

/// The object headed at `addr`, read through `word`: its header, type
/// descriptor, array length (0 for records) and size in words. The
/// header must be intact (a type id, not a forwarding word).
pub(crate) struct Extent<'t> {
    pub(crate) header: i64,
    pub(crate) ty: &'t HeapType,
    pub(crate) len: u32,
    pub(crate) words: i64,
}

impl Extent<'_> {
    /// Addresses of the object's pointer fields.
    pub(crate) fn pointer_slots(&self, addr: i64) -> impl Iterator<Item = i64> + '_ {
        self.ty.pointer_offset_iter(self.len).map(move |off| addr + i64::from(off))
    }
}

/// Sizes the object at `addr` (§2, requirements i–ii: the type
/// descriptor in the header gives the size and the pointer fields).
pub(crate) fn object_extent(types: &TypeTable, word: impl Fn(i64) -> i64, addr: i64) -> Extent<'_> {
    header_extent(types, word(addr), || word(addr + 1))
}

/// [`object_extent`] for a caller that already holds the header (a
/// copier that has overwritten it with a claim); `len_word` reads the
/// word after it.
pub(crate) fn header_extent(
    types: &TypeTable,
    header: i64,
    len_word: impl FnOnce() -> i64,
) -> Extent<'_> {
    let ty = types.get(header_type_id(header));
    let len = match ty {
        HeapType::Array { .. } => len_word() as u32,
        HeapType::Record { .. } => 0,
    };
    Extent { header, ty, len, words: i64::from(ty.object_words(len)) }
}

/// Step 1 of the derived-value update (§3): recover `E := derived − Σ
/// ±base` using the old base values, in un-derive order (callee frames
/// before callers, derived values before their bases, as gathered).
pub(crate) fn un_derive<W: World>(
    w: &mut W,
    cpus: &mut (impl RegFiles + ?Sized),
    stack: &StackRoots,
) {
    for d in &stack.derivations {
        let mut v = read_root(w, cpus, d.target);
        for &(b, sign) in &d.bases {
            v -= sign.factor() * read_root(w, cpus, b);
        }
        write_root(w, cpus, d.target, v);
    }
}

/// Step 2 of the derived-value update (§3): `derived := E + Σ ±base` from
/// the relocated bases, in exactly the reverse of the un-derive order.
pub(crate) fn re_derive<W: World>(
    w: &mut W,
    cpus: &mut (impl RegFiles + ?Sized),
    stack: &StackRoots,
) {
    for d in stack.derivations.iter().rev() {
        let mut v = read_root(w, cpus, d.target);
        for &(b, sign) in &d.bases {
            v += sign.factor() * read_root(w, cpus, b);
        }
        write_root(w, cpus, d.target, v);
    }
}

/// The sequential heap mid-evacuation: the machine's memory, shadow tags
/// and type table borrowed side by side, plus the running statistics.
pub(crate) struct SeqHeap<'a> {
    pub(crate) mem: &'a mut [i64],
    pub(crate) shadow: Option<&'a mut Shadow>,
    pub(crate) types: &'a TypeTable,
    pub(crate) stats: &'a mut GcStats,
}

impl<'a> SeqHeap<'a> {
    pub(crate) fn of(w: &'a mut SeqWorld, stats: &'a mut GcStats) -> SeqHeap<'a> {
        SeqHeap { mem: &mut w.mem, shadow: w.shadow.as_deref_mut(), types: &w.module.types, stats }
    }

    pub(crate) fn extent(&self, addr: i64) -> Extent<'a> {
        object_extent(self.types, |a| self.mem[a as usize], addr)
    }

    /// Forwards one object pointer, copying the object on first visit;
    /// returns the new address. `addr` must point at an object header in
    /// a space being evacuated. The three sequential collections differ
    /// only in `place`: given the header and size it picks the
    /// destination and the copy's header (age bits), or `None` when the
    /// destination is full. Shadow tags travel with the object so
    /// instrumented execution stays truthful after the flip.
    pub(crate) fn move_object(
        &mut self,
        addr: i64,
        place: impl FnOnce(i64, i64) -> Option<(i64, i64)>,
    ) -> Option<i64> {
        let header = self.mem[addr as usize];
        if header < 0 {
            // Already forwarded: header holds -(new+1).
            return Some(-(header + 1));
        }
        let words = self.extent(addr).words;
        let (new, new_header) = place(header, words)?;
        self.mem.copy_within(addr as usize..(addr + words) as usize, new as usize);
        if let Some(sh) = self.shadow.as_deref_mut() {
            sh.copy_words(addr, new, words);
        }
        self.mem[new as usize] = new_header;
        self.mem[addr as usize] = -(new + 1);
        self.stats.objects_copied += 1;
        self.stats.words_copied += words as u64;
        Some(new)
    }
}

/// Gathers every root of a stopped machine and runs step 1 of the
/// derived-value update — the traced part every sequential collection
/// starts with.
pub(crate) fn trace_roots(
    m: &mut Machine,
    stack: StackRoots,
    stats: &mut GcStats,
) -> (StackRoots, Vec<RootRef>) {
    let globals = gather_global_roots(&m.module, m.globals_start() as i64);
    stats.frames_traced = stack.frames as u64;
    stats.roots = (stack.tidy.len() + globals.len()) as u64;
    stats.derived_updated = stack.derivations.len() as u64;
    // Step 1 of the derived-value update: recover E from the old bases,
    // derived-before-base order (as emitted), callee frames first.
    un_derive(&mut m.world, &mut m.threads[..], &stack);
    (stack, globals)
}

/// Runs a full collection. Every non-finished thread must be stopped at a
/// gc-point.
///
/// # Panics
///
/// Panics on corrupted heap state or missing tables (compiler/runtime
/// bugs — the tables make precise collection possible, so imprecision is
/// always a bug here).
pub fn collect(m: &mut Machine, cache: &mut DecodeCache) -> GcStats {
    let t0 = Instant::now();
    let mut stats = GcStats::default();

    // --- Locate tables and walk the stacks (the traced part). ---
    let before = cache.counters();
    let stack = gather_stack_roots(m, cache);
    record_decode_work(&mut stats, cache.counters().since(before));
    let (from_start, from_end) = m.from_space();
    let (stack, globals) = trace_roots(m, stack, &mut stats);
    let trace_end = t0.elapsed();

    // --- Evacuate. ---
    let (to_start, _) = m.to_space();
    let mut free = to_start;
    {
        let Machine { threads, world, .. } = &mut *m;
        let forward = |heap: &mut SeqHeap, free: &mut i64, v: i64| {
            let bump = |header, words| {
                *free += words;
                Some((*free - words, header))
            };
            heap.move_object(v, bump).expect("a semispace holds its own survivors")
        };
        for &r in globals.iter().chain(&stack.tidy) {
            let v = read_root(world, &threads[..], r);
            if !(from_start..from_end).contains(&v) {
                // NIL, or an already-updated duplicate root (e.g. a
                // pointer parameter listed both in a register and its AP
                // home after the first copy was forwarded): forwarding
                // is idempotent.
                debug_assert!(
                    v == 0 || (GLOBAL_BASE as i64..from_end).contains(&v),
                    "tidy root {v} outside every space"
                );
                continue;
            }
            let new = forward(&mut SeqHeap::of(world, &mut stats), &mut free, v);
            write_root(world, &mut threads[..], r, new);
        }
        let mut heap = SeqHeap::of(world, &mut stats);
        // Cheney scan.
        let mut scan = to_start;
        while scan < free {
            let ext = heap.extent(scan);
            assert!(ext.header >= 0, "forwarded header in to-space at {scan}");
            for slot in ext.pointer_slots(scan) {
                let v = heap.mem[slot as usize];
                if (from_start..from_end).contains(&v) {
                    heap.mem[slot as usize] = forward(&mut heap, &mut free, v);
                }
            }
            scan += ext.words;
        }
    }

    // Step 2: re-derive from the relocated bases, in reverse order.
    let t2 = Instant::now();
    re_derive(&mut m.world, &mut m.threads[..], &stack);
    let rederive_time = t2.elapsed();

    m.finish_collection(free);
    stats.trace_time = trace_end + rederive_time;
    stats.total_time = t0.elapsed();
    stats
}

/// Folds one stack walk's decode-cache counter delta into the stats.
pub(crate) fn record_decode_work(stats: &mut GcStats, delta: DecodeCounters) {
    stats.decode_hits = delta.hits;
    stats.decode_misses = delta.misses;
    stats.decode_ops = delta.points_decoded;
}

/// Performs only the table-decoding stack walk and the un-derive/re-derive
/// round trip, without moving any object. Used by the §6.3 measurement
/// ("collection being a stack trace") — values are restored exactly.
pub fn trace_only(m: &mut Machine, cache: &mut DecodeCache) -> GcStats {
    let t0 = Instant::now();
    let mut stats = GcStats::default();
    let before = cache.counters();
    let stack = gather_stack_roots(m, cache);
    record_decode_work(&mut stats, cache.counters().since(before));
    stats.frames_traced = stack.frames as u64;
    stats.roots = (stack.tidy.len() + m.module.global_ptr_roots.len()) as u64;
    stats.derived_updated = stack.derivations.len() as u64;
    un_derive(&mut m.world, &mut m.threads[..], &stack);
    re_derive(&mut m.world, &mut m.threads[..], &stack);
    stats.trace_time = t0.elapsed();
    stats.total_time = stats.trace_time;
    stats
}
