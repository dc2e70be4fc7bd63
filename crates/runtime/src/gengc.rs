//! The generational copying collector.
//!
//! Builds on the same precise-root machinery as the full semispace
//! collector (`crate::collector`): compiler-emitted tables locate every
//! pointer in stacks, registers and globals, and derived values are
//! updated with the paper's two-step §3 protocol. What changes is the
//! heap: ordinary allocation bumps through a small nursery, and a **minor
//! collection** evacuates only the live nursery objects — the roots are
//! the usual precise set *plus* the remembered set of tenured slots the
//! compiler-emitted write barrier recorded (tenured→nursery stores).
//! Survivors age through the two nursery halves; at `promote_age`
//! survivals they are promoted into the tenured from-space. A **major
//! collection** evacuates nursery and tenured space together into the
//! tenured to-space, emptying the nursery and the remembered set.
//!
//! Ordering with the derived-value update is unchanged from the full
//! collector: un-derive (callee-before-caller, derived-before-base) →
//! evacuate → re-derive in exact reverse order. A derived value whose base
//! is tenured simply re-derives from an unmoved base during minor
//! collections; one whose base is a nursery object follows it to the
//! to-half or tenured space.
//!
//! Soundness of the remembered set rests on two invariants:
//!
//! 1. Slots enter the buffer only when the compiler proved the store was a
//!    pointer store ([`m3gc_vm::isa::Instr::StB`]) or when the type
//!    descriptor lists the slot as a pointer field (eager remembering of
//!    oversized, directly tenured allocations). Every entry is therefore a
//!    tidy pointer slot, and processing is idempotent.
//! 2. The barrier may be *elided* only for stores whose target is provably
//!    nursery-fresh (no gc-point between allocation and store — no
//!    collection can intervene) or provably outside the heap; neither can
//!    create an unrecorded tenured→nursery edge.

use std::time::Instant;

use m3gc_core::decode::DecodeCache;
use m3gc_core::heap::{header_age, header_with_age};
use m3gc_core::stats::GcKind;
use m3gc_vm::machine::{Machine, VmTrap};

use crate::collector::{re_derive, record_decode_work, trace_roots, GcStats, SeqHeap};
use crate::trace::{gather_stack_roots, read_root, write_root};

/// Picks and runs the appropriate generational collection: minor by
/// default, escalating to major when the machine requested one (oversized
/// allocation failure, or no allocation progress after a minor) or when
/// the tenured free space can no longer absorb a worst-case promotion of
/// the whole live nursery.
///
/// # Errors
///
/// Returns [`VmTrap::OutOfMemory`] if a major collection's survivors
/// exceed the tenured semispace. The machine state is not usable
/// afterwards; the program is dead.
pub fn collect(m: &mut Machine, cache: &mut DecodeCache) -> Result<GcStats, VmTrap> {
    if m.wants_major_gc || m.tenured_free() < m.nursery_used() {
        major_collect(m, cache)
    } else {
        Ok(minor_collect(m, cache))
    }
}

/// Evacuation state of a minor collection: two copy destinations (the
/// nursery to-half for young survivors, the tenured frontier for promoted
/// ones) and the aging threshold.
struct MinorSpaces {
    young_from_start: i64,
    young_from_end: i64,
    young_to_start: i64,
    young_to_end: i64,
    young_free: i64,
    tenured_free: i64,
    tenured_limit: i64,
    promote_age: u32,
    promoted_objects: u64,
    promoted_words: u64,
    /// Old→young edges that survive the collection, re-recorded after
    /// the flip: remembered slots still pointing at young survivors,
    /// plus any young field of a freshly promoted object.
    still_remembered: Vec<i64>,
}

impl MinorSpaces {
    fn in_young_from(&self, v: i64) -> bool {
        (self.young_from_start..self.young_from_end).contains(&v)
    }

    fn in_young_to(&self, v: i64) -> bool {
        (self.young_to_start..self.young_to_end).contains(&v)
    }

    /// Forwards one nursery object, copying on first visit: to the tenured
    /// frontier once its survival count reaches the promotion age, into
    /// the nursery to-half otherwise. Returns the new address.
    fn forward(&mut self, heap: &mut SeqHeap, addr: i64) -> i64 {
        let place = |header, words| {
            let age = header_age(header) + 1;
            let frontier = if age >= self.promote_age {
                assert!(
                    self.tenured_free + words <= self.tenured_limit,
                    "promotion overflow despite the headroom precondition"
                );
                self.promoted_objects += 1;
                self.promoted_words += words as u64;
                &mut self.tenured_free
            } else {
                &mut self.young_free
            };
            *frontier += words;
            Some((*frontier - words, header_with_age(header, age)))
        };
        heap.move_object(addr, place).expect("placement always succeeds")
    }

    /// Scans one evacuated object, forwarding its nursery fields; returns
    /// the object's size in words. When the object lives in tenured space
    /// (`resident_tenured`), fields left pointing at young survivors are
    /// recorded as surviving old→young edges.
    fn scan_object(&mut self, heap: &mut SeqHeap, addr: i64, resident_tenured: bool) -> i64 {
        let ext = heap.extent(addr);
        assert!(ext.header >= 0, "forwarded header in a destination region at {addr}");
        for slot in ext.pointer_slots(addr) {
            let v = heap.mem[slot as usize];
            if !self.in_young_from(v) {
                continue;
            }
            let new = self.forward(heap, v);
            heap.mem[slot as usize] = new;
            if resident_tenured && self.in_young_to(new) {
                self.still_remembered.push(slot);
            }
        }
        ext.words
    }
}

/// Runs a minor collection. Every non-finished thread must be stopped
/// at a gc-point, and the tenured from-space must have at least
/// `nursery_used()` free words (the scheduler's escalation policy
/// guarantees this worst-case promotion headroom by going major instead).
///
/// # Panics
///
/// Panics if the headroom precondition is violated, or on corrupted heap
/// state / missing tables (compiler/runtime bugs).
pub fn minor_collect(m: &mut Machine, cache: &mut DecodeCache) -> GcStats {
    let t0 = Instant::now();
    let mut stats = GcStats { kind: GcKind::Minor, ..GcStats::default() };
    assert!(m.is_generational(), "minor collection on a semispace heap");
    assert!(m.tenured_free() >= m.nursery_used(), "minor collection without promotion headroom");

    // --- Locate tables and walk the stacks (the traced part). ---
    let before = cache.counters();
    let stack = gather_stack_roots(m, cache);
    record_decode_work(&mut stats, cache.counters().since(before));
    let (stack, globals) = trace_roots(m, stack, &mut stats);
    let trace_end = t0.elapsed();

    // --- Evacuate the live nursery. ---
    let (young_from_start, _) = m.nursery_from_space();
    let (young_to_start, young_to_end) = m.nursery_to_space();
    let mut spaces = MinorSpaces {
        young_from_start,
        // Only the allocated prefix of the active half can hold objects.
        young_from_end: m.alloc_ptr,
        young_to_start,
        young_to_end,
        young_free: young_to_start,
        tenured_free: m.tenured_alloc_ptr,
        tenured_limit: m.tenured_space().1,
        promote_age: m.promote_age(),
        promoted_objects: 0,
        promoted_words: 0,
        still_remembered: Vec::new(),
    };
    let tenured_scan_start = spaces.tenured_free;
    let remembered = m.take_remembered_slots();
    stats.remembered_processed = remembered.len() as u64;

    {
        let Machine { threads, world, .. } = &mut *m;
        // Precise roots: globals, then stack slots and registers. NIL,
        // tenured, or an already-updated duplicate root: nothing to move
        // in a minor collection.
        for &r in globals.iter().chain(&stack.tidy) {
            let v = read_root(world, &threads[..], r);
            if spaces.in_young_from(v) {
                let new = spaces.forward(&mut SeqHeap::of(world, &mut stats), v);
                write_root(world, &mut threads[..], r, new);
            }
        }
        let mut heap = SeqHeap::of(world, &mut stats);
        // Remembered tenured slots. Values that are no longer nursery
        // pointers (overwritten since the barrier fired) are stale entries
        // and are dropped.
        for &slot in &remembered {
            let v = heap.mem[slot as usize];
            if !spaces.in_young_from(v) {
                continue;
            }
            let new = spaces.forward(&mut heap, v);
            heap.mem[slot as usize] = new;
            if spaces.in_young_to(new) {
                spaces.still_remembered.push(slot);
            }
        }
        // Cheney scan over both destination regions. Young survivors and
        // promoted objects each append to their own frontier, and scanning
        // one region can grow the other, so loop until both catch up.
        let mut young_scan = young_to_start;
        let mut tenured_scan = tenured_scan_start;
        while young_scan < spaces.young_free || tenured_scan < spaces.tenured_free {
            while young_scan < spaces.young_free {
                young_scan += spaces.scan_object(&mut heap, young_scan, false);
            }
            while tenured_scan < spaces.tenured_free {
                tenured_scan += spaces.scan_object(&mut heap, tenured_scan, true);
            }
        }
    }

    // Step 2: re-derive from the relocated bases, in reverse order.
    let t2 = Instant::now();
    re_derive(&mut m.world, &mut m.threads[..], &stack);
    let rederive_time = t2.elapsed();

    m.finish_minor_collection(spaces.young_free, spaces.tenured_free);
    stats.promoted_objects = spaces.promoted_objects;
    stats.promoted_words = spaces.promoted_words;
    stats.remembered_added = spaces.still_remembered.len() as u64;
    for slot in spaces.still_remembered {
        m.remember_slot(slot);
    }
    stats.trace_time = trace_end + rederive_time;
    stats.total_time = t0.elapsed();
    stats
}

/// The allocated prefixes of the nursery and the tenured from-space.
pub(crate) fn live_ranges(m: &Machine) -> [(i64, i64); 2] {
    [(m.nursery_from_space().0, m.alloc_ptr), (m.tenured_space().0, m.tenured_alloc_ptr)]
}

/// Runs a major collection: evacuates the live nursery *and* the tenured
/// from-space into the tenured to-space (everything is promoted), leaving
/// the nursery empty and the remembered set clear. Every non-finished
/// thread must be stopped at a gc-point.
///
/// # Errors
///
/// Returns [`VmTrap::OutOfMemory`] if the survivors exceed the tenured
/// to-space; the machine state is not usable afterwards.
///
/// # Panics
///
/// Panics on corrupted heap state or missing tables.
pub fn major_collect(m: &mut Machine, cache: &mut DecodeCache) -> Result<GcStats, VmTrap> {
    let t0 = Instant::now();
    let mut stats = GcStats { kind: GcKind::Major, ..GcStats::default() };
    assert!(m.is_generational(), "major collection on a semispace heap");

    let before = cache.counters();
    let stack = gather_stack_roots(m, cache);
    record_decode_work(&mut stats, cache.counters().since(before));
    let [young, old] = live_ranges(m);
    let (stack, globals) = trace_roots(m, stack, &mut stats);
    let trace_end = t0.elapsed();

    let (to_start, to_end) = m.tenured_to_space();
    let mut free = to_start;
    let in_from = |v: i64| (young.0..young.1).contains(&v) || (old.0..old.1).contains(&v);
    // Unlike the semispace collector's forward, evacuation can overflow
    // (nursery + tenured survivors may exceed one semispace). Ages only
    // matter inside the nursery; tenured headers stay clean.
    let forward = |heap: &mut SeqHeap, free: &mut i64, v: i64| {
        let bump = |header, words| {
            *free += words;
            (*free <= to_end).then(|| (*free - words, header_with_age(header, 0)))
        };
        heap.move_object(v, bump).ok_or(VmTrap::OutOfMemory)
    };

    {
        let Machine { threads, world, .. } = &mut *m;
        for &r in globals.iter().chain(&stack.tidy) {
            let v = read_root(world, &threads[..], r);
            if in_from(v) {
                let new = forward(&mut SeqHeap::of(world, &mut stats), &mut free, v)?;
                write_root(world, &mut threads[..], r, new);
            }
        }
        let mut heap = SeqHeap::of(world, &mut stats);
        let mut scan = to_start;
        while scan < free {
            let ext = heap.extent(scan);
            assert!(ext.header >= 0, "forwarded header in to-space at {scan}");
            for slot in ext.pointer_slots(scan) {
                let v = heap.mem[slot as usize];
                if in_from(v) {
                    heap.mem[slot as usize] = forward(&mut heap, &mut free, v)?;
                }
            }
            scan += ext.words;
        }
    }

    let t2 = Instant::now();
    re_derive(&mut m.world, &mut m.threads[..], &stack);
    let rederive_time = t2.elapsed();

    m.finish_major_collection(free);
    stats.trace_time = trace_end + rederive_time;
    stats.total_time = t0.elapsed();
    Ok(stats)
}
