//! The shared parallel-evacuation core: claim-and-copy forwarding with
//! work stealing, used by every stop-the-world collection of the
//! OS-thread runtime (plain parallel runs and the allocation-service
//! executor alike).
//!
//! Extracted from `parallel.rs` so the serve executor's region-aware
//! collections reuse the exact copy path instead of growing a second
//! one. The generalisation over the original semispace-only code is the
//! *evacuation source set*: besides the from-space, a collection may
//! evacuate **escaped per-request regions** (live or zombie — see
//! `m3gc_vm::par::ParMachine::is_region_escaped`). Reachable objects in
//! those regions are promoted into to-space (the shared heap), every
//! surviving reference is rewritten, and the region is then reset —
//! which is how "only escaping objects are promoted; everything else is
//! reclaimed with the region in O(1)" stays sound: after the trace, no
//! pointer into the reset region can remain, and the precision oracle's
//! stale-pointer trap would catch any the tables missed.
//!
//! Non-escaped **live** regions are not evacuation sources (their
//! objects stay put, keeping request-local data out of the trace), but
//! they are *scanned linearly* — bump allocation makes every region a
//! dense header-led object sequence — so their pointer slots into the
//! evacuation set are forwarded like any other root.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use m3gc_vm::machine::GLOBAL_BASE;
use m3gc_vm::ParMachine;

use crate::collector::{header_extent, object_extent, Extent};

/// Relaxed shorthand; cross-thread ordering comes from the handshake
/// and the forwarding CAS protocol.
const R: Ordering = Ordering::Relaxed;

/// Header claim sentinel: a worker that wins the forwarding CAS holds
/// the object under this value until the forwarding pointer is
/// published. Distinguishable from both real headers (`>= 0`) and
/// forwarding pointers (`-(new+1)`, which is negative but far from
/// `i64::MIN` for any real address).
pub(crate) const BUSY: i64 = i64::MIN;

/// Shared state of one collection's copy phase.
pub(crate) struct GcCtx<'vm> {
    pub(crate) vm: &'vm ParMachine,
    /// To-space copy frontier (fetch-add bump).
    pub(crate) free: AtomicI64,
    pub(crate) to_end: i64,
    pub(crate) from_start: i64,
    pub(crate) from_end: i64,
    /// Escaped-region evacuation sources: `(slot, base, top)` of every
    /// region whose data must move to the shared heap this collection.
    pub(crate) evac_regions: Vec<(usize, i64, i64)>,
    /// Live non-escaped region slots awaiting a linear pointer scan;
    /// workers pull from this queue during the root-forwarding phase.
    pub(crate) region_scan: Mutex<Vec<usize>>,
    /// Per-worker deques of to-space objects still to scan.
    pub(crate) queues: Vec<Mutex<VecDeque<i64>>>,
    /// Objects pushed but not yet fully scanned (termination detector).
    pub(crate) pending: AtomicUsize,
    pub(crate) steals: Vec<AtomicU64>,
    pub(crate) barrier: Barrier,
}

impl<'vm> GcCtx<'vm> {
    /// Prepares the copy-phase state: semispace bounds, the escaped
    /// regions to evacuate and the live regions to scan in place.
    pub(crate) fn new(vm: &'vm ParMachine, workers: usize) -> GcCtx<'vm> {
        let (from_start, from_end) = vm.from_space();
        let (to_start, to_end) = vm.to_space();
        let mut evac_regions = Vec::new();
        let mut scan = Vec::new();
        if vm.region_words() > 0 {
            for slot in 0..vm.mutators() {
                if vm.is_region_escaped(slot) {
                    let (base, _) = vm.region_bounds(slot);
                    evac_regions.push((slot, base, vm.region_top(slot)));
                } else if vm.is_region_live(slot) {
                    scan.push(slot);
                }
            }
        }
        GcCtx {
            vm,
            free: AtomicI64::new(to_start),
            to_end,
            from_start,
            from_end,
            evac_regions,
            region_scan: Mutex::new(scan),
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            steals: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            barrier: Barrier::new(workers),
        }
    }

    /// True if `v` points into this collection's evacuation set (the
    /// from-space or an escaped region) and must be forwarded.
    pub(crate) fn in_evac(&self, v: i64) -> bool {
        if (self.from_start..self.from_end).contains(&v) {
            return true;
        }
        self.evac_regions.iter().any(|&(_, base, top)| (base..top).contains(&v))
    }
}

/// The intact-headed object at `addr` of the parallel heap.
pub(crate) fn extent(vm: &ParMachine, addr: i64) -> Extent<'_> {
    object_extent(&vm.module.types, |a| vm.word(a), addr)
}

/// Per-worker copy counters. Words promoted out of escaped regions are
/// split from ordinary semispace copies so the serve stats can report
/// exactly how much request-local data tracing (rather than O(1)
/// region reclaim) had to handle.
#[derive(Default)]
pub(crate) struct WorkerLocal {
    pub(crate) objects: u64,
    pub(crate) words: u64,
    pub(crate) region_objects: u64,
    pub(crate) region_words: u64,
}

/// Forwards one object pointer, copying the object on first claim.
/// `addr` must point at an object header in the evacuation set. Loser
/// workers spin (yielding) on the BUSY sentinel until the winner
/// publishes the forwarding pointer with release ordering.
pub(crate) fn forward_par(gc: &GcCtx<'_>, w: usize, local: &mut WorkerLocal, addr: i64) -> i64 {
    let vm = gc.vm;
    loop {
        let header = vm.mem[addr as usize].load(Ordering::Acquire);
        if header == BUSY {
            std::thread::yield_now();
            continue;
        }
        if header < 0 {
            // Already forwarded: header holds -(new+1).
            return -(header + 1);
        }
        if vm.mem[addr as usize]
            .compare_exchange(header, BUSY, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        // Claimed: the words are exclusively ours until we publish.
        let ext = header_extent(&vm.module.types, header, || vm.word(addr + 1));
        let words = ext.words;
        let new = gc.free.fetch_add(words, R);
        assert!(new + words <= gc.to_end, "to-space overflow during parallel copy");
        vm.set_word(new, header);
        for off in 1..words {
            vm.set_word(new + off, vm.word(addr + off));
        }
        if let Some(sh) = &vm.shadow {
            sh.copy_words(addr, new, words);
        }
        if (gc.from_start..gc.from_end).contains(&addr) {
            local.objects += 1;
            local.words += words as u64;
        } else {
            // The only other evacuation sources are escaped regions.
            local.region_objects += 1;
            local.region_words += words as u64;
        }
        if ext.pointer_slots(new).next().is_some() {
            gc.pending.fetch_add(1, Ordering::SeqCst);
            gc.queues[w].lock().unwrap().push_back(new);
        }
        vm.mem[addr as usize].store(-(new + 1), Ordering::Release);
        return new;
    }
}

/// Forwards a root slot if it still holds a pointer into the evacuation
/// set. Duplicate roots (a pointer listed both in a register and its
/// save slot) make forwarding idempotent, exactly as in the
/// single-threaded collector.
pub(crate) fn forward_root_par(
    gc: &GcCtx<'_>,
    w: usize,
    local: &mut WorkerLocal,
    v: i64,
) -> Option<i64> {
    if v == 0 {
        return None; // NIL
    }
    if !gc.in_evac(v) {
        debug_assert!(
            (GLOBAL_BASE as i64..gc.from_end.max(gc.to_end)).contains(&v),
            "tidy root {v} outside every space"
        );
        return None;
    }
    Some(forward_par(gc, w, local, v))
}

/// Scans one to-space object, forwarding its evacuation-set pointer
/// slots.
pub(crate) fn scan_object(gc: &GcCtx<'_>, w: usize, local: &mut WorkerLocal, addr: i64) {
    let vm = gc.vm;
    debug_assert!(vm.word(addr) >= 0, "forwarded header in to-space at {addr}");
    for slot in extent(vm, addr).pointer_slots(addr) {
        let v = vm.word(slot);
        if v != 0 && gc.in_evac(v) {
            vm.set_word(slot, forward_par(gc, w, local, v));
        }
    }
}

/// Linearly scans one live (non-escaped) region — a dense header-led
/// object sequence by construction of bump allocation — forwarding any
/// pointer slot into the evacuation set. The region's own objects do
/// not move. Returns the roots (pointer slots) processed.
pub(crate) fn scan_region(gc: &GcCtx<'_>, w: usize, local: &mut WorkerLocal, slot: usize) -> u64 {
    let vm = gc.vm;
    let (base, _) = vm.region_bounds(slot);
    let top = vm.region_top(slot);
    let mut addr = base;
    let mut slots_seen = 0u64;
    while addr < top {
        debug_assert!(vm.word(addr) >= 0, "forwarded header inside a live region at {addr}");
        let ext = extent(vm, addr);
        for p in ext.pointer_slots(addr) {
            let v = vm.word(p);
            slots_seen += 1;
            if v != 0 && gc.in_evac(v) {
                vm.set_word(p, forward_par(gc, w, local, v));
            }
        }
        addr += ext.words;
    }
    slots_seen
}

/// Pops local work LIFO, steals FIFO when dry.
pub(crate) fn next_work(gc: &GcCtx<'_>, w: usize) -> Option<i64> {
    if let Some(a) = gc.queues[w].lock().unwrap().pop_back() {
        return Some(a);
    }
    let n = gc.queues.len();
    for i in 1..n {
        let q = (w + i) % n;
        if let Some(a) = gc.queues[q].lock().unwrap().pop_front() {
            gc.steals[w].fetch_add(1, R);
            return Some(a);
        }
    }
    None
}
