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
//!
//! **Gray work.** Each worker scans from a private `Vec` stack inside its
//! [`WorkerLocal`]; per copied object the only shared memory touched is
//! the forwarding claim and the to-space bump. A stack that outgrows
//! `GRAY_LIMIT` sheds its *oldest* half into the worker's shared deque as
//! one chunk (one lock per 64 objects); a worker that runs dry takes its
//! own newest chunk back or steals another worker's oldest, reading an
//! atomic count before any lock. Termination is one counter — busy
//! workers plus untaken chunks — touched per chunk and per idle
//! transition; an idle worker spins a bounded number of times, then parks
//! on the collection's [`CopySync`] until a publish or the end of the
//! trace wakes it.
//!
//! **Solo.** A collection that starts one worker touches no shared
//! memory per object until that worker wakes somebody, because nobody
//! else can reach the heap before then. The worker copies *solo*: its
//! claim is a plain load of the header (no `BUSY` CAS) and its bump an
//! add to a private to-space frontier (no `fetch_add` on `free`). It
//! leaves solo in [`WorkerLocal::leave_solo`], storing its frontier into
//! `free`, right before its first [`GcPool::wake_one`] — the pool mutex
//! that call releases, and the woken helper acquires before it reads its
//! mail, orders every solo store before the helper's first claim — or
//! when its trace ends. The copy body is the same in both modes; only
//! the claim and the bump differ, and the gray stack keeps its
//! depth-first order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::Mutex;

use m3gc_vm::machine::GLOBAL_BASE;
use m3gc_vm::ParMachine;

use crate::collector::{header_extent, object_extent, Extent};
use crate::pool::{Backoff, CopySync, GcPool};

/// Relaxed shorthand; cross-thread ordering comes from the handshake,
/// the forwarding CAS protocol and, for what a solo worker stored, the
/// pool mutex of its first wake.
const R: Ordering = Ordering::Relaxed;

/// Header claim sentinel: a worker that wins the forwarding CAS holds
/// the object under this value until the forwarding pointer is
/// published. Distinguishable from both real headers (`>= 0`) and
/// forwarding pointers (`-(new+1)`, which is negative but far from
/// `i64::MIN` for any real address).
pub(crate) const BUSY: i64 = i64::MIN;

/// Private gray-stack entries above which a worker publishes its oldest
/// half as one chunk. destroy's depth-first trace holds a few dozen
/// entries at most: a bound of 16 published on every pause (one needless
/// helper wake each, 142 ms per op against 128 ms), 64 and above never.
/// On a 20 000-list array two workers took 653 / 642 / 607 ms per run at
/// 64 / 128 / 1 024 with the same 62 : 38 split — flat, so the bound is
/// destroy's depth with headroom, and chunks stay small enough (64
/// objects) to spread a short trace.
const GRAY_LIMIT: usize = 128;

/// One worker's published surplus: whole chunks of gray objects, newest
/// at the back. The owner takes from the back, thieves from the cold
/// front; `avail` lets either skip the lock when the deque is empty.
struct Published {
    chunks: Mutex<VecDeque<Vec<i64>>>,
    avail: AtomicUsize,
}

/// A word every worker writes, kept off the cache lines of the read-only
/// fields around it (two lines: the adjacent-line prefetcher pairs them).
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) T);

/// Shared state of one collection's copy phase.
pub(crate) struct GcCtx<'vm> {
    pub(crate) vm: &'vm ParMachine,
    /// To-space copy frontier (fetch-add bump). A solo worker keeps its
    /// own and stores it here when it leaves solo.
    pub(crate) free: CachePadded<AtomicI64>,
    /// Exactly one worker was started with the collection: it copies
    /// solo until it first wakes a helper (set by [`GcCtx::begin`]).
    solo: AtomicBool,
    pub(crate) to_end: i64,
    /// Set when a copy did not fit to-space: the live heap and the
    /// escaped regions' survivors together outgrew one semispace. The
    /// collection then fails as heap exhaustion. Relaxed: the leader
    /// reads it only after the pool has handed back every worker's share.
    pub(crate) overflowed: AtomicBool,
    pub(crate) from_start: i64,
    pub(crate) from_end: i64,
    /// Escaped-region evacuation sources: `(slot, base, top)` of every
    /// region whose data must move to the shared heap this collection.
    pub(crate) evac_regions: Vec<(usize, i64, i64)>,
    /// Live non-escaped region slots awaiting a linear pointer scan;
    /// workers pull from this queue during the root-forwarding phase.
    pub(crate) region_scan: Mutex<Vec<usize>>,
    /// Per-worker deques of published chunks (to-space objects still to
    /// scan that their owner's private gray stack had no room for).
    published: Vec<Published>,
    /// The termination detector: workers holding gray work plus chunks
    /// published and not yet taken. Only a counted worker can publish,
    /// so zero is stable — every woken worker idle, no chunk
    /// outstanding. Touched per chunk and per idle transition, never per
    /// object.
    outstanding: CachePadded<AtomicUsize>,
    pub(crate) sync: CopySync,
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
            free: CachePadded(AtomicI64::new(to_start)),
            to_end,
            overflowed: AtomicBool::new(false),
            from_start,
            from_end,
            evac_regions,
            region_scan: Mutex::new(scan),
            published: (0..workers)
                .map(|_| Published {
                    chunks: Mutex::new(VecDeque::new()),
                    avail: AtomicUsize::new(0),
                })
                .collect(),
            outstanding: CachePadded(AtomicUsize::new(0)),
            solo: AtomicBool::new(false),
            sync: CopySync::new(),
        }
    }

    /// Arms the barriers and the termination detector for the `starters`
    /// workers woken with the collection; each counts as busy until its
    /// own [`trace`] first runs dry. A lone starter copies solo.
    pub(crate) fn begin(&self, starters: usize) {
        self.sync.set_parties(starters);
        self.outstanding.0.store(starters, Ordering::SeqCst);
        self.solo.store(starters == 1, R);
    }

    fn chunk_available(&self) -> bool {
        self.published.iter().any(|p| p.avail.load(Ordering::SeqCst) > 0)
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

/// Per-worker copy state: the private gray stack and the copy counters.
/// Words promoted out of escaped regions are split from ordinary
/// semispace copies so the serve stats can report exactly how much
/// request-local data tracing (rather than O(1) region reclaim) had to
/// handle.
pub(crate) struct WorkerLocal<'a, 'vm> {
    w: usize,
    pool: &'a GcPool<'vm>,
    /// To-space objects copied by this worker and not yet scanned. Plain
    /// memory: nothing here is shared until [`WorkerLocal::publish`].
    gray: Vec<i64>,
    /// The private to-space frontier while this worker copies solo.
    solo: Option<i64>,
    pub(crate) objects: u64,
    pub(crate) words: u64,
    /// The part of `words` copied solo, before the hand-off.
    pub(crate) solo_words: u64,
    pub(crate) region_objects: u64,
    pub(crate) region_words: u64,
    /// Chunks moved from the private stack to the shared deque.
    pub(crate) chunks_published: u64,
    /// Chunks taken from another worker's deque.
    pub(crate) steals: u64,
    /// Times this worker parked inside the trace for want of work.
    pub(crate) idle_parks: u64,
}

impl<'a, 'vm> WorkerLocal<'a, 'vm> {
    /// Worker `w`'s copy state; solo if `gc` started it alone.
    pub(crate) fn new(
        gc: &GcCtx<'_>,
        w: usize,
        pool: &'a GcPool<'vm>,
        starter: bool,
    ) -> WorkerLocal<'a, 'vm> {
        let solo = (starter && gc.solo.load(R)).then(|| gc.free.0.load(R));
        WorkerLocal {
            w,
            pool,
            gray: Vec::with_capacity(GRAY_LIMIT + 1),
            solo,
            objects: 0,
            words: 0,
            solo_words: 0,
            region_objects: 0,
            region_words: 0,
            chunks_published: 0,
            steals: 0,
            idle_parks: 0,
        }
    }

    fn push_gray(&mut self, gc: &GcCtx<'_>, addr: i64) {
        self.gray.push(addr);
        if self.gray.len() > GRAY_LIMIT {
            self.publish(gc);
        }
    }

    /// Moves the oldest half of the private stack into this worker's
    /// deque as one chunk, and wakes somebody to take it: a worker parked
    /// inside the trace if there is one, else a helper still asleep in
    /// the pool.
    fn publish(&mut self, gc: &GcCtx<'_>) {
        let chunk: Vec<i64> = self.gray.drain(..self.gray.len() / 2).collect();
        // Counted before it is visible, so a thief that takes it and
        // runs dry cannot drive the detector to zero under the publisher.
        gc.outstanding.0.fetch_add(1, Ordering::SeqCst);
        let mine = &gc.published[self.w];
        {
            let mut chunks = mine.chunks.lock().expect("gray deque lock poisoned");
            chunks.push_back(chunk);
            mine.avail.fetch_add(1, Ordering::SeqCst);
        }
        self.chunks_published += 1;
        if !gc.sync.wake_parked() && self.pool.has_sleepers() {
            self.leave_solo(gc);
            self.pool.wake_one();
        }
    }

    /// Ends solo copying, if this worker is in it: the private frontier
    /// becomes the shared one. Called before the first wake (the pool
    /// mutex then orders every solo store before the helper's first
    /// read) and at the end of the trace.
    pub(crate) fn leave_solo(&mut self, gc: &GcCtx<'_>) {
        if let Some(free) = self.solo.take() {
            gc.free.0.store(free, R);
            self.solo_words = self.words;
        }
    }

    /// Refills the (empty) private stack with one published chunk: this
    /// worker's own newest, else the oldest of the first other worker
    /// that has one.
    fn take_chunk(&mut self, gc: &GcCtx<'_>) -> bool {
        let n = gc.published.len();
        for i in 0..n {
            let from = &gc.published[(self.w + i) % n];
            if from.avail.load(Ordering::SeqCst) == 0 {
                continue;
            }
            let mut chunks = from.chunks.lock().expect("gray deque lock poisoned");
            let taken = if i == 0 { chunks.pop_back() } else { chunks.pop_front() };
            let Some(mut chunk) = taken else { continue };
            from.avail.fetch_sub(1, Ordering::SeqCst);
            drop(chunks);
            self.steals += u64::from(i != 0);
            self.gray.append(&mut chunk);
            return true;
        }
        false
    }

    /// Off duty: waits — a bounded spin, then parked — until a chunk can
    /// be taken (`true`, holding it) or the trace has terminated.
    fn idle_wait(&mut self, gc: &GcCtx<'_>) -> bool {
        let mut backoff = Backoff::default();
        loop {
            if gc.outstanding.0.load(Ordering::SeqCst) == 0 {
                return false;
            }
            gc.sync.check();
            // An idle worker is not counted: the chunk's own count
            // becomes this worker's.
            if self.take_chunk(gc) {
                return true;
            }
            if !backoff.spin() {
                self.idle_parks += 1;
                gc.sync.park_while(|| {
                    gc.outstanding.0.load(Ordering::SeqCst) != 0 && !gc.chunk_available()
                });
                backoff = Backoff::default();
            }
        }
    }
}

/// Scans gray objects to the collection-wide fixpoint. `busy` says
/// whether the caller is already counted in the termination detector (a
/// worker started with the collection) or joins idle (a helper woken by a
/// published chunk).
pub(crate) fn trace(gc: &GcCtx<'_>, local: &mut WorkerLocal<'_, '_>, mut busy: bool) {
    loop {
        if busy {
            while let Some(addr) = local.gray.pop() {
                scan_object(gc, local, addr);
            }
            if local.take_chunk(gc) {
                // Taken by a counted worker: the chunk's count lapses.
                gc.outstanding.0.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            if gc.outstanding.0.fetch_sub(1, Ordering::SeqCst) == 1 {
                // The last counted worker ran dry with no chunk left.
                gc.sync.wake_parked();
                return;
            }
        }
        busy = local.idle_wait(gc);
        if !busy {
            return;
        }
    }
}

/// Claims the object whose header word is `cell` against the other
/// workers: returns its header (`>= 0`) once this worker has swapped in
/// the BUSY sentinel, or the forwarding word (`< 0`) another worker
/// published. Losers back off (bounded spin, then yield) on BUSY until the
/// winner publishes the forwarding pointer with release ordering.
fn claim(gc: &GcCtx<'_>, cell: &AtomicI64) -> i64 {
    let mut backoff = Backoff::default();
    loop {
        let header = cell.load(Ordering::Acquire);
        if header == BUSY {
            // The claimant may have died mid-copy.
            gc.sync.check();
            backoff.snooze();
            continue;
        }
        if header < 0 || cell.compare_exchange(header, BUSY, Ordering::Acquire, R).is_ok() {
            return header;
        }
    }
}

/// Forwards one object pointer, copying the object on first claim.
/// `addr` must point at an object header in the evacuation set. Shared
/// with other workers, the claim CAS and the to-space bump are the only
/// shared memory a copy touches; solo, the claim is a plain load and the
/// bump is private. Either way the new gray object goes on the worker's
/// private stack.
pub(crate) fn forward_par(gc: &GcCtx<'_>, local: &mut WorkerLocal<'_, '_>, addr: i64) -> i64 {
    let vm = gc.vm;
    let cell = &vm.mem[addr as usize];
    let header = if local.solo.is_some() { cell.load(R) } else { claim(gc, cell) };
    if header < 0 {
        // Already forwarded: header holds -(new+1).
        return -(header + 1);
    }
    // Claimed: the words are exclusively ours until we publish.
    let ext = header_extent(&vm.module.types, header, || vm.word(addr + 1));
    let words = ext.words;
    let new = match &mut local.solo {
        Some(free) => std::mem::replace(free, *free + words),
        None => gc.free.0.fetch_add(words, R),
    };
    if new + words > gc.to_end {
        // Only promotion out of escaped regions can outgrow to-space. The
        // object stays where it is, unclaimed, and every later copy
        // overflows too (the frontier only grows).
        gc.overflowed.store(true, R);
        if local.solo.is_none() {
            cell.store(header, Ordering::Release);
        }
        return addr;
    }
    vm.set_word(new, header);
    for off in 1..words {
        vm.set_word(new + off, vm.word(addr + off));
    }
    if let Some(sh) = &vm.shadow {
        sh.copy_words(addr, new, words);
    }
    cell.store(-(new + 1), Ordering::Release);
    if (gc.from_start..gc.from_end).contains(&addr) {
        local.objects += 1;
        local.words += words as u64;
    } else {
        // The only other evacuation sources are escaped regions.
        local.region_objects += 1;
        local.region_words += words as u64;
    }
    if ext.pointer_slots(new).next().is_some() {
        local.push_gray(gc, new);
    }
    new
}

/// Forwards a root slot if it still holds a pointer into the evacuation
/// set. Duplicate roots (a pointer listed both in a register and its
/// save slot) make forwarding idempotent, exactly as in the
/// single-threaded collector.
pub(crate) fn forward_root_par(
    gc: &GcCtx<'_>,
    local: &mut WorkerLocal<'_, '_>,
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
    Some(forward_par(gc, local, v))
}

/// Scans one to-space object, forwarding its evacuation-set pointer
/// slots.
fn scan_object(gc: &GcCtx<'_>, local: &mut WorkerLocal<'_, '_>, addr: i64) {
    let vm = gc.vm;
    debug_assert!(vm.word(addr) >= 0, "forwarded header in to-space at {addr}");
    for slot in extent(vm, addr).pointer_slots(addr) {
        let v = vm.word(slot);
        if v != 0 && gc.in_evac(v) {
            vm.set_word(slot, forward_par(gc, local, v));
        }
    }
}

/// Linearly scans one live (non-escaped) region — a dense header-led
/// object sequence by construction of bump allocation — forwarding any
/// pointer slot into the evacuation set. The region's own objects do
/// not move. Returns the roots (pointer slots) processed.
pub(crate) fn scan_region(gc: &GcCtx<'_>, local: &mut WorkerLocal<'_, '_>, slot: usize) -> u64 {
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
                vm.set_word(p, forward_par(gc, local, v));
            }
        }
        addr += ext.words;
    }
    slots_seen
}
