//! Concurrent snapshot-at-the-beginning (SATB) marking on the parallel
//! runtime.
//!
//! A `--gc cms` collection cycle replaces the single monolithic
//! stop-the-world pause with two short ones and a concurrent phase in
//! between:
//!
//! 1. **Snapshot pause.** The requesting mutator leads the usual
//!    safepoint handshake (`safepoint.rs` — every pause of a cycle is
//!    one `stop_world` around the work [`cms_pause`] picks), but instead
//!    of copying anything it seeds the mark state: the bitmap is
//!    cleared, every root *value* — globals plus each parked thread's
//!    tidy roots, gathered with the watermark-spliced stack walk — is
//!    marked and pushed on the shared gray stack, `snap_free` records
//!    the allocation frontier, and the `marking` flag arms the `StB`
//!    deletion barrier. The world resumes.
//! 2. **Concurrent mark.** `conc_workers` markers (owned by a
//!    coordinator thread that sleeps between cycles) trace the gray
//!    stack to closure while the mutators keep running. The SATB
//!    invariant keeps this sound: any pointer a mutator overwrites
//!    while marking is enqueued (old value first) into a per-mutator
//!    buffer the markers drain, and every object allocated during
//!    marking is born black — so no object reachable at the snapshot
//!    can be lost, only floating garbage can be retained. When the
//!    markers go quiescent (no gray work, empty SATB sink, nothing in
//!    flight) the coordinator requests the final pause itself rather
//!    than waiting for the heap to fill.
//! 3. **Final pause.** A second handshake stops the world; the leader
//!    waits for the markers to stand down, sequentially drains the
//!    residual gray stack and SATB buffers to closure, and then runs a
//!    *bitmap evacuation*: workers claim fixed-size from-space chunks
//!    with one fetch-add each and copy that chunk's marked objects —
//!    no per-object claim CAS, no work-stealing trace, because the
//!    mark bitmap already is the transitive closure. Root slots and
//!    copied objects' fields are rewritten through plain forwarding
//!    loads after a barrier. The only stop-the-world work left is the
//!    copy itself.
//!
//! With the oracle armed, every cycle is shadow-verified in the final
//! pause before anything moves: a sequential trace from the *current*
//! roots (the exact reachable set a full stop-the-world collection of
//! this pause would copy) asserts that every reachable object carries a
//! mark bit. A deletion barrier that dropped or reordered even one
//! enqueue surfaces as an [`ExecError::Oracle`] here — see the SATB
//! mutation tests.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use m3gc_vm::par::{CmsHeap, EvacFault, EVAC_BUSY};
use m3gc_vm::{ParMachine, ParWorld};

use crate::collector::header_extent;
use crate::evac::{extent, CachePadded};
use crate::parallel::{run_gc_workers, GcJob, ParGcStats, Part, RunCtx, ThreadWorld, WorkerReport};
use crate::pool::CopySync;
use crate::safepoint::{contain, lead, lead_when, locked, try_lead, waited, Stopped};
use crate::scheduler::ExecError;
use crate::trace::{
    gather_global_roots_in, gather_thread_roots, gather_thread_roots_cached, read_root,
    read_root_in, write_root, RootRef, StackRoots,
};

/// Relaxed shorthand; cross-thread ordering comes from the handshake
/// locks, the marking flag's acquire/release pair and the evacuation
/// barriers.
const R: Ordering = Ordering::Relaxed;

/// Gray-stack objects a marker takes (and keeps locally) per refill.
const MARK_BATCH: usize = 64;

/// From-space words per evacuation chunk (fetch-add claim granularity).
/// A multiple of 64 so bitmap words never straddle chunks.
const CHUNK_WORDS: i64 = 1 << 12;

/// Coordinator/marker state, guarded by [`CmsRun::mx`].
struct CmsState {
    /// Bumped by every snapshot pause; the coordinator runs one marker
    /// generation per increment.
    cycles_started: u64,
    /// True once the current cycle's markers have exited (set by the
    /// coordinator after joining them). The final-pause leader waits on
    /// this before touching the gray stack.
    markers_idle: bool,
    /// True once the current cycle's concurrent copiers have exited
    /// (conc-evac only; trivially true otherwise). The final-pause
    /// leader waits on this before moving anything itself.
    copiers_idle: bool,
    /// Set at end of run; the coordinator exits once no cycle is open.
    stop: bool,
}

/// Per-run concurrent-marking state (lives in `RunCtx`).
pub(crate) struct CmsRun {
    /// Concurrent marking workers per cycle.
    workers: usize,
    mx: Mutex<CmsState>,
    cv: Condvar,
    /// Set by the final-pause leader; markers poll it and stand down.
    finish_requested: AtomicBool,
    /// Shared gray stack of marked-but-unscanned objects.
    gray: Mutex<Vec<i64>>,
    /// Objects pushed gray but not yet fully scanned — the markers'
    /// quiescence detector (0 + empty gray + empty sink = cycle traced).
    in_flight: AtomicUsize,
    /// Stats carried from the snapshot pause to the final pause.
    pending: Mutex<Option<CyclePending>>,
    /// This cycle's evacuation set: region start addresses, sparsest
    /// first, fixed by the select handshake (conc-evac only).
    evac_list: Mutex<Vec<i64>>,
    /// Next unclaimed index into `evac_list` (copier work cursor).
    evac_next: AtomicUsize,
    /// To-space addresses of every copy the concurrent copiers
    /// published this cycle — the updater's and the final pause's
    /// rewrite worklist (to-space has no mark bitmap to iterate).
    evac_copies: Mutex<Vec<i64>>,
    /// Set once the concurrent reference updater has rewritten every
    /// to-space copy's cset references. A final pause that interrupts
    /// the cycle before this point must do that rewrite itself.
    updater_done: AtomicBool,
}

struct CyclePending {
    /// Full duration of the cycle-opening pause.
    snapshot_pause: Duration,
    /// When the world resumed and concurrent marking began.
    mark_started: Instant,
    /// `satb_drained` at cycle start (for the per-cycle delta).
    satb_drained_start: u64,
    /// Duration of the evacuation-select handshake (conc-evac only).
    evac_select_pause: Duration,
    /// When the select handshake released and concurrent copying began.
    evac_started: Option<Instant>,
    /// Regions pinned out of this cycle's cset by frame derivations.
    evac_pinned: u64,
    /// Regions selected into this cycle's cset.
    evac_regions: u64,
    /// `CmsHeap` evacuation counters at the select handshake, for
    /// per-cycle deltas (the heap counters accumulate across cycles).
    evac_objects_start: u64,
    evac_words_start: u64,
    evac_healed_loads_start: u64,
    evac_healed_stores_start: u64,
}

impl CmsRun {
    pub(crate) fn new(workers: usize) -> CmsRun {
        CmsRun {
            workers,
            mx: Mutex::new(CmsState {
                cycles_started: 0,
                markers_idle: true,
                copiers_idle: true,
                stop: false,
            }),
            cv: Condvar::new(),
            finish_requested: AtomicBool::new(false),
            gray: Mutex::new(Vec::new()),
            in_flight: AtomicUsize::new(0),
            pending: Mutex::new(None),
            evac_list: Mutex::new(Vec::new()),
            evac_next: AtomicUsize::new(0),
            evac_copies: Mutex::new(Vec::new()),
            updater_done: AtomicBool::new(false),
        }
    }

    /// End-of-run signal: the coordinator finishes any open cycle and
    /// exits.
    pub(crate) fn stop(&self) {
        let mut cs = locked(&self.mx);
        cs.stop = true;
        self.cv.notify_all();
    }
}

/// Marks `v` if it is an object address in `[from_start, limit)` and
/// was not marked yet; returns `true` if this call marked it (the
/// caller owns pushing it gray).
fn mark_value(heap: &CmsHeap, from_start: i64, limit: i64, v: i64) -> bool {
    v >= from_start && v < limit && heap.mark_if_unmarked(v)
}

/// Scans one marked object's pointer fields, marking and collecting the
/// unmarked children. Returns how many were pushed.
fn scan_mark(
    vm: &ParMachine,
    heap: &CmsHeap,
    from_start: i64,
    from_end: i64,
    addr: i64,
    out: &mut Vec<i64>,
) -> usize {
    debug_assert!(vm.word(addr) >= 0, "forwarding pointer during marking at {addr}");
    let mut pushed = 0;
    for slot in extent(vm, addr).pointer_slots(addr) {
        let v = vm.word(slot);
        if mark_value(heap, from_start, from_end, v) {
            out.push(v);
            pushed += 1;
        }
    }
    pushed
}

/// One concurrent marking worker. Runs while the mutators run: pops
/// gray batches, drains the SATB sink when the gray stack is dry, and
/// exits on quiescence, on a final-pause request, on shutdown (a marker
/// that died holding gray work would otherwise keep `in_flight` above
/// zero forever), or under the `hold_marking` test knob. Field reads
/// race mutator stores by design;
/// every word is an atomic, and a stale read is always safe — the
/// overwritten value the marker missed is exactly what the deletion
/// barrier enqueued.
fn marker_loop(ctx: &RunCtx<'_>) {
    let vm = ctx.vm;
    let heap = vm.cms.as_ref().expect("marker without cms heap");
    let run = ctx.cms.as_ref().expect("marker without cms run");
    let (from_start, from_end) = vm.from_space();
    let mut local: Vec<i64> = Vec::new();
    loop {
        if run.finish_requested.load(Ordering::Acquire)
            || heap.hold_marking.load(R)
            || ctx.coord.halted()
        {
            break;
        }
        if local.is_empty() {
            let mut gray = locked(&run.gray);
            let n = gray.len().min(MARK_BATCH);
            if n > 0 {
                let at = gray.len() - n;
                local.extend(gray.drain(at..));
            }
        }
        if local.is_empty() {
            let taken = std::mem::take(&mut *locked(&heap.satb_sink));
            if !taken.is_empty() {
                heap.satb_drained.fetch_add(taken.len() as u64, R);
                let before = local.len();
                local.extend(
                    taken.into_iter().filter(|&v| mark_value(heap, from_start, from_end, v)),
                );
                run.in_flight.fetch_add(local.len() - before, Ordering::SeqCst);
            }
        }
        let Some(addr) = local.pop() else {
            if run.in_flight.load(Ordering::SeqCst) == 0 {
                // Nothing gray anywhere, the sink was just dry and no
                // marker holds unscanned work: the cycle is quiescent.
                // (SATB entries flushed after our sink check are the
                // final pause's residue — draining them there is the
                // same work, just not concurrent.)
                break;
            }
            std::thread::yield_now();
            continue;
        };
        #[cfg(test)]
        if ctx.fault == Some(crate::parallel::Fault::Marker) {
            panic!("injected marker fault");
        }
        let pushed = scan_mark(vm, heap, from_start, from_end, addr, &mut local);
        // Count the children in flight before retiring their parent, so
        // `in_flight == 0` still means "fully traced".
        if pushed > 0 {
            run.in_flight.fetch_add(pushed, Ordering::SeqCst);
        }
        run.in_flight.fetch_sub(1, Ordering::SeqCst);
        if local.len() >= 2 * MARK_BATCH {
            // Share the surplus so idle markers can help.
            let at = local.len() - MARK_BATCH;
            locked(&run.gray).extend(local.drain(at..));
        }
    }
    // Hand any unscanned work back for the final pause (or the other
    // markers); it is already counted in `in_flight`.
    if !local.is_empty() {
        locked(&run.gray).append(&mut local);
    }
}

/// Runs one of the coordinator's concurrent workers (`body`, as worker
/// `w` of `phase`) with its unwind caught at this boundary: a panic
/// fails the run instead of taking the coordinator's scope — and with it
/// the `markers_idle`/`copiers_idle` flip a final-pause leader waits
/// for — down with it.
fn conc_worker(ctx: &RunCtx<'_>, w: usize, phase: &'static str, body: fn(&RunCtx<'_>)) {
    let died = |message| ExecError::GcWorkerPanic { worker: w, phase, message };
    contain(ctx, died, || {
        body(ctx);
        Ok(())
    });
}

/// The coordinator thread: one per cms run, spawned by the run scaffold.
/// It sleeps until a snapshot pause opens a cycle, drives that cycle's
/// markers, and — when they quiesce with no pause pending — leads the
/// final pause itself so a traced cycle doesn't float until the heap
/// fills.
pub(crate) fn cms_coordinator(ctx: &RunCtx<'_>) {
    let vm = ctx.vm;
    let heap = vm.cms.as_ref().expect("coordinator without cms heap");
    let run = ctx.cms.as_ref().expect("coordinator without cms run");
    // What tells the coordinator to leave a pause to somebody else, or
    // to nobody: a final pause already requested, or shutdown.
    let stand_down = || {
        run.finish_requested.load(Ordering::Acquire) || ctx.coord.halted() || locked(&run.mx).stop
    };
    let mut seen = 0u64;
    loop {
        {
            let mut cs = locked(&run.mx);
            while cs.cycles_started == seen && !cs.stop {
                cs = waited(&run.cv, cs);
            }
            if cs.cycles_started == seen {
                return; // stopped with no open cycle
            }
            seen = cs.cycles_started;
        }
        std::thread::scope(|s| {
            for w in 0..run.workers {
                s.spawn(move || conc_worker(ctx, w, "mark", marker_loop));
            }
        });
        {
            let mut cs = locked(&run.mx);
            cs.markers_idle = true;
            run.cv.notify_all();
        }
        // Quiescent with no final pause pending: finish the cycle now,
        // as its leader. Losing the request CAS means a mutator-led
        // pause is already under way.
        if !heap.marking.load(Ordering::Acquire)
            || run.finish_requested.load(Ordering::Acquire)
            || ctx.coord.halted()
            || heap.hold_marking.load(R)
        {
            continue;
        }
        if !heap.conc_evac.load(R) {
            if try_lead(ctx) {
                drop(lead(ctx, None, false));
            }
            continue;
        }
        // With conc-evac the coordinator leads *two* more handshakes:
        // first the evacuation-select pause (pick the cset, verify the
        // mark closure, pin derivation targets), then — after its
        // copiers have published every cset forwarding and the updater
        // has rewritten the copies' references concurrently — the final
        // pause, which only flushes the in-flight allocation window and
        // re-fixes roots and derivations. A mutator-led forced pause
        // closing the cycle turns `marking` (and `evacuating`) off.
        lead_when(ctx, || {
            !heap.marking.load(Ordering::Acquire)
                || heap.evacuating.load(Ordering::Acquire)
                || heap.hold_marking.load(R)
                || stand_down()
        });
        if !heap.evacuating.load(Ordering::Acquire) || ctx.coord.halted() {
            continue;
        }
        std::thread::scope(|s| {
            for w in 0..run.workers {
                s.spawn(move || conc_worker(ctx, w, "conc-copy", cms_conc_copier));
            }
        });
        if !run.finish_requested.load(Ordering::Acquire) {
            cms_conc_update(ctx);
        }
        // Only now may a final-pause leader proceed: the updater polls
        // `finish_requested` and has stood down, so nothing races the
        // pause's rewrites.
        {
            let mut cs = locked(&run.mx);
            cs.copiers_idle = true;
            run.cv.notify_all();
        }
        // Test knob: stand down with every forwarding word published,
        // so mutators provably run against them.
        while heap.hold_evac.load(R) && !ctx.coord.halted() {
            let cs = locked(&run.mx);
            if cs.stop {
                break;
            }
            drop(run.cv.wait_timeout(cs, Duration::from_millis(1)));
        }
        lead_when(ctx, || {
            heap.hold_evac.load(R) || !heap.evacuating.load(Ordering::Acquire) || stand_down()
        });
    }
}

/// A cms run's stopped-world work: which pause depends on the cycle —
/// a snapshot pause if none is open, the final pause otherwise, and at
/// mark quiescence under conc-evac the evacuation-select pause.
pub(crate) fn cms_pause(stopped: &Stopped<'_, '_>, run: &CmsRun) -> Result<(), ExecError> {
    let heap = stopped.ctx.vm.cms.as_ref().expect("cms run without cms heap");
    let marking = heap.marking.load(Ordering::Acquire);
    // Coordinator-led at mark quiescence with conc-evac on: pick the
    // evacuation set instead of finishing the cycle. (A *mutator*-led
    // pause here means the heap is full and cannot wait for a concurrent
    // copy; it takes the one-pause evacuation.)
    let select = marking
        && heap.conc_evac.load(R)
        && !heap.evacuating.load(Ordering::Acquire)
        && !stopped.by_mutator
        && !run.finish_requested.load(Ordering::Acquire);
    // Only the final pause frees anything: the others never run the
    // no-progress check.
    stopped.cause(marking && !select)?;
    if select {
        cms_evac_select_pause(stopped, heap, run)
    } else if marking {
        cms_final_pause(stopped, heap, run)
    } else if stopped.by_mutator {
        cms_snapshot_pause(stopped, heap, run)
    } else {
        // The coordinator's request raced a mutator-led final pause that
        // already closed the cycle — release without starting a spurious
        // one.
        Ok(())
    }
}

/// The snapshot pause proper (world stopped, leader only): validate the
/// tables if the oracle is armed, then seed marking from root values
/// and arm the deletion barrier.
fn cms_snapshot_pause(
    stopped: &Stopped<'_, '_>,
    heap: &CmsHeap,
    run: &CmsRun,
) -> Result<(), ExecError> {
    let (ctx, vm) = (stopped.ctx, stopped.ctx.vm);
    stopped.oracle("at snapshot pause")?;
    let (from_start, _) = vm.from_space();
    let free_now = vm.free.load(R);
    heap.clear_marks();
    let mut gray = locked(&run.gray);
    debug_assert!(gray.is_empty(), "gray residue across cycles");
    debug_assert!(locked(&heap.satb_sink).is_empty(), "satb residue across cycles");
    gray.clear();
    let mut cache = locked(&ctx.caches[0]);
    for g in gather_global_roots_in(&vm.module, vm.globals_start() as i64) {
        let RootRef::Mem(a) = g else { unreachable!("global root in a register") };
        let v = vm.word(a);
        if mark_value(heap, from_start, free_now, v) {
            gray.push(v);
        }
    }
    for (tid, slot) in ctx.slots.iter().enumerate() {
        let slot = locked(slot);
        let Some(snap) = slot.as_ref() else { continue };
        let parked = ThreadWorld { vm, tid: tid as u32, snap };
        let mut roots = StackRoots::default();
        let mut wm = locked(&ctx.watermarks[tid]);
        // The value snapshot: tidy roots only. Derived values point
        // *into* objects whose base pointers are tidy roots of the same
        // frame, and marking works on whole objects, so bases cover
        // them. Nothing moves until the final pause re-walks the stack.
        gather_thread_roots_cached(
            &parked,
            &mut cache,
            tid as u32,
            (snap.pc, snap.fp, snap.ap, snap.sp),
            &mut wm,
            &mut roots,
        );
        for &r in &roots.tidy {
            let v = read_root_in(&parked, r);
            if mark_value(heap, from_start, free_now, v) {
                gray.push(v);
            }
        }
    }
    run.in_flight.store(gray.len(), Ordering::SeqCst);
    drop(gray);
    heap.snap_free.store(free_now, R);
    run.finish_requested.store(false, Ordering::Release);
    // Arm the deletion barrier before the world resumes (the release
    // handshake publishes this to every mutator).
    heap.marking.store(true, Ordering::Release);
    *locked(&run.pending) = Some(CyclePending {
        snapshot_pause: stopped.t0.elapsed(),
        mark_started: Instant::now(),
        satb_drained_start: heap.satb_drained.load(R),
        evac_select_pause: Duration::ZERO,
        evac_started: None,
        evac_pinned: 0,
        evac_regions: 0,
        evac_objects_start: 0,
        evac_words_start: 0,
        evac_healed_loads_start: 0,
        evac_healed_stores_start: 0,
    });
    let mut cs = locked(&run.mx);
    cs.cycles_started += 1;
    cs.markers_idle = false;
    run.cv.notify_all();
    Ok(())
}

/// The evacuation-select handshake (world stopped, coordinator-led,
/// conc-evac only). Runs at mark quiescence, *before* anything moves:
/// drains the mark residue to closure, verifies the cycle pre-motion
/// (the final pause cannot re-trace once objects relocate), pins every
/// region holding a frame derivation's target out of the candidate set,
/// computes per-region occupancy from the mark bitmap, and fixes the
/// evacuation set sparsest-first. `evacuating` is published before the
/// release handshake resumes the world, so every mutator arms its
/// self-healing forwarding paths.
fn cms_evac_select_pause(
    stopped: &Stopped<'_, '_>,
    heap: &CmsHeap,
    run: &CmsRun,
) -> Result<(), ExecError> {
    let (ctx, vm) = (stopped.ctx, stopped.ctx.vm);
    cms_finish_mark(ctx, heap, run);
    stopped.oracle("at evacuation select")?;
    if ctx.options.oracle && vm.shadow.is_some() {
        cms_shadow_verify(ctx, heap).map_err(ExecError::Oracle)?;
    }

    let (from_start, _) = vm.from_space();
    let free_now = vm.free.load(R);

    // Pin the region of every object a parked frame derives into. A
    // pinned object never moves concurrently, so mid-phase derivation
    // arithmetic on its interior stays valid; the object relocates at
    // the final pause, bracketed by the usual un-derive/re-derive. This
    // pins *all* derivation targets — a conservative superset of the
    // ambiguous frames the rule exists for.
    let mut pinned_n = 0u64;
    {
        let mut cache = locked(&ctx.caches[0]);
        for (tid, slot) in ctx.slots.iter().enumerate() {
            let slot = locked(slot);
            let Some(snap) = slot.as_ref() else { continue };
            let parked = ThreadWorld { vm, tid: tid as u32, snap };
            let mut roots = StackRoots::default();
            gather_thread_roots(
                &parked,
                &mut cache,
                tid as u32,
                (snap.pc, snap.fp, snap.ap, snap.sp),
                &mut roots,
            );
            for d in &roots.derivations {
                for &(b, _) in &d.bases {
                    let v = read_root_in(&parked, b);
                    if v >= from_start && v < free_now && heap.pin_region(heap.evac_region_of(v)) {
                        pinned_n += 1;
                    }
                }
                // Belt and suspenders: also pin through the derived
                // value itself (back-scan to its containing header), in
                // case a base was not decodable as a tidy root.
                let dv = read_root_in(&parked, d.target);
                if dv >= from_start && dv < free_now {
                    let mut h = dv;
                    while h >= from_start && !heap.is_marked(h) {
                        h -= 1;
                    }
                    if h >= from_start && heap.pin_region(heap.evac_region_of(h)) {
                        pinned_n += 1;
                    }
                }
            }
        }
    }

    // Per-region occupancy from the mark bitmap (an object straddling a
    // region boundary counts — and is evacuated — with its header's
    // region).
    let mut occ: Vec<u64> = vec![0; heap.evac_region_count()];
    heap.for_each_marked(from_start, free_now, |addr| {
        occ[heap.evac_region_of(addr)] += extent(vm, addr).words as u64;
    });
    let mut cand: Vec<(u64, usize)> = occ
        .iter()
        .enumerate()
        .filter(|&(r, &w)| w > 0 && !heap.is_pinned(r))
        .map(|(r, &w)| (w, r))
        .collect();
    cand.sort_unstable();

    {
        let mut list = locked(&run.evac_list);
        list.clear();
        for &(_, r) in &cand {
            heap.set_cset(r, true);
            list.push(r as i64);
        }
    }
    run.evac_next.store(0, R);
    locked(&run.evac_copies).clear();
    run.updater_done.store(false, Ordering::Release);
    heap.clear_dirty();
    heap.evac_snap.store(free_now, R);
    let (to_start, _) = vm.to_space();
    heap.evac_to.store(to_start, R);
    heap.evac_pinned.fetch_add(pinned_n, R);
    if let Some(p) = locked(&run.pending).as_mut() {
        p.evac_select_pause = stopped.t0.elapsed();
        p.evac_started = Some(Instant::now());
        p.evac_pinned = pinned_n;
        p.evac_regions = cand.len() as u64;
        p.evac_objects_start = heap.evac_objects.load(R);
        p.evac_words_start = heap.evac_words.load(R);
        p.evac_healed_loads_start = heap.evac_healed_loads.load(R);
        p.evac_healed_stores_start = heap.evac_healed_stores.load(R);
    }
    {
        let mut cs = locked(&run.mx);
        cs.copiers_idle = false;
    }
    // The release handshake that resumes the world publishes this to
    // every mutator's load/store fast path.
    heap.evacuating.store(true, Ordering::Release);
    Ok(())
}

/// One concurrent copier (coordinator-spawned, mutators running).
/// Claims cset regions off the shared cursor and evacuates their marked
/// objects: CAS the header to the `EVAC_BUSY` claim, bump the shared
/// to-space frontier, copy body and shadow tags, publish the forwarding
/// word `-(new+1)` with release ordering. A mutator store to a claimed
/// object spins on the BUSY word and lands in the copy; a store that
/// committed into the original before the claim is visible to the
/// post-claim body read (SeqCst claim + fences on both sides). Aborts
/// between objects when a final pause is requested — whatever is left
/// unforwarded is flushed by that pause's residual copy.
fn cms_conc_copier(ctx: &RunCtx<'_>) {
    let vm = ctx.vm;
    let heap = vm.cms.as_ref().expect("copier without cms heap");
    let run = ctx.cms.as_ref().expect("copier without cms run");
    #[cfg(test)]
    if ctx.fault == Some(crate::parallel::Fault::Copier) {
        panic!("injected copier fault");
    }
    let (from_start, _) = vm.from_space();
    let (_, to_end) = vm.to_space();
    let free_snap = heap.evac_snap.load(R);
    let rw = heap.evac_region_words.load(R);
    let double = heap.fault_evac() == EvacFault::DoubleCopy;
    let regions: Vec<i64> = locked(&run.evac_list).clone();
    let mut my_copies: Vec<i64> = Vec::new();
    let mut addrs: Vec<i64> = Vec::new();
    let (mut objs, mut words_copied, mut regions_done) = (0u64, 0u64, 0u64);
    'regions: loop {
        let i = run.evac_next.fetch_add(1, R);
        if i >= regions.len() {
            break;
        }
        let region = regions[i];
        let lo = (region * rw).max(from_start);
        let hi = ((region + 1) * rw).min(free_snap);
        addrs.clear();
        heap.for_each_marked(lo, hi, |a| addrs.push(a));
        for &addr in &addrs {
            if run.finish_requested.load(Ordering::Acquire) {
                break 'regions;
            }
            let header = vm.word(addr);
            debug_assert!(header >= 0, "cset region claimed twice at {addr}");
            // Under the DoubleCopy fault the claim is skipped and the
            // object copied (and published) twice — the orphaned first
            // copy is what the audit's accounting check must catch.
            if !double && vm.cas_word(addr, header, EVAC_BUSY).is_err() {
                continue;
            }
            // Pairs with the mutator store path's fence: every store
            // that committed before this claim is visible to the body
            // reads below.
            std::sync::atomic::fence(Ordering::SeqCst);
            let obj_words = header_extent(&vm.module.types, header, || vm.word(addr + 1)).words;
            for _ in 0..if double { 2 } else { 1 } {
                let new = heap.evac_to.fetch_add(obj_words, R);
                assert!(
                    new + obj_words <= to_end,
                    "to-space overflow during concurrent evacuation"
                );
                vm.set_word(new, header);
                for off in 1..obj_words {
                    vm.set_word(new + off, vm.word(addr + off));
                }
                if let Some(sh) = &vm.shadow {
                    sh.copy_words(addr, new, obj_words);
                }
                vm.set_word_release(addr, -(new + 1));
                my_copies.push(new);
                objs += 1;
                words_copied += obj_words as u64;
            }
        }
        regions_done += 1;
    }
    heap.evac_objects.fetch_add(objs, R);
    heap.evac_words.fetch_add(words_copied, R);
    heap.evac_regions.fetch_add(regions_done, R);
    locked(&run.evac_copies).append(&mut my_copies);
}

/// The concurrent reference updater (coordinator thread, mutators
/// running): one type-directed pass over the published copies,
/// rewriting each stale cset reference through its — by now fully
/// published — forwarding word. A CAS per slot keeps racing mutator
/// stores safe: if the CAS loses, the racing store's value was healed
/// on its own path. The pass is convergence work, not a correctness
/// requirement — self-healing loads and the final-pause rewrite would
/// get there without it — but it takes the bulk of the rewrite off
/// both. Aborts (leaving `updater_done` unset) when a pause interrupts.
fn cms_conc_update(ctx: &RunCtx<'_>) {
    let vm = ctx.vm;
    let heap = vm.cms.as_ref().expect("updater without cms heap");
    let run = ctx.cms.as_ref().expect("updater without cms run");
    let (from_start, _) = vm.from_space();
    let free_snap = heap.evac_snap.load(R);
    let copies: Vec<i64> = locked(&run.evac_copies).clone();
    for &new in &copies {
        if run.finish_requested.load(Ordering::Acquire) {
            return; // the final pause finishes the rewrite itself
        }
        for slot in extent(vm, new).pointer_slots(new) {
            let v = vm.word(slot);
            if v < from_start
                || v >= free_snap
                || !heap.in_cset(heap.evac_region_of(v))
                || !heap.is_marked(v)
            {
                continue;
            }
            let hval = vm.word_acquire(v);
            if hval >= 0 || hval == EVAC_BUSY {
                continue; // unclaimed (pause will move it) / defensive
            }
            if vm.cas_word(slot, v, -(hval + 1)).is_ok() {
                heap.set_dirty(slot);
            }
        }
    }
    run.updater_done.store(true, Ordering::Release);
}

/// The forwarding audit (oracle runs only; world stopped, or the
/// coordinator stood down under `hold_evac`): proves the concurrent
/// copy phase lost nothing. Walks every cset region's marked objects
/// and checks that (a) each one is forwarded to a structurally
/// identical copy — a body word that diverges with no recorded
/// to-space write is a store torn across the forwarding publish — and
/// (b) the forwarding targets account for every to-space word the
/// copiers allocated, so a double copy (orphaned twin) or a lost
/// publish cannot hide. Vacuously passes on a cycle the final pause
/// interrupted (`updater_done` unset): partial forwarding is legal
/// there and the pause's residual copy flushes it.
pub(crate) fn cms_evac_audit(ctx: &RunCtx<'_>) -> Result<(), String> {
    let vm = ctx.vm;
    let heap = vm.cms.as_ref().expect("evac audit without cms heap");
    let run = ctx.cms.as_ref().expect("evac audit without cms run");
    if !run.updater_done.load(Ordering::Acquire) {
        return Ok(());
    }
    let (from_start, _) = vm.from_space();
    let (to_start, _) = vm.to_space();
    let free_snap = heap.evac_snap.load(R);
    let evac_to = heap.evac_to.load(R);
    let rw = heap.evac_region_words.load(R);
    let regions: Vec<i64> = locked(&run.evac_list).clone();
    let mut covered = 0i64;
    let mut addrs: Vec<i64> = Vec::new();
    for &region in &regions {
        let lo = (region * rw).max(from_start);
        let hi = ((region + 1) * rw).min(free_snap);
        addrs.clear();
        heap.for_each_marked(lo, hi, |a| addrs.push(a));
        for &addr in &addrs {
            let h = vm.word_acquire(addr);
            if h == m3gc_vm::par::EVAC_BUSY {
                return Err(format!("evac audit: claim at {addr} was never published"));
            }
            if h >= 0 {
                return Err(format!(
                    "evac audit: marked cset object at {addr} was never copied \
                     (lost claim or forwarding publish)"
                ));
            }
            let new = -(h + 1);
            if new < to_start || new >= evac_to {
                return Err(format!(
                    "evac audit: forwarding at {addr} points to {new}, outside the \
                     copied to-space window [{to_start},{evac_to})"
                ));
            }
            let copy_header = vm.word(new);
            if copy_header < 0 {
                return Err(format!(
                    "evac audit: copy at {new} carries a forwarding word, not a header"
                ));
            }
            let obj_words = extent(vm, new).words;
            covered += obj_words;
            for off in 1..obj_words {
                let ov = vm.word(addr + off);
                let cv = vm.word(new + off);
                if ov != cv && !heap.is_dirty(new + off) {
                    return Err(format!(
                        "evac audit: object at {addr} (copy {new}) diverges at word \
                         {off} ({ov} vs {cv}) with no recorded to-space write — a \
                         store was torn across the forwarding publish and lost"
                    ));
                }
            }
        }
    }
    let span = evac_to - to_start;
    if covered != span {
        return Err(format!(
            "evac audit: forwarding words account for {covered} to-space words but \
             the copiers allocated {span} — an object was copied more than once or \
             a publish was lost"
        ));
    }
    Ok(())
}

/// The final pause proper (world stopped, leader only): stand the
/// markers down, drain the residue to closure, verify, evacuate.
fn cms_final_pause(
    stopped: &Stopped<'_, '_>,
    heap: &CmsHeap,
    run: &CmsRun,
) -> Result<(), ExecError> {
    let (ctx, vm, t0) = (stopped.ctx, stopped.ctx.vm, stopped.t0);
    run.finish_requested.store(true, Ordering::Release);
    if stopped.counted {
        // A mutator-led pause must wait for the marker threads to stand
        // down before touching the gray stack; the coordinator joins
        // them and flips `markers_idle` (spawning them first if it has
        // not yet caught up with this cycle — they exit immediately on
        // the request above).
        let mut cs = locked(&run.mx);
        run.cv.notify_all(); // wake the coordinator if it hasn't started this cycle yet
        while !cs.markers_idle || !cs.copiers_idle {
            // Concurrent copiers and the updater poll `finish_requested`
            // per object and stand down; the coordinator flips
            // `copiers_idle` once they have, so nothing races the
            // rewrites below.
            cs = waited(&run.cv, cs);
        }
    }
    // A coordinator-led pause never waits: marker threads exist only
    // inside the coordinator's own spawn/join section, so none can be
    // running here — but `markers_idle` may legitimately read false if
    // a snapshot pause opened a *newer* cycle between the coordinator
    // joining its markers and winning the request CAS. Waiting would
    // deadlock on itself; draining sequentially below is sound either
    // way.
    let pending = locked(&run.pending).take().expect("final pause without an open cycle");
    let mark_concurrent = t0.saturating_duration_since(pending.mark_started);

    cms_finish_mark(ctx, heap, run);

    let evacuating = heap.evacuating.load(Ordering::Acquire);
    stopped.oracle("at final pause")?;
    if ctx.options.oracle && vm.shadow.is_some() {
        // Once objects have moved the sequential re-trace cannot run
        // (forwarded headers are not walkable); it ran pre-motion at the
        // select handshake instead. What *can* be proven here is the
        // forwarding protocol itself.
        let verified = if evacuating { cms_evac_audit(ctx) } else { cms_shadow_verify(ctx, heap) };
        verified.map_err(ExecError::Oracle)?;
    }

    let mut stats = cms_evacuate(ctx, run)?;
    if evacuating {
        // The cycle's relocation state dies with the flip: the copies
        // now live inside the ordinary from-space prefix.
        heap.evacuating.store(false, Ordering::Release);
        heap.clear_evac_sets();
        heap.clear_dirty();
        heap.evac_snap.store(0, R);
        heap.evac_to.store(0, R);
        locked(&run.evac_list).clear();
        locked(&run.evac_copies).clear();
        run.evac_next.store(0, R);
        run.updater_done.store(false, Ordering::Release);
    }
    stopped.oracle("after evacuation")?;
    heap.marking.store(false, Ordering::Release);
    stats.handshake_time = stopped.handshake_time;
    stats.cms_cycle = true;
    stats.snapshot_pause = pending.snapshot_pause;
    stats.mark_concurrent = mark_concurrent;
    stats.satb_drained = heap.satb_drained.load(R) - pending.satb_drained_start;
    stats.evac_cycle = evacuating;
    stats.evac_select_pause = pending.evac_select_pause;
    stats.evac_conc_time =
        pending.evac_started.map_or(Duration::ZERO, |s| t0.saturating_duration_since(s));
    stats.evac_regions = pending.evac_regions;
    stats.evac_pinned = pending.evac_pinned;
    stats.evac_objects = heap.evac_objects.load(R) - pending.evac_objects_start;
    stats.evac_words = heap.evac_words.load(R) - pending.evac_words_start;
    stats.evac_healed_loads = heap.evac_healed_loads.load(R) - pending.evac_healed_loads_start;
    stats.evac_healed_stores = heap.evac_healed_stores.load(R) - pending.evac_healed_stores_start;
    stats.total_time = t0.elapsed();
    locked(&ctx.gc_log).push(stats);
    Ok(())
}

/// Sequentially drains the leftover gray stack and every flushed SATB
/// buffer to transitive closure (world stopped). After this, the mark
/// bitmap covers everything reachable at the snapshot plus everything
/// allocated since — a superset of everything any live root can reach.
fn cms_finish_mark(ctx: &RunCtx<'_>, heap: &CmsHeap, run: &CmsRun) {
    let vm = ctx.vm;
    let (from_start, from_end) = vm.from_space();
    let mut gray = std::mem::take(&mut *locked(&run.gray));
    loop {
        while let Some(addr) = gray.pop() {
            scan_mark(vm, heap, from_start, from_end, addr, &mut gray);
        }
        let taken = std::mem::take(&mut *locked(&heap.satb_sink));
        if taken.is_empty() {
            break;
        }
        heap.satb_drained.fetch_add(taken.len() as u64, R);
        gray.extend(taken.into_iter().filter(|&v| mark_value(heap, from_start, from_end, v)));
    }
    run.in_flight.store(0, Ordering::SeqCst);
}

/// The cycle's shadow verification: a sequential trace from the
/// *current* roots — the bit-identical reachable set a full
/// stop-the-world collection at this pause would copy — asserting that
/// every reachable object is marked. This is the oracle that catches a
/// broken deletion barrier: a dropped or reordered SATB enqueue leaves
/// some snapshot-reachable object unmarked, and if any live path to it
/// remains, this walk finds it.
pub(crate) fn cms_shadow_verify(ctx: &RunCtx<'_>, heap: &CmsHeap) -> Result<(), String> {
    let vm = ctx.vm;
    let (from_start, _) = vm.from_space();
    let free_now = vm.free.load(R);
    let mut visited: HashSet<i64> = HashSet::new();
    let mut stack: Vec<i64> = Vec::new();
    let reach = |stack: &mut Vec<i64>, visited: &mut HashSet<i64>, v: i64| {
        if v < from_start || v >= free_now || !visited.insert(v) {
            return Ok(());
        }
        if !heap.is_marked(v) {
            return Err(format!(
                "concurrent marking lost a reachable object: {v} is live at the final \
                 pause but unmarked (SATB invariant violated)"
            ));
        }
        stack.push(v);
        Ok(())
    };
    for g in gather_global_roots_in(&vm.module, vm.globals_start() as i64) {
        let RootRef::Mem(a) = g else { unreachable!("global root in a register") };
        reach(&mut stack, &mut visited, vm.word(a))?;
    }
    let mut cache = locked(&ctx.caches[0]);
    for (tid, slot) in ctx.slots.iter().enumerate() {
        let slot = locked(slot);
        let Some(snap) = slot.as_ref() else { continue };
        let parked = ThreadWorld { vm, tid: tid as u32, snap };
        let mut roots = StackRoots::default();
        // A fresh, cache-free walk: the verifier must not trust the
        // watermark splices it is part of the net for.
        gather_thread_roots(
            &parked,
            &mut cache,
            tid as u32,
            (snap.pc, snap.fp, snap.ap, snap.sp),
            &mut roots,
        );
        for &r in &roots.tidy {
            reach(&mut stack, &mut visited, read_root_in(&parked, r))?;
        }
    }
    while let Some(addr) = stack.pop() {
        for slot in extent(vm, addr).pointer_slots(addr) {
            reach(&mut stack, &mut visited, vm.word(slot))?;
        }
    }
    Ok(())
}

/// Shared state of one bitmap evacuation.
pub(crate) struct CmsGc<'vm> {
    vm: &'vm ParMachine,
    heap: &'vm CmsHeap,
    /// To-space copy frontier.
    free: CachePadded<AtomicI64>,
    to_end: i64,
    from_start: i64,
    /// The allocated from-space prefix (`vm.free` at the pause).
    from_used: i64,
    /// Next unclaimed chunk index.
    chunk_next: AtomicUsize,
    pub(crate) sync: CopySync,
    /// True when this pause closes a concurrent-evacuation cycle: the
    /// copy phase skips already-forwarded objects, and the rewrite
    /// phase also walks the concurrently published copies.
    evacuating: bool,
    /// The concurrent copies (to-space has no mark bitmap to iterate).
    conc_copies: Vec<i64>,
    workers: usize,
}

impl CmsGc<'_> {
    /// From-space chunks to claim.
    fn chunks(&self) -> usize {
        let span = self.from_used - self.from_start;
        ((span + CHUNK_WORDS - 1) / CHUNK_WORDS) as usize
    }

    /// True if worker `w` has a share of the copy whether or not it was
    /// dealt a parked thread: a from-space chunk to claim, or its stride
    /// of the concurrent copies to rewrite.
    pub(crate) fn has_share(&self, w: usize) -> bool {
        w < self.chunks().max(self.conc_copies.len())
    }
}

/// Follows a forwarding pointer installed by the copy phase. An
/// unforwarded header here means an unmarked object survived to the
/// rewrite — a marking bug the shadow verification reports first
/// whenever the oracle is armed.
fn forwarded(vm: &ParMachine, v: i64) -> i64 {
    let f = vm.word(v);
    assert!(f < 0, "unmarked object reached the cms rewrite at {v}");
    -(f + 1)
}

/// The bitmap copy between the §3 brackets of [`gc_worker`]: chunked
/// copy, then forwarding rewrite. Unlike the stop-the-world trace there
/// is no claim CAS and no work stealing — the mark bitmap already
/// holds the transitive closure, so the copy set is a static partition.
/// Only frames above each thread's watermark were re-decoded to get
/// here (everything below was cached at the snapshot pause).
pub(crate) fn bitmap_copy(
    gc: &CmsGc<'_>,
    w: usize,
    world: &mut ParWorld<'_>,
    my: &mut Part,
    rep: &mut WorkerReport,
) {
    let vm = gc.vm;
    // Rewrites every pointer field of the to-space copy at `new` that
    // still references the allocated from-space prefix.
    let rewrite_fields = |new: i64| {
        for slot in extent(vm, new).pointer_slots(new) {
            let v = vm.word(slot);
            if v >= gc.from_start && v < gc.from_used {
                vm.set_word(slot, forwarded(vm, v));
            }
        }
    };
    gc.sync.barrier();
    let t_copy = Instant::now();

    // Chunked bitmap copy. Each chunk's marked headers belong to exactly
    // one worker, so plain stores suffice; the next barrier publishes
    // every forwarding pointer. TLAB holes are zeroed words — never
    // marked, never visited.
    let mut copied: Vec<i64> = Vec::new();
    let n_chunks = gc.chunks();
    loop {
        let c = gc.chunk_next.fetch_add(1, R);
        if c >= n_chunks {
            break;
        }
        let lo = gc.from_start + c as i64 * CHUNK_WORDS;
        let hi = (lo + CHUNK_WORDS).min(gc.from_used);
        gc.heap.for_each_marked(lo, hi, |addr| {
            let header = vm.word(addr);
            if gc.evacuating && header < 0 {
                // Evacuated concurrently; its forwarding word is
                // already published and its copy already in to-space.
                return;
            }
            assert!(header >= 0, "mark bit on a non-header word at {addr}");
            let obj_words = extent(vm, addr).words;
            let new = gc.free.0.fetch_add(obj_words, R);
            assert!(new + obj_words <= gc.to_end, "to-space overflow during cms evacuation");
            for off in 0..obj_words {
                vm.set_word(new + off, vm.word(addr + off));
            }
            if let Some(sh) = &vm.shadow {
                sh.copy_words(addr, new, obj_words);
            }
            vm.set_word(addr, -(new + 1));
            copied.push(new);
            rep.objects += 1;
            rep.words += obj_words as u64;
        });
    }
    gc.sync.barrier();

    // Rewrite my copied objects' pointer fields, my threads' tidy roots,
    // and (worker 0) the globals through plain forwarding loads.
    copied.iter().copied().for_each(rewrite_fields);
    // Concurrent copies: their fields may still reference objects this
    // *pause* moved (pinned regions, the in-flight allocation window,
    // cset stragglers of an interrupted cycle) — and stale cset
    // references too, if the cycle was interrupted before the updater
    // finished. One type-directed pass over a strided share fixes both;
    // every forwarding word is published by the barrier above.
    gc.conc_copies.iter().copied().skip(w).step_by(gc.workers).for_each(rewrite_fields);
    if w == 0 {
        for g in gather_global_roots_in(&vm.module, vm.globals_start() as i64) {
            let RootRef::Mem(a) = g else { unreachable!("global root in a register") };
            let v = vm.word(a);
            if v >= gc.from_start && v < gc.from_used {
                vm.set_word(a, forwarded(vm, v));
            }
        }
        rep.roots += vm.module.global_ptr_roots.len() as u64;
    }
    for (_, snap, roots) in my.iter_mut() {
        for &r in &roots.tidy {
            let v = read_root(world, &*snap, r);
            if v >= gc.from_start && v < gc.from_used {
                write_root(world, snap, r, forwarded(vm, v));
            }
        }
    }
    gc.sync.barrier();
    rep.copy_time = t_copy.elapsed();
}

/// The final pause's parallel evacuation of the marked set (leader
/// only, world stopped): `collect_parallel`'s frame around a
/// bitmap-driven copy.
fn cms_evacuate(ctx: &RunCtx<'_>, run: &CmsRun) -> Result<ParGcStats, ExecError> {
    let vm = ctx.vm;
    let heap = vm.cms.as_ref().expect("cms evacuation without cms heap");
    let workers = ctx.caches.len();
    let (from_start, _) = vm.from_space();
    let (to_start, to_end) = vm.to_space();
    let evacuating = heap.evacuating.load(Ordering::Acquire);
    let gc = Arc::new(CmsGc {
        vm,
        heap,
        // A conc-evac pause continues the copiers' frontier: to-space
        // already holds `[to_start, evac_to)` of published copies.
        free: CachePadded(AtomicI64::new(if evacuating { heap.evac_to.load(R) } else { to_start })),
        to_end,
        from_start,
        from_used: vm.free.load(R),
        chunk_next: AtomicUsize::new(0),
        sync: CopySync::new(),
        evacuating,
        conc_copies: if evacuating { locked(&run.evac_copies).clone() } else { Vec::new() },
        workers,
    });
    // No chunk is ever published, so `steals` reads 0 for every worker:
    // the bitmap partitions the copy.
    let stats = run_gc_workers(ctx, GcJob::Bitmap(Arc::clone(&gc)))?;
    vm.finish_collection(gc.free.0.load(R));
    Ok(stats)
}
