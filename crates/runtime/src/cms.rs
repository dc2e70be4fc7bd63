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
//!    tidy roots — is marked and pushed on the shared gray stack,
//!    `snap_free` records the allocation frontier, and the `marking`
//!    flag arms the `StB` deletion barrier. The world resumes.
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
//!    copy itself — and it is the cycle's only evacuation: nothing moves
//!    while the mutators run, so derived values get the same §3
//!    un-derive → move → re-derive bracket as under every other
//!    collector, and mutator loads and stores never check forwarding.
//!
//! With the oracle armed, every cycle is shadow-verified in the final
//! pause before anything moves: a sequential trace from the *current*
//! roots (the exact reachable set a full stop-the-world collection of
//! this pause would copy) asserts that every reachable object carries a
//! mark bit. A deletion barrier that dropped or reordered even one
//! enqueue surfaces as an [`ExecError::Oracle`] here — see the SATB
//! mutation tests.

use std::collections::HashSet;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use m3gc_vm::par::CmsHeap;
use m3gc_vm::{MutatorLocal, ParMachine, ParWorld};

use crate::evac::{extent, CachePadded};
use crate::parallel::{
    forward_roots, run_gc_workers, walk_parked, GcJob, ParGcStats, Part, RunCtx, WorkerReport,
};
use crate::pool::CopySync;
use crate::safepoint::{contain, lead_while, locked, waited, Stopped};
use crate::scheduler::ExecError;
use crate::trace::{gather_global_roots, read_root};

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
}

struct CyclePending {
    /// Full duration of the cycle-opening pause.
    snapshot_pause: Duration,
    /// When the world resumed and concurrent marking began.
    mark_started: Instant,
    /// `satb_drained` at cycle start (for the per-cycle delta).
    satb_drained_start: u64,
}

impl CmsRun {
    pub(crate) fn new(workers: usize) -> CmsRun {
        CmsRun {
            workers,
            mx: Mutex::new(CmsState { cycles_started: 0, markers_idle: true, stop: false }),
            cv: Condvar::new(),
            finish_requested: AtomicBool::new(false),
            gray: Mutex::new(Vec::new()),
            in_flight: AtomicUsize::new(0),
            pending: Mutex::new(None),
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

/// Runs marker `w` with its unwind caught at this boundary: a panic
/// fails the run instead of taking the coordinator's scope — and with it
/// the `markers_idle` flip a final-pause leader waits for — down with it.
fn conc_worker(ctx: &RunCtx<'_>, w: usize) {
    let died = |message| ExecError::GcWorkerPanic { worker: w, phase: "mark", message };
    contain(ctx, died, || {
        marker_loop(ctx);
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
                s.spawn(move || conc_worker(ctx, w));
            }
        });
        {
            let mut cs = locked(&run.mx);
            cs.markers_idle = true;
            run.cv.notify_all();
        }
        // Quiescent with no final pause pending: finish the cycle now,
        // as its leader, unless a mutator-led final pause closes it
        // first. A cycle opened after that is the next iteration's.
        lead_while(ctx, || {
            heap.marking.load(Ordering::Acquire)
                && !run.finish_requested.load(Ordering::Acquire)
                && !ctx.coord.halted()
                && !heap.hold_marking.load(R)
                && locked(&run.mx).cycles_started == seen
        });
    }
}

/// A cms run's stopped-world work: which pause depends on the cycle —
/// a snapshot pause if none is open, the final pause otherwise.
pub(crate) fn cms_pause(stopped: &Stopped<'_, '_>, run: &CmsRun) -> Result<(), ExecError> {
    let heap = stopped.ctx.vm.cms.as_ref().expect("cms run without cms heap");
    let marking = heap.marking.load(Ordering::Acquire);
    // Only the final pause frees anything: the snapshot pause never runs
    // the no-progress check.
    stopped.cause(marking)?;
    if marking {
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
    let mut seed = |v| {
        if mark_value(heap, from_start, free_now, v) {
            gray.push(v);
        }
    };
    for a in gather_global_roots(&vm.module, vm.globals_start() as i64) {
        seed(vm.word(a));
    }
    // The value snapshot: tidy roots only. Derived values point *into*
    // objects whose base pointers are tidy roots of the same frame, and
    // marking works on whole objects, so bases cover them. Nothing moves
    // until the final pause re-walks the stack.
    let mut detached = MutatorLocal::default();
    let world = vm.world(&mut detached);
    let Ok(()) = walk_parked(ctx, &world, |snap, roots| {
        roots.tidy.iter().for_each(|&r| seed(read_root(&world, snap, r)));
        Ok::<_, Infallible>(())
    });
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
    });
    let mut cs = locked(&run.mx);
    cs.cycles_started += 1;
    cs.markers_idle = false;
    run.cv.notify_all();
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
        while !cs.markers_idle {
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

    stopped.oracle("at final pause")?;
    if ctx.options.oracle && vm.shadow.is_some() {
        cms_shadow_verify(ctx, heap).map_err(ExecError::Oracle)?;
    }

    let mut stats = cms_evacuate(ctx)?;
    stopped.oracle("after evacuation")?;
    heap.marking.store(false, Ordering::Release);
    stats.handshake_time = stopped.handshake_time;
    stats.cms_cycle = true;
    stats.snapshot_pause = pending.snapshot_pause;
    stats.mark_concurrent = mark_concurrent;
    stats.satb_drained = heap.satb_drained.load(R) - pending.satb_drained_start;
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
    for a in gather_global_roots(&vm.module, vm.globals_start() as i64) {
        reach(&mut stack, &mut visited, vm.word(a))?;
    }
    let mut detached = MutatorLocal::default();
    let world = vm.world(&mut detached);
    walk_parked(ctx, &world, |snap, roots| {
        let mut tidy = roots.tidy.iter().map(|&r| read_root(&world, snap, r));
        tidy.try_for_each(|v| reach(&mut stack, &mut visited, v))
    })?;
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
}

impl CmsGc<'_> {
    /// From-space chunks to claim.
    fn chunks(&self) -> usize {
        let span = self.from_used - self.from_start;
        ((span + CHUNK_WORDS - 1) / CHUNK_WORDS) as usize
    }

    /// True if worker `w` has a share of the copy whether or not it was
    /// dealt a parked thread: a from-space chunk to claim.
    pub(crate) fn has_share(&self, w: usize) -> bool {
        w < self.chunks()
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
            assert!(vm.word(addr) >= 0, "mark bit on a non-header word at {addr}");
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

    // Rewrite my copied objects' pointer fields, (worker 0) the globals
    // and my threads' tidy roots through plain forwarding loads.
    copied.iter().copied().for_each(rewrite_fields);
    let in_from = |v| (gc.from_start..gc.from_used).contains(&v);
    forward_roots(world, w, my, rep, |v| in_from(v).then(|| forwarded(vm, v)));
    gc.sync.barrier();
    rep.copy_time = t_copy.elapsed();
}

/// The final pause's parallel evacuation of the marked set (leader
/// only, world stopped): `collect_parallel`'s frame around a
/// bitmap-driven copy.
fn cms_evacuate(ctx: &RunCtx<'_>) -> Result<ParGcStats, ExecError> {
    let vm = ctx.vm;
    let heap = vm.cms.as_ref().expect("cms evacuation without cms heap");
    let (from_start, _) = vm.from_space();
    let (to_start, to_end) = vm.to_space();
    let gc = Arc::new(CmsGc {
        vm,
        heap,
        free: CachePadded(AtomicI64::new(to_start)),
        to_end,
        from_start,
        from_used: vm.free.load(R),
        chunk_next: AtomicUsize::new(0),
        sync: CopySync::new(),
    });
    // No chunk is ever published, so `steals` reads 0 for every worker:
    // the bitmap partitions the copy.
    let stats = run_gc_workers(ctx, GcJob::Bitmap(Arc::clone(&gc)))?;
    vm.finish_collection(gc.free.0.load(R));
    Ok(stats)
}
