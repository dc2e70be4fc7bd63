//! Parallel stop-the-world collection over OS-thread mutators.
//!
//! Mutators run on real `std::thread`s against a shared
//! [`ParMachine`]. A collection proceeds in three acts:
//!
//! 1. **Safepoint handshake.** The thread whose allocation fails wins
//!    the collection request and becomes the *leader*; every other
//!    mutator notices the request at its next park site — an allocation
//!    site or one of the polls `codegen::gcpoints` inserts (§5.3: the
//!    polls bound how far a thread can run before reaching a describable
//!    state, so handshake latency is bounded by the longest park-free
//!    path, not by loop trip counts) — deposits a [`Snapshot`] of its
//!    registers and frame cursor, and parks until the leader releases
//!    it. The protocol itself (request, park, stop, release, and what
//!    happens when a thread fails or panics on the way) is
//!    `safepoint.rs`'s; this
//!    module supplies the mutator loop around it ([`run_mutator`]) and
//!    the work of a stopped world ([`collect_pause`]).
//! 2. **Parallel copy.** The leader becomes gc worker 0 of the run's
//!    persistent pool (`pool.rs`: `gc_workers - 1` helpers spawned once
//!    per run and parked between collections). Parked threads are dealt
//!    to workers round-robin and exactly the helpers that were dealt a
//!    thread are woken; each started worker walks its threads' stacks
//!    (reading memory through a [`ParWorld`] and registers from the
//!    deposited snapshots) and un-derives their derived values. After a
//!    barrier among the started workers, each forwards its threads'
//!    roots (worker 0 also takes the globals) and traces the object
//!    graph from a *private* gray stack. Forwarding claims an object by
//!    CASing its header to a BUSY sentinel; the winner bumps the shared
//!    to-space frontier with a fetch-add, copies the words, and
//!    publishes `-(new+1)` with release ordering; losers back off until
//!    the forwarding pointer appears. A worker whose gray stack outgrows
//!    a fixed bound publishes its oldest half as one chunk and wakes a
//!    sleeping helper to steal it; the trace terminates when every woken
//!    worker is idle and no chunk is outstanding (`evac.rs`). A
//!    collection that starts only the leader (one mutator, or one
//!    configured worker) has nobody to race, so the leader copies
//!    *solo*: a plain header load is its claim and a private frontier
//!    its bump. Solo ends right before the leader's first helper wake,
//!    when it stores its frontier into the shared one; the pool mutex
//!    that wake takes orders the helper after every solo store, and
//!    both then claim by CAS. A collection that never wakes a helper
//!    (every pause of a narrow heap like destroy's) copies solo
//!    throughout, and the frontier is stored when the trace ends.
//! 3. **Release.** After a final barrier each worker re-derives its
//!    threads' derived values in exactly the reverse order and the
//!    leader flips the semispaces; the handshake's release wakes the
//!    parked threads, which reload their (now updated) snapshots and
//!    resume — the failed allocation simply retries.
//!
//! Decode caches are per-worker and persistent across collections; all
//! of them share one `Arc`'d [`DecoderIndex`] of the module's encoded
//! tables, so the memoization cost is paid per worker but the parsed
//! index is built once.
//!
//! The gc-map precision oracle (when enabled) runs on the leader,
//! single-threaded, after the handshake completes and before any
//! object moves — every thread's deposited snapshot is validated
//! against the shadow ground truth exactly as in the single-threaded
//! scheduler.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use m3gc_core::decode::{DecodeCache, DecodeCounters, DecoderIndex};
use m3gc_jit::{JitEngine, JitSummary};
use m3gc_vm::exec::{Cpu, Step};
use m3gc_vm::machine::VmTrap;
use m3gc_vm::{Mutator, MutatorLocal, ParMachine, ParWorld};

use crate::cms::{bitmap_copy, CmsGc};
use crate::collector::{re_derive, un_derive};
use crate::evac::{forward_root_par, scan_region, trace, GcCtx, WorkerLocal};
use crate::options::RuntimeOptions;
use crate::oracle::{check_entries, check_globals};
use crate::pool::{CopySync, GcPool};
use crate::safepoint::{locked, park, request_gc, Coord, Stopped};
use crate::scheduler::ExecError;
use crate::trace::{gather_global_roots, gather_thread_roots, read_root, write_root, StackRoots};

/// Relaxed shorthand for counters; cross-thread ordering comes from the
/// handshake mutex/condvar and the forwarding CAS protocol.
const R: Ordering = Ordering::Relaxed;

/// A mutator's machine state as deposited at a safepoint, and as
/// reloaded (post-collection) when it resumes: its [`Cpu`], whole.
pub type Snapshot = Cpu;

/// Statistics for one parallel collection.
#[derive(Debug, Clone, Default)]
pub struct ParGcStats {
    /// From the winning collection request to every mutator parked.
    pub handshake_time: Duration,
    /// The parallel evacuation (root forwarding + work-stealing trace).
    pub copy_time: Duration,
    /// Whole collection (handshake through release).
    pub total_time: Duration,
    /// Objects evacuated (all workers).
    pub objects_copied: u64,
    /// Words evacuated (all workers).
    pub words_copied: u64,
    /// Objects evacuated per worker.
    pub per_worker_objects: Vec<u64>,
    /// Words evacuated per worker.
    pub per_worker_words: Vec<u64>,
    /// Chunks of gray objects each worker stole from another worker's
    /// deque (a chunk holds up to half a private gray stack; before the
    /// chunked hand-off this counted single objects).
    pub steals: Vec<u64>,
    /// Chunks workers published from their private gray stacks.
    pub chunks_published: u64,
    /// The part of `words_copied` copied solo: by the one worker a
    /// collection started with, before it first woke a helper (all of
    /// it if it never did; 0 if the collection started two workers).
    pub solo_words: u64,
    /// Pool helpers that took part in this cycle: woken with it for a
    /// root partition (or a bitmap share), or later by a published chunk.
    pub helpers_woken: u64,
    /// Times a worker parked inside the trace for want of work.
    pub idle_parks: u64,
    /// Tidy root references processed.
    pub roots: u64,
    /// Derived values un-derived and re-derived.
    pub derived_updated: u64,
    /// Stack frames traced.
    pub frames_traced: u64,
    /// Always 0 (nothing writes it since the stack-watermark splice cache
    /// was retired): `bench/src/workloads/gc.rs` reads it and `bench/` is
    /// frozen, so it stays until a benchmark PR drops both.
    pub frames_spliced: u64,
    /// Decode-cache memo hits during the stack walks.
    pub decode_hits: u64,
    /// Decode-cache misses.
    pub decode_misses: u64,
    /// Individual gc-point decode operations.
    pub decode_ops: u64,
    /// Mutators that parked at an explicit loop poll for this cycle.
    pub parked_at_polls: u64,
    /// Mutators that parked at an allocation gc-point for this cycle.
    pub parked_at_allocs: u64,
    /// Deposited snapshots traced (in serve mode: requests parked at
    /// safepoints, queued greens included).
    pub stacks_traced: u64,
    /// Escaped regions evacuated (promoted into the shared heap) and
    /// reset by this collection.
    pub regions_evacuated: u64,
    /// Live non-escaped regions linearly scanned in place.
    pub regions_scanned: u64,
    /// Objects promoted out of escaped regions.
    pub region_objects_promoted: u64,
    /// Words promoted out of escaped regions.
    pub region_words_promoted: u64,
    /// Words reclaimed by resetting escaped regions after the trace.
    pub region_words_reset: u64,
    /// True if this entry describes a concurrent-marking cycle: the
    /// pause fields below are populated and `total_time` is the *final*
    /// pause only (the cycle's whole stop-the-world cost).
    pub cms_cycle: bool,
    /// Duration of the cycle-opening snapshot pause (cms only).
    pub snapshot_pause: Duration,
    /// Wall-clock time marking ran concurrently with the mutators,
    /// from snapshot-pause end to final-pause start (cms only).
    pub mark_concurrent: Duration,
    /// SATB deletion-barrier entries drained during this cycle,
    /// concurrent draining and the final-pause residue together (cms
    /// only).
    pub satb_drained: u64,
    /// Always `false` (nothing sets it since concurrent evacuation was
    /// retired): `bench/src/workloads/gc.rs` reads it and `bench/` is
    /// frozen, so it stays until a benchmark PR drops both.
    pub evac_cycle: bool,
    /// Always zero, for the same reason as `evac_cycle`.
    pub evac_select_pause: Duration,
}

/// Result of a completed parallel run.
#[derive(Debug, Clone, Default)]
pub struct ParOutcome {
    /// All mutator outputs concatenated in tid order.
    pub output: String,
    /// Per-mutator outputs.
    pub outputs: Vec<String>,
    /// Collections performed.
    pub collections: u64,
    /// Objects allocated.
    pub allocations: u64,
    /// Words allocated.
    pub words_allocated: u64,
    /// TLAB refills (one shared-frontier CAS each).
    pub tlab_refills: u64,
    /// Allocations served by the TLAB fast path (no shared CAS).
    pub tlab_allocs: u64,
    /// Words discarded from partial TLABs at retirement.
    pub tlab_waste_words: u64,
    /// SATB deletion-barrier enqueues (cms runs only).
    pub satb_enqueued: u64,
    /// SATB entries drained by marking (cms runs only).
    pub satb_drained: u64,
    /// Always 0 (no store is healed since concurrent evacuation was
    /// retired): `bench/src/workloads/gc.rs` reads it and `bench/` is
    /// frozen, so it stays until a benchmark PR drops both.
    pub evac_healed_stores: u64,
    /// Instructions executed (all mutators).
    pub steps: u64,
    /// Per-collection statistics.
    pub gc_each: Vec<ParGcStats>,
}

/// An injected fault (unit tests).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// That gc worker panics in the copy phase of that (1-based)
    /// collection.
    Worker(usize, u64),
    /// The cms coordinator panics as it starts marking a cycle's gray
    /// work.
    Marker,
}

/// Everything the mutator threads and gc workers share for one run.
pub(crate) struct RunCtx<'vm> {
    pub(crate) vm: &'vm ParMachine,
    pub(crate) options: RuntimeOptions,
    pub(crate) coord: Coord,
    /// One snapshot slot per mutator, filled while parked. In serve mode
    /// there is one slot per *green* request — a descheduled green's
    /// snapshot stays deposited here, so collections trace queued
    /// requests exactly like parked OS threads.
    pub(crate) slots: Vec<Mutex<Option<Snapshot>>>,
    /// Persistent per-worker decode caches (shared `DecoderIndex`).
    pub(crate) caches: Vec<Mutex<DecodeCache>>,
    /// The run's parked gc helpers (workers `1..gc_workers`).
    pub(crate) pool: GcPool<'vm>,
    #[cfg(test)]
    pub(crate) fault: Option<Fault>,
    pub(crate) gc_log: Mutex<Vec<ParGcStats>>,
    /// Per-cycle park-site counters, read+reset by the leader.
    pub(crate) poll_parks: AtomicU64,
    pub(crate) alloc_parks: AtomicU64,
    /// Concurrent-marking cycle state (cms strategy only).
    pub(crate) cms: Option<crate::cms::CmsRun>,
    /// What mutators run on: the native baseline engine under `--jit`,
    /// an engine with no native code (the interpreter) otherwise.
    pub(crate) engine: Arc<JitEngine>,
}

impl<'vm> RunCtx<'vm> {
    /// Builds the shared run state: `slots` snapshot slots (one per
    /// mutator — greens in serve mode), `active` OS threads in the
    /// handshake, one decode cache per gc worker; mutators run on
    /// `engine`, or interpreted if there is none.
    pub(crate) fn new(
        vm: &'vm ParMachine,
        options: RuntimeOptions,
        slots: usize,
        active: usize,
        engine: Option<Arc<JitEngine>>,
    ) -> RunCtx<'vm> {
        let workers = options.gc_workers;
        let index = Arc::new(DecoderIndex::build(&vm.module.gc_maps).expect("valid gc maps"));
        let caches = (0..workers)
            .map(|_| {
                let mut c = DecodeCache::with_shared_index(Arc::clone(&index));
                c.bind_module(vm.module_token());
                Mutex::new(c)
            })
            .collect();
        RunCtx {
            vm,
            options,
            coord: Coord::new(active),
            slots: (0..slots).map(|_| Mutex::new(None)).collect(),
            caches,
            pool: GcPool::new(workers),
            #[cfg(test)]
            fault: None,
            gc_log: Mutex::new(Vec::new()),
            poll_parks: AtomicU64::new(0),
            alloc_parks: AtomicU64::new(0),
            cms: vm.cms.as_ref().map(|_| crate::cms::CmsRun::new()),
            engine: engine
                .unwrap_or_else(|| Arc::new(JitEngine::interpreter(Arc::clone(vm.decoded())))),
        }
    }
}

/// A worker's thread partition: (tid, snapshot, gathered roots).
pub(crate) type Part = Vec<(usize, Snapshot, StackRoots)>;

/// What one gc worker reports back to the leader.
#[derive(Default)]
pub(crate) struct WorkerReport {
    pub(crate) objects: u64,
    pub(crate) words: u64,
    pub(crate) region_objects: u64,
    pub(crate) region_words: u64,
    pub(crate) roots: u64,
    derived: u64,
    frames: u64,
    decode: DecodeCounters,
    pub(crate) copy_time: Duration,
    chunks_published: u64,
    steals: u64,
    idle_parks: u64,
    solo_words: u64,
}

/// The frame every stop-the-world copy shares — the §3 bracket around a
/// collector-specific `copy`: walk this worker's parked threads' stacks
/// and un-derive before anything moves; `copy` (which owns the
/// barriers: no object may move before every un-derive is done, and no
/// re-derive may run before every move is done); then re-derive in
/// exactly the reverse order. `phase` is kept current for the report of
/// a worker that dies on the way.
fn gc_worker(
    ctx: &RunCtx<'_>,
    w: usize,
    my: &mut Part,
    phase: &Cell<&'static str>,
    copy: impl FnOnce(&mut ParWorld<'_>, &mut Part, &mut WorkerReport),
) -> WorkerReport {
    let vm = ctx.vm;
    // A gc worker runs on behalf of no mutator.
    let mut detached = MutatorLocal::default();
    let mut world = vm.world(&mut detached);
    let mut cache = locked(&ctx.caches[w]);
    let decode_before = cache.counters();
    let mut rep = WorkerReport::default();
    for (tid, snap, roots) in my.iter_mut() {
        gather_thread_roots(&world, &*snap, &mut cache, *tid as u32, roots);
        un_derive(&mut world, snap, roots);
        rep.roots += roots.tidy.len() as u64;
        rep.derived += roots.derivations.len() as u64;
        rep.frames += roots.frames as u64;
    }
    phase.set("copy");
    copy(&mut world, my, &mut rep);
    phase.set("re-derive");
    for (_, snap, roots) in my.iter_mut().rev() {
        re_derive(&mut world, snap, roots);
    }
    rep.decode = cache.counters().since(decode_before);
    rep
}

/// The copy a collection posts to the pool: owned, so a helper parked
/// since before the collection began can pick it up (both variants
/// borrow only the machine, which outlives the pool).
#[derive(Clone)]
pub(crate) enum GcJob<'vm> {
    /// Claim-and-copy trace with chunked work stealing ([`steal_copy`]).
    Steal(Arc<GcCtx<'vm>>),
    /// The cms final pause's bitmap-partitioned copy.
    Bitmap(Arc<CmsGc<'vm>>),
}

impl GcJob<'_> {
    pub(crate) fn sync(&self) -> &CopySync {
        match self {
            GcJob::Steal(gc) => &gc.sync,
            GcJob::Bitmap(gc) => &gc.sync,
        }
    }

    /// Arms the job's rendezvous for the `starters` workers woken with
    /// the collection.
    pub(crate) fn begin(&self, starters: usize) {
        match self {
            GcJob::Steal(gc) => gc.begin(starters),
            GcJob::Bitmap(gc) => gc.sync.set_parties(starters),
        }
    }

    /// True if worker `w` has work from the outset even without a root
    /// partition: the bitmap copy is a static partition (of from-space
    /// chunks and of the concurrent copies to rewrite), a trace has
    /// nothing for it until somebody publishes.
    pub(crate) fn wants(&self, w: usize) -> bool {
        match self {
            GcJob::Steal(_) => false,
            GcJob::Bitmap(gc) => gc.has_share(w),
        }
    }

    /// Worker `w`'s share: the §3 bracket around the job's copy for a
    /// worker started with the collection, the bare trace for a helper
    /// woken later by a published chunk.
    pub(crate) fn run(
        &self,
        ctx: &RunCtx<'_>,
        w: usize,
        my: &mut Part,
        starter: bool,
        phase: &Cell<&'static str>,
    ) -> WorkerReport {
        match self {
            GcJob::Steal(gc) if !starter => {
                phase.set("copy");
                let mut rep = WorkerReport::default();
                let mut local = WorkerLocal::new(gc, w, &ctx.pool, false);
                trace(gc, &mut local, false);
                rep.record_copy(&local);
                rep
            }
            GcJob::Steal(gc) => gc_worker(ctx, w, my, phase, |world, my, rep| {
                steal_copy(ctx, gc, w, world, my, rep);
            }),
            GcJob::Bitmap(gc) => gc_worker(ctx, w, my, phase, |world, my, rep| {
                bitmap_copy(gc, w, world, my, rep);
            }),
        }
    }
}

/// The leader's side of every stop-the-world copy: deal the deposited
/// snapshots round-robin to one partition per gc worker, run `job` on
/// the pool (the leader is worker 0; only helpers with work are woken),
/// write the rewritten snapshots back to the park slots and fold the
/// reports into the cycle's stats.
///
/// # Errors
///
/// [`ExecError::GcWorkerPanic`] if any worker's share panicked.
pub(crate) fn run_gc_workers<'vm>(
    ctx: &RunCtx<'vm>,
    job: GcJob<'vm>,
) -> Result<ParGcStats, ExecError> {
    let workers = ctx.caches.len();
    let mut parts: Vec<Part> = (0..workers).map(|_| Vec::new()).collect();
    let mut n_threads = 0usize;
    for (tid, slot) in ctx.slots.iter().enumerate() {
        if let Some(snap) = locked(slot).take() {
            parts[n_threads % workers].push((tid, snap, StackRoots::default()));
            n_threads += 1;
        }
    }
    let (shares, helpers_woken) = ctx.pool.run(ctx, job, parts);
    let mut reports: Vec<WorkerReport> = Vec::with_capacity(workers);
    let mut died: Option<ExecError> = None;
    for (worker, share) in shares.into_iter().enumerate() {
        for (tid, snap, _) in share.part {
            *locked(&ctx.slots[tid]) = Some(snap);
        }
        match share.outcome {
            Ok(rep) => reports.push(rep),
            // Workers that merely stood down carry no message; the
            // lowest-numbered worker that panicked names the error.
            Err(p) => {
                if let (None, Some(message)) = (&died, p.message) {
                    died = Some(ExecError::GcWorkerPanic { worker, phase: p.phase, message });
                }
            }
        }
    }
    if let Some(e) = died {
        return Err(e);
    }

    let mut stats = ParGcStats {
        per_worker_objects: reports.iter().map(|r| r.objects).collect(),
        per_worker_words: reports.iter().map(|r| r.words).collect(),
        steals: reports.iter().map(|r| r.steals).collect(),
        helpers_woken,
        parked_at_polls: ctx.poll_parks.swap(0, R),
        parked_at_allocs: ctx.alloc_parks.swap(0, R),
        stacks_traced: n_threads as u64,
        copy_time: reports[0].copy_time,
        ..ParGcStats::default()
    };
    for r in &reports {
        stats.objects_copied += r.objects;
        stats.words_copied += r.words;
        stats.region_objects_promoted += r.region_objects;
        stats.region_words_promoted += r.region_words;
        stats.roots += r.roots;
        stats.derived_updated += r.derived;
        stats.frames_traced += r.frames;
        stats.decode_hits += r.decode.hits;
        stats.decode_misses += r.decode.misses;
        stats.decode_ops += r.decode.points_decoded;
        stats.chunks_published += r.chunks_published;
        stats.idle_parks += r.idle_parks;
        stats.solo_words += r.solo_words;
    }
    Ok(stats)
}

impl WorkerReport {
    fn record_copy(&mut self, local: &WorkerLocal<'_, '_>) {
        self.objects = local.objects;
        self.words = local.words;
        self.region_objects = local.region_objects;
        self.region_words = local.region_words;
        self.chunks_published = local.chunks_published;
        self.steals = local.steals;
        self.idle_parks = local.idle_parks;
        self.solo_words = local.solo_words;
    }
}

/// Rewrites the roots of worker `w`'s share to `fwd(value)` wherever
/// that is `Some`: the globals first if `w` is worker 0, which owns them,
/// then the tidy roots of its parked threads.
pub(crate) fn forward_roots(
    world: &mut ParWorld<'_>,
    w: usize,
    my: &mut Part,
    rep: &mut WorkerReport,
    mut fwd: impl FnMut(i64) -> Option<i64>,
) {
    let vm = world.vm;
    if w == 0 {
        for a in gather_global_roots(&vm.module, vm.globals_start() as i64) {
            if let Some(new) = fwd(vm.word(a)) {
                vm.set_word(a, new);
            }
        }
        rep.roots += vm.module.global_ptr_roots.len() as u64;
    }
    for (_, snap, roots) in my.iter_mut() {
        for &r in &roots.tidy {
            if let Some(new) = fwd(read_root(world, &*snap, r)) {
                write_root(world, snap, r, new);
            }
        }
    }
}

/// The work-stealing copy between the §3 brackets of [`gc_worker`]:
/// forward roots, trace to the collection-wide fixpoint.
fn steal_copy(
    ctx: &RunCtx<'_>,
    gc: &GcCtx<'_>,
    w: usize,
    world: &mut ParWorld<'_>,
    my: &mut Part,
    rep: &mut WorkerReport,
) {
    let mut local = WorkerLocal::new(gc, w, &ctx.pool, true);
    // No object moves before every un-derive is done.
    gc.sync.barrier();
    let t_copy = Instant::now();
    #[cfg(test)]
    if ctx.fault == Some(Fault::Worker(w, gc.vm.collections.load(R) + 1)) {
        panic!("injected gc worker fault");
    }

    // Forward roots, then the regions.
    forward_roots(world, w, my, rep, |v| forward_root_par(gc, &mut local, v));
    // Live non-escaped regions are extra root sets: their objects stay
    // put, but pointer slots into the evacuation set must be forwarded.
    // Workers pull regions from the shared queue until it is dry.
    loop {
        let slot = locked(&gc.region_scan).pop();
        match slot {
            Some(s) => rep.roots += scan_region(gc, &mut local, s),
            None => break,
        }
    }
    // No barrier here: a started worker stays counted in the termination
    // detector from the collection's start until its own stack first
    // runs dry, so nobody can see "terminated" while roots are pending.
    trace(gc, &mut local, true);
    local.leave_solo(gc);
    // No re-derive runs before every move is done.
    gc.sync.barrier();
    rep.copy_time = t_copy.elapsed();
    rep.record_copy(&local);
}

/// The leader's collection proper: run the copy on the gc workers and
/// flip the spaces.
pub(crate) fn collect_parallel(
    ctx: &RunCtx<'_>,
    handshake_time: Duration,
    t0: Instant,
) -> Result<ParGcStats, ExecError> {
    let vm = ctx.vm;
    let gc = Arc::new(GcCtx::new(vm, ctx.caches.len()));
    let regions_scanned = locked(&gc.region_scan).len() as u64;
    let mut stats = run_gc_workers(ctx, GcJob::Steal(Arc::clone(&gc)))?;
    if gc.overflowed.load(R) {
        // The heap is half-copied: the run ends here.
        return Err(ExecError::Trap(VmTrap::OutOfMemory));
    }
    vm.finish_collection(gc.free.0.load(R));

    // Every escaped region has been fully evacuated: its reachable
    // objects live in the shared heap and every surviving reference was
    // rewritten by the trace. Reset them — zombies become free slots,
    // escaped-but-live regions continue as empty regions for their
    // still-running request.
    stats.region_words_reset =
        gc.evac_regions.iter().map(|&(slot, _, _)| vm.reset_region(slot) as u64).sum();
    stats.handshake_time = handshake_time;
    stats.regions_evacuated = gc.evac_regions.len() as u64;
    stats.regions_scanned = regions_scanned;
    stats.total_time = t0.elapsed();
    Ok(stats)
}

/// Walks the stack of every thread parked with a deposited snapshot, in
/// slot order, with worker 0's decode cache, and hands `f` each snapshot
/// with its roots; stops at `f`'s first error. The world is stopped.
pub(crate) fn walk_parked<E>(
    ctx: &RunCtx<'_>,
    world: &ParWorld<'_>,
    mut f: impl FnMut(&Snapshot, &StackRoots) -> Result<(), E>,
) -> Result<(), E> {
    let mut cache = locked(&ctx.caches[0]);
    for (tid, slot) in ctx.slots.iter().enumerate() {
        let slot = locked(slot);
        let Some(snap) = slot.as_ref() else { continue };
        let mut roots = StackRoots::default();
        gather_thread_roots(world, snap, &mut cache, tid as u32, &mut roots);
        f(snap, &roots)?;
    }
    Ok(())
}

/// The leader's oracle pass: validate the globals and every parked
/// thread's decoded tables against the shadow ground truth, before
/// anything moves.
pub(crate) fn par_oracle_check(ctx: &RunCtx<'_>) -> Result<(), String> {
    let vm = ctx.vm;
    assert!(vm.shadow.is_some(), "oracle requires shadow mode");
    let (from_start, _) = vm.from_space();
    // Legal pointer targets: the allocated from-space prefix plus the
    // used prefix of every live or escaped (zombie) region. Anything
    // else — free region slots included — is dead space, and a root
    // pointing there is a precision violation.
    let mut ranges: Vec<(i64, i64)> = vec![(from_start, vm.free.load(R))];
    if vm.region_words() > 0 {
        for slot in 0..vm.mutators() {
            if vm.is_region_live(slot) || vm.is_region_escaped(slot) {
                let (base, _) = vm.region_bounds(slot);
                ranges.push((base, vm.region_top(slot)));
            }
        }
    }
    let mut detached = MutatorLocal::default();
    let world = vm.world(&mut detached);
    check_globals(&world, &ranges)?;
    walk_parked(ctx, &world, |snap, roots| check_entries(&world, snap, &ranges, roots))
}

/// A parallel run's stopped-world work: decide why, validate the tables,
/// collect.
pub(crate) fn collect_pause(stopped: &Stopped<'_, '_>) -> Result<(), ExecError> {
    stopped.cause(true)?;
    stopped.oracle("at collection")?;
    let stats = collect_parallel(stopped.ctx, stopped.handshake_time, stopped.t0)?;
    locked(&stopped.ctx.gc_log).push(stats);
    Ok(())
}

/// Instructions per engine burst between halt/advance bookkeeping
/// checks. Far finer than `max_advance`, so stuck-thread detection keeps
/// working.
const BURST: u64 = 4096;

/// Why [`run_mutator`] returned without an error.
pub(crate) enum MutatorExit {
    /// The mutator ran to completion.
    Finished,
    /// Shutdown observed.
    Halted,
    /// The quantum expired and the mutator reached a poll gc-point.
    Descheduled,
}

/// The one mutator loop: runs `mu` in engine bursts — native code where
/// the engine has any, [`m3gc_vm::exec::run`] everywhere else — parking
/// at safepoints and requesting collections on failed allocations, until
/// it finishes or the run halts. With a `quantum` (the serve executor's
/// green threads) it also returns once that many instructions have run
/// and the pc sits at a loop poll with no collection pending: a poll pc
/// has full gc tables, so the mutator is describable while descheduled.
/// The burst that crosses the quantum ends *at* that poll (§5.3 bounds
/// the distance), so the tail costs no extra engine calls.
pub(crate) fn run_mutator(
    ctx: &RunCtx<'_>,
    mu: &mut Mutator,
    fuel: &mut u64,
    quantum: Option<u64>,
) -> Result<MutatorExit, ExecError> {
    let vm = ctx.vm;
    let mut ran: u64 = 0;
    // Instructions executed since first observing the current request
    // without reaching a gc-point (§5.3: bounded by construction).
    let mut advance: u64 = 0;
    loop {
        if ctx.coord.halted() {
            return Ok(MutatorExit::Halted);
        }
        // Instructions left before the next loop poll ends the burst.
        let to_poll = quantum.map_or(u64::MAX, |q| q.saturating_sub(ran));
        if to_poll == 0 && vm.is_poll_pc(mu.cpu.pc) && !vm.gc_request.load(R) {
            return Ok(MutatorExit::Descheduled);
        }
        let budget = BURST.min(*fuel).max(1);
        let world = &mut vm.world(&mut mu.local);
        let (step, executed) = ctx.engine.run(&mut mu.cpu, world, budget, to_poll);
        mu.steps += executed;
        ran += executed;
        let exhausted = executed >= *fuel;
        *fuel -= executed.min(*fuel);
        if vm.gc_request.load(R) {
            advance += executed;
            if advance > ctx.options.max_advance {
                return Err(ExecError::StuckThread { thread: mu.tid });
            }
        } else {
            advance = 0;
        }
        match step {
            Step::Normal if exhausted => return Err(ExecError::OutOfFuel),
            Step::Normal => {}
            Step::AtSafepoint => {
                advance = 0;
                if !park(ctx, Some(mu)) {
                    return Ok(MutatorExit::Halted);
                }
            }
            Step::NeedGc => {
                advance = 0;
                // On `true` the allocation is simply retried.
                if !request_gc(ctx, mu)? {
                    return Ok(MutatorExit::Halted);
                }
            }
            Step::Finished => return Ok(MutatorExit::Finished),
            Step::Trap(t) => return Err(ExecError::Trap(t)),
        }
    }
}

/// The parallel executor: a shared machine plus run configuration.
///
/// Unlike [`crate::scheduler::Executor`], which runs one thread on the
/// caller's OS thread, this spawns one OS thread per mutator and
/// `gc_workers - 1` gc helpers per run (the collection's leader is the
/// remaining worker).
pub struct ParExecutor {
    /// The shared machine.
    pub vm: ParMachine,
    /// Configuration.
    pub options: RuntimeOptions,
    /// Native baseline engine, built lazily on the first `--jit` run.
    jit: Option<Arc<JitEngine>>,
    /// Injected fault for the next run.
    #[cfg(test)]
    pub(crate) fault: Option<Fault>,
}

impl ParExecutor {
    /// Wraps a machine.
    #[must_use]
    pub fn new(vm: ParMachine, options: impl Into<RuntimeOptions>) -> ParExecutor {
        ParExecutor {
            vm,
            options: options.into(),
            jit: None,
            #[cfg(test)]
            fault: None,
        }
    }

    /// A snapshot of the JIT engine's statistics, if `--jit` was set
    /// and [`ParExecutor::run_main`] has run.
    #[must_use]
    pub fn jit_summary(&self) -> Option<JitSummary> {
        self.jit.as_deref().map(JitEngine::summary)
    }

    /// Runs the module's entry procedure on every mutator stack region
    /// concurrently and drives collections until all threads finish.
    ///
    /// # Errors
    ///
    /// Options that fail [`RuntimeOptions::check`], or the first trap
    /// (a bottom frame that does not fit its stack included),
    /// fuel/advance exhaustion or oracle violation of any thread (other
    /// threads are halted at their next check).
    ///
    /// # Panics
    ///
    /// Panics on malformed gc maps (a bug, not a program error). A
    /// panic on one of the run's own threads is an error, not a panic.
    pub fn run_main(&mut self) -> Result<ParOutcome, ExecError> {
        self.options.check()?;
        if self.options.jit && self.jit.is_none() {
            let engine = Arc::new(JitEngine::for_par(&self.vm));
            self.vm.set_code_map(engine.code_map());
            self.jit = Some(engine);
        }
        let vm = &self.vm;
        let n = vm.mutators();
        let ctx = RunCtx::new(vm, self.options, n, n, self.jit.clone());
        #[cfg(test)]
        let ctx = RunCtx { fault: self.fault, ..ctx };

        let main = vm.module.main;
        let done: Vec<Mutator> = ctx.scoped(|tid| {
            let mut mu = vm.spawn_mutator(tid, main, &[]).map_err(ExecError::Trap)?;
            let mut fuel = ctx.options.fuel;
            let res = run_mutator(&ctx, &mut mu, &mut fuel, None);
            // Retire before deregistering: the run's final counters (and
            // any collection led after this thread leaves) must include
            // this thread's buffered allocations.
            vm.retire_tlab(&mut mu);
            res.map(|_| mu)
        })?;
        let outputs: Vec<String> = done.iter().map(|mu| mu.output.clone()).collect();
        Ok(ParOutcome {
            output: outputs.concat(),
            outputs,
            collections: vm.collections.load(R),
            allocations: vm.allocations.load(R),
            words_allocated: vm.words_allocated.load(R),
            tlab_refills: vm.tlab_refills.load(R),
            tlab_allocs: vm.tlab_allocs.load(R),
            tlab_waste_words: vm.tlab_waste_words.load(R),
            satb_enqueued: vm.cms.as_ref().map_or(0, |c| c.satb_enqueued.load(R)),
            satb_drained: vm.cms.as_ref().map_or(0, |c| c.satb_drained.load(R)),
            evac_healed_stores: 0,
            steps: done.iter().map(|mu| mu.steps).sum(),
            gc_each: ctx.gc_log.into_inner().unwrap(),
        })
    }
}
