//! The persistent gc-worker pool and the per-collection rendezvous every
//! stop-the-world copy shares (parallel runs, serve's region-aware
//! collections and the cms final pause alike).
//!
//! `gc_workers - 1` helper threads are spawned once per run, inside the
//! scope that holds the mutators — by the run's main thread, when the
//! first collection asks for them, so a run that never collects never
//! creates one — and park on a condvar between collections. The thread that leads a collection is worker 0; it posts
//! an owned [`GcJob`] and wakes exactly the helpers that have work from
//! the outset — a non-empty root partition, or a static share of a bitmap
//! copy. Every other helper stays parked until a busy worker *publishes*
//! surplus gray work (`evac.rs`), so a configured worker with nothing to
//! do costs nothing. The pool is released on every exit path by
//! [`PoolGuard`], so the run's scope can never hang on a parked helper.
//!
//! Poison policy. Every other lock of the parallel runtime is taken with
//! `safepoint::locked`, which recovers a poisoned guard. The two mutexes
//! here (`CopySync::state`, `GcPool::state`) keep `expect("… poisoned")`
//! instead: shares run outside them with their unwind caught
//! (`run_share`), and no code that holds one can panic — so poison there
//! would mean a broken invariant in this file, not a failed run, and is
//! worth the loud stop.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::Scope;

use crate::parallel::{GcJob, Part, RunCtx, WorkerReport};

/// `spin_loop` iterations a waiter burns before it gives the cpu away
/// (parks, or yields in [`Backoff`]). Measured on 2 cores, per run, as
/// (4 mutators × 4 workers under torture, 2 workers on a 20 000-list
/// array): 0 → 369 / 541 ms, 200 → 419 / 513 ms, 2 000 → 430 / 520 ms
/// (and 640 ms against 417 ms with 7 workers), 20 000 → 2 513 / 524 ms.
/// Spinning only pays while a core is free; a short bound loses nothing
/// when none is.
const SPIN_LIMIT: u32 = 200;

/// Bounded spin, then yield: for waits that end within one object copy
/// (a forwarding claim held by another worker).
#[derive(Default)]
pub(crate) struct Backoff(u32);

impl Backoff {
    /// One bounded spin; false once the bound is spent (the caller gives
    /// the cpu away).
    pub(crate) fn spin(&mut self) -> bool {
        let spinning = self.0 < SPIN_LIMIT;
        if spinning {
            self.0 += 1;
            std::hint::spin_loop();
        }
        spinning
    }

    pub(crate) fn snooze(&mut self) {
        if !self.spin() {
            std::thread::yield_now();
        }
    }
}

/// Unwind payload of a worker standing down because *another* worker of
/// its collection panicked. Raised with `resume_unwind`, so the panic
/// hook stays quiet: only the original panic prints.
struct StoodDown;

struct SyncState {
    /// Workers the barriers wait for: the ones woken at the outset.
    parties: usize,
    arrived: usize,
    generation: u64,
}

/// One collection's rendezvous: the §3 barriers among the workers that
/// were started with the collection (no object moves before every
/// un-derive is done, no re-derive runs before every move is done), the
/// parking place of workers idle inside the trace, and the abort latch
/// that releases all of them when a worker dies.
pub(crate) struct CopySync {
    state: Mutex<SyncState>,
    cv: Condvar,
    /// Workers blocked in [`CopySync::park_while`], read without the
    /// lock by whoever creates work. `SeqCst` against the work counters
    /// the parked worker re-reads under the lock: of a parker (count up,
    /// then read the counters) and a waker (counters up, then read the
    /// count) at least one sees the other.
    parked: AtomicUsize,
    aborted: AtomicBool,
}

impl CopySync {
    pub(crate) fn new() -> CopySync {
        CopySync {
            state: Mutex::new(SyncState { parties: 1, arrived: 0, generation: 0 }),
            cv: Condvar::new(),
            parked: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SyncState> {
        // No holder runs anything that can panic.
        self.state.lock().expect("gc rendezvous lock poisoned")
    }

    /// Sets how many workers the barriers wait for (leader, before any
    /// worker starts).
    pub(crate) fn set_parties(&self, parties: usize) {
        self.lock().parties = parties;
    }

    /// Stands this worker down if another worker of the collection died.
    pub(crate) fn check(&self) {
        if self.aborted.load(Ordering::Relaxed) {
            resume_unwind(Box::new(StoodDown));
        }
    }

    /// Waits until every started worker has arrived.
    pub(crate) fn barrier(&self) {
        let mut st = self.lock();
        st.arrived += 1;
        if st.arrived == st.parties {
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
        } else {
            let gen = st.generation;
            while st.generation == gen && !self.aborted.load(Ordering::Relaxed) {
                st = self.cv.wait(st).expect("gc rendezvous lock poisoned");
            }
        }
        drop(st);
        self.check();
    }

    /// Parks the caller while `idle()` holds. `idle` must read only
    /// `SeqCst` atomics whose writers call [`CopySync::wake_parked`]
    /// afterwards.
    pub(crate) fn park_while(&self, idle: impl Fn() -> bool) {
        let mut st = self.lock();
        self.parked.fetch_add(1, Ordering::SeqCst);
        while idle() && !self.aborted.load(Ordering::Relaxed) {
            st = self.cv.wait(st).expect("gc rendezvous lock poisoned");
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
        drop(st);
        self.check();
    }

    /// Wakes the parked workers, if any; returns whether there were any.
    pub(crate) fn wake_parked(&self) -> bool {
        if self.parked.load(Ordering::SeqCst) == 0 {
            return false;
        }
        // Taking the lock orders this after a parker's `idle()` check.
        drop(self.lock());
        self.cv.notify_all();
        true
    }

    /// Releases every barrier and park of this collection: each blocked
    /// (or later arriving) worker stands down instead of waiting for one
    /// that will never come.
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        drop(self.lock());
        self.cv.notify_all();
    }
}

/// A worker's share of one collection, as posted to its mailbox.
struct Mail {
    part: Part,
    /// Started with the collection (takes part in the barriers) rather
    /// than woken later by a published chunk.
    starter: bool,
}

/// How a worker's share ended: the phase it died in and the panic
/// message — `None` if it only stood down after another worker's panic.
pub(crate) struct WorkerPanic {
    pub(crate) phase: &'static str,
    pub(crate) message: Option<String>,
}

/// One worker's finished share.
pub(crate) struct Share {
    /// The partition, snapshots rewritten.
    pub(crate) part: Part,
    pub(crate) outcome: Result<WorkerReport, WorkerPanic>,
}

/// A panic payload's message; `None` for a worker that only stood down.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> Option<String> {
    if payload.is::<StoodDown>() {
        return None;
    }
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned());
    Some(text.unwrap_or_else(|| "non-string panic payload".to_string()))
}

/// Runs worker `w`'s share of `job` with the unwind caught at the job
/// boundary: a panic aborts the collection's rendezvous (so no other
/// worker waits for this one) and comes back as a value.
fn run_share(ctx: &RunCtx<'_>, job: &GcJob<'_>, w: usize, mail: Mail) -> Share {
    let Mail { mut part, starter } = mail;
    let phase = Cell::new("un-derive");
    let outcome = catch_unwind(AssertUnwindSafe(|| job.run(ctx, w, &mut part, starter, &phase)))
        .map_err(|payload| {
            job.sync().abort();
            WorkerPanic { phase: phase.get(), message: panic_message(&*payload) }
        });
    Share { part, outcome }
}

struct PoolState<'vm> {
    /// The collection in progress.
    job: Option<GcJob<'vm>>,
    /// Per-worker mailbox (slot 0, the leader's, stays empty).
    mail: Vec<Option<Mail>>,
    /// Per-worker finished share of the collection in progress.
    done: Vec<Option<Share>>,
    /// Helpers posted and not yet reported.
    running: usize,
    /// Helpers given a share of the collection in progress.
    woken: u64,
    /// Helpers that have no share of the collection in progress and may
    /// be given one by [`GcPool::wake_one`].
    asleep: Vec<bool>,
    /// The helper threads exist (set once, by [`spawn_helpers`]).
    alive: bool,
    shutdown: bool,
}

/// The run's helper threads, parked between collections.
pub(crate) struct GcPool<'vm> {
    state: Mutex<PoolState<'vm>>,
    /// One condvar per worker over `state`: a parked helper waits on its
    /// own, the leader (worker 0) on the first.
    cv: Vec<Condvar>,
    /// Count of `asleep` flags set, read without the lock by workers
    /// about to publish a chunk.
    sleepers: AtomicUsize,
}

impl<'vm> GcPool<'vm> {
    pub(crate) fn new(workers: usize) -> GcPool<'vm> {
        GcPool {
            state: Mutex::new(PoolState {
                job: None,
                mail: (0..workers).map(|_| None).collect(),
                done: (0..workers).map(|_| None).collect(),
                running: 0,
                woken: 0,
                asleep: vec![false; workers],
                alive: false,
                shutdown: false,
            }),
            cv: (0..workers).map(|_| Condvar::new()).collect(),
            sleepers: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolState<'vm>> {
        // Shares run outside the lock; no holder can panic.
        self.state.lock().expect("gc pool lock poisoned")
    }

    /// Runs one collection on the pool (the caller is worker 0): posts
    /// `job`, wakes the helpers that have a partition or a static share
    /// of it, runs the leader's own share, and returns every worker's
    /// share in worker order plus the number of helpers that took part.
    pub(crate) fn run(
        &self,
        ctx: &RunCtx<'_>,
        job: GcJob<'vm>,
        mut parts: Vec<Part>,
    ) -> (Vec<Share>, u64) {
        let workers = parts.len();
        let mut st = self.lock();
        if workers > 1 && !st.alive && !st.shutdown {
            // The run's first collection: have the main thread spawn
            // the helpers (it owns the scope) and wait for them.
            drop(st);
            ctx.coord.want_helpers();
            st = self.lock();
            while !st.alive && !st.shutdown {
                st = self.cv[0].wait(st).expect("gc pool lock poisoned");
            }
        }
        let alive = st.alive && !st.shutdown;
        if !alive {
            // No helpers (one worker configured, or a pause led after
            // the mutators finished and the pool was released): the
            // leader takes every partition.
            let rest = parts.split_off(1);
            parts[0].extend(rest.into_iter().flatten());
            parts.resize_with(workers, Part::new);
        }
        let starts: Vec<bool> = parts
            .iter()
            .enumerate()
            .map(|(w, p)| w == 0 || (alive && (!p.is_empty() || job.wants(w))))
            .collect();
        let started = starts.iter().filter(|&&s| s).count();
        job.begin(started);
        st.job = Some(job.clone());
        st.woken = started as u64 - 1;
        let mut parts = parts.into_iter();
        let part0 = parts.next().expect("worker 0 partition");
        for (w, part) in (1..workers).zip(parts) {
            if starts[w] {
                st.mail[w] = Some(Mail { part, starter: true });
                st.running += 1;
                self.cv[w].notify_one();
            } else {
                st.asleep[w] = alive;
            }
        }
        let sleepers = if alive { workers - started } else { 0 };
        self.sleepers.store(sleepers, Ordering::Relaxed);
        drop(st);

        let mine = run_share(ctx, &job, 0, Mail { part: part0, starter: true });

        let mut st = self.lock();
        self.sleepers.store(0, Ordering::Relaxed);
        for w in 1..workers {
            st.asleep[w] = false;
            // Mail not picked up yet belongs to a helper woken for a
            // chunk just before the trace ended: take it back rather
            // than wait for a thread with nothing left to do.
            if let Some(mail) = st.mail[w].take() {
                st.running -= 1;
                st.woken -= 1;
                st.done[w] = Some(Share { part: mail.part, outcome: Ok(WorkerReport::default()) });
            }
        }
        while st.running > 0 {
            st = self.cv[0].wait(st).expect("gc pool lock poisoned");
        }
        st.job = None;
        let mut shares = vec![mine];
        for w in 1..workers {
            shares.push(
                st.done[w]
                    .take()
                    .unwrap_or(Share { part: Part::new(), outcome: Ok(WorkerReport::default()) }),
            );
        }
        (shares, st.woken)
    }

    /// True while some helper has no share of the collection in progress.
    pub(crate) fn has_sleepers(&self) -> bool {
        self.sleepers.load(Ordering::Relaxed) > 0
    }

    /// Gives one sleeping helper an empty share of the collection in
    /// progress (called by a worker that just published a chunk).
    pub(crate) fn wake_one(&self) {
        let mut st = self.lock();
        if st.job.is_none() || st.shutdown {
            return;
        }
        if let Some(w) = st.asleep.iter().position(|&a| a) {
            st.asleep[w] = false;
            self.sleepers.fetch_sub(1, Ordering::Relaxed);
            st.mail[w] = Some(Mail { part: Part::new(), starter: false });
            st.running += 1;
            st.woken += 1;
            self.cv[w].notify_one();
        }
    }

    fn shutdown(&self) {
        // Runs in `Drop`, possibly during an unwind: never panic here.
        let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.shutdown = true;
        for cv in &self.cv {
            cv.notify_all();
        }
    }
}

/// A helper thread's life: park until mail arrives, run the share,
/// report, park again; exit at shutdown.
fn helper_loop(ctx: &RunCtx<'_>, w: usize) {
    let pool = &ctx.pool;
    loop {
        let (job, mail) = {
            let mut st = pool.lock();
            loop {
                if let Some(mail) = st.mail[w].take() {
                    break (st.job.clone().expect("mail without a job"), mail);
                }
                if st.shutdown {
                    return;
                }
                st = pool.cv[w].wait(st).expect("gc pool lock poisoned");
            }
        };
        let share = run_share(ctx, &job, w, mail);
        let mut st = pool.lock();
        st.done[w] = Some(share);
        st.running -= 1;
        if st.running == 0 {
            pool.cv[0].notify_one();
        }
    }
}

/// Releases the pool's helpers when dropped — at the end of the run's
/// scope closure, on the normal path and during an unwind alike.
pub(crate) struct PoolGuard<'a, 'vm>(&'a GcPool<'vm>);

impl Drop for PoolGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// The main thread's part, called once the mutators are spawned: waits
/// until a collection asks for the helpers or every mutator is gone, and
/// in the first case spawns the run's `gc_workers - 1` helpers into `s`.
/// Spawning on demand rather than up front keeps a thread that may never
/// be needed out of the mutators' way: created beside them it cost takl
/// on 2 mutators (no collection at all) 4–10 ms of 60 on 2 cores, by
/// where the scheduler then placed the mutators. Keep the guard alive
/// for as long as collections can be led.
pub(crate) fn spawn_helpers<'scope, 'vm>(
    s: &'scope Scope<'scope, '_>,
    ctx: &'scope RunCtx<'vm>,
) -> PoolGuard<'scope, 'vm> {
    let guard = PoolGuard(&ctx.pool);
    if ctx.coord.helpers_wanted() {
        for w in 1..ctx.caches.len() {
            std::thread::Builder::new()
                .name(format!("gc-worker-{w}"))
                .spawn_scoped(s, move || helper_loop(ctx, w))
                .expect("spawn gc worker thread");
        }
        ctx.pool.lock().alive = true;
        ctx.pool.cv[0].notify_one();
    }
    guard
}
