//! The safepoint protocol: the one place a run's threads stop, fail and
//! end (DESIGN.md, *Safepoint protocol*).
//!
//! The paper's collector may only run once every thread stands at a
//! gc-point (§5.3: suspended threads are resumed until they reach one).
//! Over OS threads that rule is a handshake, and this module is its only
//! owner — the request flag (`vm.gc_request`), the handshake counters
//! ([`Coord`]), gc-torture's schedule (`vm.force_gc_at`), the no-progress
//! out-of-memory detector and the run's first-error latch are written
//! nowhere else:
//!
//! * **Running → Requested.** A thread that needs the world stopped wins
//!   the request CAS ([`try_lead`]) and becomes the *leader*; every other
//!   thread sees the flag at its next park site and [`park`]s, depositing
//!   its [`Cpu`](m3gc_vm::exec::Cpu) for the collector ([`deposit`]).
//! * **Requested → Stopped.** The leader ([`stop_world`]) waits until
//!   `parked == active`. A *counted* leader — a mutator, a serve
//!   scheduler thread — is itself one of `active` and stands in for
//!   itself; the cms coordinator is not, and waits for everyone.
//! * **Stopped → Released.** The leader runs the pause's work, then
//!   clears the request *before* bumping the generation, both under the
//!   lock: a woken thread still sitting at a park site must not
//!   observe a stale request and park again.
//!
//! Failure policy. The first error of a run is latched in [`Coord`] and
//! raises `halt` ([`fail`]); every other thread shuts down quietly at its
//! next check. A panic is an error like any other: it is caught where
//! the thread would otherwise die ([`retire`], [`contain`], the leader's
//! work in [`stop_world`]) and the handshake is still released, so no
//! thread is left parked. Locks are therefore taken with [`locked`],
//! which recovers the guard from a poisoned mutex — the panic that
//! poisoned it is already the run's error, and everything these mutexes
//! guard stays valid at every step (counters, queues, option slots).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use m3gc_vm::machine::VmTrap;
use m3gc_vm::Mutator;

use crate::parallel::{par_oracle_check, RunCtx};
use crate::pool::{panic_message, spawn_helpers};
use crate::scheduler::ExecError;

const R: Ordering = Ordering::Relaxed;

/// Locks `m`, recovering the guard if a panicking thread poisoned it
/// (see the module doc's failure policy). `#[inline]`: without it every
/// lock site in the crate — serve takes about ten per request — is a
/// call to one shared out-of-line copy instead of the inlined fast path
/// `.lock().unwrap()` was.
#[inline]
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `cv.wait(guard)` under the same poison policy as [`locked`].
#[inline]
pub(crate) fn waited<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Handshake counters, guarded by [`Coord::state`].
struct CoordState {
    /// OS threads still running (decremented by [`retire`]). In serve
    /// mode this counts scheduler threads, not green requests.
    active: usize,
    /// Threads currently parked for the pending request.
    parked: usize,
    /// Bumped by the leader to release parked threads.
    generation: u64,
    /// Mirrors [`Coord::halt`] for checks already under the lock.
    halt: bool,
    /// Set by the leader of the run's first collection: the main thread
    /// (which owns the scope) spawns the gc helpers (`pool.rs`).
    want_helpers: bool,
}

/// A run's handshake and failure state.
pub(crate) struct Coord {
    state: Mutex<CoordState>,
    cv: Condvar,
    /// Cheap fast-path halt check for mutator loops.
    halt: AtomicBool,
    /// First error wins; everyone else shuts down quietly.
    error: Mutex<Option<ExecError>>,
    /// Allocation count at the previous unforced, freeing pause — the
    /// no-progress out-of-memory detector, shared by whichever thread
    /// happens to lead.
    last_gc_allocations: Mutex<Option<u64>>,
}

impl Coord {
    /// The state of a run of `active` OS threads.
    pub(crate) fn new(active: usize) -> Coord {
        Coord {
            state: Mutex::new(CoordState {
                active,
                parked: 0,
                generation: 0,
                halt: false,
                want_helpers: false,
            }),
            cv: Condvar::new(),
            halt: AtomicBool::new(false),
            error: Mutex::new(None),
            last_gc_allocations: Mutex::new(None),
        }
    }

    /// True once the run is shutting down.
    #[inline]
    pub(crate) fn halted(&self) -> bool {
        self.halt.load(Ordering::Acquire)
    }

    /// Records `e` if it is the run's first error and raises `halt`. The
    /// caller holds the state lock and notifies.
    fn latch(&self, st: &mut CoordState, e: ExecError) {
        let mut err = locked(&self.error);
        if err.is_none() {
            *err = Some(e);
        }
        st.halt = true;
        self.halt.store(true, Ordering::Release);
    }

    /// Asks the run's main thread for the gc helpers (the leader of the
    /// first collection that has more than one worker).
    pub(crate) fn want_helpers(&self) {
        locked(&self.state).want_helpers = true;
        self.cv.notify_all();
    }

    /// The main thread's wait: until a collection asks for the helpers
    /// (`true`) or every thread of the run is gone (`false`).
    pub(crate) fn helpers_wanted(&self) -> bool {
        let mut st = locked(&self.state);
        while st.active > 0 && !st.want_helpers {
            st = waited(&self.cv, st);
        }
        st.want_helpers
    }

    /// `(parked, generation, halt)`, for the protocol tests.
    #[cfg(test)]
    pub(crate) fn probe(&self) -> (usize, u64, bool) {
        let st = locked(&self.state);
        (st.parked, st.generation, st.halt)
    }
}

/// Fails the run with `e`: the first error is kept, `halt` is raised and
/// every waiter is woken to see it.
pub(crate) fn fail(ctx: &RunCtx<'_>, e: ExecError) {
    let coord = &ctx.coord;
    let mut st = locked(&coord.state);
    coord.latch(&mut st, e);
    coord.cv.notify_all();
}

/// Runs `body` with the unwind caught at this boundary: a panic comes
/// back as `on_panic(message)`.
fn caught<T>(
    on_panic: impl FnOnce(String) -> ExecError,
    body: impl FnOnce() -> Result<T, ExecError>,
) -> Result<T, ExecError> {
    catch_unwind(AssertUnwindSafe(body))
        .unwrap_or_else(|payload| Err(on_panic(panic_message(&*payload).unwrap_or_default())))
}

/// Runs `body` with the unwind [`caught`]; its error, or its panic as
/// `on_panic(message)`, fails the run.
pub(crate) fn contain<T>(
    ctx: &RunCtx<'_>,
    on_panic: impl FnOnce(String) -> ExecError,
    body: impl FnOnce() -> Result<T, ExecError>,
) -> Option<T> {
    caught(on_panic, body).map_err(|e| fail(ctx, e)).ok()
}

/// The life of one of the run's `active` threads: runs `body`, fails the
/// run on its error or panic, and always deregisters from the handshake
/// so no leader waits on a dead thread.
pub(crate) fn retire<T>(
    ctx: &RunCtx<'_>,
    thread: usize,
    body: impl FnOnce() -> Result<T, ExecError>,
) -> Option<T> {
    let out = contain(ctx, |message| ExecError::MutatorPanic { thread, message }, body);
    locked(&ctx.coord.state).active -= 1;
    ctx.coord.cv.notify_all();
    out
}

/// Deposits `mu`'s state where the gc workers (and, for a descheduled
/// serve green, every later collection) find it. The TLAB is retired
/// first: gc workers must see an exact frontier (and flushed counters
/// and SATB buffer), and after the flip the buffer would lie in dead
/// space.
///
/// # Errors
///
/// With the oracle armed, [`ExecError::Oracle`] if `mu` does not stand
/// at a park site (an allocation or a poll with tables): its stack would
/// be scanned with tables of a pc it is not parked at.
pub(crate) fn deposit(ctx: &RunCtx<'_>, mu: &mut Mutator) -> Result<(), ExecError> {
    let (vm, pc) = (ctx.vm, mu.cpu.pc);
    if !vm.is_gc_point_pc(pc) {
        let what = format!("thread {} deposited at pc {pc}, which is no park site", mu.tid);
        if ctx.options.oracle {
            return Err(ExecError::Oracle(what));
        }
        debug_assert!(false, "{what}");
    }
    vm.retire_tlab(mu);
    *locked(&ctx.slots[mu.tid]) = Some(mu.cpu.clone());
    Ok(())
}

/// Reloads `mu`'s deposited state, which a collection may have rewritten.
pub(crate) fn reload(ctx: &RunCtx<'_>, mu: &mut Mutator) {
    if let Some(snap) = locked(&ctx.slots[mu.tid]).take() {
        mu.cpu = snap;
    }
}

/// Joins the pending handshake under the state lock: deposit (counting
/// the park site), count, tell the leader.
fn enter(
    ctx: &RunCtx<'_>,
    st: &mut CoordState,
    mu: Option<&mut Mutator>,
    counted: bool,
) -> Result<(), ExecError> {
    if let Some(mu) = mu {
        let site = if ctx.vm.is_poll_pc(mu.cpu.pc) { &ctx.poll_parks } else { &ctx.alloc_parks };
        site.fetch_add(1, R);
        deposit(ctx, mu)?;
    }
    if counted {
        st.parked += 1;
    }
    ctx.coord.cv.notify_all();
    Ok(())
}

/// Parks the calling thread for a pending request: a mutator deposits
/// `mu`; a serve scheduler thread between green requests has nothing to
/// deposit (`None`) but must still join, or the leader would wait on it.
/// Returns `true` if execution should resume, `false` on halt. A request
/// that was already serviced (or abandoned) by the time the lock is
/// taken resumes immediately without parking.
#[cold]
pub(crate) fn park(ctx: &RunCtx<'_>, mut mu: Option<&mut Mutator>) -> bool {
    let coord = &ctx.coord;
    let mut st = locked(&coord.state);
    if st.halt {
        return false;
    }
    if !ctx.vm.gc_request.load(R) {
        return true;
    }
    if let Err(e) = enter(ctx, &mut st, mu.as_deref_mut(), true) {
        coord.latch(&mut st, e);
        coord.cv.notify_all();
        return false;
    }
    let gen = st.generation;
    while st.generation == gen {
        st = waited(&coord.cv, st);
    }
    let halted = st.halt;
    drop(st);
    if let Some(mu) = mu {
        reload(ctx, mu);
    }
    !halted
}

/// The one request CAS: winning it makes the caller the leader of the
/// next pause, which it must then run ([`lead`]).
pub(crate) fn try_lead(ctx: &RunCtx<'_>) -> bool {
    ctx.vm.gc_request.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire).is_ok()
}

/// Why the world was stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cause {
    /// Gc-torture's allocation count came due.
    Torture,
    /// Led by a thread whose allocation did not fail: a serve scheduler
    /// reclaiming zombie regions, the cms coordinator closing a cycle.
    Forced,
    /// An allocation failed (or reached cms's occupancy trigger).
    Allocation,
}

/// The stopped world, as handed to a pause's work: every active thread
/// is parked and nothing moves until the work returns.
pub(crate) struct Stopped<'a, 'vm> {
    pub(crate) ctx: &'a RunCtx<'vm>,
    /// The leader is a mutator (its state is deposited like everyone's).
    pub(crate) by_mutator: bool,
    /// The leader is one of the run's `active` threads.
    pub(crate) counted: bool,
    /// When the leader began the handshake.
    pub(crate) t0: Instant,
    /// From then to every thread parked.
    pub(crate) handshake_time: Duration,
}

impl Stopped<'_, '_> {
    /// The collection-cause policy. A due torture count is re-armed; an
    /// unforced pause that `frees` memory (every pause but cms's
    /// snapshot and select) must see allocation progress since the last
    /// one, or the heap is genuinely full.
    ///
    /// # Errors
    ///
    /// [`VmTrap::OutOfMemory`] on no progress.
    pub(crate) fn cause(&self, frees: bool) -> Result<Cause, ExecError> {
        let (vm, options) = (self.ctx.vm, &self.ctx.options);
        let allocs_now = vm.allocations.load(R);
        if allocs_now >= vm.force_gc_at.load(R) {
            if let Some(every) = options.force_every_allocs {
                vm.force_gc_at.store(allocs_now + every.max(1), R);
            }
            return Ok(Cause::Torture);
        }
        if !self.by_mutator {
            return Ok(Cause::Forced);
        }
        if frees {
            let mut last = locked(&self.ctx.coord.last_gc_allocations);
            if *last == Some(allocs_now) {
                return Err(ExecError::Trap(VmTrap::OutOfMemory));
            }
            *last = Some(allocs_now);
        }
        Ok(Cause::Allocation)
    }

    /// The oracle pass of a pause (a no-op unless the oracle is armed):
    /// every deposited snapshot's decoded tables against the shadow
    /// ground truth. `phase` says where in which pause.
    ///
    /// # Errors
    ///
    /// [`ExecError::Oracle`] naming the phase and the heap's extent.
    pub(crate) fn oracle(&self, phase: &str) -> Result<(), ExecError> {
        let vm = self.ctx.vm;
        if !self.ctx.options.oracle || vm.shadow.is_none() {
            return Ok(());
        }
        par_oracle_check(self.ctx).map_err(|msg| {
            let ((fs, fe), free) = (vm.from_space(), vm.free.load(R));
            ExecError::Oracle(format!("{phase} (from=[{fs},{fe}) free={free}): {msg}"))
        })
    }
}

/// The leader's path, entered with the request CAS won: join the
/// handshake (a mutator deposits `mu`; only a `counted` leader counts
/// itself), wait until the world is stopped, run `work`, release
/// everyone. Returns `Ok(true)` to resume, `Ok(false)` if the run halted
/// instead of stopping (the request is only withdrawn then).
///
/// # Errors
///
/// `work`'s error — or its panic, as [`ExecError::GcWorkerPanic`] of
/// worker 0 — after failing the run with it and releasing the handshake.
pub(crate) fn stop_world(
    ctx: &RunCtx<'_>,
    mut mu: Option<&mut Mutator>,
    counted: bool,
    work: impl FnOnce(Stopped<'_, '_>) -> Result<(), ExecError>,
) -> Result<bool, ExecError> {
    let coord = &ctx.coord;
    let t0 = Instant::now();
    let mut st = locked(&coord.state);
    let mut result = if st.halt { Ok(()) } else { enter(ctx, &mut st, mu.as_deref_mut(), counted) };
    while result.is_ok() && st.parked < st.active && !st.halt {
        st = waited(&coord.cv, st);
    }
    // Everyone is parked (or dead): the world is stopped. The lock can
    // be dropped — nothing changes until the generation is bumped.
    let stopped = result.is_ok() && !st.halt;
    let handshake_time = t0.elapsed();
    drop(st);
    if stopped {
        let world = Stopped { ctx, by_mutator: mu.is_some(), counted, t0, handshake_time };
        let died = |message| ExecError::GcWorkerPanic { worker: 0, phase: "pause", message };
        result = caught(died, || work(world));
    }

    // Release: clear the request *before* bumping the generation, both
    // under the lock (see the module doc).
    let mut st = locked(&coord.state);
    if let Err(e) = &result {
        coord.latch(&mut st, e.clone());
    }
    ctx.vm.gc_request.store(false, Ordering::Release);
    st.parked = 0;
    st.generation += 1;
    coord.cv.notify_all();
    drop(st);

    if let Some(mu) = mu {
        reload(ctx, mu);
    }
    result.map(|()| stopped)
}

/// Leads the run's next pause (the request CAS is won): one parallel
/// collection, or — under cms — whichever pause the cycle is due.
#[cold]
pub(crate) fn lead(
    ctx: &RunCtx<'_>,
    mu: Option<&mut Mutator>,
    counted: bool,
) -> Result<bool, ExecError> {
    match &ctx.cms {
        Some(run) => stop_world(ctx, mu, counted, |stopped| crate::cms::cms_pause(&stopped, run)),
        None => stop_world(ctx, mu, counted, |stopped| crate::parallel::collect_pause(&stopped)),
    }
}

/// Leads a pause no thread owes (the cms coordinator closing a traced
/// cycle) for as long as `wanted()` holds. A lost request CAS waits for
/// that pause's release and asks again rather than giving up: the pause
/// under way need not be the one wanted — it may be the snapshot pause
/// that opened this very cycle, still releasing the world.
pub(crate) fn lead_while(ctx: &RunCtx<'_>, wanted: impl Fn() -> bool) {
    loop {
        let gen = locked(&ctx.coord.state).generation;
        if !wanted() {
            return;
        }
        if try_lead(ctx) {
            drop(lead(ctx, None, false));
            return;
        }
        let mut st = locked(&ctx.coord.state);
        while st.generation == gen && !st.halt {
            st = waited(&ctx.coord.cv, st);
        }
    }
}

/// A failed allocation: win the request and lead, or join the handshake
/// another thread is already running. On `Ok(true)` the allocation is
/// simply retried.
pub(crate) fn request_gc(ctx: &RunCtx<'_>, mu: &mut Mutator) -> Result<bool, ExecError> {
    if try_lead(ctx) {
        lead(ctx, Some(mu), true)
    } else {
        Ok(park(ctx, Some(mu)))
    }
}

impl RunCtx<'_> {
    /// The run scaffold: arms gc-torture, runs `body(t)` on one OS thread
    /// per `active` thread of the handshake (plus, under cms, the
    /// coordinator) inside one scope, spawns the gc helpers on a
    /// collection's demand, and joins. Returns the bodies' results in
    /// thread order.
    ///
    /// # Errors
    ///
    /// The run's first error (every other thread was halted by it).
    pub(crate) fn scoped<T: Send>(
        &self,
        body: impl Fn(usize) -> Result<T, ExecError> + Sync,
    ) -> Result<Vec<T>, ExecError> {
        if let Some(n) = self.options.force_every_allocs {
            self.vm.force_gc_at.store(n.max(1), R);
        }
        let threads = locked(&self.coord.state).active;
        let mut done = Vec::with_capacity(threads);
        std::thread::scope(|s| {
            let (ctx, body) = (self, &body);
            // The cms coordinator owns the concurrent marking workers;
            // it sleeps until a snapshot pause opens a cycle.
            if ctx.cms.is_some() {
                s.spawn(move || crate::cms::cms_coordinator(ctx));
            }
            let handles: Vec<_> =
                (0..threads).map(|t| s.spawn(move || retire(ctx, t, || body(t)))).collect();
            // Spawns the gc helpers if and when a collection wants them;
            // they are released when this closure ends, however it ends.
            let _helpers = spawn_helpers(s, ctx);
            for h in handles {
                // `retire` caught the body's unwind; what is left is a
                // bug in the scaffold itself.
                done.extend(h.join().unwrap_or_else(|payload| resume_unwind(payload)));
            }
            if let Some(run) = &ctx.cms {
                run.stop();
            }
        });
        match locked(&self.coord.error).take() {
            Some(e) => Err(e),
            None => Ok(done),
        }
    }
}
