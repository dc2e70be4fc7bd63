//! The allocation-service executor: M cooperative green-thread
//! "request" mutators multiplexed over N OS scheduler threads.
//!
//! Each request is an ordinary [`Mutator`] bound to one of the
//! machine's region slots: it allocates into its per-request region
//! (O(1) bump, no shared traffic) and is reclaimed in O(1) at request
//! exit when nothing escaped. Only escaping objects are promoted into
//! the shared heap — by the next stop-the-world collection, which
//! treats escaped regions as extra evacuation sources (see
//! [`crate::evac`]). The gc-map precision oracle shadow-verifies the
//! whole arrangement: a reclaimed region is dead space, so any root
//! still pointing into one is a stale-pointer violation.
//!
//! Scheduling is cooperative and safepoint-aligned. A green runs for
//! its quantum and is descheduled only at a loop-poll gc-point, where
//! its register state is describable by the compiler's tables: the
//! deposited `Snapshot` sits in the green's `RunCtx` slot, so a
//! collection traces queued requests exactly like parked OS threads —
//! and rewrites their roots in place. The stop-the-world handshake is
//! the one every multi-threaded executor shares (`safepoint.rs`):
//! `active` counts OS threads, a scheduler thread with no green in hand
//! parks with nothing to deposit, and when every free slot holds an
//! uncollected zombie region (escaped, awaiting evacuation) while
//! requests are still waiting, a scheduler thread leads a forced
//! collection to recycle the slots.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use m3gc_vm::{Mutator, ParMachine};

use crate::options::RuntimeOptions;
use crate::parallel::{run_mutator, MutatorExit, ParGcStats, RunCtx};
use crate::safepoint::{deposit, lead, locked, park, reload, try_lead};
use crate::scheduler::ExecError;

const R: Ordering = Ordering::Relaxed;

/// Workload shape for a [`ServeExecutor`] run.
#[derive(Debug, Clone, Default)]
pub struct ServeLoad {
    /// Total requests to serve.
    pub requests: u64,
    /// Max new requests one scheduler thread admits per scheduling turn
    /// (arrivals come in bursts of up to this size).
    pub burst: usize,
    /// Handler procedure name; the module's entry procedure when
    /// `None`. A handler taking one argument receives the request id.
    pub entry: Option<String>,
}

/// View of the effective serve configuration, reported alongside the
/// stats so benchmark JSON records what actually ran.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfigView {
    /// OS scheduler threads.
    pub threads: usize,
    /// Green request slots (= region slots = snapshot slots).
    pub green_slots: usize,
    /// Words per request region.
    pub region_words: usize,
    /// Words per TLAB, which takes what overflows a region (0: a
    /// shared-frontier CAS per overflowing object).
    pub tlab_words: usize,
    /// Scheduling quantum in instructions.
    pub quantum: u64,
}

/// Aggregate statistics of one serve run.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests completed.
    pub requests: u64,
    /// Wall-clock run time.
    pub elapsed: Duration,
    /// Completed requests per second.
    pub requests_per_sec: f64,
    /// Objects allocated (all requests, regions included).
    pub allocations: u64,
    /// Words allocated.
    pub words_allocated: u64,
    /// Allocation rate in words per second.
    pub alloc_words_per_sec: f64,
    /// Instructions executed by completed requests.
    pub steps: u64,
    /// Collections performed.
    pub collections: u64,
    /// Of those, collections forced by a scheduler thread to reclaim
    /// zombie region slots (rather than by a full heap).
    pub forced_collections: u64,
    /// Stop-the-world pause percentiles (total collection time), µs.
    pub pause_p50_us: u64,
    /// 99th-percentile pause, µs.
    pub pause_p99_us: u64,
    /// Worst pause, µs.
    pub pause_max_us: u64,
    /// Request latency percentiles (admission to completion), µs.
    pub latency_p50_us: u64,
    /// 99th-percentile latency, µs.
    pub latency_p99_us: u64,
    /// Worst latency, µs.
    pub latency_max_us: u64,
    /// Regions opened (one per request).
    pub regions_created: u64,
    /// Regions reclaimed in O(1) at request exit (nothing escaped).
    pub regions_reclaimed_fast: u64,
    /// Words reclaimed by those O(1) resets.
    pub region_words_reclaimed_fast: u64,
    /// Regions that escaped and became zombies at request exit.
    pub regions_zombied: u64,
    /// Objects allocated inside regions.
    pub region_allocs: u64,
    /// Words allocated inside regions.
    pub region_alloc_words: u64,
    /// Regions marked escaped by the write-barrier escape check.
    pub region_escapes: u64,
    /// Words promoted out of escaped regions by collections.
    pub region_words_promoted: u64,
    /// Words reclaimed by collections resetting escaped regions.
    pub region_words_reset: u64,
    /// Deposited request snapshots traced across all collections
    /// (requests parked at safepoints, queued greens included).
    pub parked_at_safepoints: u64,
    /// TLABs claimed from the shared frontier for region overflow.
    pub tlab_refills: u64,
    /// Region-overflow allocations bumped inside a TLAB without a CAS.
    pub tlab_allocs: u64,
    /// Retired TLAB tails that could not go back to the frontier.
    pub tlab_waste_words: u64,
}

impl ServeStats {
    /// Fraction of region-allocated words reclaimed *by region reset*
    /// rather than promoted into the shared heap by tracing. The
    /// acceptance bar for the allocation-service design is ≥ 0.9 on a
    /// request-local workload.
    #[must_use]
    pub fn region_reclaim_ratio(&self) -> f64 {
        if self.region_alloc_words == 0 {
            return 1.0;
        }
        let promoted = self.region_words_promoted.min(self.region_alloc_words);
        (self.region_alloc_words - promoted) as f64 / self.region_alloc_words as f64
    }
}

/// Result of a completed serve run.
#[derive(Debug, Clone, Default)]
pub struct ServeOutcome {
    /// Aggregate statistics.
    pub stats: ServeStats,
    /// Per-request outputs, indexed by request id.
    pub outputs: Vec<String>,
    /// Per-collection statistics.
    pub gc_each: Vec<ParGcStats>,
}

/// Sorted-slice percentile (nearest-rank); `0` for an empty slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A green request: a mutator plus its request bookkeeping.
struct Green {
    mu: Mutator,
    request_id: u64,
    fuel: u64,
    started: Instant,
}

/// State shared by the scheduler threads.
struct ServeShared {
    /// Descheduled runnable greens (their snapshots sit in `ctx.slots`).
    run_queue: Mutex<VecDeque<Green>>,
    /// Region slots with no live request. May still hold zombie regions;
    /// those are skipped until a collection resets them.
    free_slots: Mutex<VecDeque<usize>>,
    /// Requests admitted so far (also the next request id).
    admitted: AtomicU64,
    completed: AtomicU64,
    /// Per-request latency in µs, pushed at completion.
    latencies_us: Mutex<Vec<u64>>,
    outputs: Mutex<Vec<String>>,
    steps: AtomicU64,
    regions_created: AtomicU64,
    regions_reclaimed_fast: AtomicU64,
    region_words_reclaimed_fast: AtomicU64,
    regions_zombied: AtomicU64,
    forced_collections: AtomicU64,
}

/// Admits one request if ids remain and a non-zombie slot is free.
fn admit_one(
    ctx: &RunCtx<'_>,
    shared: &ServeShared,
    load: &ServeLoad,
    entry: u16,
    entry_takes_id: bool,
) -> Option<Green> {
    let slot = {
        let mut free = locked(&shared.free_slots);
        let n = free.len();
        let mut found = None;
        for _ in 0..n {
            let s = free.pop_front().expect("free-slot count");
            if ctx.vm.is_region_zombie(s) {
                free.push_back(s);
            } else {
                found = Some(s);
                break;
            }
        }
        found?
    };
    // Reserve a request id; hand the slot back if the load is drained.
    let id = loop {
        let id = shared.admitted.load(R);
        if id >= load.requests {
            locked(&shared.free_slots).push_back(slot);
            return None;
        }
        if shared.admitted.compare_exchange(id, id + 1, R, R).is_ok() {
            break id;
        }
    };
    let args: &[i64] = if entry_takes_id { &[id as i64] } else { &[] };
    let mu = ctx.vm.spawn_mutator(slot, entry, args);
    ctx.vm.begin_region(slot);
    shared.regions_created.fetch_add(1, R);
    Some(Green { mu, request_id: id, fuel: ctx.options.fuel, started: Instant::now() })
}

/// Retires a finished green: close its region (O(1) reclaim or zombie),
/// free the slot, record latency and output.
fn finish_green(ctx: &RunCtx<'_>, shared: &ServeShared, mut g: Green) {
    let vm = ctx.vm;
    vm.retire_tlab(&mut g.mu); // flush pending allocation counters
    shared.steps.fetch_add(g.mu.steps, R);
    let slot = g.mu.tid;
    match vm.end_region(slot) {
        Some(words) => {
            shared.regions_reclaimed_fast.fetch_add(1, R);
            shared.region_words_reclaimed_fast.fetch_add(words as u64, R);
        }
        None => {
            shared.regions_zombied.fetch_add(1, R);
        }
    }
    locked(&shared.free_slots).push_back(slot);
    let us = u64::try_from(g.started.elapsed().as_micros()).unwrap_or(u64::MAX);
    locked(&shared.latencies_us).push(us);
    locked(&shared.outputs)[g.request_id as usize] = g.mu.local.output;
    shared.completed.fetch_add(1, R);
}

/// True when requests are still waiting but every free slot holds an
/// uncollected zombie region — only a collection can make progress.
fn starved_by_zombies(ctx: &RunCtx<'_>, shared: &ServeShared, load: &ServeLoad) -> bool {
    if shared.admitted.load(R) >= load.requests {
        return false;
    }
    let free = locked(&shared.free_slots);
    !free.is_empty() && free.iter().all(|&s| ctx.vm.is_region_zombie(s))
}

/// One OS scheduler thread: resume queued greens, admit bursts of new
/// requests, join handshakes, and force collections on zombie
/// starvation, until the load is drained or the run halts.
fn scheduler_loop(
    ctx: &RunCtx<'_>,
    shared: &ServeShared,
    load: &ServeLoad,
    entry: u16,
    entry_takes_id: bool,
) -> Result<(), ExecError> {
    loop {
        if ctx.coord.halted() {
            return Ok(());
        }
        // Join any pending handshake before taking new work: the leader
        // is waiting on this thread.
        if ctx.vm.gc_request.load(R) {
            if !park(ctx, None) {
                return Ok(());
            }
            continue;
        }
        // Prefer resuming a queued green over admitting a new request.
        let queued = locked(&shared.run_queue).pop_front();
        if let Some(mut g) = queued {
            // Reload the snapshot: a collection while queued rewrote it.
            reload(ctx, &mut g.mu);
            match run_mutator(ctx, &mut g.mu, &mut g.fuel, Some(ctx.options.quantum))? {
                MutatorExit::Descheduled => {
                    // The deposited snapshot keeps the green traceable
                    // while it is queued.
                    deposit(ctx, &mut g.mu)?;
                    locked(&shared.run_queue).push_back(g);
                }
                MutatorExit::Finished => finish_green(ctx, shared, g),
                MutatorExit::Halted => return Ok(()),
            }
            continue;
        }
        // Admit a burst of new requests.
        let mut admitted = 0usize;
        while admitted < load.burst.max(1) {
            match admit_one(ctx, shared, load, entry, entry_takes_id) {
                Some(g) => {
                    locked(&shared.run_queue).push_back(g);
                    admitted += 1;
                }
                None => break,
            }
        }
        if admitted > 0 {
            continue;
        }
        if shared.completed.load(R) >= load.requests {
            return Ok(());
        }
        if starved_by_zombies(ctx, shared, load) {
            // Every free slot is an uncollected zombie: force a cycle to
            // evacuate and reset them.
            if try_lead(ctx) {
                shared.forced_collections.fetch_add(1, R);
                if !lead(ctx, None, true)? {
                    return Ok(());
                }
            } else if !park(ctx, None) {
                return Ok(());
            }
            continue;
        }
        // Other threads hold the remaining work; let them run.
        std::thread::yield_now();
    }
}

/// The allocation-service executor: a shared region-enabled machine, a
/// runtime configuration and a request load.
pub struct ServeExecutor {
    /// The shared machine (must have `region_words > 0`).
    pub vm: ParMachine,
    /// Runtime configuration.
    pub options: RuntimeOptions,
    /// Workload shape.
    pub load: ServeLoad,
}

impl ServeExecutor {
    /// Wraps a machine and a load.
    #[must_use]
    pub fn new(
        vm: ParMachine,
        options: impl Into<RuntimeOptions>,
        load: ServeLoad,
    ) -> ServeExecutor {
        ServeExecutor { vm, options: options.into(), load }
    }

    /// The effective configuration this executor will run with.
    #[must_use]
    pub fn config_view(&self) -> ServeConfigView {
        ServeConfigView {
            threads: self.options.threads.max(1),
            green_slots: self.vm.mutators(),
            region_words: self.vm.region_words(),
            tlab_words: self.options.tlab_words,
            quantum: self.options.quantum.max(1),
        }
    }

    /// Serves `load.requests` requests and returns the run's outcome.
    ///
    /// # Errors
    ///
    /// The first trap, fuel/advance exhaustion or oracle violation of
    /// any request (other threads are halted at their next check).
    ///
    /// # Panics
    ///
    /// Panics if the machine has no regions (`region_words == 0`), the
    /// handler procedure is unknown, or it takes more than one argument.
    pub fn run(&mut self) -> Result<ServeOutcome, ExecError> {
        assert!(self.vm.region_words() > 0, "serve mode needs per-request regions");
        let vm = &self.vm;
        let greens = vm.mutators();
        let threads = self.options.threads.max(1);
        let entry = match &self.load.entry {
            None => vm.module.main,
            Some(name) => {
                let idx = vm
                    .module
                    .procs
                    .iter()
                    .position(|p| p.name == *name)
                    .unwrap_or_else(|| panic!("unknown handler procedure `{name}`"));
                u16::try_from(idx).expect("procedure index fits u16")
            }
        };
        let n_args = vm.module.procs[entry as usize].n_args;
        assert!(n_args <= 1, "handler procedure must take 0 or 1 argument");
        let entry_takes_id = n_args == 1;

        let ctx = RunCtx::new(vm, self.options, greens, threads, None);
        let shared = ServeShared {
            run_queue: Mutex::new(VecDeque::new()),
            free_slots: Mutex::new((0..greens).collect()),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            latencies_us: Mutex::new(Vec::with_capacity(self.load.requests as usize)),
            outputs: Mutex::new(vec![String::new(); self.load.requests as usize]),
            steps: AtomicU64::new(0),
            regions_created: AtomicU64::new(0),
            regions_reclaimed_fast: AtomicU64::new(0),
            region_words_reclaimed_fast: AtomicU64::new(0),
            regions_zombied: AtomicU64::new(0),
            forced_collections: AtomicU64::new(0),
        };

        let t0 = Instant::now();
        ctx.scoped(|_| scheduler_loop(&ctx, &shared, &self.load, entry, entry_takes_id))?;
        let elapsed = t0.elapsed();

        let gc_each = ctx.gc_log.into_inner().unwrap();
        let mut pauses: Vec<u64> = gc_each
            .iter()
            .map(|g| u64::try_from(g.total_time.as_micros()).unwrap_or(u64::MAX))
            .collect();
        pauses.sort_unstable();
        let mut lats = shared.latencies_us.into_inner().unwrap();
        lats.sort_unstable();
        let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        let completed = shared.completed.load(R);
        let words_allocated = vm.words_allocated.load(R);

        let stats = ServeStats {
            requests: completed,
            elapsed,
            requests_per_sec: completed as f64 / secs,
            allocations: vm.allocations.load(R),
            words_allocated,
            alloc_words_per_sec: words_allocated as f64 / secs,
            steps: shared.steps.load(R),
            collections: vm.collections.load(R),
            forced_collections: shared.forced_collections.load(R),
            pause_p50_us: percentile(&pauses, 0.50),
            pause_p99_us: percentile(&pauses, 0.99),
            pause_max_us: pauses.last().copied().unwrap_or(0),
            latency_p50_us: percentile(&lats, 0.50),
            latency_p99_us: percentile(&lats, 0.99),
            latency_max_us: lats.last().copied().unwrap_or(0),
            regions_created: shared.regions_created.load(R),
            regions_reclaimed_fast: shared.regions_reclaimed_fast.load(R),
            region_words_reclaimed_fast: shared.region_words_reclaimed_fast.load(R),
            regions_zombied: shared.regions_zombied.load(R),
            region_allocs: vm.region_allocs.load(R),
            region_alloc_words: vm.region_alloc_words.load(R),
            region_escapes: vm.region_escapes.load(R),
            region_words_promoted: gc_each.iter().map(|g| g.region_words_promoted).sum(),
            region_words_reset: gc_each.iter().map(|g| g.region_words_reset).sum(),
            parked_at_safepoints: gc_each.iter().map(|g| g.stacks_traced).sum(),
            tlab_refills: vm.tlab_refills.load(R),
            tlab_allocs: vm.tlab_allocs.load(R),
            tlab_waste_words: vm.tlab_waste_words.load(R),
        };
        Ok(ServeOutcome { stats, outputs: shared.outputs.into_inner().unwrap(), gc_each })
    }
}
