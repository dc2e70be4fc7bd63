//! Round-robin execution with the §5.3 collection protocol.
//!
//! Threads run in fixed quanta (simulated pre-emption). When a thread's
//! allocation fails, a collection becomes pending; all other threads are
//! resumed and run until each blocks at a gc-point (bounded, thanks to
//! loop gc-points), then the collector runs and everyone resumes.

use std::sync::Arc;

use m3gc_core::decode::{DecodeCache, DecodeError};
use m3gc_core::stats::{BarrierCounters, GcKind};
use m3gc_jit::{JitEngine, JitSummary};
use m3gc_vm::machine::{Machine, RunOutcome, ThreadStatus, VmTrap};

use crate::collector::{self, GcStats};
use crate::gengc;
use crate::options::RuntimeOptions;
use crate::trace::StackWatermarks;

/// What happens when a collection is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GcMode {
    /// Real compacting collection.
    #[default]
    Full,
    /// Decode tables and walk stacks but move nothing (§6.3's "collection
    /// being a stack trace"). Only useful with forced collections and a
    /// heap large enough to never fill.
    TraceOnly,
    /// Do nothing at collection events (§6.3's "null call" baseline).
    Null,
}

/// Result of running a program to completion.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Program output.
    pub output: String,
    /// Collections performed.
    pub collections: u64,
    /// Minor collections performed (generational heaps only).
    pub minor_collections: u64,
    /// Major collections performed (generational heaps only).
    pub major_collections: u64,
    /// Aggregate collection statistics.
    pub gc_total: GcStats,
    /// Per-collection statistics.
    pub gc_each: Vec<GcStats>,
    /// Write-barrier counters accumulated over the run.
    pub barrier: BarrierCounters,
    /// Remembered-set size at the end of the run.
    pub remembered_len: usize,
    /// Instructions executed.
    pub steps: u64,
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A thread trapped.
    Trap(VmTrap),
    /// The instruction budget ran out.
    OutOfFuel,
    /// A thread failed to reach a gc-point within the advance budget
    /// (missing loop gc-points).
    StuckThread {
        /// The offending thread.
        thread: usize,
    },
    /// The gc-map precision oracle found a table entry contradicting the
    /// shadow ground truth (see `crate::oracle`).
    Oracle(String),
    /// A gc worker panicked inside a stop-the-world copy (a collector
    /// bug, not a program error). The collection was abandoned and the
    /// run halted; the heap is not in a usable state.
    GcWorkerPanic {
        /// The worker that died (0 is the thread that led the pause).
        worker: usize,
        /// What it was doing: `un-derive`, `copy` or `re-derive` in a
        /// stop-the-world copy, `pause` for the leader's other work,
        /// `mark` or `conc-copy` for cms's concurrent workers.
        phase: &'static str,
        /// The panic message.
        message: String,
    },
    /// A mutator (or serve scheduler) thread panicked (a runtime bug,
    /// not a program error). The handshake was released and the run
    /// halted.
    MutatorPanic {
        /// The thread that died.
        thread: usize,
        /// The panic message.
        message: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Trap(t) => write!(f, "program trapped: {t}"),
            ExecError::OutOfFuel => write!(f, "instruction budget exhausted"),
            ExecError::StuckThread { thread } => {
                write!(f, "thread {thread} failed to reach a gc-point")
            }
            ExecError::Oracle(msg) => write!(f, "gc-map oracle violation: {msg}"),
            ExecError::GcWorkerPanic { worker, phase, message } => {
                write!(f, "gc worker {worker} panicked during {phase}: {message}")
            }
            ExecError::MutatorPanic { thread, message } => {
                write!(f, "mutator thread {thread} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The executor: a machine plus scheduling state.
pub struct Executor {
    /// The machine.
    pub machine: Machine,
    /// Configuration.
    pub options: RuntimeOptions,
    /// Per-collection statistics.
    pub gc_each: Vec<GcStats>,
    /// Memoizing decode cache over the module's gc maps, built once at
    /// load and bound to the machine's module token: across all the
    /// collections of a run, each gc-point's tables decode at most once.
    cache: DecodeCache,
    /// Per-thread stack watermark caches: minor collections splice the
    /// unchanged cold suffix of each stack instead of rescanning it.
    /// Verification (splice vs. full rescan) is armed whenever the
    /// oracle is.
    watermarks: StackWatermarks,
    next_forced: Option<u64>,
    /// What threads run on: the native baseline engine under `--jit`,
    /// an engine with no native code (the interpreter) otherwise. The
    /// collectors never see this — JIT frames resolve to bytecode pcs
    /// through the machine's installed code map.
    engine: Box<JitEngine>,
}

impl Executor {
    /// Wraps a machine.
    ///
    /// # Panics
    ///
    /// Panics if the module's gc maps are malformed (they come from the
    /// compiler, so this is a bug). Use [`Executor::try_new`] to handle
    /// the error instead.
    #[must_use]
    pub fn new(machine: Machine, options: impl Into<RuntimeOptions>) -> Executor {
        Self::try_new(machine, options).expect("valid gc maps")
    }

    /// Wraps a machine, surfacing gc-map decode failures.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the module's encoded gc tables are
    /// malformed.
    pub fn try_new(
        mut machine: Machine,
        options: impl Into<RuntimeOptions>,
    ) -> Result<Executor, DecodeError> {
        let options = options.into();
        let next_forced = options.force_every_allocs.map(|n| n.max(1));
        machine.set_force_gc_after(next_forced);
        let mut cache = DecodeCache::build(&machine.module.gc_maps)?;
        cache.bind_module(machine.module_token());
        let watermarks = StackWatermarks::new(options.oracle);
        let engine = Box::new(if options.jit {
            let engine = JitEngine::for_machine(&machine);
            machine.set_code_map(engine.code_map());
            engine
        } else {
            JitEngine::interpreter(Arc::clone(machine.decoded()))
        });
        Ok(Executor {
            machine,
            options,
            gc_each: Vec::new(),
            cache,
            watermarks,
            next_forced,
            engine,
        })
    }

    /// A snapshot of the JIT engine's statistics, if `--jit` was set.
    #[must_use]
    pub fn jit_summary(&self) -> Option<JitSummary> {
        self.options.jit.then(|| self.engine.summary())
    }

    /// Test hook: corrupts one native return-address key in the code
    /// map (see `JitEngine::corrupt_gc_point_key`) and installs the
    /// corrupted map on the machine, returning the key's (old, new)
    /// native offsets. Returns `None` without `--jit` or when `idx` is
    /// out of range.
    #[doc(hidden)]
    pub fn corrupt_jit_gc_point(&mut self, idx: usize, delta: i32) -> Option<(u32, u32)> {
        if !self.options.jit || idx >= self.engine.code_map().gc_points().len() {
            return None;
        }
        let (map, swapped) = self.engine.corrupt_gc_point_key(idx, delta);
        self.machine.set_code_map(map);
        Some(swapped)
    }

    /// Runs `tid` for up to `fuel` instructions.
    fn run_thread(&mut self, tid: usize, fuel: u64) -> RunOutcome {
        self.engine.run_thread(&mut self.machine, tid, fuel)
    }

    /// The decode cache (for inspecting hit/miss counters and memo size).
    #[must_use]
    pub fn decode_cache(&self) -> &DecodeCache {
        &self.cache
    }

    /// Spawns the module's main procedure as thread 0 and runs to
    /// completion.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on trap, fuel exhaustion, heap exhaustion
    /// or a stuck thread.
    pub fn run_main(&mut self) -> Result<ExecOutcome, ExecError> {
        let main = self.machine.module.main;
        self.machine.spawn(main, &[]);
        self.run()
    }

    /// Brings every non-finished thread to a gc-point.
    fn advance_all(&mut self) -> Result<(), ExecError> {
        debug_assert!(self.machine.gc_pending);
        for tid in 0..self.machine.threads.len() {
            if self.machine.threads[tid].status != ThreadStatus::Runnable {
                continue;
            }
            match self.run_thread(tid, self.options.max_advance) {
                RunOutcome::AtGcPoint | RunOutcome::Finished | RunOutcome::NeedGc => {}
                RunOutcome::OutOfFuel => return Err(ExecError::StuckThread { thread: tid }),
                RunOutcome::Trap(t) => return Err(ExecError::Trap(t)),
            }
        }
        Ok(())
    }

    fn do_collection(&mut self) -> Result<(), ExecError> {
        if self.options.oracle && self.machine.shadow.is_some() {
            crate::oracle::check(&self.machine, &mut self.cache).map_err(ExecError::Oracle)?;
        }
        let stats = match self.options.gc_mode {
            GcMode::Full if self.machine.is_generational() => {
                gengc::collect_with(&mut self.machine, &mut self.cache, Some(&mut self.watermarks))
                    .map_err(ExecError::Trap)?
            }
            GcMode::Full => {
                // Full semispace collections always rescan; keep the
                // watermark state cold so a later mode switch cannot
                // splice stale frames.
                self.watermarks.invalidate_all();
                collector::collect(&mut self.machine, &mut self.cache)
            }
            // No flip happens in these modes: pretend a collection
            // happened at the same spot and release the threads by hand.
            GcMode::TraceOnly => {
                let s = collector::trace_only(&mut self.machine, &mut self.cache);
                self.machine.release_blocked_threads();
                self.machine.collections += 1;
                s
            }
            GcMode::Null => {
                self.machine.release_blocked_threads();
                self.machine.collections += 1;
                GcStats::default()
            }
        };
        self.gc_each.push(stats);
        Ok(())
    }

    /// Runs until every thread finishes.
    ///
    /// # Errors
    ///
    /// See [`Executor::run_main`].
    pub fn run(&mut self) -> Result<ExecOutcome, ExecError> {
        let mut fuel = self.options.fuel;
        let mut last_gc_allocations: Option<u64> = None;
        'sched: loop {
            for tid in 0..self.machine.threads.len() {
                if self.machine.threads[tid].status != ThreadStatus::Runnable {
                    continue;
                }
                let quantum = self.options.quantum.min(fuel);
                if quantum == 0 {
                    return Err(ExecError::OutOfFuel);
                }
                let before = self.machine.steps;
                let r = self.run_thread(tid, quantum);
                fuel = fuel.saturating_sub(self.machine.steps - before);
                match r {
                    RunOutcome::Finished | RunOutcome::OutOfFuel | RunOutcome::AtGcPoint => {}
                    RunOutcome::Trap(t) => return Err(ExecError::Trap(t)),
                    RunOutcome::NeedGc => {
                        let forced =
                            self.next_forced.is_some_and(|n| self.machine.allocations >= n);
                        if forced {
                            let every =
                                self.options.force_every_allocs.expect("forced implies configured");
                            self.next_forced = Some(self.machine.allocations + every.max(1));
                            self.machine.set_force_gc_after(self.next_forced);
                        } else if last_gc_allocations == Some(self.machine.allocations) {
                            // No allocation progress since the previous
                            // (real) collection. On a generational heap a
                            // fruitless minor escalates to a major before
                            // giving up; a fruitless major is the end.
                            let last_major =
                                self.gc_each.last().is_some_and(|s| s.kind == GcKind::Major);
                            if self.machine.is_generational() && !last_major {
                                self.machine.wants_major_gc = true;
                            } else {
                                return Err(ExecError::Trap(VmTrap::OutOfMemory));
                            }
                        } else {
                            last_gc_allocations = Some(self.machine.allocations);
                        }
                        self.advance_all()?;
                        self.do_collection()?;
                    }
                }
                continue 'sched;
            }
            break;
        }
        let gc_total = self.gc_each.iter().fold(GcStats::default(), |mut acc, s| {
            acc.objects_copied += s.objects_copied;
            acc.words_copied += s.words_copied;
            acc.promoted_objects += s.promoted_objects;
            acc.promoted_words += s.promoted_words;
            acc.remembered_processed += s.remembered_processed;
            acc.remembered_added += s.remembered_added;
            acc.roots += s.roots;
            acc.derived_updated += s.derived_updated;
            acc.frames_traced += s.frames_traced;
            acc.frames_spliced += s.frames_spliced;
            acc.decode_hits += s.decode_hits;
            acc.decode_misses += s.decode_misses;
            acc.decode_ops += s.decode_ops;
            acc.trace_time += s.trace_time;
            acc.total_time += s.total_time;
            acc
        });
        Ok(ExecOutcome {
            output: self.machine.output.clone(),
            collections: self.gc_each.len() as u64,
            minor_collections: self.gc_each.iter().filter(|s| s.kind == GcKind::Minor).count()
                as u64,
            major_collections: self.gc_each.iter().filter(|s| s.kind == GcKind::Major).count()
                as u64,
            gc_total,
            gc_each: self.gc_each.clone(),
            barrier: self.machine.barrier,
            remembered_len: self.machine.remembered_len(),
            steps: self.machine.steps,
        })
    }
}
