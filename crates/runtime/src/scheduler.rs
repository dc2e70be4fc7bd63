//! The sequential executor: one thread on the sequential machine.
//!
//! The thread runs until it finishes, traps, or its allocation finds
//! the heap full. That allocation is a gc-point, and nothing else runs,
//! so the collector runs right there and the allocation is retried.
//! Several threads, and §5.3's wait for each to reach a gc-point, are
//! the parallel runtime's (`crate::parallel`, `crate::safepoint`).

use std::sync::Arc;

use m3gc_core::decode::{DecodeCache, DecodeError};
use m3gc_core::stats::{BarrierCounters, GcKind};
use m3gc_jit::{JitEngine, JitSummary};
use m3gc_vm::exec::Step;
use m3gc_vm::machine::{Machine, VmTrap};

use crate::collector::{self, GcStats};
use crate::gengc;
use crate::options::{OptionsError, RuntimeOptions};

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
    /// The runtime options cannot run together
    /// ([`RuntimeOptions::check`]); nothing ran.
    Options(OptionsError),
    /// The serve executor cannot serve: its machine has no per-request
    /// regions, or the handler procedure is unknown or takes more than
    /// the one request-id argument. Nothing ran.
    Serve(String),
    /// A thread trapped.
    Trap(VmTrap),
    /// The instruction budget ran out.
    OutOfFuel,
    /// A parallel mutator failed to reach a gc-point within the advance
    /// budget (missing loop gc-points).
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
        /// `mark` for cms's concurrent marker (the coordinator, worker 0).
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
            ExecError::Options(e) => e.fmt(f),
            ExecError::Serve(msg) => write!(f, "cannot serve: {msg}"),
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

impl From<OptionsError> for ExecError {
    fn from(e: OptionsError) -> ExecError {
        ExecError::Options(e)
    }
}

/// The executor: a machine plus its collection state.
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
    next_forced: Option<u64>,
    /// What the thread runs on: the native baseline engine under `--jit`,
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
        let next_forced = options.force_every_allocs;
        machine.set_force_gc_after(next_forced);
        let mut cache = DecodeCache::build(&machine.module.gc_maps)?;
        cache.bind_module(machine.module_token());
        let engine = Box::new(if options.jit {
            let engine = JitEngine::for_machine(&machine);
            machine.set_code_map(engine.code_map());
            engine
        } else {
            JitEngine::interpreter(Arc::clone(machine.decoded()))
        });
        Ok(Executor { machine, options, gc_each: Vec::new(), cache, next_forced, engine })
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

    /// The decode cache (for inspecting hit/miss counters and memo size).
    #[must_use]
    pub fn decode_cache(&self) -> &DecodeCache {
        &self.cache
    }

    fn do_collection(&mut self) -> Result<(), ExecError> {
        if self.options.oracle && self.machine.shadow.is_some() {
            crate::oracle::check(&self.machine, &mut self.cache).map_err(ExecError::Oracle)?;
        }
        let stats = match self.options.gc_mode {
            GcMode::Full if self.machine.is_generational() => {
                gengc::collect(&mut self.machine, &mut self.cache).map_err(ExecError::Trap)?
            }
            GcMode::Full => collector::collect(&mut self.machine, &mut self.cache),
            // No flip happens in these modes: count a collection at the
            // same spot by hand.
            GcMode::TraceOnly => {
                let s = collector::trace_only(&mut self.machine, &mut self.cache);
                self.machine.collections += 1;
                s
            }
            GcMode::Null => {
                self.machine.collections += 1;
                GcStats::default()
            }
        };
        self.gc_each.push(stats);
        Ok(())
    }

    /// Runs the module's main procedure to completion: the thread runs
    /// on all the fuel it has left, and each time its allocation finds
    /// the heap full, the collection policy runs and the thread resumes.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on options that fail
    /// [`RuntimeOptions::check`], a bottom frame that does not fit the
    /// stack, a trap, fuel exhaustion or heap exhaustion.
    pub fn run_main(&mut self) -> Result<ExecOutcome, ExecError> {
        self.options.check()?;
        let main = self.machine.module.main;
        self.machine.spawn(main, &[]).map_err(ExecError::Trap)?;
        let mut fuel = self.options.fuel;
        let mut last_gc_allocations: Option<u64> = None;
        loop {
            let before = self.machine.steps;
            let step = self.engine.run_thread(&mut self.machine, fuel);
            // Native code checks fuel only at polls, back-edges and calls,
            // so a burst may run a little past it.
            fuel = fuel.saturating_sub(self.machine.steps - before);
            match step {
                Step::Finished => break,
                Step::Normal => return Err(ExecError::OutOfFuel),
                Step::Trap(t) => return Err(ExecError::Trap(t)),
                Step::AtSafepoint => unreachable!("nothing requests a collection on this machine"),
                Step::NeedGc => {
                    let forced = self.next_forced.is_some_and(|n| self.machine.allocations >= n);
                    if forced {
                        let every =
                            self.options.force_every_allocs.expect("forced implies configured");
                        self.next_forced = Some(self.machine.allocations + every);
                        self.machine.set_force_gc_after(self.next_forced);
                    } else if last_gc_allocations == Some(self.machine.allocations) {
                        // No allocation progress since the previous (real)
                        // collection. On a generational heap a fruitless
                        // minor escalates to a major before giving up; a
                        // fruitless major is the end.
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
                    self.do_collection()?;
                }
            }
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
