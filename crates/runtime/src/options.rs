//! The unified runtime configuration: one builder-style options struct
//! for every execution mode.
//!
//! Historically each layer grew its own knob struct (`ExecConfig`,
//! `ParConfig`, `MachineConfig`, `ParMachineConfig`, a driver-private
//! `RunConfig`); [`RuntimeOptions`] subsumed all of them and the
//! deprecated shims have since been removed. CI guards against new
//! per-layer `*Config` structs growing back.
//!
//! ```
//! use m3gc_runtime::{GcStrategy, RuntimeOptions};
//!
//! let opts = RuntimeOptions::new()
//!     .strategy(GcStrategy::Parallel)
//!     .semi_words(1 << 16)
//!     .threads(4)
//!     .gc_workers(2)
//!     .oracle(true);
//! assert_eq!(opts.threads, 4);
//! ```

use m3gc_vm::machine::{HeapStrategy, MachineLayout};
use m3gc_vm::par::ParLayout;
use m3gc_vm::{Machine, ParMachine, VmModule, DEFAULT_TLAB_WORDS};

use crate::scheduler::GcMode;

/// Which collector the runtime drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GcStrategy {
    /// Two semispaces, full-heap collections, one thread (the seed
    /// behaviour).
    #[default]
    Semispace,
    /// Nursery + tenured generations with an SSB remembered set.
    Generational,
    /// OS-thread mutators with stop-the-world parallel collection.
    Parallel,
    /// OS-thread mutators with concurrent SATB marking: the run's
    /// coordinator thread traces while mutators execute, and only
    /// evacuation remains stop-the-world (see `--gc cms`).
    Cms,
}

/// Unified, builder-style runtime configuration.
///
/// Construct with [`RuntimeOptions::new`] and chain the setters; every
/// field is also public for direct access. One struct drives every
/// execution mode (`m3c run`, `m3c serve`, the fuzz executor, the
/// ledger). The builders are permissive — a field the selected
/// [`GcStrategy`] has no use for is not consulted — because harnesses
/// configure several strategies from one template; the `m3c` command
/// line is not: there, a flag that contradicts `--gc` is a usage error.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeOptions {
    /// Collector / execution strategy.
    pub strategy: GcStrategy,
    /// Words per heap semispace (the tenured generation under
    /// [`GcStrategy::Generational`]).
    pub semi_words: usize,
    /// Words per thread (or green-request) stack.
    pub stack_words: usize,
    /// OS mutator threads ([`GcStrategy::Parallel`]).
    pub threads: usize,
    /// Gc worker threads per stop-the-world collection. Defaults to the
    /// host's parallelism, capped at 4: workers beyond the cores only
    /// take turns.
    pub gc_workers: usize,
    /// Words per thread-local allocation buffer (0 disables TLABs) for
    /// the parallel machine, serve's region overflow included. Kept as
    /// an option so one binary can A/B the TLAB against a shared-frontier
    /// CAS per object (EXPERIMENTS.md A17).
    pub tlab_words: usize,
    /// Words per nursery half (`None` = a quarter semispace), used by
    /// [`GcStrategy::Generational`].
    pub nursery_words: Option<usize>,
    /// Words per per-request region (allocation-service mode; 0 = off).
    pub region_words: usize,
    /// Green-request slots multiplexed over `threads` OS threads
    /// (allocation-service mode).
    pub green_slots: usize,
    /// Total instruction budget (per OS thread under
    /// [`GcStrategy::Parallel`]).
    pub fuel: u64,
    /// Max instructions a parallel mutator may run while advancing to a
    /// gc-point.
    pub max_advance: u64,
    /// Collection behaviour at collection events.
    pub gc_mode: GcMode,
    /// Force a collection event every N allocations (gc-torture; `1`
    /// collects at every allocation).
    pub force_every_allocs: Option<u64>,
    /// Instrument the machine with shadow tags (ground truth for the
    /// precision oracle; implied by `oracle`).
    pub shadow: bool,
    /// Run the gc-map precision oracle before every collection.
    pub oracle: bool,
    /// Baseline-compile procedures to native code at load time
    /// (`--jit`); unsupported hosts or procedures fall back to the
    /// interpreter per-procedure.
    pub jit: bool,
    /// Print gc statistics after the program output.
    pub stats: bool,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            strategy: GcStrategy::Semispace,
            semi_words: 1 << 16,
            stack_words: 1 << 15,
            threads: 1,
            gc_workers: std::thread::available_parallelism().map_or(1, |n| n.get().min(4)),
            tlab_words: DEFAULT_TLAB_WORDS,
            nursery_words: None,
            region_words: 0,
            green_slots: 0,
            fuel: 2_000_000_000,
            max_advance: 1_000_000,
            gc_mode: GcMode::Full,
            force_every_allocs: None,
            shadow: false,
            oracle: false,
            jit: false,
            stats: false,
        }
    }
}

impl RuntimeOptions {
    /// Default options (semispace strategy).
    #[must_use]
    pub fn new() -> RuntimeOptions {
        RuntimeOptions::default()
    }

    /// Selects the collector strategy.
    #[must_use]
    pub fn strategy(mut self, s: GcStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Words per heap semispace.
    #[must_use]
    pub fn semi_words(mut self, words: usize) -> Self {
        self.semi_words = words;
        self
    }

    /// Words per thread (or green-request) stack.
    #[must_use]
    pub fn stack_words(mut self, words: usize) -> Self {
        self.stack_words = words;
        self
    }

    /// A no-op: the sequential machine runs one thread. Kept because
    /// `bench/src/cell.rs` and `bench/src/workloads/compile.rs` still
    /// call it and `bench/` is frozen; it goes when a benchmark PR drops
    /// those calls.
    #[must_use]
    pub fn max_threads(self, _n: usize) -> Self {
        self
    }

    /// OS mutator threads (parallel strategy).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Gc worker threads per collection.
    #[must_use]
    pub fn gc_workers(mut self, n: usize) -> Self {
        self.gc_workers = n;
        self
    }

    /// A no-op: cms marks on its coordinator thread alone (DESIGN.md,
    /// *Retired: parallel marking*). Kept because
    /// `bench/src/workloads/gc.rs` still calls it and `bench/` is frozen;
    /// it goes when a benchmark PR drops that call.
    #[must_use]
    pub fn conc_workers(self, _n: usize) -> Self {
        self
    }

    /// A no-op: concurrent evacuation is retired, and every cms cycle
    /// copies in its final pause. Kept because `bench/src/workloads/gc.rs`
    /// still builds its `cms-evac` cell with it and `bench/` is frozen;
    /// it goes when a benchmark PR drops that cell.
    #[must_use]
    pub fn conc_evac(self, _on: bool) -> Self {
        self
    }

    /// TLAB size in words (0 disables TLABs).
    #[must_use]
    pub fn tlab_words(mut self, words: usize) -> Self {
        self.tlab_words = words;
        self
    }

    /// Nursery half size in words (switches nothing by itself; pair
    /// with [`GcStrategy::Generational`]).
    #[must_use]
    pub fn nursery_words(mut self, words: usize) -> Self {
        self.nursery_words = Some(words);
        self
    }

    /// Allocation-service mode: per-request regions of `words` words
    /// across `slots` green-request slots.
    #[must_use]
    pub fn serve(mut self, words: usize, slots: usize) -> Self {
        self.region_words = words;
        self.green_slots = slots;
        self
    }

    /// Total instruction budget.
    #[must_use]
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Max instructions a parallel mutator may run while advancing to a
    /// gc-point.
    #[must_use]
    pub fn max_advance(mut self, n: u64) -> Self {
        self.max_advance = n;
        self
    }

    /// Collection behaviour at collection events.
    #[must_use]
    pub fn gc_mode(mut self, mode: GcMode) -> Self {
        self.gc_mode = mode;
        self
    }

    /// Gc-torture: collect at every allocation.
    #[must_use]
    pub fn torture(mut self, on: bool) -> Self {
        self.force_every_allocs = if on { Some(1) } else { None };
        self
    }

    /// Force a collection event every `n` allocations.
    #[must_use]
    pub fn force_every_allocs(mut self, n: Option<u64>) -> Self {
        self.force_every_allocs = n;
        self
    }

    /// Shadow instrumentation without the oracle (stale-pointer traps).
    #[must_use]
    pub fn shadow(mut self, on: bool) -> Self {
        self.shadow = on;
        self
    }

    /// Arm the gc-map precision oracle (implies shadow instrumentation).
    #[must_use]
    pub fn oracle(mut self, on: bool) -> Self {
        self.oracle = on;
        if on {
            self.shadow = true;
        }
        self
    }

    /// Baseline-compile procedures to native code at load time.
    #[must_use]
    pub fn jit(mut self, on: bool) -> Self {
        self.jit = on;
        self
    }

    /// Print gc statistics after the program output.
    #[must_use]
    pub fn stats(mut self, on: bool) -> Self {
        self.stats = on;
        self
    }

    /// The heap strategy the sequential machine should use.
    #[must_use]
    pub fn heap_strategy(&self) -> HeapStrategy {
        match self.strategy {
            GcStrategy::Generational => match self.nursery_words {
                Some(n) => HeapStrategy::Generational {
                    nursery_words: n,
                    promote_age: HeapStrategy::DEFAULT_PROMOTE_AGE,
                },
                None => HeapStrategy::generational_for(self.semi_words),
            },
            GcStrategy::Semispace | GcStrategy::Parallel | GcStrategy::Cms => {
                HeapStrategy::Semispace
            }
        }
    }

    /// The sequential machine layout these options describe.
    #[must_use]
    pub fn machine_layout(&self) -> MachineLayout {
        MachineLayout {
            semi_words: self.semi_words,
            stack_words: self.stack_words,
            heap: self.heap_strategy(),
        }
    }

    /// The parallel machine layout these options describe. In
    /// allocation-service mode (`region_words > 0`) the mutator slots
    /// are the green-request slots; request allocation bumps regions,
    /// and what overflows a region takes the slot's TLAB.
    #[must_use]
    pub fn par_layout(&self) -> ParLayout {
        let serve = self.region_words > 0;
        ParLayout {
            semi_words: self.semi_words,
            stack_words: self.stack_words,
            mutators: if serve { self.green_slots.max(self.threads).max(1) } else { self.threads },
            tlab_words: self.tlab_words,
            region_words: self.region_words,
        }
    }

    /// Builds a sequential [`Machine`], shadow-instrumented when these
    /// options ask for it.
    #[must_use]
    pub fn build_machine(&self, module: VmModule) -> Machine {
        let mut m = Machine::new(module, self.machine_layout());
        if self.shadow || self.oracle {
            m.enable_shadow();
        }
        m
    }

    /// Builds a shared [`ParMachine`], shadow-instrumented and
    /// cms-enabled when these options ask for it.
    #[must_use]
    pub fn build_par_machine(&self, module: VmModule) -> ParMachine {
        let mut m = ParMachine::new(module, self.par_layout());
        if self.shadow || self.oracle {
            m.enable_shadow();
        }
        if self.strategy == GcStrategy::Cms {
            m.enable_cms();
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let o = RuntimeOptions::new()
            .strategy(GcStrategy::Parallel)
            .semi_words(4096)
            .threads(3)
            .gc_workers(2)
            .tlab_words(16)
            .torture(true)
            .oracle(true);
        assert_eq!(o.semi_words, 4096);
        assert_eq!(o.threads, 3);
        assert_eq!(o.force_every_allocs, Some(1));
        assert!(o.shadow, "oracle implies shadow");
        let l = o.par_layout();
        assert_eq!(l.mutators, 3);
        assert_eq!(l.tlab_words, 16);
        assert_eq!(l.region_words, 0);
    }

    #[test]
    fn default_gc_workers_fit_the_host() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let workers = RuntimeOptions::default().gc_workers;
        assert!((1..=cores.min(4)).contains(&workers), "{workers} worker(s) on {cores} core(s)");
        assert_eq!(RuntimeOptions::new().gc_workers(9).gc_workers, 9, "explicit counts win");
    }

    #[test]
    fn serve_layout_keeps_tlabs() {
        let o = RuntimeOptions::new().strategy(GcStrategy::Parallel).threads(2).serve(256, 8);
        let l = o.par_layout();
        assert_eq!(l.mutators, 8, "slots are green requests in serve mode");
        assert_eq!(l.region_words, 256);
        assert_eq!(l.tlab_words, DEFAULT_TLAB_WORDS, "region overflow goes through TLABs");
    }

    #[test]
    fn generational_nursery_defaults_to_quarter() {
        let o = RuntimeOptions::new().strategy(GcStrategy::Generational).semi_words(4096);
        match o.heap_strategy() {
            HeapStrategy::Generational { nursery_words, .. } => assert_eq!(nursery_words, 1024),
            HeapStrategy::Semispace => panic!("expected generational"),
        }
    }

    #[test]
    fn cms_strategy_enables_cms_heap() {
        let o = RuntimeOptions::new().strategy(GcStrategy::Cms);
        assert_eq!(o.heap_strategy(), HeapStrategy::Semispace);
    }
}
