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

impl GcStrategy {
    /// The `m3c` flag that selects this collector.
    fn flag(self) -> &'static str {
        match self {
            GcStrategy::Semispace => "--gc semispace",
            GcStrategy::Generational => "--gc gen",
            GcStrategy::Parallel => "--gc par",
            GcStrategy::Cms => "--gc cms",
        }
    }
}

/// Unified, builder-style runtime configuration.
///
/// Construct with [`RuntimeOptions::new`] and chain the setters; every
/// field is also public for direct access. One struct drives every
/// execution mode (`m3c run`, `m3c serve`, the fuzz executor, the
/// ledger). The builders accept any value; [`RuntimeOptions::check`]
/// holds every rule about which values can run together, and every
/// entry point that runs a program — the compiler's `run_module_*`, the
/// three executors, the fuzzer and `m3c` — applies it before the first
/// instruction, so a contradiction is an [`OptionsError`], never a
/// panic or a silently ignored field.
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

    /// Nursery half size in words. Only [`GcStrategy::Generational`]
    /// has a nursery: [`RuntimeOptions::check`] rejects one under any
    /// other strategy, and one outside `8..=semi_words`.
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
            mutators: if serve { self.green_slots.max(self.threads) } else { self.threads },
            tlab_words: self.tlab_words,
            region_words: self.region_words,
        }
    }

    /// Checks that these options can run: every rule about which values
    /// go together, stated once, in this order:
    ///
    /// * at least one thread and one gc worker;
    /// * green slots need per-request regions (`region_words > 0`), and
    ///   only [`GcStrategy::Parallel`] runs regions, without a nursery;
    /// * a sequential collector ([`GcStrategy::Semispace`],
    ///   [`GcStrategy::Generational`]) runs one thread;
    /// * only [`GcStrategy::Generational`] has a nursery, and the nursery
    ///   (given, or the default of [`HeapStrategy::generational_for`])
    ///   lies in `8..=semi_words`;
    /// * forced collections come at most once per allocation
    ///   (`force_every_allocs` is not `Some(0)`);
    /// * the heap, stacks and regions fit a 2⁴⁷-byte address space.
    ///
    /// A layout below that bound that the host still refuses to map
    /// aborts when the machine is built, as any failed allocation does.
    ///
    /// # Errors
    ///
    /// The first rule broken.
    pub fn check(&self) -> Result<(), OptionsError> {
        use GcStrategy::{Generational, Parallel, Semispace};
        let nursery_words = match self.heap_strategy() {
            HeapStrategy::Generational { nursery_words, .. } => nursery_words,
            HeapStrategy::Semispace => 0,
        };
        let sequential = matches!(self.strategy, Semispace | Generational);
        let stacks = if sequential {
            self.stack_words as u128
        } else {
            self.par_layout().mutators as u128
                * (self.stack_words as u128 + self.region_words as u128)
        };
        let bytes = 8 * (stacks + 2 * (nursery_words as u128 + self.semi_words as u128));
        let regions = self.region_words > 0;
        let rules = [
            (self.threads == 0, OptionsError::Zero("--threads")),
            (self.gc_workers == 0, OptionsError::Zero("--gc-workers")),
            (self.green_slots > 0 && !regions, OptionsError::Requires("--green", "--region-words")),
            (regions && self.strategy != Parallel, OptionsError::Regions(self.strategy.flag())),
            (regions && self.nursery_words.is_some(), OptionsError::Regions("--nursery")),
            (
                sequential && self.threads > 1,
                OptionsError::Requires("--threads", "--gc par or --gc cms"),
            ),
            (
                self.nursery_words.is_some() && self.strategy != Generational,
                OptionsError::Requires("--nursery", "--gc gen"),
            ),
            (
                self.strategy == Generational && !(8..=self.semi_words).contains(&nursery_words),
                OptionsError::Nursery {
                    given: self.nursery_words,
                    nursery_words,
                    semi_words: self.semi_words,
                },
            ),
            (self.force_every_allocs == Some(0), OptionsError::Zero("force_every_allocs")),
            (
                bytes > ADDRESS_SPACE_BYTES,
                OptionsError::TooLarge { semi_words: self.semi_words, bytes },
            ),
        ];
        rules.into_iter().find_map(|(broken, e)| broken.then_some(e)).map_or(Ok(()), Err)
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

/// The bytes of a 47-bit user address space: no machine larger than
/// this can be mapped on any host the runtime targets.
const ADDRESS_SPACE_BYTES: u128 = 1 << 47;

/// Why a [`RuntimeOptions`] value cannot run, as found by
/// [`RuntimeOptions::check`]. Each message names the fields by the `m3c`
/// flags that set them.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OptionsError {
    /// A count that must be at least 1 is 0: `threads`, `gc_workers` or
    /// `force_every_allocs` (named by its flag, or by the field where no
    /// flag sets it).
    Zero(&'static str),
    /// The first field is set, and what the second names is not.
    Requires(&'static str, &'static str),
    /// Per-request regions with what cannot run them: a collector other
    /// than [`GcStrategy::Parallel`], or a nursery (named by its flag).
    Regions(&'static str),
    /// The generational nursery lies outside `8..=semi_words`.
    Nursery {
        /// `nursery_words`, when given (otherwise the default applies).
        given: Option<usize>,
        /// The nursery the machine would lay out.
        nursery_words: usize,
        /// Words per tenured semispace.
        semi_words: usize,
    },
    /// The machine would need more bytes than an address space holds.
    TooLarge {
        /// Words per semispace.
        semi_words: usize,
        /// The bytes the heap, stacks and regions need together.
        bytes: u128,
    },
}

impl std::fmt::Display for OptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            OptionsError::Zero(flag) => write!(f, "bad {flag} value `0` (at least 1 is needed)"),
            OptionsError::Requires(flag, needs) => write!(f, "{flag} requires {needs}"),
            OptionsError::Regions(what) => write!(
                f,
                "{what} cannot be combined with serve or --region-words (per-request regions \
                 need --gc par)"
            ),
            OptionsError::Nursery { given, nursery_words, semi_words } => {
                let (flag, value) = given.map_or(("--heap", semi_words), |n| ("--nursery", n));
                write!(
                    f,
                    "{flag} {value} gives --gc gen a {nursery_words}-word nursery, but it needs \
                     8 <= nursery <= --heap ({semi_words})"
                )
            }
            OptionsError::TooLarge { semi_words, bytes } => write!(
                f,
                "--heap {semi_words} needs {bytes} bytes with its stacks and regions, more than \
                 a 2^47-byte address space holds"
            ),
        }
    }
}

impl std::error::Error for OptionsError {}

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

    /// One row per rule, each breaking only that one, and the option
    /// shapes the ledger runs, which break none.
    #[test]
    fn check_states_each_rule_once() {
        use GcStrategy::{Cms, Generational, Parallel};
        let o = RuntimeOptions::new;
        let nursery = |given, nursery_words, semi_words| OptionsError::Nursery {
            given,
            nursery_words,
            semi_words,
        };
        let too_large = |semi_words, bytes| OptionsError::TooLarge { semi_words, bytes };
        let cases = [
            (o().strategy(Parallel).threads(0), OptionsError::Zero("--threads")),
            (o().gc_workers(0), OptionsError::Zero("--gc-workers")),
            (
                o().strategy(Parallel).serve(0, 2),
                OptionsError::Requires("--green", "--region-words"),
            ),
            (o().serve(64, 2), OptionsError::Regions("--gc semispace")),
            (o().strategy(Generational).serve(64, 0), OptionsError::Regions("--gc gen")),
            (o().strategy(Cms).serve(64, 2), OptionsError::Regions("--gc cms")),
            (
                o().strategy(Parallel).serve(64, 2).nursery_words(64),
                OptionsError::Regions("--nursery"),
            ),
            (o().threads(2), OptionsError::Requires("--threads", "--gc par or --gc cms")),
            (
                o().strategy(Generational).threads(4),
                OptionsError::Requires("--threads", "--gc par or --gc cms"),
            ),
            (o().strategy(Cms).nursery_words(64), OptionsError::Requires("--nursery", "--gc gen")),
            (o().strategy(Generational).nursery_words(7), nursery(Some(7), 7, 1 << 16)),
            (
                o().strategy(Generational).semi_words(64).nursery_words(65),
                nursery(Some(65), 65, 64),
            ),
            (o().strategy(Generational).semi_words(63), nursery(None, 64, 63)),
            (o().force_every_allocs(Some(0)), OptionsError::Zero("force_every_allocs")),
            (
                o().semi_words((1 << 43) + 1).stack_words(0),
                too_large((1 << 43) + 1, (1 << 47) + 16),
            ),
        ];
        for (options, want) in cases {
            assert_eq!(options.check(), Err(want.clone()), "{options:?}");
            assert!(!want.to_string().is_empty());
        }
        let ledger = [
            o().semi_words(96_000).stack_words(1 << 14),
            o().strategy(Generational).semi_words(96_000).nursery_words(2048),
            o().strategy(Parallel).semi_words(1 << 16).threads(1).gc_workers(4),
            o().strategy(Cms).semi_words(1 << 16).threads(1).gc_workers(1),
            o().strategy(Parallel).threads(2).gc_workers(2).serve(4096, 32),
            o().strategy(Generational).semi_words(64).torture(true),
            o().semi_words((1 << 43) - (1 << 13)).stack_words(1 << 14),
        ];
        for options in ledger {
            assert_eq!(options.check(), Ok(()), "{options:?}");
        }
    }

    #[test]
    fn cms_strategy_enables_cms_heap() {
        let o = RuntimeOptions::new().strategy(GcStrategy::Cms);
        assert_eq!(o.heap_strategy(), HeapStrategy::Semispace);
    }
}
