//! Every frozen constant of the ledger, in one place. The harness
//! prints this table with its results; a change here is a change to
//! the benchmark and needs a fresh baseline.

/// Input sizes of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Label printed with the results.
    pub name: &'static str,
    /// Fuzz programs every run's compile corpus holds (generator seeds
    /// `0..corpus_core`), beside the four paper programs.
    pub corpus_core: u64,
    /// Fuzz programs drawn from the workload seed on top of the core. A
    /// corpus drawn wholly from the seed moved compile time per line
    /// and code bytes per line by 3 % from seed to seed — the bound a
    /// real regression has to clear — and one drawn by a quarter still
    /// spread `code_bytes_per_line` by 1.7 % over seeds 11 to 20, a
    /// third of its bound, so seven eighths of it are fixed.
    pub corpus_seeded: u64,
    /// `takl`: `Mas(3k, 2k, k)` under the interpreter and the JIT.
    pub takl: i64,
    /// `takl` under the parallel machine (its dispatch is ~4x slower).
    pub takl_mt: i64,
    /// `FieldList` rounds over the nine command lines.
    pub fieldlist_rounds: i64,
    /// `typereg` synthetic types registered.
    pub typereg_types: i64,
    /// `destroy` tree depth.
    pub destroy_depth: i64,
    /// `destroy` subtree replacements.
    pub destroy_iterations: i64,
    /// Requests per serve repetition.
    pub serve_requests: u64,
    /// Residues of the request id the handler distinguishes (the
    /// reference interpreter runs one request per residue).
    pub serve_period: i64,
    /// How long every hardware thread is kept busy before the first op
    /// (`harness::warm_host`): the host needs two seconds of it to
    /// settle into the state a series of runs is in.
    pub host_warmup_ms: u64,
}

/// The measured sizes.
pub const FULL: Scale = Scale {
    name: "full",
    corpus_core: 224,
    corpus_seeded: 32,
    takl: 7,
    takl_mt: 6,
    fieldlist_rounds: 1500,
    typereg_types: 30_000,
    destroy_depth: 8,
    destroy_iterations: 3000,
    serve_requests: 20_000,
    serve_period: 22_800,
    host_warmup_ms: 3000,
};

/// `--quick`: a smoke test of every path in well under a second per
/// cell, debug builds included. Its numbers are not comparable.
pub const QUICK: Scale = Scale {
    name: "quick",
    corpus_core: 8,
    corpus_seeded: 4,
    takl: 3,
    takl_mt: 3,
    fieldlist_rounds: 20,
    typereg_types: 200,
    destroy_depth: 5,
    destroy_iterations: 60,
    serve_requests: 400,
    serve_period: 400,
    host_warmup_ms: 0,
};

/// Mutator / serve threads and gc workers never exceed the host: the
/// `par` cells use `min(MAX_THREADS, nproc)` of each.
pub const MAX_THREADS: usize = 2;
/// Concurrent markers of the cms cells (beside one mutator).
pub const CONC_WORKERS: usize = 1;

/// `mutator-calls`: a semispace so roomy the collectors stay under 1 %.
pub const MUTATOR_HEAP_WORDS: usize = 1 << 20;
/// Thread stack of every sequential cell (destroy and takl recurse).
pub const STACK_WORDS: usize = 1 << 15;
/// Instruction budget: never the limiting factor.
pub const FUEL: u64 = 1 << 44;

/// `gc-destroy` `semi`: barely above destroy's ~46k live words.
pub const SEMI_WORDS: usize = 47_000;
/// `gc-destroy` `gen`: tenured semispace and nursery half.
pub const GEN_WORDS: usize = 96_000;
/// Nursery half of the `gen` cell.
pub const GEN_NURSERY_WORDS: usize = 2_048;
/// `gc-destroy` `par`.
pub const PAR_WORDS: usize = 50_000;
/// `gc-destroy` `cms`: at 196 608 words and below a marker panics and
/// the run then hangs in a measurable share of ops (see README, "Known
/// failures"); at this size 1 000 ops ran clean.
pub const CMS_WORDS: usize = 393_216;
/// The §6.3 decomposition: a collection event every N allocations on a
/// heap that never fills.
pub const FORCE_EVERY_ALLOCS: u64 = 400;
/// Heap of the §6.3 decomposition cells.
pub const FORCED_HEAP_WORDS: usize = 1 << 20;

/// `serve-requests`: shared heap, per-request region, green slots per
/// thread, admission burst, slow and escaping request periods (the
/// last two are fixed in `programs/serve.m3`).
pub const SERVE_HEAP_WORDS: usize = 1 << 18;
/// Words per request region.
pub const SERVE_REGION_WORDS: usize = 1 << 12;
/// Green request slots per scheduler thread.
pub const SERVE_GREEN_PER_THREAD: usize = 16;
/// Requests a scheduler thread admits per turn.
pub const SERVE_BURST: usize = 8;
/// Stack of one green request.
pub const SERVE_STACK_WORDS: usize = 1 << 14;

/// An op's child process that has not finished by then is killed and
/// counted as one failed op (the slowest op takes about a second).
pub const OP_DEADLINE_SECS: f64 = 20.0;
/// Times the set-up is repeated in a run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Threads the host allows a parallel cell.
#[must_use]
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(MAX_THREADS)
}
