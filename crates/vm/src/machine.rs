//! The interpreter.
//!
//! Memory is a single word-addressed array: a small reserved prefix (so
//! that address 0 is never valid and NIL dereferences trap), the global
//! area, the thread's stack, and two heap semispaces. Pointers are
//! untagged `i64` word addresses — exactly the paper's setting: only the
//! compiler-emitted tables distinguish pointers from integers.
//!
//! Instruction semantics live in [`crate::exec`]; this module is the
//! sequential *world* they run against ([`SeqWorld`]: plain `i64` words,
//! bump allocation with the generational large-object path, the
//! remembered-set barrier) beside the one [`Cpu`] that runs on it.
//! Several threads, and the §5.3 wait for each to reach a gc-point, are
//! the parallel machine's ([`crate::par`]): it runs them on OS threads.
//!
//! Garbage collection protocol: `ALLOC` reports [`Step::NeedGc`]
//! without changing any state when the heap is full. The thread is then
//! stopped at that allocation, a gc-point, so the runtime crate's
//! collector traces and moves objects at once, calls
//! [`Machine::finish_collection`], and execution resumes by re-trying the
//! `ALLOC`.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use m3gc_core::heap::{HeapType, TypeId};
use m3gc_core::stats::BarrierCounters;

use crate::codemap::CodeMap;
use crate::decode::DecodedCode;
use crate::exec::{self, Cpu, JitPorts, Step, World};
use crate::isa::NUM_REGS;
use crate::module::VmModule;
use crate::pages::Zeroed;
use crate::shadow::{Shadow, Tag};

/// Start of the global area; addresses below this always trap.
pub const GLOBAL_BASE: usize = 16;

/// Return-pc sentinel marking the bottom frame of a thread.
pub const RETURN_SENTINEL: i64 = -1;

/// The collection-request cell the JIT's polls read on this machine: see
/// [`SeqWorld::gc_requested`].
static NO_GC_REQUEST: bool = false;

/// Source of unique module-lifetime tokens (see [`Machine::module_token`]).
static NEXT_MODULE_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh module-lifetime token (shared with [`crate::par`]).
pub(crate) fn next_module_token() -> u64 {
    NEXT_MODULE_TOKEN.fetch_add(1, Ordering::Relaxed)
}

/// Heap organisation.
///
/// The seed machine had a single pair of semispaces. The generational
/// strategy prepends a small two-half nursery: all ordinary allocation
/// bumps through the active nursery half, minor collections evacuate
/// survivors into the other half (or into tenured space once old enough),
/// and the semispace pair becomes the tenured generation, still collected
/// by the full Cheney pass when it fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeapStrategy {
    /// Two semispaces, full-heap collections (the seed behaviour).
    #[default]
    Semispace,
    /// Nursery + tenured generations with an SSB remembered set.
    Generational {
        /// Words per nursery half (survivors age through the other half).
        nursery_words: usize,
        /// Survival count at which a minor collection promotes an object
        /// to tenured space (1 = promote on first survival).
        promote_age: u32,
    },
}

impl HeapStrategy {
    /// Minor-collection survivals before promotion to tenured space,
    /// unless a layout sets its own.
    pub const DEFAULT_PROMOTE_AGE: u32 = 2;

    /// A generational strategy with the default nursery-to-semispace ratio
    /// (one quarter) and [`Self::DEFAULT_PROMOTE_AGE`].
    #[must_use]
    pub fn generational_for(semi_words: usize) -> HeapStrategy {
        HeapStrategy::Generational {
            nursery_words: (semi_words / 4).max(64),
            promote_age: Self::DEFAULT_PROMOTE_AGE,
        }
    }
}

/// Machine sizing and memory layout.
///
/// This is the low-level sizing struct; most callers build a
/// `m3gc_runtime::RuntimeOptions` and let the runtime derive the layout.
#[derive(Debug, Clone, Copy)]
pub struct MachineLayout {
    /// Words per heap semispace (the tenured generation under
    /// [`HeapStrategy::Generational`]).
    pub semi_words: usize,
    /// Words of the thread's stack.
    pub stack_words: usize,
    /// Heap organisation.
    pub heap: HeapStrategy,
}

impl Default for MachineLayout {
    fn default() -> Self {
        MachineLayout { semi_words: 1 << 20, stack_words: 1 << 16, heap: HeapStrategy::Semispace }
    }
}

/// Words per remembered-set card (dedup granularity of the SSB cache).
pub const CARD_WORDS_SHIFT: u32 = 5;

/// Abnormal termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmTrap {
    /// Dereference of NIL (or an address in the reserved prefix).
    NilError,
    /// Address outside every region.
    WildAddress,
    /// Stack region exhausted.
    StackOverflow,
    /// Subscript out of range (from the range-check runtime service or a
    /// negative array length).
    RangeError,
    /// Assertion failure.
    AssertError,
    /// Call to a nonexistent procedure (a compiler bug).
    BadProc,
    /// Heap exhausted even after collection.
    OutOfMemory,
    /// Shadow-mode only: a memory access through a pointer into a
    /// collected (dead) semispace — the compiler-emitted tables missed a
    /// live pointer or derived value, so it was not updated when its
    /// object moved.
    StalePointer,
}

impl VmTrap {
    /// Dense integer code for the JIT boundary (native code and the
    /// `extern` helpers pass traps as integers). Round-trips through
    /// [`VmTrap::from_code`].
    #[doc(hidden)]
    #[must_use]
    pub fn to_code(self) -> i64 {
        match self {
            VmTrap::NilError => 0,
            VmTrap::WildAddress => 1,
            VmTrap::StackOverflow => 2,
            VmTrap::RangeError => 3,
            VmTrap::AssertError => 4,
            VmTrap::BadProc => 5,
            VmTrap::OutOfMemory => 6,
            VmTrap::StalePointer => 7,
        }
    }

    /// Inverse of [`VmTrap::to_code`]; unknown codes map to
    /// [`VmTrap::WildAddress`] (they cannot come from this crate).
    #[doc(hidden)]
    #[must_use]
    pub fn from_code(code: i64) -> VmTrap {
        match code {
            0 => VmTrap::NilError,
            2 => VmTrap::StackOverflow,
            3 => VmTrap::RangeError,
            4 => VmTrap::AssertError,
            5 => VmTrap::BadProc,
            6 => VmTrap::OutOfMemory,
            7 => VmTrap::StalePointer,
            _ => VmTrap::WildAddress,
        }
    }
}

impl std::fmt::Display for VmTrap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VmTrap::NilError => "attempt to dereference NIL",
            VmTrap::WildAddress => "wild memory address",
            VmTrap::StackOverflow => "stack overflow",
            VmTrap::RangeError => "subscript out of range",
            VmTrap::AssertError => "assertion failed",
            VmTrap::BadProc => "call to unknown procedure",
            VmTrap::OutOfMemory => "heap exhausted",
            VmTrap::StalePointer => "access through a stale pointer into a collected space",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for VmTrap {}

/// The virtual machine: one thread's [`Cpu`] beside the world it runs
/// on. The world is reachable through `Deref` (`machine.mem`,
/// `machine.output`, …).
pub struct Machine {
    /// The thread's register file and frame cursor.
    pub cpu: Cpu,
    /// Module, memory, heap and counters: the [`World`] the thread steps
    /// against.
    pub world: SeqWorld,
    /// The module's predecoded program, beside the world rather than in
    /// it so the interpreter loop can read it while it mutates the world
    /// (and shared with the JIT engine built for this machine).
    decoded: Arc<DecodedCode>,
}

impl Deref for Machine {
    type Target = SeqWorld;
    fn deref(&self) -> &SeqWorld {
        &self.world
    }
}

impl DerefMut for Machine {
    fn deref_mut(&mut self) -> &mut SeqWorld {
        &mut self.world
    }
}

/// The sequential machine minus its thread.
pub struct SeqWorld {
    /// The loaded module.
    pub module: VmModule,
    /// Flat memory: reserved | globals | stack | semispace A | semispace B.
    pub mem: Zeroed<i64>,
    /// Accumulated program output.
    pub output: String,
    /// Instructions executed.
    pub steps: u64,
    /// Objects allocated.
    pub allocations: u64,
    /// Words allocated.
    pub words_allocated: u64,
    /// Collections completed (incremented by `finish_collection`).
    pub collections: u64,
    /// Testing/measurement hook: when set, allocations report "needs gc"
    /// once `allocations` reaches this count, even with heap space left.
    /// Private so every write goes through
    /// [`SeqWorld::set_force_gc_after`], which keeps the cached fast-path
    /// limit coherent.
    force_gc_after: Option<u64>,
    /// Cached allocation limit for the branch-light fast path: equal to
    /// `alloc_limit` when ordinary bump allocation may proceed, pinned
    /// to `i64::MIN` while forced-gc counting is armed so a single
    /// compare rules out both the full and the forced case.
    alloc_fast_limit: i64,

    /// Unique token identifying this machine's loaded module instance.
    /// The module (and its gc tables) is immutable for the machine's
    /// lifetime, so anything derived from the tables — notably a
    /// `m3gc_core::decode::DecodeCache` — can bind to this token and be
    /// safely reused across every collection of this machine.
    module_token: u64,
    layout: MachineLayout,
    heap_base: usize,
    /// True when semispace A (lower) is the from-space (allocation space).
    from_is_lower: bool,
    /// Next free word in the allocation space (the active nursery half
    /// under the generational strategy).
    pub alloc_ptr: i64,
    /// One past the last usable allocation word.
    pub alloc_limit: i64,

    // Generational state; only meaningful under
    // `HeapStrategy::Generational` (zero-sized / unused otherwise).
    /// First word of the tenured semispace pair.
    tenured_base: usize,
    /// True when the lower nursery half is the allocation half.
    nursery_from_lower: bool,
    /// True when the lower tenured semispace holds the old generation.
    tenured_from_lower: bool,
    /// Next free word in the tenured from-space (promotion / oversized
    /// allocation frontier).
    pub tenured_alloc_ptr: i64,
    /// Remembered set: a sequential store buffer of precise tenured slot
    /// addresses holding (potential) tenured→nursery pointers. Only ever
    /// fed slots the compiler's barrier proved are pointer fields, so
    /// minor collections may treat every entry as a tidy root.
    rs_buf: Vec<i64>,
    /// Card-granularity dedup cache over the tenured area: per card, the
    /// last slot recorded (+1; 0 = empty). A barrier hit on the same slot
    /// as its card's last entry is dropped; a different slot in the same
    /// card replaces the cache entry and is still pushed, so the buffer
    /// stays precise while tight update loops dedup to one entry per card.
    rs_card: Vec<i64>,
    /// Write-barrier event counters.
    pub barrier: BarrierCounters,
    /// Minor collections completed.
    pub minor_collections: u64,
    /// Major collections completed.
    pub major_collections: u64,
    /// Set when an oversized allocation could not fit the tenured
    /// from-space: the next collection should be a major one.
    pub wants_major_gc: bool,
    /// Shadow memory tags for the gc-map precision oracle (see
    /// [`crate::shadow`]); `None` unless [`SeqWorld::enable_shadow`] was
    /// called. Register tags live in the thread's [`Cpu`].
    pub shadow: Option<Box<Shadow>>,
    /// Native-code address map installed by the JIT engine. When set,
    /// frame linkage words may hold biased return tokens
    /// ([`crate::codemap::JIT_RETPC_BIAS`]` + native offset`) that `Ret`
    /// and the stack walker resolve back to bytecode gc-point pcs.
    code_map: Option<Arc<CodeMap>>,
}

impl Machine {
    /// Loads a module.
    ///
    /// # Panics
    ///
    /// Panics if the module's code or gc maps are malformed (they come
    /// from the compiler, so this is a bug).
    #[must_use]
    pub fn new(module: VmModule, layout: impl Into<MachineLayout>) -> Machine {
        let layout = layout.into();
        let decoded = Arc::new(DecodedCode::of(&module));
        let stack_base = GLOBAL_BASE + module.globals_words as usize;
        let heap_base = stack_base + layout.stack_words;
        // Memory layout:
        //   semispace:    reserved | globals | stack | semi A | semi B
        //   generational: reserved | globals | stack | nursery A | nursery B
        //                 | tenured A | tenured B
        let nursery_words = match layout.heap {
            HeapStrategy::Semispace => 0,
            HeapStrategy::Generational { nursery_words, .. } => {
                assert!(nursery_words >= 8, "nursery too small to hold any object");
                assert!(
                    nursery_words <= layout.semi_words,
                    "nursery larger than a tenured semispace breaks the \
                     promotion headroom bound"
                );
                nursery_words
            }
        };
        let tenured_base = heap_base + 2 * nursery_words;
        let total = tenured_base + 2 * layout.semi_words;
        let (alloc_ptr, alloc_limit) = match layout.heap {
            HeapStrategy::Semispace => (heap_base as i64, (heap_base + layout.semi_words) as i64),
            HeapStrategy::Generational { .. } => {
                (heap_base as i64, (heap_base + nursery_words) as i64)
            }
        };
        let cards = match layout.heap {
            HeapStrategy::Semispace => 0,
            HeapStrategy::Generational { .. } => ((2 * layout.semi_words) >> CARD_WORDS_SHIFT) + 1,
        };
        let world = SeqWorld {
            module,
            mem: Zeroed::new(total),
            output: String::new(),
            steps: 0,
            allocations: 0,
            words_allocated: 0,
            collections: 0,
            force_gc_after: None,
            alloc_fast_limit: alloc_limit,
            module_token: next_module_token(),
            layout,
            heap_base,
            from_is_lower: true,
            alloc_ptr,
            alloc_limit,
            tenured_base,
            nursery_from_lower: true,
            tenured_from_lower: true,
            tenured_alloc_ptr: tenured_base as i64,
            rs_buf: Vec::new(),
            rs_card: vec![0; cards],
            barrier: BarrierCounters::default(),
            minor_collections: 0,
            major_collections: 0,
            wants_major_gc: false,
            shadow: None,
            code_map: None,
        };
        // Idle until `spawn` builds a bottom frame.
        let (stack_base, stack_limit) = (stack_base as i64, heap_base as i64);
        let cpu = Cpu {
            regs: [0; NUM_REGS],
            reg_tags: [Tag::NonPtr; NUM_REGS],
            pc: 0,
            fp: stack_base,
            sp: stack_base,
            ap: stack_base,
            stack_base,
            stack_limit,
        };
        Machine { cpu, world, decoded }
    }

    /// Completes a collection: the spaces flip and allocation resumes at
    /// `new_alloc_ptr` (one past the last evacuated word in the old
    /// to-space).
    pub fn finish_collection(&mut self, new_alloc_ptr: i64) {
        let (to_start, to_end) = self.to_space();
        assert!((to_start..=to_end).contains(&new_alloc_ptr), "alloc ptr outside new space");
        self.from_is_lower = !self.from_is_lower;
        self.alloc_ptr = new_alloc_ptr;
        self.alloc_limit = to_end;
        self.resume_after_collection();
    }

    /// Completes a minor collection: the nursery halves flip, nursery
    /// allocation resumes at `new_young_alloc` (one past the survivors in
    /// the old to-half), promotion advanced the tenured frontier to
    /// `new_tenured_alloc`. The remembered set
    /// must already have been drained by [`SeqWorld::take_remembered_slots`];
    /// the collector re-records surviving old→young edges afterwards.
    ///
    /// # Panics
    ///
    /// Panics if either frontier lies outside its space (a collector bug).
    pub fn finish_minor_collection(&mut self, new_young_alloc: i64, new_tenured_alloc: i64) {
        assert!(self.is_generational(), "minor collection on a semispace heap");
        let (to_start, to_end) = self.nursery_to_space();
        assert!((to_start..=to_end).contains(&new_young_alloc), "young alloc outside to-half");
        let (t_start, t_end) = self.tenured_space();
        assert!((t_start..=t_end).contains(&new_tenured_alloc), "tenured frontier outside space");
        assert!(new_tenured_alloc >= self.tenured_alloc_ptr, "promotion moved frontier backwards");
        debug_assert!(self.rs_buf.is_empty(), "remembered set not drained before finish");
        self.nursery_from_lower = !self.nursery_from_lower;
        self.alloc_ptr = new_young_alloc;
        self.alloc_limit = to_end;
        self.tenured_alloc_ptr = new_tenured_alloc;
        self.minor_collections += 1;
        self.resume_after_collection();
    }

    /// Completes a major collection: the tenured semispaces flip with the
    /// survivor frontier at `new_tenured_alloc`, the nursery empties (every
    /// live object was promoted), the remembered set clears (no
    /// tenured→nursery edges can exist into an empty nursery).
    ///
    /// # Panics
    ///
    /// Panics if `new_tenured_alloc` lies outside the tenured to-space.
    pub fn finish_major_collection(&mut self, new_tenured_alloc: i64) {
        assert!(self.is_generational(), "major collection on a semispace heap");
        let (to_start, to_end) = self.tenured_to_space();
        assert!((to_start..=to_end).contains(&new_tenured_alloc), "tenured alloc outside space");
        self.tenured_from_lower = !self.tenured_from_lower;
        self.tenured_alloc_ptr = new_tenured_alloc;
        let (n_start, n_end) = self.nursery_from_space();
        self.alloc_ptr = n_start;
        self.alloc_limit = n_end;
        self.rs_buf.clear();
        self.rs_card.fill(0);
        self.major_collections += 1;
        self.resume_after_collection();
    }

    /// The tail every `finish_*` shares: re-derive the fast-path limit,
    /// clear the major-collection request, count the collection.
    fn resume_after_collection(&mut self) {
        self.refresh_alloc_fast_limit();
        self.wants_major_gc = false;
        self.collections += 1;
    }

    /// Points the thread at procedure `proc` with the given argument
    /// words, on a fresh bottom frame.
    ///
    /// # Errors
    ///
    /// [`VmTrap::StackOverflow`] when the bottom frame does not fit the
    /// stack; the thread is left as it was.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is invalid or `args` does not match its arity.
    pub fn spawn(&mut self, proc: u16, args: &[i64]) -> Result<(), VmTrap> {
        let stack = (self.cpu.stack_base, self.cpu.stack_limit);
        self.cpu = exec::spawn(&mut self.world, stack, proc, args)?;
        Ok(())
    }

    /// Runs the thread until it finishes, needs a collection, traps, or
    /// exhausts `fuel` instructions ([`Step::Normal`]), and counts the
    /// instructions it ran.
    pub fn run_thread(&mut self, fuel: u64) -> Step {
        let (step, executed) =
            exec::run(&mut self.cpu, &self.decoded, &mut self.world, fuel, u64::MAX);
        self.steps += executed;
        step
    }

    /// The module's predecoded program.
    #[must_use]
    pub fn decoded(&self) -> &Arc<DecodedCode> {
        &self.decoded
    }
}

impl SeqWorld {
    /// Installs the JIT engine's native-code address map. From here on,
    /// frame linkage words may hold biased native return tokens; `Ret`
    /// and the stack walker resolve them through this map.
    pub fn set_code_map(&mut self, map: Arc<CodeMap>) {
        self.code_map = Some(map);
    }

    /// The installed native-code address map, if a JIT is attached.
    #[must_use]
    pub fn code_map(&self) -> Option<&Arc<CodeMap>> {
        self.code_map.as_ref()
    }

    /// Turns on shadow root tracking (instrumented execution for the
    /// gc-map precision oracle). Must be called before any thread runs.
    pub fn enable_shadow(&mut self) {
        self.shadow = Some(Box::new(Shadow::new(self.mem.len())));
    }

    /// Start of the global area.
    #[must_use]
    pub fn globals_start(&self) -> usize {
        GLOBAL_BASE
    }

    /// The module-lifetime token: unique per loaded module instance,
    /// stable for this machine's lifetime. Decode caches bind to it so a
    /// cache can never be replayed against a different module's tables.
    #[must_use]
    pub fn module_token(&self) -> u64 {
        self.module_token
    }

    /// The from-space (currently allocated-into) bounds `[start, end)`.
    #[must_use]
    pub fn from_space(&self) -> (i64, i64) {
        self.semispace(self.heap_base, self.from_is_lower)
    }

    /// The to-space bounds `[start, end)`.
    #[must_use]
    pub fn to_space(&self) -> (i64, i64) {
        self.semispace(self.heap_base, !self.from_is_lower)
    }

    /// The lower or upper `semi_words`-sized half of the pair at `base`.
    fn semispace(&self, base: usize, lower: bool) -> (i64, i64) {
        let start = if lower { base } else { base + self.layout.semi_words };
        (start as i64, (start + self.layout.semi_words) as i64)
    }

    /// True under [`HeapStrategy::Generational`].
    #[must_use]
    pub fn is_generational(&self) -> bool {
        matches!(self.layout.heap, HeapStrategy::Generational { .. })
    }

    /// Words per nursery half (0 under the semispace strategy).
    #[must_use]
    pub fn nursery_words(&self) -> usize {
        match self.layout.heap {
            HeapStrategy::Semispace => 0,
            HeapStrategy::Generational { nursery_words, .. } => nursery_words,
        }
    }

    /// Survival count at which minor collections promote (0 if semispace).
    #[must_use]
    pub fn promote_age(&self) -> u32 {
        match self.layout.heap {
            HeapStrategy::Semispace => 0,
            HeapStrategy::Generational { promote_age, .. } => promote_age.max(1),
        }
    }

    /// The lower or upper nursery half.
    fn nursery_half(&self, lower: bool) -> (i64, i64) {
        let n = self.nursery_words();
        let start = if lower { self.heap_base } else { self.heap_base + n };
        (start as i64, (start + n) as i64)
    }

    /// The active (allocation) nursery half `[start, end)`.
    #[must_use]
    pub fn nursery_from_space(&self) -> (i64, i64) {
        self.nursery_half(self.nursery_from_lower)
    }

    /// The inactive nursery half `[start, end)` (minor-GC survivor space).
    #[must_use]
    pub fn nursery_to_space(&self) -> (i64, i64) {
        self.nursery_half(!self.nursery_from_lower)
    }

    /// True if `addr` points into the active nursery half.
    #[must_use]
    pub fn in_active_nursery(&self, addr: i64) -> bool {
        let (s, e) = self.nursery_from_space();
        (s..e).contains(&addr)
    }

    /// The tenured from-space `[start, end)` (the live old generation).
    #[must_use]
    pub fn tenured_space(&self) -> (i64, i64) {
        self.semispace(self.tenured_base, self.tenured_from_lower)
    }

    /// The tenured to-space `[start, end)` (major-GC target).
    #[must_use]
    pub fn tenured_to_space(&self) -> (i64, i64) {
        self.semispace(self.tenured_base, !self.tenured_from_lower)
    }

    /// True if `addr` points into the tenured from-space.
    #[must_use]
    pub fn in_tenured(&self, addr: i64) -> bool {
        let (s, e) = self.tenured_space();
        (s..e).contains(&addr)
    }

    /// Words currently allocated in the active nursery half.
    #[must_use]
    pub fn nursery_used(&self) -> i64 {
        self.alloc_ptr - self.nursery_from_space().0
    }

    /// Free words left in the tenured from-space.
    #[must_use]
    pub fn tenured_free(&self) -> i64 {
        self.tenured_space().1 - self.tenured_alloc_ptr
    }

    /// Number of slots currently in the remembered set.
    #[must_use]
    pub fn remembered_len(&self) -> usize {
        self.rs_buf.len()
    }

    /// Records a tenured slot address into the remembered set with
    /// card-granularity dedup. The caller is responsible for the value
    /// filter (the write barrier checks the stored value points into the
    /// active nursery; eager remembering of freshly tenured objects skips
    /// the check, which is sound because minor collections ignore
    /// remembered slots whose value is not a nursery pointer).
    pub fn remember_slot(&mut self, slot: i64) {
        Self::remember_slot_in(&mut self.rs_buf, &mut self.rs_card, self.tenured_base, slot);
    }

    /// Returns true if the slot was pushed (false: card-deduped). Does not
    /// touch the barrier counters — those count *barrier* activity only,
    /// not the collector's re-recording or the allocator's eager
    /// remembering.
    fn remember_slot_in(
        rs_buf: &mut Vec<i64>,
        rs_card: &mut [i64],
        tenured_base: usize,
        slot: i64,
    ) -> bool {
        debug_assert!(slot >= tenured_base as i64, "remembered slot below tenured area");
        let card = ((slot - tenured_base as i64) >> CARD_WORDS_SHIFT) as usize;
        if rs_card[card] == slot + 1 {
            return false;
        }
        rs_card[card] = slot + 1;
        rs_buf.push(slot);
        true
    }

    /// Drains the remembered set for a minor collection, resetting the
    /// card cache. The collector re-records surviving tenured→nursery
    /// edges (via [`SeqWorld::remember_slot`]) after the flip.
    pub fn take_remembered_slots(&mut self) -> Vec<i64> {
        self.rs_card.fill(0);
        std::mem::take(&mut self.rs_buf)
    }

    /// The write-barrier slow path for `StB`: records `addr` if it is a
    /// tenured slot now holding a pointer into the active nursery.
    fn note_barrier(&mut self, addr: i64, value: i64) {
        self.barrier.executed += 1;
        if !self.is_generational() || value == 0 {
            return;
        }
        if !self.in_active_nursery(value) || !self.in_tenured(addr) {
            return;
        }
        if Self::remember_slot_in(&mut self.rs_buf, &mut self.rs_card, self.tenured_base, addr) {
            self.barrier.recorded += 1;
        } else {
            self.barrier.deduped += 1;
        }
    }

    /// Re-derives the cached fast-path limit from `alloc_limit` and the
    /// forced-gc hook. Must run after every write to either.
    fn refresh_alloc_fast_limit(&mut self) {
        self.alloc_fast_limit =
            if self.force_gc_after.is_some() { i64::MIN } else { self.alloc_limit };
    }

    /// Arms (or disarms) the forced-collection hook. While armed, every
    /// allocation takes the slow path so the allocation count is checked
    /// exactly.
    pub fn set_force_gc_after(&mut self, n: Option<u64>) {
        self.force_gc_after = n;
        self.refresh_alloc_fast_limit();
    }

    /// The forced-collection threshold, if armed.
    #[must_use]
    pub fn force_gc_after(&self) -> Option<u64> {
        self.force_gc_after
    }

    /// Zeroes a fresh object (the space may hold stale data from before a
    /// previous flip), writes its header and counts it.
    fn init_object(&mut self, addr: i64, words: i64, ty: u16, len: i64, is_array: bool) {
        self.zero(addr, words);
        self.clear_tags(addr, words);
        self.mem[addr as usize] = i64::from(ty);
        if is_array {
            self.mem[addr as usize + 1] = len;
        }
        self.allocations += 1;
        self.words_allocated += words as u64;
    }

    /// Slow allocation path: forced-gc accounting, space exhaustion, and
    /// the generational large-object cases. Objects too large for the
    /// nursery go straight to the tenured frontier, with every pointer
    /// slot eagerly remembered: the compiler elides write barriers on
    /// stores into provably fresh objects, and those stores all execute
    /// before the next gc-point, so the eager entries stand in for the
    /// elided records until the next collection rebuilds the set.
    fn alloc_slow(&mut self, ty: u16, len: i64, words: i64) -> Result<Option<i64>, VmTrap> {
        if self.force_gc_after.is_some_and(|n| self.allocations >= n) {
            return Ok(None);
        }
        let mut tenured_direct = false;
        let addr = if self.alloc_ptr + words <= self.alloc_limit {
            let a = self.alloc_ptr;
            self.alloc_ptr += words;
            a
        } else if words > self.layout.semi_words as i64 {
            return Err(VmTrap::OutOfMemory);
        } else if let HeapStrategy::Generational { nursery_words, .. } = self.layout.heap {
            if words <= nursery_words as i64 {
                // Fits an empty nursery half: a minor collection makes room.
                return Ok(None);
            }
            if self.tenured_alloc_ptr + words > self.tenured_space().1 {
                self.wants_major_gc = true;
                return Ok(None);
            }
            tenured_direct = true;
            let a = self.tenured_alloc_ptr;
            self.tenured_alloc_ptr += words;
            a
        } else {
            return Ok(None);
        };
        let desc = self.module.types.get(TypeId(u32::from(ty)));
        self.init_object(addr, words, ty, len, matches!(desc, HeapType::Array { .. }));
        if tenured_direct {
            let desc = self.module.types.get(TypeId(u32::from(ty)));
            for off in desc.pointer_offset_iter(len as u32) {
                Self::remember_slot_in(
                    &mut self.rs_buf,
                    &mut self.rs_card,
                    self.tenured_base,
                    addr + i64::from(off),
                );
            }
        }
        Ok(Some(addr))
    }
}

impl World for SeqWorld {
    fn module(&self) -> &VmModule {
        &self.module
    }

    fn code_map(&self) -> Option<&CodeMap> {
        self.code_map.as_deref()
    }

    fn mem_words(&self) -> usize {
        self.mem.len()
    }

    #[inline]
    fn word(&self, addr: i64) -> i64 {
        self.mem[addr as usize]
    }

    #[inline]
    fn set_word(&mut self, addr: i64, v: i64) {
        self.mem[addr as usize] = v;
    }

    #[inline]
    fn zero(&mut self, addr: i64, words: i64) {
        self.mem[addr as usize..(addr + words) as usize].fill(0);
    }

    /// Never: the one thread is the only thing that could ask for a
    /// collection, and it does so by stopping at an allocation.
    #[inline]
    fn gc_requested(&self) -> bool {
        false
    }

    /// The fast path bumps through the allocation space (the active
    /// nursery half when generational) behind one compare:
    /// `alloc_fast_limit` equals `alloc_limit` only when no forced-gc
    /// counting is armed (it is pinned to `i64::MIN` otherwise), so the
    /// single test also rules out the torture case.
    #[inline]
    fn alloc(&mut self, ty: u16, len: i64) -> Result<Option<i64>, VmTrap> {
        if len < 0 {
            return Err(VmTrap::RangeError);
        }
        let desc = self.module.types.get(TypeId(u32::from(ty)));
        let words = i64::from(desc.checked_object_words(len).ok_or(VmTrap::OutOfMemory)?);
        let addr = self.alloc_ptr;
        if addr + words <= self.alloc_fast_limit {
            let is_array = matches!(desc, HeapType::Array { .. });
            self.alloc_ptr = addr + words;
            self.init_object(addr, words, ty, len, is_array);
            return Ok(Some(addr));
        }
        self.alloc_slow(ty, len, words)
    }

    /// On a semispace heap the barrier store degenerates to a plain
    /// store, so one compiled module runs under either `--gc` mode.
    #[inline]
    fn barrier_store(&mut self, addr: i64, v: i64) -> Result<(), VmTrap> {
        self.store(addr, v)?;
        self.note_barrier(addr, v);
        Ok(())
    }

    fn sys(&mut self, code: u8, arg: i64) -> Result<(), VmTrap> {
        exec::sys_to(&mut self.output, code, arg)
    }

    #[inline]
    fn shadow_on(&self) -> bool {
        self.shadow.is_some()
    }

    fn mem_tag(&self, addr: i64) -> Tag {
        self.shadow.as_deref().map_or(Tag::NonPtr, |sh| sh.mem_tag(addr))
    }

    fn set_mem_tag(&mut self, addr: i64, tag: Tag) {
        if let Some(sh) = self.shadow.as_deref_mut() {
            sh.set_mem(addr, tag);
        }
    }

    #[inline]
    fn clear_tags(&mut self, addr: i64, words: i64) {
        if let Some(sh) = self.shadow.as_deref_mut() {
            sh.clear_range(addr, words);
        }
    }

    /// The inactive semispace, or either inactive half of a generational
    /// heap.
    fn in_dead_space(&self, addr: i64) -> bool {
        if self.is_generational() {
            let (ns, ne) = self.nursery_to_space();
            let (ts, te) = self.tenured_to_space();
            (ns..ne).contains(&addr) || (ts..te).contains(&addr)
        } else {
            let (s, e) = self.to_space();
            (s..e).contains(&addr)
        }
    }

    fn jit_ports(&mut self) -> JitPorts {
        JitPorts {
            mem: self.mem.as_mut_ptr(),
            gc_flag: (&raw const NO_GC_REQUEST).cast(),
            alloc_ptr: &raw mut self.alloc_ptr,
            // The cell moves with every collection, the field does not.
            alloc_fast_limit: &raw const self.alloc_fast_limit,
            alloc_count: &raw mut self.allocations,
            words: &raw mut self.words_allocated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::isa::{AluOp, Instr};
    use crate::module::ProcMeta;
    use m3gc_core::encode::{encode_module, Scheme};
    use m3gc_core::heap::TypeTable;
    use m3gc_core::tables::ModuleTables;

    fn module_with(code: Vec<u8>, procs: Vec<ProcMeta>, types: TypeTable) -> VmModule {
        VmModule {
            code,
            procs,
            types,
            globals_words: 4,
            global_ptr_roots: vec![],
            main: 0,
            gc_maps: encode_module(&ModuleTables::default(), Scheme::DELTA_MAIN_PP),
            logical_maps: ModuleTables::default(),
        }
    }

    fn small_config() -> MachineLayout {
        MachineLayout { semi_words: 256, stack_words: 256, ..MachineLayout::default() }
    }

    fn small_gen_config() -> MachineLayout {
        MachineLayout {
            heap: HeapStrategy::Generational { nursery_words: 64, promote_age: 2 },
            ..small_config()
        }
    }

    #[test]
    fn heap_exhaustion_reports_need_gc() {
        let mut types = TypeTable::default();
        types.add(HeapType::Record { name: "R".into(), words: 100, ptr_offsets: vec![] });
        let mut a = Assembler::new();
        let top = a.new_label();
        a.bind(top);
        a.emit(&Instr::Alloc { dst: 1, ty: 0 });
        a.jmp(top);
        let code = a.finish();
        let end = code.len() as u32;
        let m = module_with(
            code,
            vec![ProcMeta {
                name: "main".into(),
                entry_pc: 0,
                end_pc: end,
                frame_words: 0,
                save_regs: vec![],
                n_args: 0,
            }],
            types,
        );
        let mut vm = Machine::new(m, small_config());
        vm.spawn(0, &[]).expect("bottom frame fits");
        let r = vm.run_thread(1000);
        assert_eq!(r, Step::NeedGc);
        // Two 101-word objects fit in a 256-word semispace; the third fails.
        assert_eq!(vm.allocations, 2);
        // The pc still addresses the ALLOC: finish a (no-op) collection and
        // the thread allocates again.
        let (to_start, _) = vm.to_space();
        vm.finish_collection(to_start);
        assert_eq!(vm.run_thread(1000), Step::NeedGc);
        assert_eq!(vm.allocations, 4);
    }

    #[test]
    fn generational_layout_and_nursery_allocation() {
        let mut types = TypeTable::default();
        types.add(HeapType::Record { name: "R".into(), words: 2, ptr_offsets: vec![] });
        let mut a = Assembler::new();
        a.emit(&Instr::Alloc { dst: 1, ty: 0 });
        a.emit(&Instr::Ret);
        let code = a.finish();
        let end = code.len() as u32;
        let m = module_with(
            code,
            vec![ProcMeta {
                name: "main".into(),
                entry_pc: 0,
                end_pc: end,
                frame_words: 0,
                save_regs: vec![],
                n_args: 0,
            }],
            types,
        );
        let mut vm = Machine::new(m, small_gen_config());
        assert!(vm.is_generational());
        let (nf, nfe) = vm.nursery_from_space();
        let (nt, nte) = vm.nursery_to_space();
        let (tf, tfe) = vm.tenured_space();
        let (tt, tte) = vm.tenured_to_space();
        assert_eq!(nfe - nf, 64);
        assert_eq!(nte - nt, 64);
        assert_eq!(tfe - tf, 256);
        assert_eq!(tte - tt, 256);
        assert_eq!(nfe, nt, "nursery halves adjacent");
        assert_eq!(nte, tf, "tenured follows nursery");
        vm.spawn(0, &[]).expect("bottom frame fits");
        assert_eq!(vm.run_thread(100), Step::Finished);
        let addr = vm.cpu.regs[1];
        assert!(vm.in_active_nursery(addr), "small object allocates in nursery");
        assert_eq!(vm.nursery_used(), 3);
        assert_eq!(vm.tenured_free(), 256);
    }

    #[test]
    fn oversized_allocation_goes_to_tenured_with_eager_remembering() {
        let mut types = TypeTable::default();
        // 100 field words > 64-word nursery half; two pointer fields.
        types.add(HeapType::Record { name: "Big".into(), words: 100, ptr_offsets: vec![0, 99] });
        let mut a = Assembler::new();
        a.emit(&Instr::Alloc { dst: 1, ty: 0 });
        a.emit(&Instr::Ret);
        let code = a.finish();
        let end = code.len() as u32;
        let m = module_with(
            code,
            vec![ProcMeta {
                name: "main".into(),
                entry_pc: 0,
                end_pc: end,
                frame_words: 0,
                save_regs: vec![],
                n_args: 0,
            }],
            types,
        );
        let mut vm = Machine::new(m, small_gen_config());
        vm.spawn(0, &[]).expect("bottom frame fits");
        assert_eq!(vm.run_thread(100), Step::Finished);
        let addr = vm.cpu.regs[1];
        assert!(vm.in_tenured(addr), "oversized object bypasses the nursery");
        assert_eq!(vm.nursery_used(), 0);
        // Both pointer slots eagerly remembered (barrier elision on fresh
        // objects would otherwise lose tenured→nursery edges).
        assert_eq!(vm.remembered_len(), 2);
    }

    #[test]
    fn write_barrier_records_tenured_to_nursery_edges_once_per_card_entry() {
        let mut types = TypeTable::default();
        types.add(HeapType::Record { name: "Big".into(), words: 100, ptr_offsets: vec![0] });
        types.add(HeapType::Record { name: "Small".into(), words: 1, ptr_offsets: vec![] });
        let mut a = Assembler::new();
        a.emit(&Instr::Alloc { dst: 1, ty: 0 }); // tenured (oversized)
        a.emit(&Instr::Alloc { dst: 2, ty: 1 }); // nursery
        a.emit(&Instr::StB { base: 1, off: 1, src: 2 }); // old → young
        a.emit(&Instr::StB { base: 1, off: 1, src: 2 }); // same slot again
        a.emit(&Instr::StB { base: 2, off: 1, src: 1 }); // young → old: filtered
        a.emit(&Instr::MovI { dst: 3, imm: 0 });
        a.emit(&Instr::StB { base: 1, off: 1, src: 3 }); // NIL store: filtered
        a.emit(&Instr::Ret);
        let code = a.finish();
        let end = code.len() as u32;
        let m = module_with(
            code,
            vec![ProcMeta {
                name: "main".into(),
                entry_pc: 0,
                end_pc: end,
                frame_words: 0,
                save_regs: vec![],
                n_args: 0,
            }],
            types,
        );
        let mut vm = Machine::new(m, small_gen_config());
        vm.spawn(0, &[]).expect("bottom frame fits");
        assert_eq!(vm.run_thread(100), Step::Finished);
        assert_eq!(vm.barrier.executed, 4);
        // Eager remembering already holds the slot (same card entry), so
        // both explicit barrier hits on it dedup.
        assert_eq!(vm.remembered_len(), 1);
        assert_eq!(vm.barrier.deduped, 2);
    }

    #[test]
    fn stb_behaves_like_plain_store_on_semispace_heap() {
        let mut types = TypeTable::default();
        types.add(HeapType::Record { name: "R".into(), words: 2, ptr_offsets: vec![0, 1] });
        let mut a = Assembler::new();
        a.emit(&Instr::Alloc { dst: 1, ty: 0 });
        a.emit(&Instr::StB { base: 1, off: 1, src: 1 });
        a.emit(&Instr::Ld { dst: 2, base: 1, off: 1 });
        a.emit(&Instr::Alu { op: AluOp::Eq, dst: 3, a: 1, b: 2 });
        a.emit(&Instr::Sys { code: 0, arg: 3 });
        a.emit(&Instr::Ret);
        let code = a.finish();
        let end = code.len() as u32;
        let m = module_with(
            code,
            vec![ProcMeta {
                name: "main".into(),
                entry_pc: 0,
                end_pc: end,
                frame_words: 0,
                save_regs: vec![],
                n_args: 0,
            }],
            types,
        );
        let mut vm = Machine::new(m, small_config());
        vm.spawn(0, &[]).expect("bottom frame fits");
        assert_eq!(vm.run_thread(100), Step::Finished);
        assert_eq!(vm.output, "1");
        assert_eq!(vm.remembered_len(), 0);
        assert_eq!(vm.barrier.executed, 1);
        assert_eq!(vm.barrier.recorded, 0);
    }
}
