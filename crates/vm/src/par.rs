//! The thread-safe world for parallel execution.
//!
//! [`crate::machine::Machine`] owns its memory and threads outright and
//! is driven by one OS thread; this module splits the machine state so
//! that each mutator runs on a real `std::thread`:
//!
//! * [`ParMachine`] is the *shared* half — module, decoded code, one
//!   flat array of `AtomicI64` memory words, the allocation frontier,
//!   and the collection-request flag. It is `Sync`; every mutator and
//!   every gc worker holds an `&ParMachine`.
//! * [`Mutator`] is the *private* per-thread state — its
//!   [`Cpu`](crate::exec::Cpu) plus TLAB, SATB buffer, counters and
//!   output — owned by the OS thread driving it.
//! * [`ParWorld`] pairs the two into the [`World`] that
//!   [`crate::exec::run`] runs instructions against: the instruction
//!   semantics are the sequential machine's, only the memory format
//!   differs.
//!
//! Ordinary interpreter loads and stores use `Relaxed` atomics: the
//! language has no cross-thread synchronisation primitives, so programs
//! cannot observe ordering between mutators, and the runtime's
//! stop-the-world handshake (mutex + condvar in `m3gc-runtime`)
//! provides the synchronises-with edges between mutation and
//! collection. Allocation is a CAS bump loop; collection forwarding
//! CASes a claim into object headers (see `m3gc_runtime::parallel`).
//!
//! Safepoints: the machine checks the shared request flag only at park
//! sites (allocations and the polls `codegen::gcpoints` inserts — §5.3's
//! guarantee that a thread reaches a describable state in bounded time). [`Step::AtSafepoint`] hands
//! control to the runtime, which parks the thread and deposits its
//! state for the gc workers.
//!
//! Only the semispace heap is supported. `StB` degenerates to a plain
//! store exactly as it does on a semispace [`Machine`] — unless the
//! machine runs under the concurrent-marking collector
//! ([`ParMachine::enable_cms`]), in which case `StB` becomes a
//! snapshot-at-the-beginning *deletion barrier* while a marking cycle
//! is live: it records the pointer value it overwrites into the
//! mutator's [`Mutator::satb_buf`] so concurrent tracing cannot lose an
//! object that was reachable at the snapshot.
//!
//! A machine's words, tags and cms bitmap are [`Zeroed`] memory, fresh
//! pages that cost nothing until they are touched, as on the sequential
//! machine. On the interpreter's path, [`ParWorld`] reads the
//! memory slice directly and tests the cms marking flag inline; the
//! deletion-barrier work sits in a cold method beside it.
//!
//! [`Machine`]: crate::machine::Machine

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, PoisonError};

use m3gc_core::heap::{HeapType, TypeId};

use crate::codemap::CodeMap;
use crate::decode::DecodedCode;
use crate::exec::{self, Cpu, JitPorts, Step, World};
use crate::machine::{VmTrap, GLOBAL_BASE};
use crate::module::VmModule;
use crate::pages::Zeroed;
use crate::shadow::Tag;

/// Relaxed load/store shorthand — see the module docs for why relaxed
/// ordering is sufficient for interpreter data.
const R: Ordering = Ordering::Relaxed;

/// Sizing and memory layout for a [`ParMachine`].
///
/// This is the low-level sizing struct; most callers build a
/// `m3gc_runtime::RuntimeOptions` and let the runtime derive the layout.
#[derive(Debug, Clone, Copy)]
pub struct ParLayout {
    /// Words per heap semispace.
    pub semi_words: usize,
    /// Words per mutator stack.
    pub stack_words: usize,
    /// Number of mutator slots (stack and region areas are pre-carved).
    pub mutators: usize,
    /// Words per thread-local allocation buffer. Each mutator claims a
    /// buffer of this size from the shared frontier with one CAS, then
    /// bump-allocates privately inside it. `0` disables TLABs: every
    /// allocation outside a region CASes the shared frontier directly
    /// (the contended baseline; EXPERIMENTS.md A17 measures it).
    pub tlab_words: usize,
    /// Words per per-request region. `0` (the default) disables regions.
    /// Nonzero puts the machine in allocation-service mode: each mutator
    /// slot owns a region, request-local allocation bumps privately
    /// inside it, and the interpreter watches every `St`/`StB`/`StG` for
    /// stores that leak a region pointer outside its region (see
    /// [`ParMachine::is_region_escaped`]). Regions are reclaimed in O(1)
    /// at request exit unless they escaped. An object that overflows its
    /// region goes through the slot's TLAB like any shared allocation.
    pub region_words: usize,
}

/// Default TLAB size (~1 KiW, per the sizing discussion in DESIGN.md).
pub const DEFAULT_TLAB_WORDS: usize = 1024;

impl Default for ParLayout {
    fn default() -> Self {
        ParLayout {
            semi_words: 1 << 20,
            stack_words: 1 << 16,
            mutators: 1,
            tlab_words: DEFAULT_TLAB_WORDS,
            region_words: 0,
        }
    }
}

/// Injected SATB-barrier faults, for mutation testing the oracle's
/// ability to notice a broken deletion barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatbFault {
    /// The barrier works as designed (default).
    None,
    /// The old value is never enqueued — a classic lost-object bug.
    Drop,
    /// The store is performed *before* the old value is read, so the
    /// barrier enqueues the freshly written value instead of the one it
    /// overwrote — the exact ordering bug SATB exists to forbid.
    Reorder,
}

/// Shared concurrent-marking state ([`ParMachine::enable_cms`]).
///
/// The snapshot-at-the-beginning invariant this state maintains: every
/// object reachable when the marking cycle's snapshot was taken is
/// marked by the time the cycle's final pause finishes. Roots are
/// captured *by value* at the snapshot handshake; every heap pointer
/// overwritten while `marking` is set is enqueued (old value first) by
/// the `StB` deletion barrier; and objects allocated during marking are
/// born black. Nothing moves until the final pause, so marking works on
/// stable addresses.
#[derive(Debug)]
pub struct CmsHeap {
    /// True from the snapshot handshake until the final pause completes.
    /// Mutators read it on every `StB` to decide whether the deletion
    /// barrier is live; acquire/release pairs with the handshake locks.
    pub marking: AtomicBool,
    /// Value of `free` at the snapshot: only objects below it existed at
    /// snapshot time, so only those can be SATB-protected old values.
    /// Allocations at or above it are born black instead.
    pub snap_free: AtomicI64,
    /// Occupancy trigger: once `free` crosses this while no cycle is
    /// running, the next allocation reports "needs gc" to start a
    /// snapshot handshake well before the space is exhausted.
    pub trigger_at: AtomicI64,
    /// Mark bitmap, one bit per memory word; bits are only ever set on
    /// object header addresses. Cleared by the snapshot leader, written
    /// by marking workers and born-black allocation.
    bits: Zeroed<AtomicU64>,
    /// Overflow sink for retired per-mutator SATB buffers; marking
    /// workers drain it between gray-stack batches.
    pub satb_sink: std::sync::Mutex<Vec<i64>>,
    /// Old values enqueued by the deletion barrier (stat).
    pub satb_enqueued: AtomicU64,
    /// SATB entries drained by marking/final-pause tracing (stat).
    pub satb_drained: AtomicU64,
    /// Injected barrier fault (mutation tests only).
    pub satb_fault: AtomicU8,
    /// Test knob: marking workers stand down, so every object that the
    /// barrier (not the tracing race) must save is provably saved by the
    /// barrier alone. Used by the deterministic lost-object reproducer.
    pub hold_marking: AtomicBool,
}

impl CmsHeap {
    fn new(words: usize) -> CmsHeap {
        CmsHeap {
            marking: AtomicBool::new(false),
            snap_free: AtomicI64::new(0),
            trigger_at: AtomicI64::new(i64::MAX),
            bits: Zeroed::new(words.div_ceil(64)),
            satb_sink: std::sync::Mutex::new(Vec::new()),
            satb_enqueued: AtomicU64::new(0),
            satb_drained: AtomicU64::new(0),
            satb_fault: AtomicU8::new(0),
            hold_marking: AtomicBool::new(false),
        }
    }

    /// The injected barrier fault.
    #[must_use]
    pub fn fault(&self) -> SatbFault {
        match self.satb_fault.load(R) {
            1 => SatbFault::Drop,
            2 => SatbFault::Reorder,
            _ => SatbFault::None,
        }
    }

    /// Injects a barrier fault (mutation tests).
    pub fn set_fault(&self, f: SatbFault) {
        let b = match f {
            SatbFault::None => 0,
            SatbFault::Drop => 1,
            SatbFault::Reorder => 2,
        };
        self.satb_fault.store(b, R);
    }

    /// Atomically marks the word at `addr`, returning `true` if this
    /// call set the bit (the caller owns tracing the object).
    pub fn mark_if_unmarked(&self, addr: i64) -> bool {
        let a = addr as usize;
        let old = self.bits[a / 64].fetch_or(1 << (a % 64), R);
        old & (1 << (a % 64)) == 0
    }

    /// True if the word at `addr` is marked.
    #[must_use]
    pub fn is_marked(&self, addr: i64) -> bool {
        let a = addr as usize;
        self.bits[a / 64].load(R) & (1 << (a % 64)) != 0
    }

    /// Clears the whole bitmap (snapshot leader, world stopped).
    pub fn clear_marks(&self) {
        for w in self.bits.iter() {
            w.store(0, R);
        }
    }

    /// Iterates the marked header addresses in `[start, end)` in
    /// address order, calling `f` on each. Used by the final pause's
    /// bitmap evacuation.
    pub fn for_each_marked(&self, start: i64, end: i64, mut f: impl FnMut(i64)) {
        let mut a = start;
        while a < end {
            let word = self.bits[a as usize / 64].load(R);
            let bit = a as usize % 64;
            if word >> bit == 0 {
                // No marked word left in this bitmap word: skip ahead.
                a = (a / 64 + 1) * 64;
                continue;
            }
            if word & (1 << bit) != 0 {
                f(a);
            }
            a += 1;
        }
    }
}

/// Atomic shadow tags, parallel to [`ParMachine::mem`] (the per-register
/// tags live in each [`Mutator`]). See [`crate::shadow`] for the tag
/// semantics; this is the same ground truth, stored so that mutators and
/// gc workers can update it concurrently.
#[derive(Debug)]
pub struct ParShadow {
    /// One tag byte per memory word.
    pub mem: Zeroed<AtomicU8>,
}

impl ParShadow {
    fn new(words: usize) -> ParShadow {
        ParShadow { mem: Zeroed::new(words) }
    }

    /// Reads a memory word's tag.
    #[must_use]
    pub fn mem_tag(&self, addr: i64) -> Tag {
        self.mem.get(addr as usize).map_or(Tag::NonPtr, |t| Tag::from_byte(t.load(R)))
    }

    /// Writes a memory word's tag (out-of-range addresses are ignored —
    /// the real access traps first).
    pub fn set_mem(&self, addr: i64, tag: Tag) {
        if let Some(t) = self.mem.get(addr as usize) {
            t.store(tag.to_byte(), R);
        }
    }

    /// Clears `words` tags starting at `addr`.
    pub fn clear_range(&self, addr: i64, words: i64) {
        for a in addr..addr + words {
            self.set_mem(a, Tag::NonPtr);
        }
    }

    /// Moves an object's tags along with its words (called by the
    /// parallel collector's forwarding routine; the object is claimed,
    /// so no other worker touches these words).
    pub fn copy_words(&self, from: i64, to: i64, words: i64) {
        for w in 0..words {
            let tag = self.mem[(from + w) as usize].load(R);
            self.mem[(to + w) as usize].store(tag, R);
        }
    }
}

/// One OS-thread (or green-request) mutator: a [`Cpu`] plus the private
/// state its [`ParWorld`] needs. `Deref`s to the latter, so
/// `mu.tid`, `mu.output`, `mu.tlab_ptr`, … read as plain fields and
/// `&mut mu` coerces wherever a `&mut MutatorLocal` is expected.
#[derive(Debug, Clone)]
pub struct Mutator {
    /// Register file and frame cursor — everything a gc worker needs to
    /// scan this thread's frames beside the shared stack region, and
    /// exactly what the thread deposits when it parks.
    pub cpu: Cpu,
    /// Thread-private allocation, barrier and output state.
    pub local: MutatorLocal,
}

impl std::ops::Deref for Mutator {
    type Target = MutatorLocal;
    fn deref(&self) -> &MutatorLocal {
        &self.local
    }
}

impl std::ops::DerefMut for Mutator {
    fn deref_mut(&mut self) -> &mut MutatorLocal {
        &mut self.local
    }
}

/// The per-thread half of a [`ParWorld`]: what a mutator owns outright
/// and touches without synchronisation.
#[derive(Debug, Clone, Default)]
pub struct MutatorLocal {
    /// Thread id (stack-region index; also the output-ordering key).
    pub tid: usize,
    /// This thread's program output (concatenated in tid order at exit).
    pub output: String,
    /// Instructions executed by this thread.
    pub steps: u64,
    /// Next free word of this thread's TLAB (`tlab_ptr == tlab_limit`
    /// means no buffer is held and the next allocation refills).
    pub tlab_ptr: i64,
    /// One past the last usable word of this thread's TLAB.
    pub tlab_limit: i64,
    /// Objects allocated since the last stat flush (see
    /// [`ParMachine::retire_tlab`]; global counters are only exact while
    /// this thread is parked or finished).
    pub pending_allocations: u64,
    /// Words allocated since the last stat flush.
    pub pending_alloc_words: u64,
    /// TLAB fast-path (no CAS) allocations since the last stat flush.
    pub pending_tlab_allocs: u64,
    /// Region bump-path allocations since the last stat flush
    /// (allocation-service mode only).
    pub pending_region_allocs: u64,
    /// Words allocated on the region bump path since the last stat flush.
    pub pending_region_words: u64,
    /// SATB deletion-barrier buffer: old pointer values overwritten
    /// while concurrent marking runs, awaiting a flush to the shared
    /// sink. Private to this thread between flushes.
    pub satb_buf: Vec<i64>,
}

/// One mutator's view of the shared machine: the [`World`] its
/// instructions execute against. Gc workers, which run on behalf of no
/// mutator, use one over a fresh [`MutatorLocal`].
pub struct ParWorld<'a> {
    /// The shared machine.
    pub vm: &'a ParMachine,
    /// `vm.mem`, one indirection closer: what every `Ld`/`St` reads.
    mem: &'a [AtomicI64],
    /// The calling thread's private state.
    pub mu: &'a mut MutatorLocal,
}

/// Flush threshold for a mutator's private SATB buffer.
const SATB_FLUSH: usize = 64;

/// One mutator slot's region (allocation-service mode).
#[derive(Debug)]
struct Region {
    /// Bump pointer. Single writer — the owning mutator — while
    /// running; the collection leader reads it with the world stopped
    /// (the handshake provides the ordering).
    ptr: AtomicI64,
    /// A request currently owns this region.
    live: AtomicBool,
    /// A pointer into this region was stored outside it. Sticky until
    /// the region is reset.
    escaped: AtomicBool,
}

/// The shared half of a parallel machine. See the module docs.
pub struct ParMachine {
    /// The loaded module.
    pub module: VmModule,
    decoded: Arc<DecodedCode>,
    /// Flat memory: reserved | globals | stacks | regions | semi A | semi B
    /// (the region area is empty unless `layout.region_words > 0`).
    pub mem: Zeroed<AtomicI64>,
    layout: ParLayout,
    stacks_base: usize,
    regions_base: usize,
    heap_base: usize,
    module_token: u64,

    /// True when semispace A (lower) is the from-space. Written only by
    /// the collection leader while every mutator is parked.
    from_is_lower: AtomicBool,
    /// Next free word in the from-space (CAS bump frontier).
    pub free: AtomicI64,
    /// One past the last usable allocation word.
    pub alloc_limit: AtomicI64,
    /// Set by the thread that wins the collection request; polled by
    /// every mutator at gc-points.
    pub gc_request: AtomicBool,

    /// Objects allocated (all mutators).
    pub allocations: AtomicU64,
    /// Words allocated (all mutators).
    pub words_allocated: AtomicU64,
    /// TLAB refills (one shared-frontier CAS each).
    pub tlab_refills: AtomicU64,
    /// Allocations served by the TLAB fast path (no shared CAS).
    pub tlab_allocs: AtomicU64,
    /// Words discarded from partial TLABs at retirement. Together with
    /// `words_allocated` these account for every word the frontier has
    /// moved past: while all mutators are parked,
    /// `free - from_start == live-prefix words + allocated + waste`.
    pub tlab_waste_words: AtomicU64,
    /// Collections completed.
    pub collections: AtomicU64,
    /// Torture hook: allocations report "needs gc" once `allocations`
    /// reaches this count (`u64::MAX` = disabled, the default).
    pub force_gc_at: AtomicU64,

    /// Region bump-path allocations (allocation-service mode).
    pub region_allocs: AtomicU64,
    /// Words allocated on the region bump path.
    pub region_alloc_words: AtomicU64,
    /// Regions marked escaped (first escaping store per region).
    pub region_escapes: AtomicU64,
    /// Each mutator slot's region.
    regions: Vec<Region>,

    /// Shadow tags, when instrumented ([`ParMachine::enable_shadow`]).
    pub shadow: Option<ParShadow>,
    /// Concurrent-marking state, when the machine runs under the `cms`
    /// collector ([`ParMachine::enable_cms`]).
    pub cms: Option<CmsHeap>,
    /// Native-code address map installed by the JIT engine (see
    /// [`crate::codemap`]): resolves biased native return tokens in
    /// frame linkage words back to bytecode gc-point pcs.
    code_map: Option<Arc<CodeMap>>,
}

impl ParMachine {
    /// Loads a module.
    ///
    /// # Panics
    ///
    /// Panics if the module's code or gc maps are malformed (they come
    /// from the compiler, so this is a bug).
    #[must_use]
    pub fn new(module: VmModule, layout: impl Into<ParLayout>) -> ParMachine {
        let layout = layout.into();
        assert!(layout.mutators >= 1, "at least one mutator");
        let decoded = Arc::new(DecodedCode::of(&module));
        let stacks_base = GLOBAL_BASE + module.globals_words as usize;
        let regions_base = stacks_base + layout.stack_words * layout.mutators;
        let heap_base = regions_base + layout.region_words * layout.mutators;
        let total = heap_base + 2 * layout.semi_words;
        let module_token = crate::machine::next_module_token();
        let regions = (0..layout.mutators)
            .map(|slot| Region {
                ptr: AtomicI64::new((regions_base + slot * layout.region_words) as i64),
                live: AtomicBool::new(false),
                escaped: AtomicBool::new(false),
            })
            .collect();
        ParMachine {
            module,
            decoded,
            mem: Zeroed::new(total),
            layout,
            stacks_base,
            regions_base,
            heap_base,
            module_token,
            from_is_lower: AtomicBool::new(true),
            free: AtomicI64::new(heap_base as i64),
            alloc_limit: AtomicI64::new((heap_base + layout.semi_words) as i64),
            gc_request: AtomicBool::new(false),
            allocations: AtomicU64::new(0),
            words_allocated: AtomicU64::new(0),
            tlab_refills: AtomicU64::new(0),
            tlab_allocs: AtomicU64::new(0),
            tlab_waste_words: AtomicU64::new(0),
            collections: AtomicU64::new(0),
            force_gc_at: AtomicU64::new(u64::MAX),
            region_allocs: AtomicU64::new(0),
            region_alloc_words: AtomicU64::new(0),
            region_escapes: AtomicU64::new(0),
            regions,
            shadow: None,
            cms: None,
            code_map: None,
        }
    }

    /// Turns on shadow root tracking. Must be called before the machine
    /// is shared (hence `&mut`).
    pub fn enable_shadow(&mut self) {
        self.shadow = Some(ParShadow::new(self.mem.len()));
    }

    /// Installs the JIT engine's native-code address map. Must be called
    /// before the machine is shared (hence `&mut`).
    pub fn set_code_map(&mut self, map: Arc<CodeMap>) {
        self.code_map = Some(map);
    }

    /// The installed native-code address map, if a JIT is attached.
    #[must_use]
    pub fn code_map(&self) -> Option<&Arc<CodeMap>> {
        self.code_map.as_ref()
    }

    /// Resolves a frame linkage return word to a bytecode pc (see
    /// `World::resolve_retpc`: an unresolvable token comes back as
    /// `u32::MAX`).
    #[must_use]
    pub fn resolve_retpc(&self, retpc: i64) -> u32 {
        exec::resolve_retpc(self.code_map.as_deref(), retpc)
    }

    /// Turns on concurrent-marking (SATB) support. Must be called before
    /// the machine is shared (hence `&mut`).
    ///
    /// # Panics
    ///
    /// Panics if allocation-service regions are enabled: region
    /// reclamation moves objects outside the collection handshake, which
    /// would invalidate snapshot marking.
    pub fn enable_cms(&mut self) {
        assert!(self.layout.region_words == 0, "cms is incompatible with regions");
        let cms = CmsHeap::new(self.mem.len());
        cms.trigger_at.store(self.heap_base as i64 + (3 * self.layout.semi_words as i64) / 4, R);
        self.cms = Some(cms);
    }

    /// The number of mutator stack regions.
    #[must_use]
    pub fn mutators(&self) -> usize {
        self.layout.mutators
    }

    /// Words per semispace.
    #[must_use]
    pub fn semi_words(&self) -> usize {
        self.layout.semi_words
    }

    /// Words per per-request region (0 when allocation-service mode is
    /// off).
    #[must_use]
    pub fn region_words(&self) -> usize {
        self.layout.region_words
    }

    /// Total memory words.
    #[must_use]
    pub fn mem_words(&self) -> usize {
        self.mem.len()
    }

    /// Start of the global area.
    #[must_use]
    pub fn globals_start(&self) -> usize {
        GLOBAL_BASE
    }

    /// The module-lifetime token (see `Machine::module_token`).
    #[must_use]
    pub fn module_token(&self) -> u64 {
        self.module_token
    }

    /// The module's predecoded program (shared with the JIT engine
    /// built for this machine).
    #[must_use]
    pub fn decoded(&self) -> &Arc<DecodedCode> {
        &self.decoded
    }

    /// True if `pc` is a gc-point.
    #[must_use]
    pub fn is_gc_point_pc(&self, pc: u32) -> bool {
        self.decoded.is_gc_point_pc(pc)
    }

    /// True if `pc` is an explicit poll site (a `GcPoint` instruction,
    /// as opposed to an allocation gc-point).
    #[must_use]
    pub fn is_poll_pc(&self, pc: u32) -> bool {
        self.decoded.is_poll_pc(pc)
    }

    /// The from-space (currently allocated-into) bounds `[start, end)`.
    #[must_use]
    pub fn from_space(&self) -> (i64, i64) {
        let start = if self.from_is_lower.load(R) {
            self.heap_base
        } else {
            self.heap_base + self.layout.semi_words
        };
        (start as i64, (start + self.layout.semi_words) as i64)
    }

    /// The to-space bounds `[start, end)`.
    #[must_use]
    pub fn to_space(&self) -> (i64, i64) {
        let start = if self.from_is_lower.load(R) {
            self.heap_base + self.layout.semi_words
        } else {
            self.heap_base
        };
        (start as i64, (start + self.layout.semi_words) as i64)
    }

    /// True if `addr` lies in dead space: the just-collected semispace,
    /// or a reclaimed (free) per-request region. A pointer into a free
    /// region is exactly an "escaping object reclaimed with its region"
    /// failure, so shadow mode turns any access through one into a
    /// [`VmTrap::StalePointer`].
    #[must_use]
    pub fn in_dead_space(&self, addr: i64) -> bool {
        let (s, e) = self.to_space();
        if (s..e).contains(&addr) {
            return true;
        }
        match self.region_slot_of(addr) {
            Some(slot) => !self.regions[slot].live.load(R) && !self.regions[slot].escaped.load(R),
            None => false,
        }
    }

    /// Bounds `[start, end)` of `slot`'s per-request region.
    ///
    /// # Panics
    ///
    /// Panics if regions are disabled or `slot` is out of range.
    #[must_use]
    pub fn region_bounds(&self, slot: usize) -> (i64, i64) {
        assert!(self.layout.region_words > 0, "regions disabled");
        assert!(slot < self.layout.mutators, "region slot out of range");
        let start = self.regions_base + slot * self.layout.region_words;
        (start as i64, (start + self.layout.region_words) as i64)
    }

    /// The region slot whose area contains `addr`, if any.
    #[must_use]
    pub fn region_slot_of(&self, addr: i64) -> Option<usize> {
        if self.layout.region_words == 0 || addr < self.regions_base as i64 {
            return None;
        }
        let a = addr as usize;
        if a >= self.heap_base {
            return None;
        }
        Some((a - self.regions_base) / self.layout.region_words)
    }

    /// Words currently allocated in `slot`'s region.
    #[must_use]
    pub fn region_used(&self, slot: usize) -> i64 {
        self.regions[slot].ptr.load(R) - self.region_bounds(slot).0
    }

    /// One past the last allocated word of `slot`'s region (collector
    /// use: the linear-scan upper bound).
    #[must_use]
    pub fn region_top(&self, slot: usize) -> i64 {
        self.regions[slot].ptr.load(R)
    }

    /// True while a request owns `slot`'s region.
    #[must_use]
    pub fn is_region_live(&self, slot: usize) -> bool {
        self.regions[slot].live.load(R)
    }

    /// True once a pointer into `slot`'s region has been stored outside
    /// it (sticky until the region resets).
    #[must_use]
    pub fn is_region_escaped(&self, slot: usize) -> bool {
        self.regions[slot].escaped.load(R)
    }

    /// True if `slot` holds a zombie region: its request exited but a
    /// pointer escaped, so the data must stay intact until the next
    /// stop-the-world collection evacuates the reachable objects.
    #[must_use]
    pub fn is_region_zombie(&self, slot: usize) -> bool {
        !self.regions[slot].live.load(R) && self.regions[slot].escaped.load(R)
    }

    /// Opens `slot`'s region for a new request.
    ///
    /// # Panics
    ///
    /// Panics if the slot still holds a zombie region (a collection must
    /// reset it first) or is already live.
    pub fn begin_region(&self, slot: usize) {
        assert!(!self.is_region_zombie(slot), "slot holds an uncollected zombie region");
        assert!(!self.regions[slot].live.load(R), "region already live");
        self.regions[slot].ptr.store(self.region_bounds(slot).0, R);
        self.regions[slot].escaped.store(false, R);
        self.regions[slot].live.store(true, R);
    }

    /// Closes `slot`'s region at request exit. If no pointer escaped,
    /// the region is reclaimed in O(1) — bump pointer reset, slot
    /// immediately reusable — and `Some(words reclaimed)` is returned.
    /// If it escaped the region becomes a zombie and `None` is returned;
    /// [`ParMachine::reset_region`] reclaims it after the next
    /// collection rewrites every surviving reference.
    ///
    /// The owner can read its own escape flag without synchronisation:
    /// the *first* escaping store of a region is always executed by the
    /// owning mutator itself (any other thread can only obtain the
    /// pointer by loading it from shared memory, i.e. after such a
    /// store), and it happens-before the owner's exit in program order.
    pub fn end_region(&self, slot: usize) -> Option<i64> {
        self.regions[slot].live.store(false, R);
        if self.regions[slot].escaped.load(R) {
            return None;
        }
        Some(self.reset_region(slot))
    }

    /// Resets `slot`'s region to empty, zeroing the used prefix and its
    /// shadow tags, and clearing the escaped flag. Returns the words
    /// reclaimed. The live flag is *not* touched: `end_region` clears it
    /// before calling here, while a collector resetting an escaped
    /// still-live region (its objects were just evacuated to the shared
    /// heap) must leave the owner's region open for further allocation.
    /// Clearing `escaped` is sound in both cases because every surviving
    /// reference into the region has been rewritten by then.
    pub fn reset_region(&self, slot: usize) -> i64 {
        let (base, _) = self.region_bounds(slot);
        let used = self.regions[slot].ptr.load(R) - base;
        self.zero_words(base, used);
        if let Some(sh) = &self.shadow {
            sh.clear_range(base, used);
        }
        self.regions[slot].ptr.store(base, R);
        self.regions[slot].escaped.store(false, R);
        used
    }

    /// Unchecked word read (collector use; `addr` must be in range).
    /// Inlined: the copier in `m3gc-runtime` calls it per heap word.
    #[inline]
    #[must_use]
    pub fn word(&self, addr: i64) -> i64 {
        self.mem[addr as usize].load(R)
    }

    /// Unchecked word write (collector use; `addr` must be in range).
    #[inline]
    pub fn set_word(&self, addr: i64, v: i64) {
        self.mem[addr as usize].store(v, R);
    }

    /// Zeroes `words` words from `addr` with relaxed stores — the one
    /// clear loop behind allocation, TLAB retirement, region reset and
    /// a `Call`'s frame. The caller owns the range.
    #[inline]
    fn zero_words(&self, addr: i64, words: i64) {
        for w in &self.mem[addr as usize..(addr + words) as usize] {
            w.store(0, R);
        }
    }

    /// Completes a collection: the spaces flip and allocation resumes at
    /// `new_free`. Must only be called by the collection leader while
    /// every mutator is parked (the runtime's handshake provides the
    /// ordering; these stores are not a synchronisation point).
    ///
    /// # Panics
    ///
    /// Panics if `new_free` lies outside the (new) from-space.
    pub fn finish_collection(&self, new_free: i64) {
        let (to_start, to_end) = self.to_space();
        assert!((to_start..=to_end).contains(&new_free), "alloc ptr outside new space");
        self.from_is_lower.store(!self.from_is_lower.load(R), R);
        self.free.store(new_free, R);
        self.alloc_limit.store(to_end, R);
        self.collections.fetch_add(1, R);
        if let Some(cms) = &self.cms {
            // Re-arm the occupancy trigger at 3/4 of the new space so
            // the next marking cycle starts with headroom for the
            // mutators to keep allocating while it traces.
            cms.trigger_at.store(to_start + (3 * self.layout.semi_words as i64) / 4, R);
        }
    }

    /// Spawns a mutator running procedure `proc` with the given argument
    /// words in stack region `tid`. The caller moves the returned
    /// [`Mutator`] onto its OS thread.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range or `proc` is invalid.
    #[must_use]
    pub fn spawn_mutator(&self, tid: usize, proc: u16, args: &[i64]) -> Mutator {
        assert!(tid < self.layout.mutators, "mutator id out of range");
        let stack_base = (self.stacks_base + tid * self.layout.stack_words) as i64;
        let stack = (stack_base, stack_base + self.layout.stack_words as i64);
        let mut local = MutatorLocal { tid, ..MutatorLocal::default() };
        let cpu = exec::spawn(&mut self.world(&mut local), stack, proc, args);
        Mutator { cpu, local }
    }

    /// `mu`'s view of this machine, for the execution core.
    pub fn world<'a>(&'a self, mu: &'a mut MutatorLocal) -> ParWorld<'a> {
        ParWorld { vm: self, mem: &self.mem, mu }
    }

    /// Executes one instruction of `mu`.
    pub fn step(&self, mu: &mut Mutator) -> Step {
        let step = exec::step(&mut mu.cpu, &self.decoded, &mut self.world(&mut mu.local));
        mu.local.steps += u64::from(step != Step::AtSafepoint);
        step
    }

    /// Claims `words` from the shared frontier with a CAS bump loop.
    /// `None` means the space is exhausted and a collection is required.
    fn cas_claim(&self, words: i64) -> Option<i64> {
        let mut addr = self.free.load(R);
        loop {
            if addr + words > self.alloc_limit.load(R) {
                return None;
            }
            match self.free.compare_exchange_weak(addr, addr + words, R, R) {
                Ok(_) => return Some(addr),
                Err(cur) => addr = cur,
            }
        }
    }

    /// Flushes `mu`'s locally-buffered allocation counters into the
    /// shared totals. The shared counters are only exact at points where
    /// every mutator has flushed (park, retirement, thread exit) — which
    /// is exactly when the runtime reads them.
    pub fn flush_alloc_stats(&self, mu: &mut MutatorLocal) {
        if mu.pending_allocations > 0 {
            self.allocations.fetch_add(mu.pending_allocations, R);
            self.words_allocated.fetch_add(mu.pending_alloc_words, R);
            mu.pending_allocations = 0;
            mu.pending_alloc_words = 0;
        }
        if mu.pending_tlab_allocs > 0 {
            self.tlab_allocs.fetch_add(mu.pending_tlab_allocs, R);
            mu.pending_tlab_allocs = 0;
        }
        if mu.pending_region_allocs > 0 {
            self.region_allocs.fetch_add(mu.pending_region_allocs, R);
            self.region_alloc_words.fetch_add(mu.pending_region_words, R);
            mu.pending_region_allocs = 0;
            mu.pending_region_words = 0;
        }
    }

    /// Retires `mu`'s TLAB (if any) and flushes its allocation stats.
    /// A buffer that is still the newest claim (`free == tlab_limit`:
    /// nothing above it was claimed) hands its unused tail back to the
    /// frontier; those words were never handed out, and `try_alloc`
    /// zeroes whatever it hands out. Otherwise the tail is zeroed and
    /// accounted as waste. Either way the shared frontier is exact
    /// again: gc workers and the collection leader see no words in
    /// limbo. Must be called before the mutator parks at a safepoint or
    /// exits; after a collection the old buffer would lie in dead space,
    /// so parking without retiring would be unsound.
    pub fn retire_tlab(&self, mu: &mut MutatorLocal) {
        let waste = mu.tlab_limit - mu.tlab_ptr;
        if waste > 0 && self.free.compare_exchange(mu.tlab_limit, mu.tlab_ptr, R, R).is_err() {
            self.zero_words(mu.tlab_ptr, waste);
            if let Some(sh) = &self.shadow {
                sh.clear_range(mu.tlab_ptr, waste);
            }
            self.tlab_waste_words.fetch_add(waste as u64, R);
        }
        mu.tlab_ptr = 0;
        mu.tlab_limit = 0;
        self.flush_alloc_stats(mu);
        self.flush_satb(mu);
    }

    /// Publishes `mu`'s private SATB buffer to the shared sink where
    /// marking workers drain it. Called when the buffer fills and,
    /// unconditionally, from [`ParMachine::retire_tlab`] — which runs on
    /// every park, lead and thread-exit path, so no entry is ever left
    /// behind when the final pause drains residual buffers.
    pub fn flush_satb(&self, mu: &mut MutatorLocal) {
        if mu.satb_buf.is_empty() {
            return;
        }
        let Some(cms) = &self.cms else {
            mu.satb_buf.clear();
            return;
        };
        // The sink is a plain `Vec` that a panic cannot leave half
        // appended, so a poisoned lock is recovered, as the runtime's
        // `locked` does for the sink's other users.
        cms.satb_sink.lock().unwrap_or_else(PoisonError::into_inner).append(&mut mu.satb_buf);
    }

    /// The SATB deletion barrier behind `StB`: while marking, record the
    /// pointer value the store is about to overwrite, so the object it
    /// references cannot be lost even if every other path to it is cut.
    /// Old values outside the snapshot prefix (born black) or already
    /// marked need no protection.
    fn satb_record_old(&self, cms: &CmsHeap, mu: &mut MutatorLocal, old: i64) {
        let (from_start, _) = self.from_space();
        if old == 0 || old < from_start || old >= cms.snap_free.load(R) || cms.is_marked(old) {
            return;
        }
        cms.satb_enqueued.fetch_add(1, R);
        mu.satb_buf.push(old);
        if mu.satb_buf.len() >= SATB_FLUSH {
            self.flush_satb(mu);
        }
    }

    /// Allocation: region bump in serve mode, else TLAB bump fast path,
    /// one-CAS refill slow path, direct shared CAS for oversized
    /// objects; `Ok(None)` means "needs gc".
    pub fn try_alloc(
        &self,
        mu: &mut MutatorLocal,
        ty: u16,
        len: i64,
    ) -> Result<Option<i64>, VmTrap> {
        if len < 0 {
            return Err(VmTrap::RangeError);
        }
        let force_at = self.force_gc_at.load(R);
        let torture = force_at != u64::MAX;
        if torture && self.allocations.load(R) + mu.pending_allocations >= force_at {
            return Ok(None);
        }
        if let Some(cms) = &self.cms {
            // Occupancy trigger: start a marking cycle while allocation
            // headroom remains, so tracing genuinely overlaps mutation
            // instead of always being driven by a full heap.
            if !cms.marking.load(R) && self.free.load(R) >= cms.trigger_at.load(R) {
                return Ok(None);
            }
        }
        let desc = self.module.types.get(TypeId(u32::from(ty)));
        let words = i64::from(desc.checked_object_words(len).ok_or(VmTrap::OutOfMemory)?);
        if words > self.layout.semi_words as i64 {
            return Err(VmTrap::OutOfMemory);
        }
        // Allocation-service mode: request-local bump into the slot's
        // region, no shared traffic. An object that would overflow the
        // region is a shared allocation like any other, TLAB first.
        let region = self.layout.region_words > 0 && self.regions[mu.tid].live.load(R);
        let ptr = if region { self.regions[mu.tid].ptr.load(R) } else { 0 };
        let addr = if region && ptr + words <= self.region_bounds(mu.tid).1 {
            self.regions[mu.tid].ptr.store(ptr + words, R);
            mu.pending_region_allocs += 1;
            mu.pending_region_words += words as u64;
            ptr
        } else if mu.tlab_ptr + words <= mu.tlab_limit {
            // Fast path: private bump inside the TLAB, no shared traffic.
            let a = mu.tlab_ptr;
            mu.tlab_ptr = a + words;
            mu.pending_tlab_allocs += 1;
            a
        } else {
            let tlab_words = self.layout.tlab_words as i64;
            if tlab_words == 0 || words > tlab_words {
                // TLABs disabled, or the object would not fit even in a
                // fresh buffer: claim it from the shared frontier
                // directly, leaving the current TLAB intact.
                match self.cas_claim(words) {
                    Some(a) => a,
                    None => return Ok(None),
                }
            } else {
                // Refill: retire what is left of the old buffer, then
                // claim a whole new one with a single CAS. If the space
                // cannot fit a full buffer, fall back to claiming just
                // this object so the last words of the space are still
                // usable before a collection is forced.
                self.retire_tlab(mu);
                match self.cas_claim(tlab_words) {
                    Some(base) => {
                        mu.tlab_ptr = base + words;
                        mu.tlab_limit = base + tlab_words;
                        self.tlab_refills.fetch_add(1, R);
                        base
                    }
                    None => match self.cas_claim(words) {
                        Some(a) => a,
                        None => return Ok(None),
                    },
                }
            }
        };
        // Zero the object (the space may hold stale data from before a
        // previous flip). The words are exclusively ours: either the
        // bump CAS reserved them or they lie inside our TLAB.
        self.zero_words(addr, words);
        if let Some(sh) = &self.shadow {
            sh.clear_range(addr, words);
        }
        self.mem[addr as usize].store(i64::from(ty), R);
        if matches!(desc, HeapType::Array { .. }) {
            self.mem[addr as usize + 1].store(len, R);
        }
        if let Some(cms) = &self.cms {
            // Born black: objects allocated during marking are marked at
            // birth, so concurrent tracing never needs to visit them and
            // the final pause's bitmap evacuation keeps them alive.
            if cms.marking.load(R) {
                cms.mark_if_unmarked(addr);
            }
        }
        mu.pending_allocations += 1;
        mu.pending_alloc_words += words as u64;
        if torture {
            // Torture counts individual allocations to schedule forced
            // collections; keep the shared counter exact per-allocation.
            self.flush_alloc_stats(mu);
        }
        Ok(Some(addr))
    }

    /// Escape detection (allocation-service mode): a store whose value
    /// is a pointer into a live region and whose target lies outside
    /// both that region and its owner's stack marks the region escaped.
    ///
    /// This must run at the machine level on every `St`/`StB`/`StG` —
    /// codegen's write barriers cannot carry it, because barriers are
    /// elided by *target* (statically non-pointer value, nursery-fresh
    /// object, frame-slot or global address) and direct global
    /// assignment emits `StG` with no barrier at all. `StF`/`Push` are
    /// exempt: a mutator's stack is request-private and dies with the
    /// request. A non-pointer word whose value happens to alias a
    /// region address only costs a spurious escape (the region is kept
    /// as a zombie and traced), never an unsound reclaim.
    fn note_escape(&self, addr: i64, value: i64) {
        let Some(vs) = self.region_slot_of(value) else { return };
        if !self.regions[vs].live.load(R) {
            return;
        }
        let (rb, re) = self.region_bounds(vs);
        if (rb..re).contains(&addr) {
            return; // intra-region store
        }
        let sb = (self.stacks_base + vs * self.layout.stack_words) as i64;
        if (sb..sb + self.layout.stack_words as i64).contains(&addr) {
            return; // the owner's private stack dies with the request
        }
        if !self.regions[vs].escaped.swap(true, R) {
            self.region_escapes.fetch_add(1, R);
        }
    }
}

impl World for ParWorld<'_> {
    fn module(&self) -> &VmModule {
        &self.vm.module
    }

    fn code_map(&self) -> Option<&CodeMap> {
        self.vm.code_map.as_deref()
    }

    #[inline]
    fn mem_words(&self) -> usize {
        self.mem.len()
    }

    #[inline]
    fn word(&self, addr: i64) -> i64 {
        self.mem[addr as usize].load(R)
    }

    #[inline]
    fn set_word(&mut self, addr: i64, v: i64) {
        self.mem[addr as usize].store(v, R);
    }

    #[inline]
    fn zero(&mut self, addr: i64, words: i64) {
        self.vm.zero_words(addr, words);
    }

    /// The shared request flag; the loop reads it only at park sites
    /// (allocations and polls).
    #[inline]
    fn gc_requested(&self) -> bool {
        self.vm.gc_request.load(R)
    }

    fn alloc(&mut self, ty: u16, len: i64) -> Result<Option<i64>, VmTrap> {
        self.vm.try_alloc(self.mu, ty, len)
    }

    /// `StB`: a plain store — exactly as on a semispace `Machine` —
    /// unless a cms marking cycle is live, when `barrier_store_cold`
    /// runs the deletion barrier.
    #[inline]
    fn barrier_store(&mut self, addr: i64, value: i64) -> Result<(), VmTrap> {
        let vm = self.vm;
        match &vm.cms {
            Some(c) if c.marking.load(Ordering::Acquire) => self.barrier_store_cold(c, addr, value),
            _ => self.store(addr, value),
        }
    }

    #[inline]
    fn note_escape(&mut self, addr: i64, value: i64) {
        if self.vm.layout.region_words > 0 {
            self.vm.note_escape(addr, value);
        }
    }

    fn sys(&mut self, code: u8, arg: i64) -> Result<(), VmTrap> {
        exec::sys_to(&mut self.mu.output, code, arg)
    }

    #[inline]
    fn shadow_on(&self) -> bool {
        self.vm.shadow.is_some()
    }

    fn mem_tag(&self, addr: i64) -> Tag {
        self.vm.shadow.as_ref().map_or(Tag::NonPtr, |sh| sh.mem_tag(addr))
    }

    fn set_mem_tag(&mut self, addr: i64, tag: Tag) {
        if let Some(sh) = &self.vm.shadow {
            sh.set_mem(addr, tag);
        }
    }

    fn clear_tags(&mut self, addr: i64, words: i64) {
        if let Some(sh) = &self.vm.shadow {
            sh.clear_range(addr, words);
        }
    }

    fn in_dead_space(&self, addr: i64) -> bool {
        self.vm.in_dead_space(addr)
    }

    fn jit_ports(&mut self) -> JitPorts {
        JitPorts {
            // AtomicI64 has the same in-memory representation as i64;
            // the generated plain 64-bit loads/stores are relaxed atomic
            // accesses on x86-64, exactly like `word`/`set_word`.
            mem: self.mem.as_ptr().cast::<i64>().cast_mut(),
            gc_flag: std::ptr::from_ref(&self.vm.gc_request).cast(),
            alloc_ptr: std::ptr::null_mut(),
            alloc_fast_limit: std::ptr::null(),
            alloc_count: std::ptr::null_mut(),
            words: std::ptr::null_mut(),
        }
    }
}

/// The cold half of [`World::barrier_store`]: taken only while a cms
/// marking cycle is live.
impl ParWorld<'_> {
    /// `StB` as a snapshot-at-the-beginning *deletion barrier*.
    #[cold]
    #[inline(never)]
    fn barrier_store_cold(&mut self, cms: &CmsHeap, addr: i64, value: i64) -> Result<(), VmTrap> {
        match cms.fault() {
            SatbFault::None => {
                // Deletion barrier: read the old value *before*
                // overwriting it.
                let old = self.load(addr)?;
                self.store(addr, value)?;
                self.vm.satb_record_old(cms, self.mu, old);
            }
            SatbFault::Drop => self.store(addr, value)?,
            SatbFault::Reorder => {
                // Buggy ordering: store first, then "record the old
                // value" — which now reads the new one, so the
                // barrier enqueues the wrong pointer.
                self.store(addr, value)?;
                let old = self.load(addr)?;
                self.vm.satb_record_old(cms, self.mu, old);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use m3gc_core::encode::{encode_module, Scheme};
    use m3gc_core::heap::TypeTable;
    use m3gc_core::tables::ModuleTables;

    use super::*;
    use crate::asm::Assembler;
    use crate::isa::Instr;
    use crate::module::ProcMeta;

    /// A module whose `main` (no frame) is `main`, over one record type
    /// `Rec` (type 0) with a pointer field at word 1.
    fn module(main: &[Instr]) -> VmModule {
        let mut a = Assembler::new();
        for i in main {
            a.emit(i);
        }
        let code = a.finish();
        let mut types = TypeTable::default();
        types.add(HeapType::Record { name: "Rec".into(), words: 2, ptr_offsets: vec![0] });
        let tables = ModuleTables::default();
        VmModule {
            procs: vec![ProcMeta {
                name: "main".into(),
                entry_pc: 0,
                end_pc: code.len() as u32,
                frame_words: 0,
                save_regs: vec![],
                n_args: 0,
            }],
            code,
            types,
            globals_words: 4,
            global_ptr_roots: vec![],
            main: 0,
            gc_maps: encode_module(&tables, Scheme::DELTA_MAIN_PP),
            logical_maps: tables,
        }
    }

    fn layout(region_words: usize) -> ParLayout {
        ParLayout { semi_words: 1 << 12, stack_words: 64, mutators: 2, tlab_words: 0, region_words }
    }

    /// A cms machine running `main`, with one mutator spawned on it.
    fn cms_machine(main: &[Instr]) -> (ParMachine, Mutator) {
        let mut vm = ParMachine::new(module(main), layout(0));
        vm.enable_cms();
        let mu = vm.spawn_mutator(0, 0, &[]);
        (vm, mu)
    }

    fn alloc_rec(vm: &ParMachine, mu: &mut Mutator) -> i64 {
        vm.try_alloc(mu, 0, 0).expect("no trap").expect("room")
    }

    /// Runs `mu` to completion through `exec::run`.
    fn run_to_end(vm: &ParMachine, mu: &mut Mutator) {
        let world = &mut vm.world(&mut mu.local);
        let (step, _) = exec::run(&mut mu.cpu, vm.decoded(), world, u64::MAX, u64::MAX);
        assert_eq!(step, Step::Finished);
    }

    #[test]
    fn fresh_machine_reads_zero() {
        let mut vm = ParMachine::new(module(&[Instr::Halt]), layout(0));
        vm.enable_shadow();
        vm.enable_cms();
        let words = vm.mem_words() as i64;
        let cms = vm.cms.as_ref().unwrap();
        let shadow = vm.shadow.as_ref().unwrap();
        for a in 0..words {
            assert_eq!(vm.word(a), 0, "word {a}");
            assert_eq!(shadow.mem[a as usize].load(R), 0, "tag {a}");
            assert!(!cms.is_marked(a), "mark bit {a}");
        }
        let regions = ParMachine::new(module(&[Instr::Halt]), layout(16));
        for slot in 0..regions.mutators() {
            assert!(!regions.is_region_live(slot) && !regions.is_region_escaped(slot));
            assert_eq!(regions.region_used(slot), 0);
        }
    }

    #[test]
    fn stb_records_the_overwritten_pointer_only_while_marking() {
        let stb = [Instr::StB { base: 1, off: 1, src: 2 }, Instr::Halt];
        for marking in [false, true] {
            let (vm, mut mu) = cms_machine(&stb);
            let (a, old, new) =
                (alloc_rec(&vm, &mut mu), alloc_rec(&vm, &mut mu), alloc_rec(&vm, &mut mu));
            vm.set_word(a + 1, old);
            let cms = vm.cms.as_ref().unwrap();
            cms.snap_free.store(vm.free.load(R), R);
            cms.marking.store(marking, R);
            mu.cpu.regs[1] = a;
            mu.cpu.regs[2] = new;
            run_to_end(&vm, &mut mu);
            assert_eq!(vm.word(a + 1), new, "marking {marking}: the store lands");
            let pushed = if marking { vec![old] } else { vec![] };
            assert_eq!(mu.satb_buf, pushed, "marking {marking}");
            assert_eq!(cms.satb_enqueued.load(R), pushed.len() as u64);
        }
    }

    #[test]
    fn flush_satb_survives_a_poisoned_sink() {
        let (vm, mut mu) = cms_machine(&[Instr::Halt]);
        let cms = vm.cms.as_ref().unwrap();
        cms.satb_sink.lock().unwrap().push(7);
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = cms.satb_sink.lock().unwrap();
                panic!("poisoning the satb sink on purpose");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cms.satb_sink.is_poisoned());
        mu.satb_buf.extend([11, 13]);
        vm.flush_satb(&mut mu);
        assert!(mu.satb_buf.is_empty());
        let sink = cms.satb_sink.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(*sink, vec![7, 11, 13], "no entry lost");
    }

    #[test]
    fn tag_bytes_roundtrip() {
        for tag in [Tag::NonPtr, Tag::Ptr, Tag::Derived] {
            assert_eq!(Tag::from_byte(tag.to_byte()), tag);
        }
        assert_eq!(Tag::from_byte(99), Tag::NonPtr);
    }

    #[test]
    fn par_machine_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<ParMachine>();
    }

    #[test]
    fn cms_bitmap_marks_and_iterates() {
        let cms = CmsHeap::new(1 << 10);
        for addr in [3_i64, 64, 65, 700] {
            assert!(!cms.is_marked(addr));
            assert!(cms.mark_if_unmarked(addr), "first mark wins");
            assert!(!cms.mark_if_unmarked(addr), "second mark loses");
            assert!(cms.is_marked(addr));
        }
        let mut seen = Vec::new();
        cms.for_each_marked(0, 1 << 10, |a| seen.push(a));
        assert_eq!(seen, vec![3, 64, 65, 700]);
        let mut window = Vec::new();
        cms.for_each_marked(64, 700, |a| window.push(a));
        assert_eq!(window, vec![64, 65]);
        cms.clear_marks();
        assert!(!cms.is_marked(3));
    }

    #[test]
    fn satb_fault_roundtrip() {
        let cms = CmsHeap::new(64);
        assert_eq!(cms.fault(), SatbFault::None);
        for f in [SatbFault::Drop, SatbFault::Reorder, SatbFault::None] {
            cms.set_fault(f);
            assert_eq!(cms.fault(), f);
        }
    }
}
