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
//! Safepoints: the machine checks the shared request flag only at
//! gc-point pcs (allocation sites and the explicit loop back-edge polls
//! `codegen::gcpoints` inserts — §5.3's guarantee that a thread reaches
//! a describable state in bounded time). [`Step::AtSafepoint`] hands
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
//! Memory is zeroed on demand (`zeroed_vec`): a machine's words, tags
//! and cms bitmaps cost nothing until they are touched, as `Machine`'s
//! `vec![0; n]` does. On the interpreter's path, [`ParWorld`] reads the
//! memory slice directly and tests the cms flags inline; the forwarding
//! and deletion-barrier work sits in cold methods beside it.
//!
//! [`Machine`]: crate::machine::Machine

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, PoisonError};

use m3gc_core::heap::{HeapType, TypeId};

use crate::codemap::CodeMap;
use crate::decode::DecodedCode;
use crate::exec::{self, Cpu, JitPorts, Step, World};
use crate::machine::{VmTrap, GLOBAL_BASE};
use crate::module::VmModule;
use crate::shadow::Tag;

/// Relaxed load/store shorthand — see the module docs for why relaxed
/// ordering is sufficient for interpreter data.
const R: Ordering = Ordering::Relaxed;

/// Atomics whose all-zero bit pattern is a valid value (`0`, `false`).
/// Private and implemented for these four only, so [`zeroed_vec`] can
/// build nothing else.
trait ZeroIsValid {}
impl ZeroIsValid for AtomicI64 {}
impl ZeroIsValid for AtomicU64 {}
impl ZeroIsValid for AtomicU8 {}
impl ZeroIsValid for AtomicBool {}

/// `n` zero-valued atomics straight from `alloc_zeroed`. A large block
/// is fresh pages the kernel zeroes on first touch, so an untouched
/// word costs no write and no resident memory; collecting
/// `AtomicI64::new(0)` one at a time wrote (and faulted in) every page
/// of a 2 M-word machine before its first instruction.
fn zeroed_vec<T: ZeroIsValid>(n: usize) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    let layout = Layout::array::<T>(n).expect("machine memory size overflows");
    // SAFETY: `layout` has a nonzero size (`n > 0`, and every
    // `ZeroIsValid` type is nonzero-sized), as `alloc_zeroed` requires. A
    // null result is diverted to `handle_alloc_error`. Otherwise the
    // block came from the global allocator with `T`'s alignment and room
    // for exactly `n` `T`s, which is what `from_raw_parts(p, n, n)`
    // requires of its capacity; and all `n` elements are initialised,
    // because all-zero bytes are a valid `T` for every `ZeroIsValid`
    // type.
    unsafe {
        let p = alloc_zeroed(layout).cast::<T>();
        if p.is_null() {
            handle_alloc_error(layout);
        }
        Vec::from_raw_parts(p, n, n)
    }
}

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
    /// allocation CASes the shared frontier directly (the contended
    /// baseline the `allocfast` bench measures against).
    pub tlab_words: usize,
    /// Words per per-request region. `0` (the default) disables regions.
    /// Nonzero puts the machine in allocation-service mode: each mutator
    /// slot owns a region, request-local allocation bumps privately
    /// inside it, and the interpreter watches every `St`/`StB`/`StG` for
    /// stores that leak a region pointer outside its region (see
    /// [`ParMachine::is_region_escaped`]). Regions are reclaimed in O(1)
    /// at request exit unless they escaped.
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

/// Injected concurrent-evacuation faults, for mutation testing that the
/// oracle notices a broken forwarding protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvacFault {
    /// The protocol works as designed (default).
    None,
    /// Pointer loads skip the self-healing forwarding check, so a
    /// mutator keeps reading a from-space original after its copy was
    /// published — the classic stale-read hazard.
    StaleRead,
    /// Stores skip the forwarding redirect and the post-store recheck,
    /// so a mutation lands in the from-space original after the copy
    /// was published and is silently lost — a torn forwarding publish.
    TornForward,
    /// The copier skips the header claim, so the same object is copied
    /// (and its forwarding word published) twice.
    DoubleCopy,
}

/// The header claim word used by concurrent copiers: a worker CASes
/// this into an object header before copying, then publishes the
/// forwarding word `-(new+1)` with release ordering. Mirrors
/// `m3gc_runtime::evac::BUSY`, re-declared here because mutators must
/// recognise an in-flight claim on their self-healing fast path.
pub const EVAC_BUSY: i64 = i64::MIN;

/// Default words per evacuation region (conc-evac cset granularity).
pub const DEFAULT_EVAC_REGION_WORDS: usize = 1 << 12;

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
    bits: Vec<AtomicU64>,
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

    /// Concurrent evacuation enabled (`--conc-evac`). Set once before
    /// the machine is shared.
    pub conc_evac: AtomicBool,
    /// Words per evacuation region (cset granularity).
    pub evac_region_words: AtomicI64,
    /// True while an evacuation set is being copied concurrently: from
    /// the select handshake until the final pause completes. Mutators
    /// read it (acquire) on heap loads and stores to decide whether the
    /// self-healing forwarding path is live.
    pub evacuating: AtomicBool,
    /// Value of `free` at the evacuation-select handshake: only objects
    /// below it are candidates for the cset; allocations at or above it
    /// are the "in-flight region" the final pause flushes.
    pub evac_snap: AtomicI64,
    /// To-space copy frontier for concurrent copiers (CAS bump). The
    /// final pause's residual copy continues from its final value.
    pub evac_to: AtomicI64,
    /// Per-region cset membership, indexed by `addr / evac_region_words`
    /// over the whole memory. Written by the select handshake (world
    /// stopped), read by mutator fast paths while `evacuating`.
    cset: Vec<AtomicBool>,
    /// Per-region pin flags: regions holding targets of ambiguous frame
    /// derivations, excluded from the cset for this cycle.
    pinned: Vec<AtomicBool>,
    /// Per-word dirty bits over to-space copies: set by redirected
    /// mutator stores and updater rewrites, so the final-pause audit can
    /// tell a legitimate post-publish divergence from a torn (lost)
    /// store, and so the pause can re-fix deferred words cheaply.
    dirty: Vec<AtomicU64>,
    /// Injected forwarding fault (mutation tests only).
    pub evac_fault: AtomicU8,
    /// Test knob: after publishing every cset copy the coordinator
    /// stands down instead of requesting the final pause, so mutators
    /// deterministically run against published forwarding words. The
    /// exit audit still runs, so faults are caught without the pause.
    pub hold_evac: AtomicBool,

    /// Objects copied concurrently this run (claims won; stat).
    pub evac_objects: AtomicU64,
    /// Words copied concurrently this run (stat).
    pub evac_words: AtomicU64,
    /// Regions evacuated concurrently this run (stat).
    pub evac_regions: AtomicU64,
    /// Regions pinned out of csets this run (stat).
    pub evac_pinned: AtomicU64,
    /// Stale references healed by the load fast path (stat).
    pub evac_healed_loads: AtomicU64,
    /// Stores redirected or replayed into a published copy (stat).
    pub evac_healed_stores: AtomicU64,
}

impl CmsHeap {
    fn new(words: usize) -> CmsHeap {
        CmsHeap {
            marking: AtomicBool::new(false),
            snap_free: AtomicI64::new(0),
            trigger_at: AtomicI64::new(i64::MAX),
            bits: zeroed_vec(words.div_ceil(64)),
            satb_sink: std::sync::Mutex::new(Vec::new()),
            satb_enqueued: AtomicU64::new(0),
            satb_drained: AtomicU64::new(0),
            satb_fault: AtomicU8::new(0),
            hold_marking: AtomicBool::new(false),
            conc_evac: AtomicBool::new(false),
            evac_region_words: AtomicI64::new(DEFAULT_EVAC_REGION_WORDS as i64),
            evacuating: AtomicBool::new(false),
            evac_snap: AtomicI64::new(0),
            evac_to: AtomicI64::new(0),
            cset: zeroed_vec(words.div_ceil(DEFAULT_EVAC_REGION_WORDS)),
            pinned: zeroed_vec(words.div_ceil(DEFAULT_EVAC_REGION_WORDS)),
            dirty: zeroed_vec(words.div_ceil(64)),
            evac_fault: AtomicU8::new(0),
            hold_evac: AtomicBool::new(false),
            evac_objects: AtomicU64::new(0),
            evac_words: AtomicU64::new(0),
            evac_regions: AtomicU64::new(0),
            evac_pinned: AtomicU64::new(0),
            evac_healed_loads: AtomicU64::new(0),
            evac_healed_stores: AtomicU64::new(0),
        }
    }

    /// Reconfigures the evacuation-region granularity (and resizes the
    /// cset/pin tables to match). Must run before the machine is shared.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    pub fn set_evac_region_words(&mut self, words: usize, mem_words: usize) {
        assert!(words > 0, "evacuation regions must be non-empty");
        self.evac_region_words.store(words as i64, R);
        let regions = mem_words.div_ceil(words);
        self.cset = zeroed_vec(regions);
        self.pinned = zeroed_vec(regions);
    }

    /// The evacuation-region index containing `addr`.
    #[must_use]
    pub fn evac_region_of(&self, addr: i64) -> usize {
        (addr / self.evac_region_words.load(R)) as usize
    }

    /// The number of evacuation regions covering memory.
    #[must_use]
    pub fn evac_region_count(&self) -> usize {
        self.cset.len()
    }

    /// True if `region` is in this cycle's evacuation set.
    #[must_use]
    pub fn in_cset(&self, region: usize) -> bool {
        self.cset.get(region).is_some_and(|r| r.load(R))
    }

    /// Adds `region` to the evacuation set (select handshake, world
    /// stopped).
    pub fn set_cset(&self, region: usize, on: bool) {
        if let Some(r) = self.cset.get(region) {
            r.store(on, R);
        }
    }

    /// True if `region` is pinned out of this cycle's evacuation set.
    #[must_use]
    pub fn is_pinned(&self, region: usize) -> bool {
        self.pinned.get(region).is_some_and(|r| r.load(R))
    }

    /// Pins `region` out of the evacuation set for this cycle. Returns
    /// `true` if this call set the flag.
    pub fn pin_region(&self, region: usize) -> bool {
        self.pinned.get(region).is_some_and(|r| !r.swap(true, R))
    }

    /// Clears cset membership and pins (cycle boundary, world stopped).
    pub fn clear_evac_sets(&self) {
        for r in &self.cset {
            r.store(false, R);
        }
        for r in &self.pinned {
            r.store(false, R);
        }
    }

    /// Marks the word at `addr` dirty: its post-publish value was
    /// legitimately changed (redirected store or updater rewrite), so
    /// the torn-store audit must not flag its divergence.
    pub fn set_dirty(&self, addr: i64) {
        let a = addr as usize;
        self.dirty[a / 64].fetch_or(1 << (a % 64), R);
    }

    /// True if the word at `addr` is dirty.
    #[must_use]
    pub fn is_dirty(&self, addr: i64) -> bool {
        let a = addr as usize;
        self.dirty[a / 64].load(R) & (1 << (a % 64)) != 0
    }

    /// Clears the whole dirty bitmap (cycle boundary, world stopped).
    pub fn clear_dirty(&self) {
        for w in &self.dirty {
            w.store(0, R);
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

    /// The injected forwarding fault.
    #[must_use]
    pub fn fault_evac(&self) -> EvacFault {
        match self.evac_fault.load(R) {
            1 => EvacFault::StaleRead,
            2 => EvacFault::TornForward,
            3 => EvacFault::DoubleCopy,
            _ => EvacFault::None,
        }
    }

    /// Injects a forwarding fault (mutation tests).
    pub fn set_evac_fault(&self, f: EvacFault) {
        let b = match f {
            EvacFault::None => 0,
            EvacFault::StaleRead => 1,
            EvacFault::TornForward => 2,
            EvacFault::DoubleCopy => 3,
        };
        self.evac_fault.store(b, R);
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
        for w in &self.bits {
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
    pub mem: Vec<AtomicU8>,
}

impl ParShadow {
    fn new(words: usize) -> ParShadow {
        ParShadow { mem: zeroed_vec(words) }
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

/// The shared half of a parallel machine. See the module docs.
pub struct ParMachine {
    /// The loaded module.
    pub module: VmModule,
    decoded: Arc<DecodedCode>,
    /// Flat memory: reserved | globals | stacks | regions | semi A | semi B
    /// (the region area is empty unless `layout.region_words > 0`).
    pub mem: Vec<AtomicI64>,
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
    /// Per-slot region bump pointers. Single writer — the owning
    /// mutator — while running; the collection leader reads them with
    /// the world stopped (the handshake provides the ordering).
    region_ptrs: Vec<AtomicI64>,
    /// Per-slot "a request currently owns this region" flags.
    region_live: Vec<AtomicBool>,
    /// Per-slot "a pointer into this region was stored outside it"
    /// flags. Sticky until the region is reset.
    region_escaped: Vec<AtomicBool>,

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
        let region_ptrs = (0..layout.mutators)
            .map(|slot| AtomicI64::new((regions_base + slot * layout.region_words) as i64))
            .collect();
        ParMachine {
            module,
            decoded,
            mem: zeroed_vec(total),
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
            region_ptrs,
            region_live: zeroed_vec(layout.mutators),
            region_escaped: zeroed_vec(layout.mutators),
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

    /// Turns on incremental, mutator-concurrent evacuation for the cms
    /// collector (`--conc-evac`), with the given cset region
    /// granularity. Must be called after [`ParMachine::enable_cms`] and
    /// before the machine is shared.
    ///
    /// # Panics
    ///
    /// Panics if cms is not enabled.
    pub fn enable_conc_evac(&mut self, region_words: usize) {
        let words = self.mem.len();
        let cms = self.cms.as_mut().expect("conc-evac requires the cms collector");
        cms.conc_evac.store(true, R);
        cms.set_evac_region_words(region_words.max(1), words);
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

    /// The module's encoded gc-map byte stream.
    #[must_use]
    pub fn gc_map_bytes(&self) -> &[u8] {
        &self.module.gc_maps.bytes
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
            // During a concurrent evacuation phase the to-space prefix
            // below the copy frontier holds live, published copies that
            // mutators legitimately access through healed pointers.
            if let Some(cms) = &self.cms {
                if cms.evacuating.load(Ordering::Acquire) && addr < cms.evac_to.load(R) {
                    return false;
                }
            }
            return true;
        }
        match self.region_slot_of(addr) {
            Some(slot) => !self.region_live[slot].load(R) && !self.region_escaped[slot].load(R),
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
        self.region_ptrs[slot].load(R) - self.region_bounds(slot).0
    }

    /// One past the last allocated word of `slot`'s region (collector
    /// use: the linear-scan upper bound).
    #[must_use]
    pub fn region_top(&self, slot: usize) -> i64 {
        self.region_ptrs[slot].load(R)
    }

    /// True while a request owns `slot`'s region.
    #[must_use]
    pub fn is_region_live(&self, slot: usize) -> bool {
        self.region_live[slot].load(R)
    }

    /// True once a pointer into `slot`'s region has been stored outside
    /// it (sticky until the region resets).
    #[must_use]
    pub fn is_region_escaped(&self, slot: usize) -> bool {
        self.region_escaped[slot].load(R)
    }

    /// True if `slot` holds a zombie region: its request exited but a
    /// pointer escaped, so the data must stay intact until the next
    /// stop-the-world collection evacuates the reachable objects.
    #[must_use]
    pub fn is_region_zombie(&self, slot: usize) -> bool {
        !self.region_live[slot].load(R) && self.region_escaped[slot].load(R)
    }

    /// Opens `slot`'s region for a new request.
    ///
    /// # Panics
    ///
    /// Panics if the slot still holds a zombie region (a collection must
    /// reset it first) or is already live.
    pub fn begin_region(&self, slot: usize) {
        assert!(!self.is_region_zombie(slot), "slot holds an uncollected zombie region");
        assert!(!self.region_live[slot].load(R), "region already live");
        self.region_ptrs[slot].store(self.region_bounds(slot).0, R);
        self.region_escaped[slot].store(false, R);
        self.region_live[slot].store(true, R);
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
        self.region_live[slot].store(false, R);
        if self.region_escaped[slot].load(R) {
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
        let used = self.region_ptrs[slot].load(R) - base;
        self.zero_words(base, used);
        if let Some(sh) = &self.shadow {
            sh.clear_range(base, used);
        }
        self.region_ptrs[slot].store(base, R);
        self.region_escaped[slot].store(false, R);
        used
    }

    /// Unchecked word read (collector use; `addr` must be in range).
    #[must_use]
    pub fn word(&self, addr: i64) -> i64 {
        self.mem[addr as usize].load(R)
    }

    /// Unchecked word write (collector use; `addr` must be in range).
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

    /// Acquire word read: pairs with [`ParMachine::set_word_release`] so
    /// a reader that observes a published forwarding word also observes
    /// the copied body it points to.
    #[must_use]
    pub fn word_acquire(&self, addr: i64) -> i64 {
        self.mem[addr as usize].load(Ordering::Acquire)
    }

    /// Release word write: publishes everything written before it (the
    /// concurrent copier's forwarding-word publish).
    pub fn set_word_release(&self, addr: i64, v: i64) {
        self.mem[addr as usize].store(v, Ordering::Release)
    }

    /// Sequentially consistent compare-and-swap on one memory word
    /// (concurrent copier claims, updater rewrites, load healing).
    /// Returns `Ok(old)` on success, `Err(actual)` otherwise.
    ///
    /// SeqCst on the claim CAS is load-bearing: paired with the SeqCst
    /// fence in the mutator's store path it forbids the store-buffer
    /// outcome where a copier misses a committed store *and* the mutator
    /// misses the claim — one side always sees the other.
    pub fn cas_word(&self, addr: i64, old: i64, new: i64) -> Result<i64, i64> {
        self.mem[addr as usize].compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
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
    /// The unused tail is zeroed and accounted as waste so the shared
    /// frontier is exact again: gc workers and the collection leader see
    /// no words in limbo. Must be called before the mutator parks at a
    /// safepoint or exits; after a collection the old buffer would lie
    /// in dead space, so parking without retiring would be unsound.
    pub fn retire_tlab(&self, mu: &mut MutatorLocal) {
        let waste = mu.tlab_limit - mu.tlab_ptr;
        if waste > 0 {
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

    /// Words of the object whose header word lives at `addr` (the
    /// header must be intact, i.e. a type id — use the to-space copy's
    /// header for forwarded originals).
    fn object_words_at(&self, addr: i64) -> i64 {
        let ty = self.mem[addr as usize].load(R);
        let desc = self.module.types.get(TypeId(ty as u32));
        let len = if matches!(desc, HeapType::Array { .. }) {
            self.mem[addr as usize + 1].load(R)
        } else {
            0
        };
        i64::from(desc.object_words(len as u32))
    }

    /// The header address of the cset object containing `addr`, if the
    /// access falls inside this cycle's evacuation candidates. Live
    /// object headers are exactly the marked bits (SATB guarantees
    /// every reachable pre-snapshot object is marked by the time
    /// evacuation starts), so the containing header is the nearest
    /// marked bit at or below `addr`.
    fn evac_header_of(&self, cms: &CmsHeap, addr: i64) -> Option<i64> {
        let (from_start, _) = self.from_space();
        if addr < from_start || addr >= cms.evac_snap.load(R) {
            return None;
        }
        let mut h = addr;
        while h >= from_start && !cms.is_marked(h) {
            h -= 1;
        }
        if h < from_start || !cms.in_cset(cms.evac_region_of(h)) {
            return None;
        }
        Some(h)
    }

    /// Resolves `addr` through the forwarding word of the claimed object
    /// headed at `h`: spins out an in-flight claim, then returns the
    /// equivalent to-space address once the copy is published. `None`
    /// while the object is still unclaimed (the original is current), or
    /// if `addr` turns out to lie past the object (a value that merely
    /// aliases the heap range).
    fn evac_forwarded_from(&self, h: i64, addr: i64) -> Option<i64> {
        let mut hval = self.mem[h as usize].load(Ordering::Acquire);
        while hval == EVAC_BUSY {
            std::thread::yield_now();
            hval = self.mem[h as usize].load(Ordering::Acquire);
        }
        if hval >= 0 {
            return None;
        }
        let new = -(hval + 1);
        if addr - h >= self.object_words_at(new) {
            return None;
        }
        Some(new + (addr - h))
    }

    /// The self-healing read's address resolution: one cset compare,
    /// then forwarding. Under the injected [`EvacFault::StaleRead`] the
    /// resolution is skipped, so loads keep hitting published originals.
    fn evac_resolve_load(&self, cms: &CmsHeap, addr: i64) -> i64 {
        if cms.fault_evac() == EvacFault::StaleRead {
            return addr;
        }
        match self.evac_header_of(cms, addr) {
            Some(h) => self.evac_forwarded_from(h, addr).unwrap_or(addr),
            None => addr,
        }
    }

    /// True if `addr` lies inside a from-space original whose copy has
    /// been published — an address no healthy access can land on, since
    /// resolution always redirects it. The shadow oracle traps such an
    /// access as stale.
    fn evac_is_published_original(&self, cms: &CmsHeap, addr: i64) -> bool {
        match self.evac_header_of(cms, addr) {
            Some(h) => self.mem[h as usize].load(Ordering::Acquire) < 0,
            None => false,
        }
    }

    /// Heals a pointer *value*: if `v` is the address of a cset object
    /// whose copy is published, the to-space address. Values that merely
    /// alias the heap range but are not marked headers are left alone.
    fn evac_heal_value(&self, cms: &CmsHeap, v: i64) -> Option<i64> {
        let (from_start, _) = self.from_space();
        if v < from_start || v >= cms.evac_snap.load(R) {
            return None;
        }
        if !cms.in_cset(cms.evac_region_of(v)) || !cms.is_marked(v) {
            return None;
        }
        let mut hval = self.mem[v as usize].load(Ordering::Acquire);
        while hval == EVAC_BUSY {
            std::thread::yield_now();
            hval = self.mem[v as usize].load(Ordering::Acquire);
        }
        if hval < 0 {
            Some(-(hval + 1))
        } else {
            None
        }
    }

    /// True if `v` is the address of a cset original whose evacuation
    /// is claimed or published. During a concurrent-evacuation pause,
    /// roots legally still hold such stale values — healing is lazy,
    /// and the pause's own fixup rewrites them right after the oracle
    /// check — so the oracle must not reject them.
    #[must_use]
    pub fn evac_root_forwarded(&self, v: i64) -> bool {
        let Some(cms) = self.cms.as_ref().filter(|c| c.evacuating.load(Ordering::Acquire)) else {
            return false;
        };
        let (from_start, _) = self.from_space();
        if v < from_start || v >= cms.evac_snap.load(R) {
            return false;
        }
        if !cms.in_cset(cms.evac_region_of(v)) || !cms.is_marked(v) {
            return false;
        }
        self.mem[v as usize].load(Ordering::Acquire) < 0
    }

    /// Allocation: TLAB bump fast path, one-CAS refill slow path,
    /// direct shared CAS for oversized objects; `Ok(None)` means "needs
    /// gc".
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
        let words = i64::from(desc.object_words(len as u32));
        if words > self.layout.semi_words as i64 {
            return Err(VmTrap::OutOfMemory);
        }
        let addr = if self.layout.region_words > 0 && self.region_live[mu.tid].load(R) {
            // Allocation-service mode: request-local bump into the
            // slot's region, no shared traffic. Objects that would
            // overflow the region fall back to the shared frontier and
            // are traced like any shared allocation.
            let (_, limit) = self.region_bounds(mu.tid);
            let ptr = self.region_ptrs[mu.tid].load(R);
            if ptr + words <= limit {
                self.region_ptrs[mu.tid].store(ptr + words, R);
                mu.pending_region_allocs += 1;
                mu.pending_region_words += words as u64;
                ptr
            } else {
                match self.cas_claim(words) {
                    Some(a) => a,
                    None => return Ok(None),
                }
            }
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
        if !self.region_live[vs].load(R) {
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
        if !self.region_escaped[vs].swap(true, R) {
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

    /// The shared request flag; the loop reads it only at gc-points
    /// (allocation sites and the explicit loop back-edge polls).
    #[inline]
    fn gc_requested(&self) -> bool {
        self.vm.gc_request.load(R)
    }

    fn alloc(&mut self, ty: u16, len: i64) -> Result<Option<i64>, VmTrap> {
        self.vm.try_alloc(self.mu, ty, len)
    }

    /// The `Ld` heap load. Outside a conc-evac cycle it is the plain
    /// bounds-checked load, one flag test away; during one,
    /// `heap_load_cold` heals.
    #[inline]
    fn heap_load(&mut self, addr: i64) -> Result<(i64, i64), VmTrap> {
        let vm = self.vm;
        match vm.cms.as_ref().filter(|c| c.evacuating.load(Ordering::Acquire)) {
            Some(cms) => self.heap_load_cold(cms, addr),
            None => Ok((self.load(addr)?, addr)),
        }
    }

    /// The `St` heap store: plain outside a conc-evac cycle, forwarding-
    /// aware (`heap_store_cold`) during one.
    #[inline]
    fn heap_store(&mut self, addr: i64, value: i64) -> Result<(), VmTrap> {
        let vm = self.vm;
        match vm.cms.as_ref().filter(|c| c.evacuating.load(Ordering::Acquire)) {
            Some(cms) => self.heap_store_cold(cms, addr, value),
            None => self.store(addr, value),
        }
    }

    /// `StB`: a plain store — exactly as on a semispace `Machine` —
    /// unless a cms marking or evacuation cycle is live, when
    /// `barrier_store_cold` runs the deletion barrier and heals.
    #[inline]
    fn barrier_store(&mut self, addr: i64, value: i64) -> Result<(), VmTrap> {
        let vm = self.vm;
        match &vm.cms {
            Some(c)
                if c.evacuating.load(Ordering::Acquire) || c.marking.load(Ordering::Acquire) =>
            {
                self.barrier_store_cold(addr, value)
            }
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

/// The cold halves of [`World::heap_load`], [`World::heap_store`] and
/// [`World::barrier_store`]: taken only while a cms cycle is live.
impl ParWorld<'_> {
    /// The `Ld` heap load while a conc-evac cycle is in flight: the
    /// access address is resolved through forwarding, and a
    /// loaded value whose object already moved is rewritten in place
    /// (memory and, through the returned value, register) as it is
    /// touched.
    #[cold]
    #[inline(never)]
    fn heap_load_cold(&self, cms: &CmsHeap, addr: i64) -> Result<(i64, i64), VmTrap> {
        let vm = self.vm;
        // Same trap surface as the plain load, checked on the raw
        // address before any resolution.
        exec::check_addr(addr, vm.mem.len())?;
        let mut a2 = vm.evac_resolve_load(cms, addr);
        if vm.shadow.is_some() && vm.evac_is_published_original(cms, a2) {
            // A copier may have published between the resolution and
            // this check — a benign race the second resolution (ordered
            // after the publish by its Acquire header read) repairs.
            // Only a faulted-off resolution still lands on a published
            // original twice: a healthy load never does.
            a2 = vm.evac_resolve_load(cms, addr);
            if vm.evac_is_published_original(cms, a2) {
                return Err(VmTrap::StalePointer);
            }
        }
        let v = vm.mem[a2 as usize].load(R);
        // Rewrite a stale loaded *value* in place — but only when the
        // word is provably a pointer. `Ld` loads integer fields too,
        // and an integer that numerically aliases a marked cset header
        // must not be "healed" into a to-space address; the shadow tag
        // is the ground truth. Untagged (non-shadow) runs skip the
        // in-place rewrite: resolution redirects every later use of
        // the stale value, and the final pause's type-directed rewrite
        // fixes it durably.
        let is_ptr = vm.shadow.as_ref().is_some_and(|sh| sh.mem_tag(a2) == Tag::Ptr);
        let v = match vm.evac_heal_value(cms, v).filter(|_| is_ptr) {
            Some(nv) => {
                // A racing store wins (its value was healed on its own
                // path).
                if vm.mem[a2 as usize].compare_exchange(v, nv, R, R).is_ok() {
                    cms.set_dirty(a2);
                    cms.evac_healed_loads.fetch_add(1, R);
                }
                nv
            }
            None => v,
        };
        Ok((v, a2))
    }

    /// The heap store with the conc-evac redirect and post-store
    /// recheck. If the target object's copy is already published the
    /// store lands in the copy; if it is unclaimed the store hits the
    /// original and the header is re-checked afterwards — a copier may
    /// have claimed the object between the check and the store, so the
    /// value is replayed into the published copy rather than lost.
    /// Under [`EvacFault::TornForward`] both the redirect and the
    /// recheck are skipped, modelling exactly that lost store.
    ///
    /// Even a non-pointer store must resolve forwarding, since a store
    /// into a claimed object would otherwise be lost.
    #[cold]
    #[inline(never)]
    fn heap_store_cold(&self, cms: &CmsHeap, addr: i64, value: i64) -> Result<(), VmTrap> {
        let vm = self.vm;
        exec::check_addr(addr, vm.mem.len())?;
        if cms.fault_evac() == EvacFault::TornForward {
            vm.mem[addr as usize].store(value, R);
            return Ok(());
        }
        // Lands `value` in the published copy word `a2` of `addr`.
        let replay = |a2: i64| {
            vm.mem[a2 as usize].store(value, R);
            cms.set_dirty(a2);
            cms.evac_healed_stores.fetch_add(1, R);
            if let Some(sh) = &vm.shadow {
                sh.set_mem(a2, sh.mem_tag(addr));
            }
        };
        let recheck = match vm.evac_header_of(cms, addr) {
            None => None,
            Some(h) => match vm.evac_forwarded_from(h, addr) {
                Some(a2) => {
                    replay(a2);
                    return Ok(());
                }
                None => Some(h),
            },
        };
        // A store through an already-healed pointer lands directly in
        // to-space: the copy then legitimately diverges from its frozen
        // original, and the torn-store audit must not read that as a
        // lost store.
        let (to_start, _) = vm.to_space();
        if addr >= to_start && addr < cms.evac_to.load(Ordering::Acquire) {
            cms.set_dirty(addr);
        }
        vm.mem[addr as usize].store(value, R);
        // The fence pairs with the copier's SeqCst claim CAS (+ its own
        // fence before reading the body): without it the store and the
        // recheck below could reorder (the classic store-buffer outcome)
        // and a claim racing this store would be missed by both sides.
        std::sync::atomic::fence(Ordering::SeqCst);
        // Claimed between the check and the store: the copy may have
        // missed this value, so replay it.
        if let Some(a2) = recheck.and_then(|h| vm.evac_forwarded_from(h, addr)) {
            replay(a2);
        }
        Ok(())
    }

    /// `StB` is a snapshot-at-the-beginning *deletion barrier* while a
    /// cms marking cycle is live, and a plain (forwarding-aware) store
    /// otherwise — exactly as on a semispace `Machine`.
    #[cold]
    #[inline(never)]
    fn barrier_store_cold(&mut self, addr: i64, value: i64) -> Result<(), VmTrap> {
        let vm = self.vm;
        // Concurrent evacuation extends the barrier: a stored value
        // whose object already moved is healed to the to-space copy
        // before it re-enters the heap, and the store itself goes
        // through the forwarding-aware path.
        let value = match vm.cms.as_ref().filter(|c| c.evacuating.load(Ordering::Acquire)) {
            Some(cms) => match vm.evac_heal_value(cms, value) {
                Some(nv) => {
                    cms.evac_healed_stores.fetch_add(1, R);
                    nv
                }
                None => value,
            },
            None => value,
        };
        let Some(cms) = vm.cms.as_ref().filter(|c| c.marking.load(Ordering::Acquire)) else {
            return self.heap_store(addr, value);
        };
        match cms.fault() {
            SatbFault::None => {
                // Deletion barrier: read the old value *before*
                // overwriting it.
                let old = self.load(addr)?;
                self.heap_store(addr, value)?;
                vm.satb_record_old(cms, self.mu, old);
            }
            SatbFault::Drop => self.heap_store(addr, value)?,
            SatbFault::Reorder => {
                // Buggy ordering: store first, then "record the old
                // value" — which now reads the new one, so the
                // barrier enqueues the wrong pointer.
                self.heap_store(addr, value)?;
                let old = self.load(addr)?;
                vm.satb_record_old(cms, self.mu, old);
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

    /// Words of a `Rec` object: header, pointer field, integer field.
    const REC_WORDS: i64 = 3;

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
            poll_pcs: vec![],
            gc_maps: encode_module(&tables, Scheme::DELTA_MAIN_PP),
            logical_maps: tables,
        }
    }

    fn layout(region_words: usize) -> ParLayout {
        ParLayout { semi_words: 1 << 12, stack_words: 64, mutators: 2, tlab_words: 0, region_words }
    }

    /// A cms machine running `main`, with one mutator spawned on it.
    fn cms_machine(main: &[Instr], shadow: bool) -> (ParMachine, Mutator) {
        let mut vm = ParMachine::new(module(main), layout(0));
        if shadow {
            vm.enable_shadow();
        }
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
        vm.enable_conc_evac(64);
        let words = vm.mem_words() as i64;
        let cms = vm.cms.as_ref().unwrap();
        let shadow = vm.shadow.as_ref().unwrap();
        for a in 0..words {
            assert_eq!(vm.word(a), 0, "word {a}");
            assert_eq!(shadow.mem[a as usize].load(R), 0, "tag {a}");
            assert!(!cms.is_marked(a), "mark bit {a}");
            assert!(!cms.is_dirty(a), "dirty bit {a}");
        }
        for r in 0..cms.evac_region_count() {
            assert!(!cms.in_cset(r) && !cms.is_pinned(r), "evac region {r}");
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
            let (vm, mut mu) = cms_machine(&stb, false);
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
    fn ld_reads_the_published_copy_and_heals_while_evacuating() {
        let ld = [Instr::Ld { dst: 3, base: 1, off: 1 }, Instr::Halt];
        let (mut vm, mut mu) = cms_machine(&ld, true);
        vm.enable_conc_evac(64);
        // `a.f = b`, both in one cset region, both copied and published.
        let (a, b) = (alloc_rec(&vm, &mut mu), alloc_rec(&vm, &mut mu));
        vm.set_word(a + 1, b);
        let shadow = vm.shadow.as_ref().unwrap();
        shadow.set_mem(a + 1, Tag::Ptr);
        let cms = vm.cms.as_ref().unwrap();
        let (to, _) = vm.to_space();
        let (a2, b2) = (to, to + REC_WORDS);
        for (from, copy) in [(a, a2), (b, b2)] {
            for w in 0..REC_WORDS {
                vm.set_word(copy + w, vm.word(from + w));
            }
            shadow.copy_words(from, copy, REC_WORDS);
            cms.mark_if_unmarked(from);
            cms.set_cset(cms.evac_region_of(from), true);
            vm.set_word_release(from, -(copy + 1));
        }
        cms.evac_snap.store(vm.free.load(R), R);
        cms.evac_to.store(b2 + REC_WORDS, R);
        cms.evacuating.store(true, R);
        mu.cpu.regs[1] = a;
        mu.cpu.reg_tags[1] = Tag::Ptr;
        run_to_end(&vm, &mut mu);
        assert_eq!(mu.cpu.regs[3], b2, "the stale value is healed");
        assert_eq!(vm.word(a2 + 1), b2, "healed in place in the copy");
        assert_eq!(vm.word(a + 1), b, "the original is not read or written");
        assert_eq!(cms.evac_healed_loads.load(R), 1);
    }

    #[test]
    fn flush_satb_survives_a_poisoned_sink() {
        let (vm, mut mu) = cms_machine(&[Instr::Halt], false);
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

    #[test]
    fn evac_fault_roundtrip() {
        let cms = CmsHeap::new(64);
        assert_eq!(cms.fault_evac(), EvacFault::None);
        for f in
            [EvacFault::StaleRead, EvacFault::TornForward, EvacFault::DoubleCopy, EvacFault::None]
        {
            cms.set_evac_fault(f);
            assert_eq!(cms.fault_evac(), f);
        }
    }

    #[test]
    fn evac_cset_pin_and_dirty_roundtrip() {
        let mut cms = CmsHeap::new(1 << 14);
        cms.set_evac_region_words(64, 1 << 14);
        assert_eq!(cms.evac_region_count(), (1 << 14) / 64);
        assert_eq!(cms.evac_region_of(130), 2);
        assert!(!cms.in_cset(2));
        cms.set_cset(2, true);
        assert!(cms.in_cset(2));
        assert!(!cms.is_pinned(3));
        assert!(cms.pin_region(3), "first pin wins");
        assert!(!cms.pin_region(3), "second pin loses");
        assert!(cms.is_pinned(3));
        cms.set_dirty(777);
        assert!(cms.is_dirty(777));
        assert!(!cms.is_dirty(776));
        cms.clear_evac_sets();
        cms.clear_dirty();
        assert!(!cms.in_cset(2));
        assert!(!cms.is_pinned(3));
        assert!(!cms.is_dirty(777));
    }
}
