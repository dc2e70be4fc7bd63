//! Stack tracing: from suspended threads to concrete root references.
//!
//! At garbage collection time the first task is to locate the tables for
//! each frame on the stack; return addresses extracted from frames index
//! the pc map (§3). Walking from the innermost frame outward, the tracer
//! maintains, for every hard register, *where that register's value as of
//! this frame actually lives*: in the machine register itself, or in a
//! callee's save area further down the stack (the callee saved it before
//! reusing the register). Ground-table entries resolve against the
//! frame's `FP`/`AP`; derivation entries resolve the same way, and
//! ambiguous derivations read their path variable's current value to
//! select the variant that actually happened (§4).
//!
//! The walk itself is expressed over a [`RootSource`] view so that the
//! same code traces both worlds: the single-threaded [`Machine`] (whose
//! threads are suspended in place) and the parallel machine of
//! `crate::parallel` (whose mutators deposit register snapshots when
//! they park at a safepoint).

use m3gc_core::decode::DecodeCache;
use m3gc_core::derive::{DerivationRecord, Sign};
use m3gc_core::layout::{BaseReg, Location, NUM_HARD_REGS};
use m3gc_vm::exec::{Cpu, World};
use m3gc_vm::machine::{Machine, Thread, ThreadStatus, RETURN_SENTINEL};
use m3gc_vm::module::VmModule;

/// A reference to a root: either a memory word or a live machine register
/// of some thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootRef {
    /// A memory word (stack slot, save-area slot, or global).
    Mem(i64),
    /// An actual machine register of a thread (innermost frames only).
    Reg {
        /// Thread index.
        thread: u32,
        /// Register number.
        reg: u8,
    },
}

/// A derivation with every location resolved to a [`RootRef`] and any
/// ambiguity already settled via its path variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedDerivation {
    /// Where the derived value lives.
    pub target: RootRef,
    /// The base references with their signs.
    pub bases: Vec<(RootRef, Sign)>,
}

/// Everything the collector needs from the stacks and registers.
#[derive(Debug, Clone, Default)]
pub struct StackRoots {
    /// Tidy pointer locations, callee-before-caller within each thread.
    pub tidy: Vec<RootRef>,
    /// Derived-value records in un-derive order (callee frames first,
    /// derived before base within a gc-point).
    pub derivations: Vec<ResolvedDerivation>,
    /// Number of frames traced (for the §6.3 per-frame cost figures),
    /// spliced frames included.
    pub frames: usize,
    /// Of `frames`, how many were satisfied from a watermark cache
    /// without decoding or resolving anything.
    pub frames_spliced: usize,
}

/// A read-only view of one machine world, sufficient for a stack walk:
/// memory words, register contents, and the loaded module. The stack
/// walk only ever reads registers of the thread it is walking.
pub trait RootSource {
    /// Reads memory word `addr` (must be in range).
    fn mem_word(&self, addr: i64) -> i64;
    /// Reads register `reg` of thread `thread`.
    fn reg_word(&self, thread: u32, reg: u8) -> i64;
    /// The loaded module.
    fn module(&self) -> &VmModule;
    /// Resolves a frame's return linkage word to a bytecode pc. Plain
    /// interpreter frames store the pc directly; JIT frames store a
    /// biased native return address that the machine's installed
    /// [`CodeMap`](m3gc_vm::CodeMap) maps back to the gc-point pc of
    /// the call. This is the *only* JIT awareness in the collectors:
    /// once resolved, the pc-keyed tables apply unchanged.
    fn resolve_retpc(&self, retpc: i64) -> u32 {
        retpc as u32
    }
}

impl RootSource for Machine {
    fn mem_word(&self, addr: i64) -> i64 {
        self.mem[addr as usize]
    }

    fn reg_word(&self, thread: u32, reg: u8) -> i64 {
        self.threads[thread as usize].regs[reg as usize]
    }

    fn module(&self) -> &VmModule {
        &self.module
    }

    fn resolve_retpc(&self, retpc: i64) -> u32 {
        self.world.resolve_retpc(retpc)
    }
}

/// Reads a [`RootRef`] through a [`RootSource`].
#[must_use]
pub fn read_root_in(src: &impl RootSource, r: RootRef) -> i64 {
    match r {
        RootRef::Mem(a) => src.mem_word(a),
        RootRef::Reg { thread, reg } => src.reg_word(thread, reg),
    }
}

/// The register files a [`RootRef::Reg`] can name: every thread of a
/// sequential machine, or the one parked mutator whose deposited
/// [`Cpu`] a gc worker is fixing up (whatever thread index the root
/// carries — a stack walk never crosses threads).
pub(crate) trait RegFiles {
    fn cpu(&self, thread: u32) -> &Cpu;
    fn cpu_mut(&mut self, thread: u32) -> &mut Cpu;
}

impl RegFiles for [Thread] {
    fn cpu(&self, thread: u32) -> &Cpu {
        &self[thread as usize].cpu
    }
    fn cpu_mut(&mut self, thread: u32) -> &mut Cpu {
        &mut self[thread as usize].cpu
    }
}

impl RegFiles for Cpu {
    fn cpu(&self, _thread: u32) -> &Cpu {
        self
    }
    fn cpu_mut(&mut self, _thread: u32) -> &mut Cpu {
        self
    }
}

/// Reads a [`RootRef`] of a world being collected.
pub(crate) fn read_root<W: World>(w: &W, cpus: &(impl RegFiles + ?Sized), r: RootRef) -> i64 {
    match r {
        RootRef::Mem(a) => w.word(a),
        RootRef::Reg { thread, reg } => cpus.cpu(thread).regs[reg as usize],
    }
}

/// Writes a [`RootRef`] of a world being collected.
pub(crate) fn write_root<W: World>(
    w: &mut W,
    cpus: &mut (impl RegFiles + ?Sized),
    r: RootRef,
    v: i64,
) {
    match r {
        RootRef::Mem(a) => w.set_word(a, v),
        RootRef::Reg { thread, reg } => cpus.cpu_mut(thread).regs[reg as usize] = v,
    }
}

/// Per-register location map while unwinding one thread's stack.
type RegLocs = [RootRef; NUM_HARD_REGS];

fn resolve_location(loc: Location, fp: i64, ap: i64, sp: i64, regs: &RegLocs) -> RootRef {
    match loc {
        Location::Reg(r) => regs[r as usize],
        Location::Slot(base, off) => {
            let b = match base {
                BaseReg::Fp => fp,
                BaseReg::Ap => ap,
                BaseReg::Sp => sp,
            };
            RootRef::Mem(b + i64::from(off))
        }
    }
}

/// Decodes one frame's gc-point tables and appends its resolved roots
/// to `out`. Returns `true` if the point carried an *ambiguous*
/// derivation — those re-read a path variable at scan time, so the
/// resolution is control-sensitive and must not be replayed from a
/// watermark cache.
fn scan_frame_into(
    src: &impl RootSource,
    cache: &mut DecodeCache,
    bytes: &[u8],
    tid: u32,
    (pc, fp, ap, sp): (u32, i64, i64, i64),
    reg_locs: &RegLocs,
    out: &mut StackRoots,
) -> bool {
    let point = cache.lookup(bytes, pc).unwrap_or_else(|| {
        panic!(
            "no gc tables for pc {pc} in `{}` (thread {tid})",
            src.module().proc_at(pc).map_or("?", |(_, p)| p.name.as_str())
        )
    });
    for entry in &point.stack_slots {
        let root = resolve_location(Location::Slot(entry.base, entry.offset), fp, ap, sp, reg_locs);
        out.tidy.push(root);
    }
    for r in point.regs.iter() {
        out.tidy.push(reg_locs[r as usize]);
    }
    let mut ambiguous = false;
    for rec in &point.derivations {
        let target = resolve_location(rec.target(), fp, ap, sp, reg_locs);
        let bases = match rec {
            DerivationRecord::Simple { bases, .. } => bases.clone(),
            DerivationRecord::Ambiguous { path_var, variants, .. } => {
                ambiguous = true;
                let pv = resolve_location(*path_var, fp, ap, sp, reg_locs);
                let which = read_root_in(src, pv);
                let idx = usize::try_from(which)
                    .ok()
                    .filter(|i| *i < variants.len())
                    .unwrap_or_else(|| panic!("path variable out of range: {which}"));
                variants[idx].clone()
            }
        };
        let bases = bases
            .into_iter()
            .map(|(loc, sign)| (resolve_location(loc, fp, ap, sp, reg_locs), sign))
            .collect();
        out.derivations.push(ResolvedDerivation { target, bases });
    }
    ambiguous
}

/// Walks one thread's stack from its suspension point `(pc, fp, ap, sp)`
/// outward, appending roots to `out`. `cache` must be bound to the same
/// module.
///
/// # Panics
///
/// Panics if a frame's pc has no gc-point tables — that would be a
/// compiler bug (a collection at a point the compiler did not describe).
pub fn gather_thread_roots(
    src: &impl RootSource,
    cache: &mut DecodeCache,
    tid: u32,
    (mut pc, mut fp, mut ap, mut sp): (u32, i64, i64, i64),
    out: &mut StackRoots,
) {
    let bytes: &[u8] = &src.module().gc_maps.bytes;
    // Register contents start out in the actual machine registers.
    let mut reg_locs: RegLocs = std::array::from_fn(|r| RootRef::Reg { thread: tid, reg: r as u8 });
    loop {
        out.frames += 1;
        scan_frame_into(src, cache, bytes, tid, (pc, fp, ap, sp), &reg_locs, out);
        // Unwind to the caller: registers saved by this procedure live
        // in its save area, so the caller's view of those registers is
        // those stack slots.
        let (_, meta) = src.module().proc_at(pc).expect("pc within a procedure");
        for &(reg, off) in &meta.save_regs {
            reg_locs[reg as usize] = RootRef::Mem(fp + i64::from(off));
        }
        let retpc = src.mem_word(fp - 3);
        if retpc == RETURN_SENTINEL {
            break;
        }
        // The caller's SP at the time of the call: the arg block plus
        // linkage had been pushed, so its SP was `ap` before pushing.
        sp = ap;
        let old_fp = src.mem_word(fp - 2);
        let old_ap = src.mem_word(fp - 1);
        pc = src.resolve_retpc(retpc);
        fp = old_fp;
        ap = old_ap;
    }
}

/// One frame of a thread's stack as resolved at a previous collection,
/// keyed by its suspension state and guarded by a digest of its linkage
/// words.
///
/// The cached payload is *locations only* ([`RootRef`]s are stack
/// slots, save-area slots or registers — none of which ever move), so a
/// splice never needs relocating: the collector re-reads the values
/// through the locations and forwards them exactly as it would for a
/// freshly scanned frame.
#[derive(Debug, Clone)]
struct CachedFrame {
    /// Suspension pc (for non-innermost frames, the return address the
    /// callee will resume it at).
    pc: u32,
    /// Frame pointer.
    fp: i64,
    /// Argument pointer.
    ap: i64,
    /// Stack pointer at suspension.
    sp: i64,
    /// The three linkage words `[retpc, saved-FP, saved-AP]` at
    /// `fp-3..fp`, read while unwinding out of this frame. If they are
    /// unchanged, the frame was not popped and re-entered differently —
    /// and even a coincidentally identical re-activation resolves to
    /// the identical location set, which is all the cache stores.
    digest: [i64; 3],
    /// The per-register location map on *entry* to this frame (before
    /// its own save-area redirections applied). Splicing requires the
    /// current walk's map to be equal: this is the only way the hot
    /// (rescanned) frames influence the cold suffix's resolutions.
    reg_locs: RegLocs,
    /// Resolved tidy roots of this frame.
    tidy: Vec<RootRef>,
    /// Resolved derivations of this frame.
    derivations: Vec<ResolvedDerivation>,
    /// True if the frame's gc-point carries an ambiguous derivation
    /// (path-variable dependent — never replayed, see
    /// [`scan_frame_into`]).
    ambiguous: bool,
}

/// A per-thread watermark cache: the frames scanned at the previous
/// collection, innermost first. The watermark is the innermost cached
/// frame's `fp` (the stack grows upward here, so the paper's "lowest
/// frame pointer scanned" is this machine's *highest*); frames hotter
/// than it are always rescanned, frames at or below it are candidates
/// for splicing.
#[derive(Debug, Clone, Default)]
pub struct StackCache {
    frames: Vec<CachedFrame>,
}

impl StackCache {
    /// Drops every cached frame (the next walk rescans everything).
    pub fn invalidate(&mut self) {
        self.frames.clear();
    }

    /// Number of cached frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True if nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Locates the cached suffix that can be spliced at the current frame
/// `(pc, fp, ap, sp)`: the frame must be cached with the identical
/// suspension state and register-location map, and every cached frame
/// from it outward must still have its linkage-word digest intact.
fn find_splice(
    src: &impl RootSource,
    prev: &[CachedFrame],
    (pc, fp, ap, sp): (u32, i64, i64, i64),
    reg_locs: &RegLocs,
) -> Option<usize> {
    // `prev` is innermost-first, so `fp` is strictly decreasing.
    let i = prev.binary_search_by(|f| fp.cmp(&f.fp)).ok()?;
    let f = &prev[i];
    if f.pc != pc || f.ap != ap || f.sp != sp || f.reg_locs != *reg_locs {
        return None;
    }
    for g in &prev[i..] {
        let digest = [src.mem_word(g.fp - 3), src.mem_word(g.fp - 2), src.mem_word(g.fp - 1)];
        if digest != g.digest {
            return None;
        }
    }
    Some(i)
}

/// [`gather_thread_roots`], but incremental: frames at or below the
/// thread's watermark whose digests are intact are *spliced* from
/// `stack_cache` instead of being decoded and resolved again, and the
/// cache is rebuilt to describe the stack as of this walk. The output
/// is bit-identical to a full rescan (asserted on every collection when
/// verification is on — see [`StackWatermarks::verify`]).
///
/// # Panics
///
/// As [`gather_thread_roots`].
pub fn gather_thread_roots_cached(
    src: &impl RootSource,
    cache: &mut DecodeCache,
    tid: u32,
    (mut pc, mut fp, mut ap, mut sp): (u32, i64, i64, i64),
    stack_cache: &mut StackCache,
    out: &mut StackRoots,
) {
    let bytes: &[u8] = &src.module().gc_maps.bytes;
    let prev = std::mem::take(&mut stack_cache.frames);
    let watermark = prev.first().map(|f| f.fp);
    let mut new_frames: Vec<CachedFrame> = Vec::new();
    let mut reg_locs: RegLocs = std::array::from_fn(|r| RootRef::Reg { thread: tid, reg: r as u8 });
    loop {
        if watermark.is_some_and(|wm| fp <= wm) {
            if let Some(i) = find_splice(src, &prev, (pc, fp, ap, sp), &reg_locs) {
                for f in &prev[i..] {
                    out.frames += 1;
                    out.frames_spliced += 1;
                    out.tidy.extend_from_slice(&f.tidy);
                    out.derivations.extend_from_slice(&f.derivations);
                }
                new_frames.extend_from_slice(&prev[i..]);
                break;
            }
        }
        out.frames += 1;
        let tidy_start = out.tidy.len();
        let deriv_start = out.derivations.len();
        let entry_reg_locs = reg_locs;
        let ambiguous = scan_frame_into(src, cache, bytes, tid, (pc, fp, ap, sp), &reg_locs, out);
        let (_, meta) = src.module().proc_at(pc).expect("pc within a procedure");
        for &(reg, off) in &meta.save_regs {
            reg_locs[reg as usize] = RootRef::Mem(fp + i64::from(off));
        }
        let retpc = src.mem_word(fp - 3);
        let old_fp = src.mem_word(fp - 2);
        let old_ap = src.mem_word(fp - 1);
        new_frames.push(CachedFrame {
            pc,
            fp,
            ap,
            sp,
            digest: [retpc, old_fp, old_ap],
            reg_locs: entry_reg_locs,
            tidy: out.tidy[tidy_start..].to_vec(),
            derivations: out.derivations[deriv_start..].to_vec(),
            ambiguous,
        });
        if retpc == RETURN_SENTINEL {
            break;
        }
        sp = ap;
        pc = src.resolve_retpc(retpc);
        fp = old_fp;
        ap = old_ap;
    }
    // A splice is a contiguous suffix, so an ambiguous frame poisons
    // everything hotter than it: keep only the frames outside the
    // outermost ambiguous one.
    if let Some(k) = new_frames.iter().rposition(|f| f.ambiguous) {
        new_frames.drain(..=k);
    }
    stack_cache.frames = new_frames;
}

/// Asserts that a cached-splice gather produced exactly what a full
/// rescan would (locations, order and all). `spliced` must be the
/// [`StackRoots`] gathered for this one thread.
///
/// # Panics
///
/// Panics if the spliced roots diverge from the fresh rescan — that is
/// a watermark bug, on par with corrupted gc tables.
pub fn verify_spliced_roots(
    src: &impl RootSource,
    cache: &mut DecodeCache,
    tid: u32,
    regs: (u32, i64, i64, i64),
    spliced: &StackRoots,
) {
    let mut full = StackRoots::default();
    gather_thread_roots(src, cache, tid, regs, &mut full);
    assert!(
        spliced.tidy == full.tidy
            && spliced.derivations == full.derivations
            && spliced.frames == full.frames,
        "watermark splice diverged from full rescan for thread {tid}: \
         spliced {} tidy / {} derivations over {} frames, \
         full rescan {} tidy / {} derivations over {} frames",
        spliced.tidy.len(),
        spliced.derivations.len(),
        spliced.frames,
        full.tidy.len(),
        full.derivations.len(),
        full.frames,
    );
}

/// Per-machine watermark state: one [`StackCache`] per thread plus the
/// verification switch.
#[derive(Debug, Clone, Default)]
pub struct StackWatermarks {
    threads: Vec<StackCache>,
    /// When set, every cached walk is shadowed by a full rescan and the
    /// two are asserted bit-identical (the fuzzer and the oracle-armed
    /// paths run with this on).
    pub verify: bool,
}

impl StackWatermarks {
    /// Fresh (cold) watermark state.
    #[must_use]
    pub fn new(verify: bool) -> StackWatermarks {
        StackWatermarks { threads: Vec::new(), verify }
    }

    /// The cache for thread `tid`, growing the table on demand.
    pub fn cache_mut(&mut self, tid: usize) -> &mut StackCache {
        if self.threads.len() <= tid {
            self.threads.resize_with(tid + 1, StackCache::default);
        }
        &mut self.threads[tid]
    }

    /// Drops every thread's cached frames (next collection rescans all).
    pub fn invalidate_all(&mut self) {
        for t in &mut self.threads {
            t.invalidate();
        }
    }
}

/// [`gather_stack_roots`] with watermark splicing: each live thread's
/// walk goes through its [`StackCache`], and (when `wm.verify` is set)
/// is checked against a full rescan.
///
/// # Panics
///
/// As [`gather_stack_roots`], plus on a splice/rescan divergence when
/// verification is on.
#[must_use]
pub fn gather_stack_roots_cached(
    m: &Machine,
    cache: &mut DecodeCache,
    wm: &mut StackWatermarks,
) -> StackRoots {
    cache.bind_module(m.module_token());
    let mut out = StackRoots::default();
    for (tid, t) in m.threads.iter().enumerate() {
        if t.status == ThreadStatus::Finished {
            wm.cache_mut(tid).invalidate();
            continue;
        }
        debug_assert_eq!(
            t.status,
            ThreadStatus::BlockedAtGcPoint,
            "thread {tid} not at a gc-point"
        );
        let regs = (t.pc, t.fp, t.ap, t.sp);
        let mut per = StackRoots::default();
        gather_thread_roots_cached(m, cache, tid as u32, regs, wm.cache_mut(tid), &mut per);
        if wm.verify {
            verify_spliced_roots(m, cache, tid as u32, regs, &per);
        }
        out.tidy.append(&mut per.tidy);
        out.derivations.append(&mut per.derivations);
        out.frames += per.frames;
        out.frames_spliced += per.frames_spliced;
    }
    out
}

/// Walks every suspended thread's stack and gathers roots.
///
/// Table lookups go through the [`DecodeCache`]: the first collection
/// pays the sequential decode the *Previous* compression requires, and
/// every later consultation of the same pc is a memo hit (the tables are
/// immutable for the module's lifetime).
///
/// Every thread must be stopped at a gc-point (the scheduler guarantees
/// this before invoking the collector).
///
/// # Panics
///
/// Panics if a frame's pc has no gc-point tables — that would be a
/// compiler bug (a collection at a point the compiler did not describe) —
/// or if the cache was built for a different module.
#[must_use]
pub fn gather_stack_roots(m: &Machine, cache: &mut DecodeCache) -> StackRoots {
    cache.bind_module(m.module_token());
    let mut out = StackRoots::default();
    for (tid, t) in m.threads.iter().enumerate() {
        if t.status == ThreadStatus::Finished {
            continue;
        }
        debug_assert_eq!(
            t.status,
            ThreadStatus::BlockedAtGcPoint,
            "thread {tid} not at a gc-point"
        );
        gather_thread_roots(m, cache, tid as u32, (t.pc, t.fp, t.ap, t.sp), &mut out);
    }
    out
}

/// Gathers the global-area roots.
#[must_use]
pub fn gather_global_roots(m: &Machine) -> Vec<RootRef> {
    m.module
        .global_ptr_roots
        .iter()
        .map(|&off| RootRef::Mem(m.globals_start() as i64 + i64::from(off)))
        .collect()
}

/// Gathers the global-area roots of any [`RootSource`] whose globals
/// start at `globals_start`.
#[must_use]
pub fn gather_global_roots_in(module: &VmModule, globals_start: i64) -> Vec<RootRef> {
    module
        .global_ptr_roots
        .iter()
        .map(|&off| RootRef::Mem(globals_start + i64::from(off)))
        .collect()
}
