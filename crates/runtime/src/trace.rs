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
use m3gc_core::derive::{BaseRef, DerivationRecord, Sign};
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
    /// Number of frames traced (for the §6.3 per-frame cost figures).
    pub frames: usize,
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
/// to `out`.
fn scan_frame_into(
    src: &impl RootSource,
    cache: &mut DecodeCache,
    bytes: &[u8],
    tid: u32,
    (pc, fp, ap, sp): (u32, i64, i64, i64),
    reg_locs: &RegLocs,
    out: &mut StackRoots,
) {
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
    for rec in &point.derivations {
        let target = resolve_location(rec.target(), fp, ap, sp, reg_locs);
        let bases: &[BaseRef] = match rec {
            DerivationRecord::Simple { bases, .. } => bases,
            DerivationRecord::Ambiguous { path_var, variants, .. } => {
                let pv = resolve_location(*path_var, fp, ap, sp, reg_locs);
                let which = read_root_in(src, pv);
                let idx = usize::try_from(which)
                    .ok()
                    .filter(|i| *i < variants.len())
                    .unwrap_or_else(|| panic!("path variable out of range: {which}"));
                &variants[idx]
            }
        };
        let bases = bases
            .iter()
            .map(|&(loc, sign)| (resolve_location(loc, fp, ap, sp, reg_locs), sign))
            .collect();
        out.derivations.push(ResolvedDerivation { target, bases });
    }
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

/// Gathers the global-area roots of a module whose globals start at
/// `globals_start`.
#[must_use]
pub fn gather_global_roots(module: &VmModule, globals_start: i64) -> Vec<RootRef> {
    module
        .global_ptr_roots
        .iter()
        .map(|&off| RootRef::Mem(globals_start + i64::from(off)))
        .collect()
}
