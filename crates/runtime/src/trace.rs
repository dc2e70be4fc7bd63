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
//! Every root is read and written through one seam: memory through the
//! machine's [`World`], registers through the stopped thread's [`Cpu`] —
//! the single-threaded [`Machine`]'s own (suspended in place), or the
//! one a parallel mutator deposited when it parked at a safepoint. The
//! walk, the precision oracle, the §3 un-derive/re-derive and every copy
//! use the same `read_root`/`write_root` pair.

use m3gc_core::decode::DecodeCache;
use m3gc_core::derive::{BaseRef, DerivationRecord, Sign};
use m3gc_core::layout::{BaseReg, Location, NUM_HARD_REGS};
use m3gc_vm::exec::{Cpu, World};
use m3gc_vm::machine::{Machine, RETURN_SENTINEL};
use m3gc_vm::module::VmModule;

/// A reference to a root: either a memory word or a live machine register
/// of some thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootRef {
    /// A memory word (stack slot, save-area slot, or global).
    Mem(i64),
    /// An actual machine register of a thread (innermost frames only).
    /// Every walk reads registers from the one stopped thread's `Cpu`.
    Reg {
        /// Thread index, for messages.
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

/// Reads a [`RootRef`] of a world being collected.
pub(crate) fn read_root<W: World>(w: &W, cpu: &Cpu, r: RootRef) -> i64 {
    match r {
        RootRef::Mem(a) => w.word(a),
        RootRef::Reg { reg, .. } => cpu.regs[reg as usize],
    }
}

/// Writes a [`RootRef`] of a world being collected.
pub(crate) fn write_root<W: World>(w: &mut W, cpu: &mut Cpu, r: RootRef, v: i64) {
    match r {
        RootRef::Mem(a) => w.set_word(a, v),
        RootRef::Reg { reg, .. } => cpu.regs[reg as usize] = v,
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
fn scan_frame_into<W: World>(
    w: &W,
    cpu: &Cpu,
    cache: &mut DecodeCache,
    tid: u32,
    (pc, fp, ap, sp): (u32, i64, i64, i64),
    reg_locs: &RegLocs,
    out: &mut StackRoots,
) {
    let point = cache.lookup(&w.module().gc_maps.bytes, pc).unwrap_or_else(|| {
        panic!(
            "no gc tables for pc {pc} in `{}` (thread {tid})",
            w.module().proc_at(pc).map_or("?", |(_, p)| p.name.as_str())
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
                let which = read_root(w, cpu, pv);
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

/// Walks a stopped thread's stack outward from its suspension point (the
/// pc and frame cursor of `cpu`), appending roots to `out`; `tid` names
/// the thread in its [`RootRef::Reg`]s and messages. `cache` must be
/// bound to the same module.
///
/// # Panics
///
/// Panics if a frame's pc has no gc-point tables — that would be a
/// compiler bug (a collection at a point the compiler did not describe).
pub(crate) fn gather_thread_roots<W: World>(
    w: &W,
    cpu: &Cpu,
    cache: &mut DecodeCache,
    tid: u32,
    out: &mut StackRoots,
) {
    let (mut pc, mut fp, mut ap, mut sp) = (cpu.pc, cpu.fp, cpu.ap, cpu.sp);
    // Register contents start out in the actual machine registers.
    let mut reg_locs: RegLocs = std::array::from_fn(|r| RootRef::Reg { thread: tid, reg: r as u8 });
    loop {
        out.frames += 1;
        scan_frame_into(w, cpu, cache, tid, (pc, fp, ap, sp), &reg_locs, out);
        // Unwind to the caller: registers saved by this procedure live
        // in its save area, so the caller's view of those registers is
        // those stack slots.
        let (_, meta) = w.module().proc_at(pc).expect("pc within a procedure");
        for &(reg, off) in &meta.save_regs {
            reg_locs[reg as usize] = RootRef::Mem(fp + i64::from(off));
        }
        let retpc = w.word(fp - 3);
        if retpc == RETURN_SENTINEL {
            break;
        }
        // The caller's SP at the time of the call: the arg block plus
        // linkage had been pushed, so its SP was `ap` before pushing.
        sp = ap;
        let old_fp = w.word(fp - 2);
        let old_ap = w.word(fp - 1);
        // A JIT frame's linkage holds a biased native return token; the
        // world's code map resolves it to the call's gc-point pc, and the
        // pc-keyed tables apply unchanged (the collectors' only JIT
        // awareness).
        pc = w.resolve_retpc(retpc);
        fp = old_fp;
        ap = old_ap;
    }
}

/// Walks the machine's stack and gathers roots.
///
/// Table lookups go through the [`DecodeCache`]: the first collection
/// pays the sequential decode the *Previous* compression requires, and
/// every later consultation of the same pc is a memo hit (the tables are
/// immutable for the module's lifetime).
///
/// The thread must be stopped at a gc-point (the executor collects only
/// when its allocation stopped it).
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
    gather_thread_roots(&m.world, &m.cpu, cache, 0, &mut out);
    out
}

/// The addresses of the global-area roots of a module whose globals
/// start at `globals_start`.
pub fn gather_global_roots(
    module: &VmModule,
    globals_start: i64,
) -> impl Iterator<Item = i64> + '_ {
    module.global_ptr_roots.iter().map(move |&off| globals_start + i64::from(off))
}
