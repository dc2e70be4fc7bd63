//! The JIT engine: compiled-code ownership, the native↔interpreter
//! boundary, and the run loop.
//!
//! One [`JitEngine`] serves one machine. At load time it template-
//! compiles every eligible procedure into a single executable region
//! (an enter/exit thunk followed by the procedure blobs) and builds the
//! [`CodeMap`] keying every native call-return address to its bytecode
//! gc-point. At run time [`JitEngine::run`] interleaves native bursts
//! with single-step interpretation over any [`World`]: a pc with a
//! registered native entry runs natively; everything else — procedures
//! that fell back, gc handshakes, traps — is [`exec::run`]'s,
//! unchanged. An engine with no native code at all
//! ([`JitEngine::interpreter`]) is therefore simply the interpreter
//! loop, which is how the runtime drives non-`--jit` runs.
//!
//! Native code stays native across calls and returns: the link step at
//! the end of compilation aims every call site whose callee compiled at
//! the callee's blob, and records every call continuation in a byte map
//! that `Ret` templates consult before jumping through a frame's
//! linkage word. A transfer the templates will not make themselves —
//! into or out of an interpreted procedure, or through a word that
//! names no continuation — leaves through [`EXIT_TRANSFER`] and is made
//! here.
//!
//! The collectors never change: a JIT frame differs from an interpreted
//! frame only in its linkage word (a [`JIT_RETPC_BIAS`]ed native return
//! token instead of a bytecode pc), and the stack walker resolves that
//! token through the shared `CodeMap` before consulting the ordinary
//! pc-keyed gc tables.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use m3gc_vm::codemap::CodeMap;
#[cfg(all(target_arch = "x86_64", unix))]
use m3gc_vm::codemap::JIT_RETPC_BIAS;
use m3gc_vm::decode::DecodedCode;
use m3gc_vm::exec::{self, Cpu, Step, World};
use m3gc_vm::isa::Instr;
use m3gc_vm::machine::{Machine, SeqWorld};
use m3gc_vm::par::{ParMachine, ParWorld};
use m3gc_vm::VmTrap;

use crate::compile::{Fallback, Flavor};
#[cfg(all(target_arch = "x86_64", unix))]
use crate::exec::ExecMem;

/// Gate for everything that emits or executes native code.
macro_rules! native_target {
    () => {
        cfg!(all(target_arch = "x86_64", unix))
    };
}

// ---------------------------------------------------------------------
// The native execution context.
// ---------------------------------------------------------------------

/// Mutable state shared between the engine and a native activation.
///
/// Compiled code addresses fields at the `OFF_*` byte offsets below
/// (`rbx` holds the context pointer for the whole activation), so the
/// layout is frozen: `#[repr(C)]`, all fields 8 bytes, order matching
/// the offset constants. `layout_matches_offsets` in the tests pins
/// every offset with `mem::offset_of!`.
#[repr(C)]
pub struct JitContext {
    /// `&cpu.regs[0]` — the live register file (`r13` in compiled code;
    /// writes land directly in the VM state).
    pub regs: *mut i64,
    /// `&mem[0]` — VM memory base (`r14`).
    pub mem: *mut i64,
    /// Frame pointer (word index). Copied from the thread at entry and
    /// written back at exit.
    pub fp: i64,
    /// Stack pointer.
    pub sp: i64,
    /// Argument pointer.
    pub ap: i64,
    /// Instruction budget. Lives in `r12` while native code runs: the
    /// enter thunk loads it, every instruction decrements it, polls,
    /// back-edges, calls and return landings check it (`<= 0` exits),
    /// and the exit thunk stores it back.
    pub fuel: i64,
    /// The world's gc-request flag — the *same* byte
    /// [`World::gc_requested`] reads, polled at every native park site.
    pub gc_flag: *const u8,
    /// Exit trampoline: restores callee-save registers and returns to
    /// [`JitEngine`]'s enter call. Compiled code leaves via an indirect
    /// jump through this field with an exit reason in `rax`.
    pub exit_thunk: *const u8,
    /// Bytecode pc the exit concerns (next pc, gc-point pc, trap pc —
    /// see the `EXIT_*` docs).
    pub exit_pc: i64,
    /// Trap code for [`EXIT_TRAP`]; nonzero marks a return for
    /// [`EXIT_TRANSFER`].
    pub exit_aux: i64,
    /// This thread's stack limit (overflow checks).
    pub stack_limit: i64,
    /// Native safepoint polls executed (stats).
    pub polls: i64,
    /// `&machine.alloc_ptr` — sequential bump-allocation cursor (null
    /// for parallel machines; they allocate through the helper only).
    pub alloc_ptr_p: *mut i64,
    /// `&machine.alloc_fast_limit` — the one compare of the fast path;
    /// pinned to `i64::MIN` under gc-torture, which diverts every
    /// allocation to the helper and keeps forced-gc counting exact.
    pub alloc_fast_limit_p: *const i64,
    /// `&machine.allocations`.
    pub alloc_count_p: *mut u64,
    /// `&machine.words_allocated`.
    pub words_p: *mut u64,
    /// Base of the procedure blobs: a return token's offset counts from
    /// here.
    pub code_base: *const u8,
    /// Length of the blobs in bytes (bounds `conts`).
    pub code_len: i64,
    /// One byte per blob byte, nonzero where a call continuation
    /// starts: the exact test a `Ret` applies to a linkage word before
    /// jumping through it.
    pub conts: *const u8,
    /// The [`World`] this activation runs against, type-erased: the
    /// helper call-outs are monomorphised for the world type the engine
    /// was built for and cast it back.
    pub world: *mut (),
    /// The thread's [`Cpu`] (`regs` points into it).
    pub cpu: *mut Cpu,
    /// Shadow side table: the decoded instruction each instrumentation
    /// call-out reports (`instrs[instr_id]`).
    pub instrs: *const Instr,
}

/// Byte offsets of [`JitContext`] fields, used by the template
/// compiler. Each is pinned by a unit test.
pub const OFF_REGS: i32 = 0x00;
#[allow(missing_docs)]
pub const OFF_MEM: i32 = 0x08;
#[allow(missing_docs)]
pub const OFF_FP: i32 = 0x10;
#[allow(missing_docs)]
pub const OFF_SP: i32 = 0x18;
#[allow(missing_docs)]
pub const OFF_AP: i32 = 0x20;
#[allow(missing_docs)]
pub const OFF_FUEL: i32 = 0x28;
#[allow(missing_docs)]
pub const OFF_GC_FLAG: i32 = 0x30;
#[allow(missing_docs)]
pub const OFF_EXIT_THUNK: i32 = 0x38;
#[allow(missing_docs)]
pub const OFF_EXIT_PC: i32 = 0x40;
#[allow(missing_docs)]
pub const OFF_EXIT_AUX: i32 = 0x48;
#[allow(missing_docs)]
pub const OFF_STACK_LIMIT: i32 = 0x50;
#[allow(missing_docs)]
pub const OFF_POLLS: i32 = 0x58;
#[allow(missing_docs)]
pub const OFF_ALLOC_PTR_P: i32 = 0x60;
#[allow(missing_docs)]
pub const OFF_ALLOC_FAST_LIMIT_P: i32 = 0x68;
#[allow(missing_docs)]
pub const OFF_ALLOC_COUNT_P: i32 = 0x70;
#[allow(missing_docs)]
pub const OFF_WORDS_P: i32 = 0x78;
#[allow(missing_docs)]
pub const OFF_CODE_BASE: i32 = 0x80;
#[allow(missing_docs)]
pub const OFF_CODE_LEN: i32 = 0x88;
#[allow(missing_docs)]
pub const OFF_CONTS: i32 = 0x90;

/// Native code ran out of fuel at a check; `exit_pc` is the next pc to
/// execute.
pub const EXIT_FUEL: i64 = 0;
/// A safepoint poll observed the gc flag; `exit_pc` is the gc-point pc
/// (no state of that instruction has executed).
pub const EXIT_GC: i64 = 1;
/// An allocation found the heap full; `exit_pc` is the `ALLOC` pc (to
/// be retried after the collection).
pub const EXIT_NEEDGC: i64 = 2;
/// A control transfer the templates leave to the engine. A call whose
/// callee has no native code: the frame is pushed and `exit_pc` is the
/// callee's entry pc. A return (`exit_aux` nonzero) through a linkage
/// word that is no registered continuation — a bytecode pc pushed by an
/// interpreted caller, or anything else: the frame is intact, `exit_pc`
/// is the `RET`'s pc, and the engine resolves the word, pops the frame
/// or traps.
pub const EXIT_TRANSFER: i64 = 3;
/// The thread finished (`HALT`, or `RET` through the bottom-frame
/// sentinel).
pub const EXIT_FINISHED: i64 = 4;
/// Abnormal termination; `exit_aux` holds the `VmTrap` code and
/// `exit_pc` the trapping pc (the interpreter, too, leaves the pc at
/// the trapping instruction).
pub const EXIT_TRAP: i64 = 5;

#[cfg(all(target_arch = "x86_64", unix))]
type EnterFn = unsafe extern "sysv64" fn(*mut JitContext, *const u8) -> i64;

/// The executable region plus the entry points into it.
#[cfg(all(target_arch = "x86_64", unix))]
struct NativeState {
    /// Keeps the mapping alive; dropped last.
    _mem: ExecMem,
    enter: EnterFn,
    exit_thunk: *const u8,
    /// Base of the procedure blobs (thunk excluded); all `CodeMap`
    /// offsets are relative to this.
    code_base: *const u8,
    /// The continuation map ([`JitContext::conts`]), one byte per blob
    /// byte.
    conts: Box<[u8]>,
    /// `type_name` of the [`World`] the baked-in helper addresses were
    /// monomorphised for; [`JitEngine::run`] refuses any other.
    world: &'static str,
}

// ---------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------

/// Compile- and run-time counters for the `--stats` report.
#[derive(Debug)]
pub struct JitStats {
    /// Procedures in the module.
    pub procs_total: usize,
    /// Procedures compiled to native code.
    pub procs_compiled: usize,
    /// Bytes of generated code (thunk + blobs).
    pub code_bytes: usize,
    /// Wall-clock compile time.
    pub compile_micros: u64,
    /// Per-reason interpreter fallbacks, in [`Fallback::all`] order.
    pub fallbacks: Vec<(&'static str, u64)>,
    /// Safepoint polls executed in native code.
    pub native_polls: AtomicU64,
    /// [`EXIT_TRANSFER`] exits: calls and returns native code left to
    /// the engine. With every procedure compiled, none.
    pub engine_transfers: AtomicU64,
    /// Call sites the link step aimed at their callee's native entry.
    pub relocs_patched: usize,
    /// Call sites in compiled code.
    pub relocs_total: usize,
}

/// A plain-data snapshot of [`JitStats`] for reporting.
#[derive(Debug, Clone)]
pub struct JitSummary {
    /// True when native code is installed (at least one procedure
    /// compiled and mapped executable).
    pub enabled: bool,
    /// Procedures in the module.
    pub procs_total: usize,
    /// Procedures compiled to native code.
    pub procs_compiled: usize,
    /// Bytes of generated code.
    pub code_bytes: usize,
    /// Wall-clock compile time.
    pub compile_micros: u64,
    /// Safepoint polls executed in native code so far.
    pub native_polls: u64,
    /// Calls and returns native code left to the engine so far.
    pub engine_transfers: u64,
    /// Call sites jumping straight to their callee's native entry.
    pub relocs_patched: usize,
    /// Call sites in compiled code.
    pub relocs_total: usize,
    /// `(reason, count)` for every fallback reason with a nonzero
    /// count.
    pub fallbacks: Vec<(&'static str, u64)>,
}

// ---------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------

/// Owns the compiled code, its [`CodeMap`], and the run loop. Built
/// once per execution from the already-configured machine; shared
/// read-only between mutator threads in parallel mode.
pub struct JitEngine {
    #[cfg(all(target_arch = "x86_64", unix))]
    native: Option<NativeState>,
    /// The machine's predecoded program: what [`JitEngine::run`]
    /// interprets wherever it has no native code.
    code: Arc<DecodedCode>,
    map: Arc<CodeMap>,
    /// Shadow side table; `JitContext::instrs` points into it.
    instrs: Vec<Instr>,
    stats: JitStats,
}

// SAFETY: the code region is immutable (RX) after construction and the
// raw pointers only reference it; `instrs` and `map` are read-only.
unsafe impl Send for JitEngine {}
unsafe impl Sync for JitEngine {}

impl JitEngine {
    /// An engine with no native code: [`JitEngine::run`] interprets
    /// every instruction of `code`, the machine's predecoded program
    /// (`Machine::decoded` / `ParMachine::decoded`).
    #[must_use]
    pub fn interpreter(code: Arc<DecodedCode>) -> JitEngine {
        JitEngine {
            #[cfg(all(target_arch = "x86_64", unix))]
            native: None,
            code,
            map: Arc::new(CodeMap::default()),
            instrs: Vec::new(),
            stats: JitStats {
                procs_total: 0,
                procs_compiled: 0,
                code_bytes: 0,
                compile_micros: 0,
                fallbacks: Vec::new(),
                native_polls: AtomicU64::new(0),
                engine_transfers: AtomicU64::new(0),
                relocs_patched: 0,
                relocs_total: 0,
            },
        }
    }

    /// Builds an engine for a sequential machine. Never fails: anything
    /// that cannot be compiled is recorded as a counted fallback and
    /// runs interpreted.
    #[must_use]
    pub fn for_machine(m: &Machine) -> JitEngine {
        let flavor = Flavor { par: false, shadow: m.shadow.is_some(), cms: false };
        build_engine::<SeqWorld>(&m.world, m.decoded(), flavor, None)
    }

    /// Builds an engine for a parallel machine. Allocation-service
    /// region mode excludes the JIT structurally (escape tracking is
    /// interpreter-only).
    #[must_use]
    pub fn for_par(vm: &ParMachine) -> JitEngine {
        let structural = (vm.region_words() > 0).then_some(Fallback::RegionMode);
        let flavor = Flavor { par: true, shadow: vm.shadow.is_some(), cms: vm.cms.is_some() };
        let mut gc_scratch = m3gc_vm::MutatorLocal::default();
        let world = vm.world(&mut gc_scratch);
        build_engine::<ParWorld<'static>>(&world, vm.decoded(), flavor, structural)
    }

    /// The gc-map for compiled code, to be installed on the machine
    /// ([`Machine::set_code_map`] / [`ParMachine::set_code_map`]) so the
    /// interpreter's `RET` and the stack walker resolve native return
    /// tokens.
    #[must_use]
    pub fn code_map(&self) -> Arc<CodeMap> {
        Arc::clone(&self.map)
    }

    /// True when at least one procedure runs natively.
    #[must_use]
    pub fn is_native(&self) -> bool {
        #[cfg(all(target_arch = "x86_64", unix))]
        {
            self.native.is_some()
        }
        #[cfg(not(all(target_arch = "x86_64", unix)))]
        {
            false
        }
    }

    /// Snapshot of the engine's counters.
    #[must_use]
    pub fn summary(&self) -> JitSummary {
        JitSummary {
            enabled: self.is_native(),
            procs_total: self.stats.procs_total,
            procs_compiled: self.stats.procs_compiled,
            code_bytes: self.stats.code_bytes,
            compile_micros: self.stats.compile_micros,
            native_polls: self.stats.native_polls.load(Ordering::Relaxed),
            engine_transfers: self.stats.engine_transfers.load(Ordering::Relaxed),
            relocs_patched: self.stats.relocs_patched,
            relocs_total: self.stats.relocs_total,
            fallbacks: self.stats.fallbacks.iter().filter(|&&(_, n)| n > 0).copied().collect(),
        }
    }

    /// Test hook for the gc-map mutation test: clones the map, nudges
    /// the native-offset key of gc-point `idx` by `delta`, installs the
    /// corrupted clone as this engine's map and returns it (the caller
    /// must install the same `Arc` on the machine — both the engine's
    /// transfer resolution and the interpreter/walker resolution go
    /// through the map, and the test corrupts *the* map, not one copy).
    #[doc(hidden)]
    pub fn corrupt_gc_point_key(&mut self, idx: usize, delta: i32) -> (Arc<CodeMap>, (u32, u32)) {
        let mut map = CodeMap::clone(&self.map);
        let (old, new) = map.corrupt_gc_point_key(idx, delta);
        let arc = Arc::new(map);
        self.map = Arc::clone(&arc);
        (arc, (old, new))
    }

    /// Runs up to `max` instructions of `cpu` against `w`, mixing native
    /// bursts and interpreted steps. Returns the stopping condition and
    /// the number of instructions executed. Behaves exactly like
    /// [`exec::run`] — the budget, the stop at a loop poll once
    /// `poll_after` instructions have run, the stop-before-execute
    /// safepoint protocol; the caller owns the bookkeeping around the
    /// outcome.
    ///
    /// # Panics
    ///
    /// Panics if the engine holds native code built for a different
    /// world type than `W`.
    pub fn run<W: World>(
        &self,
        cpu: &mut Cpu,
        w: &mut W,
        max: u64,
        poll_after: u64,
    ) -> (Step, u64) {
        #[cfg(all(target_arch = "x86_64", unix))]
        if let Some(native) = self.native.as_ref() {
            return self.run_mixed(native, cpu, w, max, poll_after);
        }
        exec::run(cpu, &self.code, w, max, poll_after)
    }

    #[cfg(all(target_arch = "x86_64", unix))]
    fn run_mixed<W: World>(
        &self,
        native: &NativeState,
        cpu: &mut Cpu,
        w: &mut W,
        max: u64,
        poll_after: u64,
    ) -> (Step, u64) {
        assert_eq!(native.world, std::any::type_name::<W>(), "engine built for another world");
        let (mut executed, mut polls, mut transfers) = (0u64, 0u64, 0u64);
        let step = 'burst: {
            while executed < max {
                let to_poll = poll_after.saturating_sub(executed);
                let Some(off) = self.map.entry_native_off(cpu.pc) else {
                    // Interpreter fallback, one instruction at a time
                    // (the next pc may well be back in native code).
                    let (step, n) = exec::run(cpu, &self.code, w, 1, to_poll);
                    executed += n;
                    if step != Step::Normal || n == 0 {
                        break 'burst step;
                    }
                    continue;
                };
                if w.gc_requested() && self.code.is_gc_point_pc(cpu.pc) {
                    break 'burst Step::AtSafepoint;
                }
                if to_poll == 0 && self.code.is_poll_pc(cpu.pc) {
                    break 'burst Step::Normal;
                }
                // Native code checks its fuel at polls, back-edges, calls
                // and return landings, so past `poll_after` a budget of
                // one ends the burst at the next of those.
                let budget =
                    i64::try_from((max - executed).min(to_poll.max(1))).unwrap_or(i64::MAX);
                let mut ctx = context(cpu, w, budget, native, &self.instrs);
                // SAFETY: the context points at live machine state; the
                // target is an instruction-start offset inside the mapped
                // region; compiled code upholds the VM's bounds invariants
                // (it performs the same checks as the interpreter), jumps
                // only to blob offsets the link step registered, and calls
                // only helpers monomorphised for `W` (asserted above).
                // Parallel memory is `AtomicI64` (same layout as `i64`), and
                // native plain loads/stores are relaxed atomic accesses on
                // x86-64.
                let reason =
                    unsafe { (native.enter)(&mut ctx, native.code_base.add(off as usize)) };
                executed += u64::try_from(budget - ctx.fuel).unwrap_or(0);
                polls += ctx.polls as u64;
                cpu.fp = ctx.fp;
                cpu.sp = ctx.sp;
                cpu.ap = ctx.ap;
                cpu.pc = ctx.exit_pc as u32;
                break 'burst match reason {
                    EXIT_FUEL => continue,
                    EXIT_TRANSFER => {
                        transfers += 1;
                        if ctx.exit_aux != 0 {
                            // A return, frame intact: the interpreter's
                            // `Ret` minus the sentinel case, which native
                            // code handles.
                            let Some(ret) = native
                                .return_target(&self.map, w.word(cpu.fp - 3))
                                .filter(|&pc| self.code.index_of(pc).is_some())
                            else {
                                break 'burst Step::Trap(VmTrap::WildAddress);
                            };
                            let fp = cpu.fp;
                            cpu.sp = cpu.ap;
                            cpu.fp = w.word(fp - 2);
                            cpu.ap = w.word(fp - 1);
                            cpu.pc = ret;
                        }
                        continue;
                    }
                    EXIT_GC => Step::AtSafepoint,
                    EXIT_NEEDGC => Step::NeedGc,
                    EXIT_FINISHED => Step::Finished,
                    EXIT_TRAP => Step::Trap(VmTrap::from_code(ctx.exit_aux)),
                    other => unreachable!("unknown jit exit reason {other}"),
                };
            }
            Step::Normal
        };
        self.stats.native_polls.fetch_add(polls, Ordering::Relaxed);
        self.stats.engine_transfers.fetch_add(transfers, Ordering::Relaxed);
        (step, executed)
    }

    /// Drop-in replacement for [`Machine::run_thread`]: [`JitEngine::run`]
    /// on the machine's thread, counting the instructions it ran.
    pub fn run_thread(&self, m: &mut Machine, fuel: u64) -> Step {
        let (step, executed) = self.run(&mut m.cpu, &mut m.world, fuel, u64::MAX);
        m.steps += executed;
        step
    }
}

#[cfg(all(target_arch = "x86_64", unix))]
impl NativeState {
    /// The bytecode pc a frame's linkage word returns to: a plain pc as
    /// it stands, a biased token only if it names exactly a registered
    /// continuation — the floor search of [`CodeMap::resolve_ret`] is
    /// for return addresses the collector finds, not for words a
    /// program may have forged.
    fn return_target(&self, map: &CodeMap, word: i64) -> Option<u32> {
        if word < JIT_RETPC_BIAS {
            return Some(word as u32);
        }
        let off = usize::try_from(word - JIT_RETPC_BIAS).ok()?;
        if *self.conts.get(off)? == 0 {
            return None;
        }
        map.resolve_ret(word)
    }
}

#[cfg(all(target_arch = "x86_64", unix))]
fn context<W: World>(
    cpu: &mut Cpu,
    w: &mut W,
    fuel: i64,
    native: &NativeState,
    instrs: &[Instr],
) -> JitContext {
    let ports = w.jit_ports();
    let cpu_p: *mut Cpu = cpu;
    JitContext {
        // SAFETY: `cpu_p` is a live `&mut Cpu`; projecting a field keeps
        // the pointer's provenance over the whole struct.
        regs: unsafe { (&raw mut (*cpu_p).regs).cast() },
        mem: ports.mem,
        fp: cpu.fp,
        sp: cpu.sp,
        ap: cpu.ap,
        fuel,
        gc_flag: ports.gc_flag,
        exit_thunk: native.exit_thunk,
        exit_pc: 0,
        exit_aux: 0,
        stack_limit: cpu.stack_limit,
        polls: 0,
        alloc_ptr_p: ports.alloc_ptr,
        alloc_fast_limit_p: ports.alloc_fast_limit,
        alloc_count_p: ports.alloc_count,
        words_p: ports.words,
        code_base: native.code_base,
        code_len: native.conts.len() as i64,
        conts: native.conts.as_ptr(),
        world: std::ptr::from_mut(w).cast(),
        cpu: cpu_p,
        instrs: instrs.as_ptr(),
    }
}

// ---------------------------------------------------------------------
// Runtime helpers (native code calls out to these).
// ---------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", unix))]
mod helpers {
    use super::JitContext;
    use crate::compile::Helpers;
    use m3gc_vm::exec::{self, Cpu, World};
    use m3gc_vm::VmTrap;

    /// Helper return protocol: 0 = ok, 1 = needs-gc, `2 + code` = trap.
    fn code(r: Result<bool, VmTrap>) -> i64 {
        match r {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(t) => 2 + t.to_code(),
        }
    }

    /// The activation's context, register file and world.
    ///
    /// # Safety
    ///
    /// `ctx` must be the live context of an activation entered by
    /// `JitEngine::run::<W>` (which built it from exclusive borrows of
    /// the `Cpu` and the `W`, both idle while native code runs).
    unsafe fn parts<'a, W>(ctx: *mut JitContext) -> (&'a mut JitContext, &'a mut Cpu, &'a mut W) {
        // SAFETY: see above; the three objects are disjoint.
        unsafe {
            let ctx = &mut *ctx;
            let (cpu, w) = (&mut *ctx.cpu, &mut *ctx.world.cast::<W>());
            (ctx, cpu, w)
        }
    }

    unsafe extern "sysv64" fn alloc<W: World>(
        ctx: *mut JitContext,
        packed: i64,
        len: i64,
        _pc: i64,
    ) -> i64 {
        let (_, cpu, w) = unsafe { parts::<W>(ctx) };
        code(exec::alloc_into(cpu, w, (packed & 0xffff) as u8, (packed >> 16) as u16, len))
    }

    unsafe extern "sysv64" fn stb<W: World>(ctx: *mut JitContext, addr: i64, value: i64) -> i64 {
        let (_, _, w) = unsafe { parts::<W>(ctx) };
        code(w.barrier_store(addr, value).map(|()| true))
    }

    unsafe extern "sysv64" fn sys<W: World>(ctx: *mut JitContext, service: i64, arg: i64) -> i64 {
        let (_, _, w) = unsafe { parts::<W>(ctx) };
        code(w.sys(service as u8, arg).map(|()| true))
    }

    unsafe extern "sysv64" fn shadow<W: World>(ctx: *mut JitContext, instr_id: i64) -> i64 {
        let (ctx, cpu, w) = unsafe { parts::<W>(ctx) };
        // The shadow tracker reads the frame cursors; registers are
        // already live (the context's `regs` aliases them).
        cpu.fp = ctx.fp;
        cpu.sp = ctx.sp;
        cpu.ap = ctx.ap;
        // SAFETY: `instr_id` indexes the engine's side table, which
        // `ctx.instrs` points at for the whole activation.
        let ins = unsafe { &*ctx.instrs.add(instr_id as usize) };
        code(exec::shadow_step(cpu, w, ins).map_or(Ok(true), Err))
    }

    /// The call-out table for world `W`.
    pub fn table<W: World>() -> Helpers {
        Helpers {
            alloc: alloc::<W> as *const () as usize as i64,
            stb: stb::<W> as *const () as usize as i64,
            sys: sys::<W> as *const () as usize as i64,
            shadow: shadow::<W> as *const () as usize as i64,
        }
    }
}

// ---------------------------------------------------------------------
// Engine construction.
// ---------------------------------------------------------------------

fn build_engine<W: World>(
    w: &impl World,
    code: &Arc<DecodedCode>,
    flavor: Flavor,
    structural: Option<Fallback>,
) -> JitEngine {
    let started = std::time::Instant::now();
    let (module, mem_words) = (w.module(), w.mem_words());
    let nprocs = module.procs.len();
    let mut counts: Vec<(&'static str, u64)> =
        Fallback::all().iter().map(|f| (f.key(), 0)).collect();
    let bump = |counts: &mut Vec<(&'static str, u64)>, f: Fallback, n: u64| {
        let key = f.key();
        for c in counts.iter_mut() {
            if c.0 == key {
                c.1 += n;
            }
        }
    };

    let mut structural = structural;
    if structural.is_none() && std::env::var("M3GC_JIT_DISABLE").is_ok_and(|v| v == "1") {
        structural = Some(Fallback::ForcedByEnv);
    }
    if structural.is_none() && (mem_words == 0 || mem_words > i32::MAX as usize) {
        // Word addresses must fit the imm32 bounds-check compares.
        structural = Some(Fallback::UnsupportedOpcode);
    }
    if structural.is_none() && !native_target!() {
        structural = Some(Fallback::UnsupportedArch);
    }

    if let Some(reason) = structural {
        bump(&mut counts, reason, nprocs as u64);
        let mut engine = JitEngine::interpreter(Arc::clone(code));
        engine.stats.procs_total = nprocs;
        engine.stats.compile_micros = started.elapsed().as_micros() as u64;
        engine.stats.fallbacks = counts;
        return engine;
    }

    #[cfg(all(target_arch = "x86_64", unix))]
    {
        compile_native::<W>(module, code, flavor, mem_words, started, counts, bump)
    }
    #[cfg(not(all(target_arch = "x86_64", unix)))]
    {
        let _ = flavor;
        unreachable!("structural UnsupportedArch fallback handles non-native targets")
    }
}

#[cfg(all(target_arch = "x86_64", unix))]
fn compile_native<W: World>(
    module: &m3gc_vm::VmModule,
    decoded: &Arc<DecodedCode>,
    flavor: Flavor,
    mem_words: usize,
    started: std::time::Instant,
    mut counts: Vec<(&'static str, u64)>,
    mut bump: impl FnMut(&mut Vec<(&'static str, u64)>, Fallback, u64),
) -> JitEngine {
    use crate::emit::{EmitState, Reg};

    let helpers = helpers::table::<W>();

    let excluded: std::collections::HashSet<String> = std::env::var("M3GC_JIT_EXCLUDE")
        .map(|v| v.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect())
        .unwrap_or_default();

    // The enter/exit thunk: the one ABI boundary. `enter(ctx, target)`
    // saves the SysV callee-save registers, pins rbx/r13/r14, loads the
    // fuel into r12 and jumps into the blob; blobs leave via an indirect
    // jump to the exit half, which stores the fuel back and unwinds the
    // same frame. The `sub rsp, 8` keeps rsp ≡ 0 (mod 16) inside blobs
    // so helper `call`s land SysV-aligned.
    let mut e = EmitState::new();
    for r in [Reg::Rbp, Reg::Rbx, Reg::R12, Reg::R13, Reg::R14, Reg::R15] {
        e.push(r);
    }
    e.sub_rsp_imm8(8);
    e.mov_rr(Reg::Rbx, Reg::Rdi);
    e.load(Reg::R13, Reg::Rbx, OFF_REGS);
    e.load(Reg::R14, Reg::Rbx, OFF_MEM);
    e.load(Reg::R12, Reg::Rbx, OFF_FUEL);
    e.jmp_r(Reg::Rsi);
    let exit_off = e.here() as usize;
    e.store(Reg::Rbx, OFF_FUEL, Reg::R12);
    e.add_rsp_imm8(8);
    for r in [Reg::R15, Reg::R14, Reg::R13, Reg::R12, Reg::Rbx, Reg::Rbp] {
        e.pop(r);
    }
    e.ret();
    let thunk = e.finish();
    let thunk_len = thunk.len();

    let mut builder = CodeMap::builder();
    let mut blob: Vec<u8> = Vec::new();
    let mut instrs: Vec<Instr> = Vec::new();
    let mut compiled = 0usize;
    // Call sites as `(blob offset of the rel32, callee)`.
    let mut relocs: Vec<(u32, u16)> = Vec::new();
    for (i, meta) in module.procs.iter().enumerate() {
        if excluded.contains(&meta.name) {
            bump(&mut counts, Fallback::ExcludedProc, 1);
            continue;
        }
        match crate::compile::compile_proc(
            module,
            decoded,
            i,
            blob.len() as u32,
            flavor,
            helpers,
            mem_words as i64,
            &mut instrs,
        ) {
            Ok(art) => {
                let start = blob.len() as u32;
                blob.extend_from_slice(&art.code);
                builder.add_proc(i, start, blob.len() as u32);
                for (off, pc) in art.gc_points {
                    builder.add_gc_point(off, pc);
                }
                for (pc, off) in art.entries {
                    builder.add_entry(pc, off);
                }
                relocs.extend(art.relocs.iter().map(|&(at, callee)| (start + at, callee)));
                compiled += 1;
            }
            Err(f) => bump(&mut counts, f, 1),
        }
    }

    // The link step: every blob has its offset now, so a call site whose
    // callee compiled jumps straight there (the others keep jumping to
    // their own stub, which hands the call to the engine), and every
    // call continuation is marked for the `Ret` templates' exact test.
    let map = builder.finish();
    let mut relocs_patched = 0usize;
    for &(at, callee) in &relocs {
        if let Some(range) = map.range_of_proc(callee as usize) {
            let rel = i64::from(range.start) - (i64::from(at) + 4);
            let rel = i32::try_from(rel).expect("blobs are within rel32 of each other");
            blob[at as usize..at as usize + 4].copy_from_slice(&rel.to_le_bytes());
            relocs_patched += 1;
        }
    }
    let mut conts = vec![0u8; blob.len()].into_boxed_slice();
    for &(off, _) in map.gc_points() {
        conts[off as usize] = 1;
    }

    let mut native = None;
    let mut code_bytes = 0usize;
    if compiled > 0 {
        let mut full = thunk;
        full.extend_from_slice(&blob);
        code_bytes = full.len();
        match ExecMem::new(&full) {
            Some(mem) => {
                let base = mem.base();
                // SAFETY: offset 0 of the region is the enter thunk,
                // whose signature is exactly `EnterFn`.
                let enter: EnterFn = unsafe { std::mem::transmute(base) };
                // SAFETY: both offsets are inside the mapped region.
                let (exit_thunk, code_base) = unsafe { (base.add(exit_off), base.add(thunk_len)) };
                native = Some(NativeState {
                    _mem: mem,
                    enter,
                    exit_thunk,
                    code_base,
                    conts,
                    world: std::any::type_name::<W>(),
                });
            }
            None => {
                // Executable mappings refused (hardened kernel): the
                // compiled procedures all fall back.
                bump(&mut counts, Fallback::UnsupportedArch, compiled as u64);
                compiled = 0;
                code_bytes = 0;
            }
        }
    }
    let map = if native.is_some() { map } else { CodeMap::default() };

    JitEngine {
        native,
        code: Arc::clone(decoded),
        map: Arc::new(map),
        instrs,
        stats: JitStats {
            procs_total: module.procs.len(),
            procs_compiled: compiled,
            code_bytes,
            compile_micros: started.elapsed().as_micros() as u64,
            fallbacks: counts,
            native_polls: AtomicU64::new(0),
            engine_transfers: AtomicU64::new(0),
            relocs_patched,
            relocs_total: relocs.len(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::offset_of;

    #[test]
    fn layout_matches_offsets() {
        assert_eq!(offset_of!(JitContext, regs), OFF_REGS as usize);
        assert_eq!(offset_of!(JitContext, mem), OFF_MEM as usize);
        assert_eq!(offset_of!(JitContext, fp), OFF_FP as usize);
        assert_eq!(offset_of!(JitContext, sp), OFF_SP as usize);
        assert_eq!(offset_of!(JitContext, ap), OFF_AP as usize);
        assert_eq!(offset_of!(JitContext, fuel), OFF_FUEL as usize);
        assert_eq!(offset_of!(JitContext, gc_flag), OFF_GC_FLAG as usize);
        assert_eq!(offset_of!(JitContext, exit_thunk), OFF_EXIT_THUNK as usize);
        assert_eq!(offset_of!(JitContext, exit_pc), OFF_EXIT_PC as usize);
        assert_eq!(offset_of!(JitContext, exit_aux), OFF_EXIT_AUX as usize);
        assert_eq!(offset_of!(JitContext, stack_limit), OFF_STACK_LIMIT as usize);
        assert_eq!(offset_of!(JitContext, polls), OFF_POLLS as usize);
        assert_eq!(offset_of!(JitContext, alloc_ptr_p), OFF_ALLOC_PTR_P as usize);
        assert_eq!(offset_of!(JitContext, alloc_fast_limit_p), OFF_ALLOC_FAST_LIMIT_P as usize);
        assert_eq!(offset_of!(JitContext, alloc_count_p), OFF_ALLOC_COUNT_P as usize);
        assert_eq!(offset_of!(JitContext, words_p), OFF_WORDS_P as usize);
        assert_eq!(offset_of!(JitContext, code_base), OFF_CODE_BASE as usize);
        assert_eq!(offset_of!(JitContext, code_len), OFF_CODE_LEN as usize);
        assert_eq!(offset_of!(JitContext, conts), OFF_CONTS as usize);
    }
}
