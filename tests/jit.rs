//! JIT integration: mixed interpreter/JIT call stacks under gc-torture
//! across all four collectors, direct native calls and returns (link
//! accounting, burst parity, returns through frames a collection just
//! rewrote), code-map boundary lookups, and the return-address-key
//! mutation sweep.
//!
//! On hosts without x86-64 executable mappings every `--jit` run falls
//! back to the interpreter per-procedure, so the parity assertions hold
//! trivially; the code-map and mutation tests detect that and skip.

use std::sync::Mutex;

use m3gc::compiler::{compile, reference_output, run_module_par_opts, Options};
use m3gc::jit::{JitEngine, JitSummary};
use m3gc::runtime::scheduler::ExecError;
use m3gc::runtime::{Executor, GcStrategy, RuntimeOptions};
use m3gc::vm::codemap::JIT_RETPC_BIAS;
use m3gc::vm::exec::Step;
use m3gc::vm::machine::Machine;
use m3gc::vm::{Instr, VmModule, VmTrap};

/// Serializes tests that mutate process-global environment variables.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// A call-heavy allocating program: deep recursion interleaved with
/// list building, so collections happen with many frames — JIT and
/// interpreted alike — live on the stack.
const SRC: &str = "MODULE JitMix;
TYPE
  Node = REF RECORD
    val: INTEGER;
    next: Node;
  END;
VAR
  head: Node; i: INTEGER;

PROCEDURE Grow(n: INTEGER): Node =
VAR p: Node;
BEGIN
  p := NEW(Node);
  p.val := n;
  p.next := head;
  RETURN p;
END Grow;

PROCEDURE Sum(p: Node): INTEGER =
BEGIN
  IF p = NIL THEN RETURN 0; END;
  RETURN p.val + Sum(p.next);
END Sum;

PROCEDURE Round(n: INTEGER): INTEGER =
BEGIN
  head := Grow(n);
  IF n MOD 7 = 0 THEN
    RETURN Sum(head);
  END;
  RETURN 0;
END Round;

BEGIN
  i := 0;
  WHILE i < 70 DO
    IF Round(i) > 0 THEN
      PutInt(Sum(head));
      PutLn();
    END;
    i := i + 1;
  END;
END JitMix.
";

fn jit_opts(strategy: GcStrategy) -> RuntimeOptions {
    RuntimeOptions::new()
        .strategy(strategy)
        .semi_words(4096)
        .stack_words(1 << 14)
        .torture(true)
        .oracle(true)
        .jit(true)
}

fn run_seq(strategy: GcStrategy) -> Result<String, ExecError> {
    run_src(SRC, jit_opts(strategy)).map(|(out, _)| out)
}

/// Compiles and runs `src`, returning its output and the engine's
/// counters as they stand after the run.
fn run_src(src: &str, opts: RuntimeOptions) -> Result<(String, JitSummary), ExecError> {
    let module = compile(src, &Options::o2()).expect("compiles");
    let mut ex = Executor::try_new(opts.build_machine(module), opts).expect("valid maps");
    let out = ex.run_main()?;
    Ok((out.output, ex.jit_summary().expect("jit is on")))
}

/// Every `Call` in `module` as `(calling procedure, callee)`.
fn call_sites(module: &VmModule) -> Vec<(usize, usize)> {
    let mut pc = 0;
    let mut sites = Vec::new();
    for (ins, next) in m3gc::vm::decode::DecodedCode::of(module).instrs() {
        if let Instr::Call { proc, .. } = *ins {
            let caller = module.procs.iter().position(|p| p.contains(pc)).expect("pc in a proc");
            sites.push((caller, proc as usize));
        }
        pc = next;
    }
    sites
}

#[test]
fn jit_matches_reference_under_torture_all_collectors() {
    let expected = reference_output(SRC).expect("reference runs");
    for strategy in [GcStrategy::Semispace, GcStrategy::Generational] {
        let out = run_seq(strategy).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(out, expected, "{strategy:?}");
    }
    for strategy in [GcStrategy::Parallel, GcStrategy::Cms] {
        let module = compile(SRC, &Options::o2()).expect("compiles");
        let out = run_module_par_opts(module, jit_opts(strategy).threads(1).gc_workers(2))
            .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(out.output, expected, "{strategy:?}");
    }
}

/// Pause parity: the JIT must not change *what* the collectors do.
/// Collecting every seventh allocation, interpreter and JIT runs
/// execute the same number of instructions, collect at the same
/// allocations and evacuate the same words.
#[test]
fn jit_and_interpreter_share_one_collection_schedule() {
    for strategy in [GcStrategy::Semispace, GcStrategy::Generational] {
        let run = |jit: bool| {
            let module = compile(SRC, &Options::o2()).expect("compiles");
            let opts = RuntimeOptions::new()
                .strategy(strategy)
                .semi_words(4096)
                .force_every_allocs(Some(7))
                .jit(jit);
            let mut ex = Executor::try_new(opts.build_machine(module), opts).expect("valid maps");
            ex.run_main().unwrap_or_else(|e| panic!("{strategy:?} jit={jit}: {e}"))
        };
        let (interp, jit) = (run(false), run(true));
        assert!(interp.collections >= 3, "{strategy:?}: collections must repeat");
        assert_eq!(jit.output, interp.output, "{strategy:?}: outputs diverge");
        assert_eq!(jit.steps, interp.steps, "{strategy:?}: step counts diverge");
        assert_eq!(jit.collections, interp.collections, "{strategy:?}: collection counts diverge");
        assert_eq!(
            jit.gc_total.words_copied, interp.gc_total.words_copied,
            "{strategy:?}: evacuated words diverge"
        );
    }
}

#[test]
fn mixed_stacks_every_exclusion_under_torture() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let expected = reference_output(SRC).expect("reference runs");
    // Excluding each procedure in turn forces every call-boundary
    // combination: JIT→interp (excluded callee), interp→JIT (excluded
    // caller), and — via `Sum`'s recursion — a JIT frame sandwiched
    // between interpreted ones. The collector walks each mixed stack at
    // every torture collection.
    // The link step's side of it: compiled code holds the call sites of
    // every procedure but the excluded one, and exactly those of them
    // that call the excluded one keep their engine stub.
    let module = compile(SRC, &Options::o2()).expect("compiles");
    let sites = call_sites(&module);
    for excluded in ["", "main", "Grow", "Sum", "Round"] {
        std::env::set_var("M3GC_JIT_EXCLUDE", excluded);
        let result = run_src(SRC, jit_opts(GcStrategy::Semispace));
        std::env::remove_var("M3GC_JIT_EXCLUDE");
        let (out, jit) = result.unwrap_or_else(|e| panic!("excluded={excluded}: {e}"));
        assert_eq!(out, expected, "excluded={excluded}");
        if !jit.enabled {
            continue;
        }
        let p = module.procs.iter().position(|m| m.name == excluded);
        let compiled = sites.iter().filter(|&&(caller, _)| Some(caller) != p);
        let (total, stubbed) = compiled.fold((0, 0), |(total, stubbed), &(_, callee)| {
            (total + 1, stubbed + usize::from(Some(callee) == p))
        });
        assert!(p.is_some() || stubbed == 0);
        assert_eq!(
            (jit.relocs_patched, jit.relocs_total),
            (total - stubbed, total),
            "excluded={excluded}"
        );
        assert_eq!(jit.engine_transfers == 0, p.is_none(), "excluded={excluded}");
    }
}

/// A collection deep inside native recursion, then the way back up:
/// `Deep` recurses forty frames down with `keep` live in each, allocates
/// at the bottom — under torture, a collection that moves `keep` and
/// rewrites it in all forty-one frames — and returns through every one
/// of them by direct native jumps, each reading the moved object.
const DEEP_SRC: &str = "MODULE JitDeep;
TYPE
  Node = REF RECORD
    val: INTEGER;
    next: Node;
  END;

PROCEDURE Deep(n: INTEGER; keep: Node): INTEGER =
BEGIN
  IF n = 0 THEN
    WITH fresh = NEW(Node) DO
      fresh.val := keep.val;
      RETURN fresh.val;
    END;
  END;
  RETURN Deep(n - 1, keep) + keep.val;
END Deep;

BEGIN
  WITH keep = NEW(Node) DO
    keep.val := 3;
    PutInt(Deep(40, keep));
    PutLn();
  END;
END JitDeep.
";

#[test]
fn direct_returns_cross_frames_a_collection_rewrote() {
    // The link accounting below needs every procedure compiled.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let expected = reference_output(DEEP_SRC).expect("reference runs");
    let module = compile(DEEP_SRC, &Options::o2()).expect("compiles");
    let opts = jit_opts(GcStrategy::Semispace);
    let mut ex = Executor::try_new(opts.build_machine(module), opts).expect("valid maps");
    let out = ex.run_main().expect("runs");
    assert_eq!(out.output, expected);
    assert_eq!(out.collections, 1, "one allocation with the stack at its deepest");
    assert!(out.gc_total.frames_traced >= 42, "{} frame(s) traced", out.gc_total.frames_traced);
    let jit = ex.jit_summary().expect("jit is on");
    if jit.enabled {
        assert!(jit.native_polls > 0);
        assert_eq!((jit.relocs_patched, jit.relocs_total), (2, 2));
        assert_eq!(jit.engine_transfers, 0, "a return left native code");
    }
}

/// Root twin of `crates/jit/tests/parity.rs`' burst test, on compiled
/// code (call continuations are gc-points here, so return landings poll):
/// bursts of every budget add up to the interpreter's run.
#[test]
fn native_bursts_of_every_budget_add_up_to_the_interpreters_run() {
    let run = |budget: u64, jit: bool| {
        let module = compile(SRC, &Options::o2()).expect("compiles");
        let mut m: Machine = RuntimeOptions::new().semi_words(1 << 16).build_machine(module);
        let engine = if jit {
            let engine = JitEngine::for_machine(&m);
            m.set_code_map(engine.code_map());
            engine
        } else {
            JitEngine::interpreter(m.decoded().clone())
        };
        let main = m.module.main;
        m.spawn(main, &[]).expect("bottom frame fits");
        let (mut total, mut longest) = (0, 0);
        loop {
            let (step, n) = engine.run(&mut m.cpu, &mut m.world, budget, u64::MAX);
            total += n;
            longest = longest.max(n);
            match step {
                Step::Normal => assert!(n > 0, "a burst of {budget} made no progress"),
                Step::Finished => return (m, total, longest),
                other => panic!("burst of {budget} ended in {other:?}"),
            }
        }
    };
    let (reference, steps, _) = run(u64::MAX, false);
    assert_eq!(reference.output, reference_output(SRC).expect("reference runs"));
    for budget in 1..=64 {
        let (m, total, longest) = run(budget, true);
        assert_eq!(total, steps, "budget {budget}: instruction count");
        // No straight-line run between two fuel checks is 32 long here.
        assert!(longest < budget + 32, "budget {budget}: a burst ran {longest}");
        assert_eq!(m.output, reference.output, "budget {budget}: output");
        assert_eq!(m.cpu, reference.cpu, "budget {budget}: cpu");
    }
}

/// Root twin of the unbounded-recursion parity test: with no loop and no
/// base case, native code must overflow the stack exactly where the
/// interpreter does (the parity test also ends a short burst at a call).
#[test]
fn unbounded_native_recursion_overflows_where_the_interpreter_does() {
    const DOWN: &str = "MODULE Down;
PROCEDURE Down(n: INTEGER): INTEGER =
BEGIN
  RETURN Down(n + 1) + 1;
END Down;
BEGIN
  PutInt(Down(0));
END Down.
";
    let run = |jit: bool| {
        let module = compile(DOWN, &Options::o2()).expect("compiles");
        let opts = RuntimeOptions::new().stack_words(1 << 12).jit(jit);
        let mut ex = Executor::try_new(opts.build_machine(module), opts).expect("valid maps");
        let err = ex.run_main().expect_err("the stack is finite");
        (err, ex.machine.steps, ex.machine.cpu.clone())
    };
    let (interp, jit) = (run(false), run(true));
    assert_eq!(interp.0, ExecError::Trap(VmTrap::StackOverflow));
    assert_eq!(interp, jit);
}

#[test]
fn codemap_boundary_lookups() {
    let module = compile(SRC, &Options::o2()).expect("compiles");
    let opts = RuntimeOptions::new().semi_words(4096);
    let machine = opts.build_machine(module);
    let engine = JitEngine::for_machine(&machine);
    if !engine.summary().enabled {
        eprintln!("skipping: no native jit on this host");
        return;
    }
    let map = engine.code_map();
    let points = map.gc_points();
    assert!(!points.is_empty(), "call-heavy module must register call continuations");
    // Strictly increasing native offsets.
    for w in points.windows(2) {
        assert!(w[0].0 < w[1].0, "gc-point keys out of order: {points:?}");
    }
    let (first_off, first_pc) = points[0];
    let (last_off, last_pc) = *points.last().unwrap();
    // Exact keys resolve to their own gc-point pcs.
    assert_eq!(map.resolve_ret(JIT_RETPC_BIAS + i64::from(first_off)), Some(first_pc));
    assert_eq!(map.resolve_ret(JIT_RETPC_BIAS + i64::from(last_off)), Some(last_pc));
    // Below the first continuation nothing resolves; floor search never
    // invents a neighbor.
    if first_off > 0 {
        assert_eq!(map.resolve_ret(JIT_RETPC_BIAS + i64::from(first_off) - 1), None);
    }
    // Between two keys (and past the last), resolution floors to the
    // earlier key — the return address of the *containing* call.
    if points.len() >= 2 {
        let (second_off, _) = points[1];
        assert!(second_off > first_off + 1, "continuations are several bytes apart");
        assert_eq!(map.resolve_ret(JIT_RETPC_BIAS + i64::from(second_off) - 1), Some(first_pc));
    }
    assert_eq!(map.resolve_ret(JIT_RETPC_BIAS + i64::from(last_off) + 1), Some(last_pc));
    // Every registered procedure range round-trips: its first byte maps
    // back to it, its end byte does not (exclusive bound).
    for i in 0..map.proc_count() {
        let range = map.range_of_proc(i).expect("range exists");
        assert_eq!(map.proc_at_native(range.start).map(|r| r.proc), Some(i));
        assert_ne!(map.proc_at_native(range.end).map(|r| r.proc), Some(i));
    }
}

/// A program for the mutation check below: every call has an allocation
/// beneath it, so under gc-torture every call continuation is on the
/// stack at some collection, and at every one of them the caller keeps a
/// pointer alive — and uses it afterwards — in a place the tables of the
/// *previous* continuation (in native-code order) do not list: `Weave`
/// alternates between its two locals, and the first site of each
/// procedure holds an argument.
const MUT_SRC: &str = include_str!("jit_mut.m3");

/// Runs [`MUT_SRC`] with gc-point key `corrupt` shifted up one byte, so
/// that its own return address floor-resolves to the previous gc-point.
/// Returns the number of keys (0: no native code on this host) and the
/// output, or what stopped the run.
fn run_mut(opts: RuntimeOptions, corrupt: Option<usize>) -> (usize, Result<String, String>) {
    let module = compile(MUT_SRC, &Options::o2()).expect("compiles");
    // A rerouted return may loop, so bound the damage — out-of-fuel is a
    // catch too.
    let opts = opts.fuel(5_000_000);
    let mut ex = Executor::try_new(opts.build_machine(module), opts).expect("valid maps");
    if !ex.jit_summary().is_some_and(|s| s.enabled) {
        return (0, Ok(String::new()));
    }
    let keys = ex.machine.code_map().expect("jit installs a map").gc_points().len();
    if let Some(idx) = corrupt {
        let (old, new) = ex.corrupt_jit_gc_point(idx, 1).expect("corruptible");
        assert_eq!(new, old + 1, "key shifted by exactly one byte");
    }
    // A frame whose return address resolves to nothing cannot be walked:
    // the collector panics, which is as loud as a catch gets.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ex.run_main()));
    let result = match run {
        Ok(Ok(out)) => Ok(out.output),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("the stack walker panicked".into()),
    };
    (keys, result)
}

#[test]
fn corrupted_return_address_key_is_caught() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let expected = reference_output(MUT_SRC).expect("reference runs");
    let torture = || jit_opts(GcStrategy::Semispace);
    let (keys, clean) = run_mut(torture(), None);
    if keys == 0 {
        eprintln!("skipping: no native jit on this host");
        return;
    }
    assert_eq!(clean.as_deref(), Ok(expected.as_str()));
    let mut missed = Vec::new();
    for idx in 0..keys {
        match run_mut(torture(), Some(idx)).1 {
            Ok(out) if out == expected => missed.push(idx),
            Ok(_) => eprintln!("key {idx}: caught by wrong output"),
            Err(e) => eprintln!("key {idx}: caught: {e}"),
        }
    }
    assert!(missed.is_empty(), "corrupted keys {missed:?} of {keys} gave a clean, correct run");

    // The other reader of the map: with `Cons` left to the interpreter,
    // its `Ret` resolves the token `Weave` pushed. No collection happens
    // on this heap, so nothing else can notice key 2 (a `Cons` site).
    let roomy = || RuntimeOptions::new().semi_words(1 << 16).stack_words(1 << 14).jit(true);
    std::env::set_var("M3GC_JIT_EXCLUDE", "Cons");
    let (clean, rerouted) = (run_mut(roomy(), None).1, run_mut(roomy(), Some(2)).1);
    std::env::remove_var("M3GC_JIT_EXCLUDE");
    assert_eq!(clean.as_deref(), Ok(expected.as_str()));
    assert_ne!(rerouted.as_deref(), Ok(expected.as_str()), "the interpreter's `Ret` missed key 2");
}
