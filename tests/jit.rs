//! JIT integration: mixed interpreter/JIT call stacks under gc-torture
//! across all four collectors, code-map boundary lookups, and the
//! return-address-key mutation check.
//!
//! On hosts without x86-64 executable mappings every `--jit` run falls
//! back to the interpreter per-procedure, so the parity assertions hold
//! trivially; the code-map and mutation tests detect that and skip.

use std::sync::Mutex;

use m3gc::compiler::{compile, reference_output, run_module_par_opts, Options};
use m3gc::jit::JitEngine;
use m3gc::runtime::scheduler::ExecError;
use m3gc::runtime::{Executor, GcStrategy, RuntimeOptions};
use m3gc::vm::codemap::JIT_RETPC_BIAS;

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
    let module = compile(SRC, &Options::o2()).expect("compiles");
    let opts = jit_opts(strategy);
    let mut ex = Executor::try_new(opts.build_machine(module), opts).expect("valid maps");
    ex.run_main().map(|o| o.output)
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
    let _guard = ENV_LOCK.lock().unwrap();
    let expected = reference_output(SRC).expect("reference runs");
    // Excluding each procedure in turn forces every call-boundary
    // combination: JIT→interp (excluded callee), interp→JIT (excluded
    // caller), and — via `Sum`'s recursion — a JIT frame sandwiched
    // between interpreted ones. The collector walks each mixed stack at
    // every torture collection.
    for excluded in ["main", "Grow", "Sum", "Round"] {
        std::env::set_var("M3GC_JIT_EXCLUDE", excluded);
        let result = run_seq(GcStrategy::Semispace);
        std::env::remove_var("M3GC_JIT_EXCLUDE");
        let out = result.unwrap_or_else(|e| panic!("excluded={excluded}: {e}"));
        assert_eq!(out, expected, "excluded={excluded}");
    }
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

/// The mutation check: shift one native return-address key by one byte
/// so floor resolution reroutes that call site to the neighboring
/// gc-point, and prove the torture/oracle harness catches the
/// corruption deterministically — wrong output, a trap, or an oracle
/// violation, never a clean matching run.
#[test]
fn corrupted_return_address_key_is_caught() {
    let _guard = ENV_LOCK.lock().unwrap();
    let expected = reference_output(SRC).expect("reference runs");
    let module = compile(SRC, &Options::o2()).expect("compiles");
    // The clean run finishes in well under a million steps; a rerouted
    // return may loop, so bound the damage — out-of-fuel is a catch too.
    let opts = jit_opts(GcStrategy::Semispace).fuel(5_000_000);
    let mut ex = Executor::try_new(opts.build_machine(module), opts).expect("valid maps");
    let n = ex.jit_summary().map_or(0, |s| if s.enabled { 1 } else { 0 });
    if n == 0 {
        eprintln!("skipping: no native jit on this host");
        return;
    }
    // Shifting a middle key *up* by one byte makes its own return
    // address floor-resolve to the previous gc-point: an off-by-one
    // into the neighboring call site's tables.
    let points = ex.machine.code_map().expect("jit installs a map").gc_points().len();
    assert!(points >= 2, "need at least two call continuations to confuse");
    let (old_off, new_off) = ex.corrupt_jit_gc_point(points / 2, 1).expect("corruptible");
    assert_eq!(new_off, old_off + 1, "key shifted by exactly one byte");
    match ex.run_main() {
        Ok(out) => assert_ne!(
            out.output, expected,
            "corrupted code map produced a clean, correct run — mutation not caught"
        ),
        Err(e) => {
            // Deterministically detected: an oracle violation, a shadow
            // stale-pointer trap, or a hard VM trap from the rerouted
            // return — all are catches.
            eprintln!("mutation caught: {e}");
        }
    }
}
