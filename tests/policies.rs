//! Gc-point policy tests (§5.3): a call is a gc-point exactly when its
//! callee may park (holds an allocation or a poll, or calls a procedure
//! that may park), loop gc-points, and scheme orthogonality — placement
//! and encoding change table sizes, never semantics.

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Duration;

use m3gc::codegen::GcConfig;
use m3gc::compiler::{compile, reference_output, run_module, run_module_par_opts, Options};
use m3gc::core::encode::Scheme;
use m3gc::core::stats::table_stats;
use m3gc::runtime::{GcStrategy, RuntimeOptions};
use m3gc::vm::decode::decode_instr;
use m3gc::vm::{Instr, VmModule};

const SRC: &str = "MODULE P;
TYPE R = REF RECORD v: INTEGER END;
PROCEDURE PureMath(x: INTEGER): INTEGER =
BEGIN
  RETURN (x * 17 + 3) MOD 97;
END PureMath;
PROCEDURE Allocate(v: INTEGER): R =
VAR r: R;
BEGIN
  r := NEW(R);
  r.v := v;
  RETURN r;
END Allocate;
VAR i, s: INTEGER; r: R;
BEGIN
  s := 0;
  FOR i := 1 TO 120 DO
    s := s + PureMath(i);
    r := Allocate(i);
    s := (s + r.v) MOD 1000003;
  END;
  PutInt(s);
END P.";

fn with_loops(loop_gc_points: bool) -> Options {
    Options::o2().with_gc(GcConfig { emit_tables: true, loop_gc_points })
}

/// For each call in `caller` to a procedure named in `callees`, in code
/// order: the callee's name and whether the call's return address has
/// a gc-point table.
fn call_tables(module: &VmModule, caller: &str, callees: &[&str]) -> Vec<(String, bool)> {
    let pcs: BTreeSet<u32> =
        module.logical_maps.procs.iter().flat_map(|p| &p.points).map(|pt| pt.pc).collect();
    let meta = module.procs.iter().find(|p| p.name == caller).expect("caller");
    let mut calls = Vec::new();
    let mut pos = meta.entry_pc as usize;
    while pos < meta.end_pc as usize {
        let (ins, n) = decode_instr(&module.code, pos).expect("valid code");
        pos += n;
        if let Instr::Call { proc, .. } = ins {
            let name = &module.procs[proc as usize].name;
            if callees.contains(&name.as_str()) {
                calls.push((name.clone(), pcs.contains(&(pos as u32))));
            }
        }
    }
    calls
}

#[test]
fn calls_get_tables_exactly_when_the_callee_may_park() {
    let module = compile(SRC, &Options::o2()).unwrap();
    let calls = call_tables(&module, "main", &["PureMath", "Allocate"]);
    assert_eq!(
        calls,
        [("PureMath".to_string(), false), ("Allocate".to_string(), true)],
        "PureMath never parks, Allocate allocates"
    );
}

#[test]
fn every_policy_preserves_semantics() {
    let expected = reference_output(SRC).unwrap();
    for scheme in Scheme::TABLE2 {
        for loops in [true, false] {
            let module = compile(SRC, &with_loops(loops).with_scheme(scheme)).unwrap();
            let out =
                run_module(module, 128).unwrap_or_else(|e| panic!("{scheme}/loops={loops}: {e}"));
            assert_eq!(out.output, expected, "{scheme}/loops={loops}");
            assert!(out.collections > 0, "{scheme}/loops={loops}");
        }
    }
}

#[test]
fn recursive_allocating_chain_is_sound_single_threaded() {
    // `Chain` allocates and recurses; `Count` allocates nothing, and its
    // loop poll alone makes it may-park, so the call to it has a table.
    // Without loop gc-points `Count` never parks and its call has none.
    let src = "MODULE S;
        TYPE T = REF RECORD v: INTEGER; next: T END;
        PROCEDURE Chain(n: INTEGER; acc: T): INTEGER =
        VAR c: T;
        BEGIN
          IF n = 0 THEN RETURN Count(acc); END;
          WITH junk = NEW(T) DO junk.v := n; END;
          c := NEW(T);
          c.v := n;
          c.next := acc;
          RETURN Chain(n - 1, c);
        END Chain;
        PROCEDURE Count(t: T): INTEGER =
        VAR n: INTEGER;
        BEGIN
          n := 0;
          WHILE t # NIL DO INC(n); t := t.next; END;
          RETURN n;
        END Count;
        BEGIN
          PutInt(Chain(80, NIL));
        END S.";
    let expected = reference_output(src).unwrap();
    for loops in [true, false] {
        let module = compile(src, &with_loops(loops)).unwrap();
        let calls = call_tables(&module, "Chain", &["Chain", "Count"]);
        assert!(calls.contains(&("Chain".to_string(), true)), "loops={loops}: {calls:?}");
        assert!(calls.contains(&("Count".to_string(), loops)), "loops={loops}: {calls:?}");
        let out = run_module(module, 384).unwrap();
        assert_eq!(out.output, expected, "loops={loops}");
        assert!(out.collections > 0, "loops={loops}");
    }
}

#[test]
fn disabling_loop_gc_points_shrinks_tables() {
    // SRC's FOR loop has a guaranteed gc-point (it allocates every
    // iteration), so counts can tie; use a program with a pure loop.
    let pure = "MODULE Q;
        VAR i, s: INTEGER;
        BEGIN
          s := 0;
          FOR i := 1 TO 10 DO s := s + i; END;
          PutInt(s);
        END Q.";
    let w = compile(pure, &with_loops(true)).unwrap();
    let wo = compile(pure, &with_loops(false)).unwrap();
    assert!(
        table_stats(&w.logical_maps).total_gc_points
            > table_stats(&wo.logical_maps).total_gc_points
    );
}

/// `Work` keeps a pointer live across calls of `Spin`, which allocates
/// nothing but polls in its loop, and of `Leaf`, which never parks. A
/// thread parked at `Spin`'s poll has `Work`'s frame beneath it, so the
/// call to `Spin` needs a table; no thread is ever stopped inside `Leaf`.
const WORK_LOOP: &str = "MODULE W;
TYPE R = REF RECORD v: INTEGER; next: R END;
PROCEDURE Leaf(x: INTEGER): INTEGER =
BEGIN
  RETURN (x * 17 + 3) MOD 97;
END Leaf;
PROCEDURE Spin(n: INTEGER): INTEGER =
VAR i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO n DO s := (s + i * i) MOD 1009; END;
  RETURN s;
END Spin;
PROCEDURE Work(): INTEGER =
VAR r, prev: R; i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO 200 DO
    r := NEW(R);
    r.next := prev;
    prev := r;
    r.v := Spin(i MOD 13 + 20);
    r.v := r.v + Leaf(i);
    IF i MOD 8 = 0 THEN prev := NIL; END;
    s := (s + r.v) MOD 1000003;
  END;
  RETURN s;
END Work;
BEGIN
  PutInt(Work());
END W.";

#[test]
fn work_loop_calls_spin_with_a_table_and_leaf_without() {
    let module = compile(WORK_LOOP, &Options::o2()).unwrap();
    let calls = call_tables(&module, "Work", &["Spin", "Leaf"]);
    assert_eq!(calls, [("Spin".to_string(), true), ("Leaf".to_string(), false)]);
}

/// Runs [`WORK_LOOP`] 20 times on `mutators` OS threads under torture
/// with the oracle armed; every run must print the reference answer.
fn work_loop_runs_clean(what: &str, mutators: usize, options: RuntimeOptions) {
    let expected = reference_output(WORK_LOOP).unwrap();
    let module = compile(WORK_LOOP, &Options::o2()).expect("compiles");
    let options = options.semi_words(4000).threads(mutators).torture(true).oracle(true);
    for run in 0..20 {
        let module = module.clone();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || drop(tx.send(run_module_par_opts(module, options))));
        let out = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{what}, run {run}: no result within 60 s"))
            .unwrap_or_else(|e| panic!("{what}, run {run}: {e}"));
        assert_eq!(out.output, expected.repeat(mutators), "{what}, run {run}");
        assert!(out.collections > 0, "{what}, run {run}");
    }
}

#[test]
fn work_loop_on_four_interpreted_par_mutators() {
    work_loop_runs_clean("par", 4, RuntimeOptions::new().strategy(GcStrategy::Parallel));
}

#[test]
fn work_loop_on_four_jitted_par_mutators() {
    let options = RuntimeOptions::new().strategy(GcStrategy::Parallel).jit(true);
    work_loop_runs_clean("par --jit", 4, options);
}

#[test]
fn work_loop_on_two_cms_mutators() {
    let options = RuntimeOptions::new().strategy(GcStrategy::Cms).conc_workers(2);
    work_loop_runs_clean("cms", 2, options);
}
