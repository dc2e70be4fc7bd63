//! End-to-end collector tests: Mini-M3 source → unoptimized IR → VM code
//! with gc maps → execution under small heaps that force many
//! collections. Every program's output is checked against the reference
//! IR interpreter (which never collects).

use m3gc_codegen::{compile_program, CodegenOptions};
use m3gc_vm::machine::{HeapStrategy, Machine, MachineLayout};

use crate::options::RuntimeOptions;
use crate::scheduler::{ExecOutcome, Executor, GcMode};

fn compile(src: &str) -> m3gc_vm::VmModule {
    let mut prog = m3gc_frontend::compile_to_ir(src).unwrap_or_else(|e| panic!("{e}"));
    m3gc_ir::verify::verify_program(&prog).unwrap_or_else(|e| panic!("{e}"));
    compile_program(&mut prog, &CodegenOptions::default())
}

fn reference_output(src: &str) -> String {
    let prog = m3gc_frontend::compile_to_ir(src).unwrap_or_else(|e| panic!("{e}"));
    m3gc_ir::interp::run_program(&prog).unwrap_or_else(|e| panic!("reference run: {e}")).output
}

/// Runs with a given semispace size; returns (output, collections).
fn run_with_heap(src: &str, semi_words: usize) -> (String, u64) {
    let module = compile(src);
    let machine = Machine::new(
        module,
        MachineLayout {
            semi_words,
            stack_words: 1 << 14,
            max_threads: 4,
            ..MachineLayout::default()
        },
    );
    let mut ex = Executor::new(machine, RuntimeOptions::new());
    let out = ex.run_main().unwrap_or_else(|e| panic!("{e}\noutput: {}", ex.machine.output));
    (out.output, out.collections)
}

/// Checks output equality against the reference interpreter under a small
/// heap (forcing collections) and asserts at least `min_gcs` collections.
fn check_gc(src: &str, semi_words: usize, min_gcs: u64) {
    let expected = reference_output(src);
    let (out, gcs) = run_with_heap(src, semi_words);
    assert_eq!(out, expected);
    assert!(gcs >= min_gcs, "expected at least {min_gcs} collections, got {gcs}");
}

#[test]
fn list_reversal_survives_collections() {
    // Builds a list, repeatedly copies it; garbage accumulates fast.
    check_gc(
        "MODULE M;
         TYPE List = REF RECORD head: INTEGER; tail: List END;
         PROCEDURE Build(n: INTEGER): List =
         VAR l: List; i: INTEGER;
         BEGIN
           l := NIL;
           FOR i := 1 TO n DO
             WITH p = NEW(List) DO END;
           END;
           l := NIL;
           FOR i := n TO 1 BY -1 DO
             WITH q = l DO END;
             l := Cons(i, l);
           END;
           RETURN l;
         END Build;
         PROCEDURE Cons(h: INTEGER; t: List): List =
         VAR c: List;
         BEGIN
           c := NEW(List); c.head := h; c.tail := t; RETURN c;
         END Cons;
         PROCEDURE Sum(l: List): INTEGER =
         VAR s: INTEGER;
         BEGIN
           s := 0;
           WHILE l # NIL DO s := s + l.head; l := l.tail; END;
           RETURN s;
         END Sum;
         VAR r, i: INTEGER;
         BEGIN
           r := 0;
           FOR i := 1 TO 20 DO
             r := r + Sum(Build(30));
           END;
           PutInt(r);
         END M.",
        600,
        3,
    );
}

#[test]
fn pointers_in_registers_are_updated() {
    // A pointer held across many allocating calls must survive moves.
    check_gc(
        "MODULE M;
         TYPE R = REF RECORD x: INTEGER END;
         PROCEDURE Churn(n: INTEGER) =
         VAR i: INTEGER; t: R;
         BEGIN
           FOR i := 1 TO n DO t := NEW(R); t.x := i; END;
         END Churn;
         VAR keep: R; i: INTEGER;
         BEGIN
           keep := NEW(R);
           keep.x := 7777;
           FOR i := 1 TO 50 DO
             Churn(40);
             ASSERT(keep.x = 7777);
           END;
           PutInt(keep.x);
         END M.",
        400,
        5,
    );
}

#[test]
fn interior_pointers_rederive_after_moves() {
    // WITH creates a derived (interior) pointer live across an
    // allocation; the two-phase update must keep it valid when the array
    // moves.
    check_gc(
        "MODULE M;
         TYPE A = REF ARRAY [5..12] OF INTEGER;
              R = REF RECORD x: INTEGER END;
         VAR a: A; i, j, s: INTEGER; junk: R;
         BEGIN
           a := NEW(A);
           FOR i := 5 TO 12 DO a[i] := i * 100; END;
           s := 0;
           FOR i := 5 TO 12 DO
             WITH h = a[i] DO
               FOR j := 1 TO 8 DO
                 junk := NEW(R);  (* triggers collections; h must follow a *)
                 junk.x := j;
               END;
               s := s + h;
             END;
           END;
           PutInt(s);
         END M.",
        48,
        2,
    );
}

#[test]
fn var_params_into_heap_survive_collection() {
    check_gc(
        "MODULE M;
         TYPE R = REF RECORD val: INTEGER END;
              J = REF RECORD x: INTEGER END;
         PROCEDURE BumpLots(VAR v: INTEGER) =
         VAR j: J; i: INTEGER;
         BEGIN
           FOR i := 1 TO 10 DO
             j := NEW(J);    (* forces moves while v points into the heap *)
             j.x := i;
             v := v + 1;
           END;
         END BumpLots;
         VAR r: R; i: INTEGER;
         BEGIN
           r := NEW(R);
           r.val := 0;
           FOR i := 1 TO 30 DO BumpLots(r.val); END;
           PutInt(r.val);
         END M.",
        64,
        3,
    );
}

#[test]
fn deep_recursion_traces_many_frames() {
    check_gc(
        "MODULE M;
         TYPE L = REF RECORD v: INTEGER; next: L END;
         PROCEDURE Deep(n: INTEGER; acc: L): INTEGER =
         VAR c, junk: L;
         BEGIN
           IF n = 0 THEN RETURN Len(acc); END;
           junk := NEW(L);
           junk.v := n;
           c := NEW(L);
           c.v := n;
           c.next := acc;
           RETURN Deep(n - 1, c);
         END Deep;
         PROCEDURE Len(l: L): INTEGER =
         VAR n: INTEGER;
         BEGIN
           n := 0;
           WHILE l # NIL DO n := n + 1; l := l.next; END;
           RETURN n;
         END Len;
         BEGIN
           PutInt(Deep(120, NIL));
         END M.",
        450,
        1,
    );
}

#[test]
fn open_arrays_of_pointers_are_traced() {
    check_gc(
        "MODULE M;
         TYPE R = REF RECORD x: INTEGER END;
              V = REF ARRAY OF R;
         VAR v: V; i, s: INTEGER; junk: R;
         BEGIN
           v := NEW(V, 20);
           FOR i := 0 TO 19 DO
             v[i] := NEW(R);
             v[i].x := i;
           END;
           FOR i := 1 TO 100 DO junk := NEW(R); junk.x := i; END;
           s := 0;
           FOR i := 0 TO 19 DO s := s + v[i].x; END;
           PutInt(s);
         END M.",
        128,
        2,
    );
}

#[test]
fn gc_torture_collects_at_every_gc_point() {
    // Force a collection event at every single allocation: the most
    // aggressive exercise of table decoding and derived-value updates.
    let src = "MODULE M;
         TYPE List = REF RECORD head: INTEGER; tail: List END;
         PROCEDURE Cons(h: INTEGER; t: List): List =
         VAR c: List;
         BEGIN c := NEW(List); c.head := h; c.tail := t; RETURN c; END Cons;
         VAR l: List; i, s: INTEGER;
         BEGIN
           l := NIL;
           FOR i := 1 TO 25 DO l := Cons(i, l); END;
           s := 0;
           WHILE l # NIL DO s := s + l.head; l := l.tail; END;
           PutInt(s);
         END M.";
    let expected = reference_output(src);
    let module = compile(src);
    let machine = Machine::new(
        module,
        MachineLayout {
            semi_words: 4096,
            stack_words: 4096,
            max_threads: 2,
            ..MachineLayout::default()
        },
    );
    let mut ex = Executor::new(machine, RuntimeOptions::new().torture(true));
    let out = ex.run_main().unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(out.output, expected);
    assert!(out.collections >= 20, "got {}", out.collections);
}

#[test]
fn trace_only_mode_preserves_semantics() {
    let src = "MODULE M;
         TYPE R = REF RECORD x: INTEGER END;
         VAR r: R; i, s: INTEGER;
         BEGIN
           s := 0;
           FOR i := 1 TO 50 DO r := NEW(R); r.x := i; s := s + r.x; END;
           PutInt(s);
         END M.";
    let expected = reference_output(src);
    let module = compile(src);
    let machine = Machine::new(
        module,
        MachineLayout {
            semi_words: 1 << 16,
            stack_words: 4096,
            max_threads: 2,
            ..MachineLayout::default()
        },
    );
    let mut ex = Executor::new(
        machine,
        RuntimeOptions::new().gc_mode(GcMode::TraceOnly).force_every_allocs(Some(5)),
    );
    let out = ex.run_main().unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(out.output, expected);
    assert!(out.gc_total.frames_traced > 0);
}

#[test]
fn out_of_memory_is_detected() {
    let src = "MODULE M;
         TYPE List = REF RECORD head: INTEGER; tail: List END;
         VAR l: List; i: INTEGER;
         BEGIN
           l := NIL;
           FOR i := 1 TO 10000 DO
             WITH c = NEW(List) DO END;
             l := Grow(l, i);
           END;
         END M.
         "
    .replace(
        "l := Grow(l, i);",
        "WITH c2 = NEW(List) DO c2.head := i; c2.tail := l; l := c2; END;",
    );
    let module = compile(&src);
    let machine = Machine::new(
        module,
        MachineLayout {
            semi_words: 512,
            stack_words: 4096,
            max_threads: 2,
            ..MachineLayout::default()
        },
    );
    let mut ex = Executor::new(machine, RuntimeOptions::new());
    let r = ex.run_main();
    assert_eq!(
        r.err().map(|e| matches!(
            e,
            crate::scheduler::ExecError::Trap(m3gc_vm::machine::VmTrap::OutOfMemory)
        )),
        Some(true)
    );
}

#[test]
fn two_threads_advance_to_gc_points() {
    // Spawn two threads running the same allocating procedure; when one
    // triggers a collection the other must advance to a gc-point.
    let src = "MODULE M;
         TYPE R = REF RECORD x: INTEGER END;
         PROCEDURE Work(n: INTEGER): INTEGER =
         VAR i, s: INTEGER; r: R;
         BEGIN
           s := 0;
           FOR i := 1 TO n DO
             r := NEW(R);
             r.x := i;
             s := s + r.x;
           END;
           RETURN s;
         END Work;
         BEGIN
           PutInt(Work(100));
         END M.";
    let module = compile(src);
    let machine = Machine::new(
        module,
        MachineLayout {
            semi_words: 128,
            stack_words: 4096,
            max_threads: 4,
            ..MachineLayout::default()
        },
    );
    let mut ex = Executor::new(machine, RuntimeOptions::new());
    // Thread 0: main. Threads 1, 2: Work(50) directly.
    ex.machine.spawn(ex.machine.module.main, &[]);
    let work =
        ex.machine.module.procs.iter().position(|p| p.name == "Work").expect("Work proc") as u16;
    ex.machine.spawn(work, &[50]);
    ex.machine.spawn(work, &[50]);
    let out = ex.run().unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(out.output, "5050");
    assert!(out.collections >= 1);
    assert!(ex
        .machine
        .threads
        .iter()
        .all(|t| t.status == m3gc_vm::machine::ThreadStatus::Finished));
}

#[test]
fn decode_cache_amortizes_repeated_collections() {
    // Collect at every allocation inside a loop: after the first (cold)
    // collection the same gc-points are consulted over and over, so warm
    // collections must serve mostly from the memo and perform far fewer
    // decode operations (the paper's §6.3 decoding overhead, paid once).
    let src = "MODULE M;
         TYPE R = REF RECORD x: INTEGER END;
         VAR r: R; i, s: INTEGER;
         BEGIN
           s := 0;
           FOR i := 1 TO 60 DO r := NEW(R); r.x := i; s := s + r.x; END;
           PutInt(s);
         END M.";
    let module = compile(src);
    let machine = Machine::new(
        module,
        MachineLayout {
            semi_words: 1 << 14,
            stack_words: 4096,
            max_threads: 2,
            ..MachineLayout::default()
        },
    );
    let mut ex = Executor::new(machine, RuntimeOptions::new().torture(true));
    let out = ex.run_main().unwrap_or_else(|e| panic!("{e}"));
    assert!(out.collections >= 20, "got {}", out.collections);
    let cold = &out.gc_each[0];
    assert!(cold.decode_ops > 0, "first collection must decode");
    assert_eq!(cold.decode_hits, 0, "nothing memoized before the first collection");
    let warm = &out.gc_each[1..];
    let warm_ops: u64 = warm.iter().map(|s| s.decode_ops).sum();
    let warm_hits: u64 = warm.iter().map(|s| s.decode_hits).sum();
    let warm_mean_ops = warm_ops as f64 / warm.len() as f64;
    assert!(
        warm_mean_ops * 2.0 <= cold.decode_ops as f64,
        "warm collections should decode at least 2x less: cold={} warm mean={warm_mean_ops}",
        cold.decode_ops
    );
    assert!(warm_hits > 0, "warm collections must hit the memo");
    // Lifetime bound: never more decode ops than the module has gc-points.
    let total_points = ex.decode_cache().index().gc_point_pcs().count() as u64;
    let total_ops: u64 = out.gc_each.iter().map(|s| s.decode_ops).sum();
    assert!(
        total_ops <= total_points,
        "each gc-point decodes at most once per module: {total_ops} > {total_points}"
    );
    assert_eq!(ex.decode_cache().memoized_points() as u64, total_ops);
}

#[test]
fn collection_stats_are_plausible() {
    let src = "MODULE M;
         TYPE List = REF RECORD head: INTEGER; tail: List END;
         VAR l: List; i: INTEGER;
         BEGIN
           l := NIL;
           FOR i := 1 TO 200 DO
             WITH c = NEW(List) DO c.head := i; c.tail := l; l := c; END;
             IF i MOD 10 = 0 THEN l := NIL; END;
           END;
           PutInt(0);
         END M.";
    let module = compile(src);
    let machine = Machine::new(
        module,
        MachineLayout {
            semi_words: 256,
            stack_words: 4096,
            max_threads: 2,
            ..MachineLayout::default()
        },
    );
    let mut ex = Executor::new(machine, RuntimeOptions::new());
    let out = ex.run_main().unwrap_or_else(|e| panic!("{e}"));
    assert!(out.collections > 0);
    // Dropping the list every 10 elements keeps survivors tiny.
    let per = out.gc_total.objects_copied / out.collections.max(1);
    assert!(per < 30, "too many survivors per collection: {per}");
    assert!(out.gc_total.frames_traced >= out.collections);
}

// --- Generational collection ---

/// Runs under a generational heap; returns the outcome.
fn run_gen(src: &str, semi_words: usize, nursery_words: usize) -> ExecOutcome {
    let module = compile(src);
    let machine = Machine::new(
        module,
        MachineLayout {
            semi_words,
            stack_words: 1 << 14,
            max_threads: 4,
            heap: HeapStrategy::Generational { nursery_words, promote_age: 2 },
        },
    );
    let mut ex = Executor::new(machine, RuntimeOptions::new());
    ex.run_main().unwrap_or_else(|e| panic!("{e}\noutput: {}", ex.machine.output))
}

/// Checks output equality against the reference interpreter under a
/// generational heap and asserts at least `min_minor` minor collections.
fn check_gen(src: &str, semi_words: usize, nursery_words: usize, min_minor: u64) -> ExecOutcome {
    let expected = reference_output(src);
    let out = run_gen(src, semi_words, nursery_words);
    assert_eq!(out.output, expected);
    assert!(
        out.minor_collections >= min_minor,
        "expected at least {min_minor} minor collections, got {} ({} major)",
        out.minor_collections,
        out.major_collections
    );
    out
}

#[test]
fn minor_collections_reclaim_short_lived_garbage() {
    // Heavy churn with a tiny live set: minors alone must carry the run
    // (the tenured set stays small, so no major is ever forced).
    let out = check_gen(
        "MODULE M;
         TYPE R = REF RECORD x: INTEGER END;
         VAR keep: R; i: INTEGER;
         BEGIN
           keep := NEW(R);
           keep.x := 7777;
           FOR i := 1 TO 2000 DO
             WITH t = NEW(R) DO t.x := i; END;
           END;
           PutInt(keep.x);
         END M.",
        4096,
        64,
        5,
    );
    assert_eq!(out.major_collections, 0, "churn must not force major collections");
    // Dead-on-arrival objects are never copied: survivors per minor stay
    // far below the nursery's object capacity.
    let per = out.gc_total.objects_copied / out.minor_collections.max(1);
    assert!(per < 20, "too many survivors per minor collection: {per}");
}

#[test]
fn survivors_are_promoted_by_age() {
    // `keep` survives every minor collection, so once its age reaches the
    // promotion threshold it must move to tenured space and stop being
    // copied at every minor.
    let out = check_gen(
        "MODULE M;
         TYPE List = REF RECORD head: INTEGER; tail: List END;
         VAR l: List; i, s: INTEGER;
         BEGIN
           l := NIL;
           FOR i := 1 TO 40 DO
             WITH c = NEW(List) DO c.head := i; c.tail := l; l := c; END;
             WITH junk = NEW(List) DO junk.head := 0; END;
           END;
           s := 0;
           WHILE l # NIL DO s := s + l.head; l := l.tail; END;
           PutInt(s);
         END M.",
        4096,
        64,
        2,
    );
    assert!(out.gc_total.promoted_objects > 0, "long-lived list must be promoted");
    assert!(
        out.gc_total.promoted_objects <= out.gc_total.objects_copied,
        "promotions are a subset of copies"
    );
}

#[test]
fn write_barrier_feeds_the_remembered_set() {
    // A long-lived record is promoted, then repeatedly has freshly
    // allocated nodes stored into its pointer field: each such store is an
    // old→young edge that only the write barrier can make the minor
    // collections see.
    let out = check_gen(
        "MODULE M;
         TYPE Node = REF RECORD x: INTEGER; next: Node END;
         VAR keep: Node; i: INTEGER;
         BEGIN
           keep := NEW(Node);
           keep.x := 1000;
           FOR i := 1 TO 400 DO
             WITH t = NEW(Node) DO
               t.x := i;
               keep.next := t;
             END;
           END;
           PutInt(keep.x + keep.next.x);
         END M.",
        4096,
        64,
        3,
    );
    assert!(out.barrier.executed > 0, "barriers must execute");
    // The store always targets the same slot, which the collector itself
    // re-remembers after each minor (the edge stays old→young), so the
    // barrier's own pushes mostly dedup against that card entry — either
    // way the barrier must be seeing the edge.
    assert!(
        out.barrier.recorded + out.barrier.deduped > 0,
        "old→young stores must be recorded or deduped: {:?}",
        out.barrier
    );
    assert!(
        out.gc_total.remembered_processed > 0,
        "minor collections must drain the remembered set"
    );
}

#[test]
fn fruitless_minor_escalates_to_major_collection() {
    // The live list grows until it no longer fits the nursery's worth of
    // reclaim; promotion fills tenured space with data that later dies
    // (the list is dropped and rebuilt), so majors must both happen and
    // succeed.
    let out = check_gen(
        "MODULE M;
         TYPE List = REF RECORD head: INTEGER; tail: List END;
         PROCEDURE Build(n: INTEGER): List =
         VAR l: List; i: INTEGER;
         BEGIN
           l := NIL;
           FOR i := 1 TO n DO
             WITH c = NEW(List) DO c.head := i; c.tail := l; l := c; END;
           END;
           RETURN l;
         END Build;
         PROCEDURE Sum(l: List): INTEGER =
         VAR s: INTEGER;
         BEGIN
           s := 0;
           WHILE l # NIL DO s := s + l.head; l := l.tail; END;
           RETURN s;
         END Sum;
         VAR r, i: INTEGER;
         BEGIN
           r := 0;
           FOR i := 1 TO 30 DO
             r := r + Sum(Build(120));
           END;
           PutInt(r);
         END M.",
        1024,
        64,
        2,
    );
    assert!(out.major_collections >= 1, "tenured garbage must force majors");
}

#[test]
fn generational_out_of_memory_is_detected() {
    // Unbounded live growth: minors promote, majors cannot reclaim, and
    // the run must end in OutOfMemory rather than loop forever.
    let src = "MODULE M;
         TYPE List = REF RECORD head: INTEGER; tail: List END;
         VAR l: List; i: INTEGER;
         BEGIN
           l := NIL;
           FOR i := 1 TO 10000 DO
             WITH c = NEW(List) DO c.head := i; c.tail := l; l := c; END;
           END;
         END M.";
    let module = compile(src);
    let machine = Machine::new(
        module,
        MachineLayout {
            semi_words: 512,
            stack_words: 4096,
            max_threads: 2,
            heap: HeapStrategy::Generational { nursery_words: 64, promote_age: 2 },
        },
    );
    let mut ex = Executor::new(machine, RuntimeOptions::new());
    let r = ex.run_main();
    assert_eq!(
        r.err().map(|e| matches!(
            e,
            crate::scheduler::ExecError::Trap(m3gc_vm::machine::VmTrap::OutOfMemory)
        )),
        Some(true)
    );
}

#[test]
fn oversized_allocations_bypass_the_nursery() {
    // An array bigger than the nursery goes straight to tenured space;
    // its pointer slots are eagerly remembered so young objects stored
    // into it before the next gc-point survive minor collections.
    let out = check_gen(
        "MODULE M;
         TYPE R = REF RECORD x: INTEGER END;
              V = REF ARRAY OF R;
         VAR v: V; i, s: INTEGER;
         BEGIN
           v := NEW(V, 100);
           FOR i := 0 TO 99 DO
             v[i] := NEW(R);
             v[i].x := i;
             WITH junk = NEW(R) DO junk.x := 0; END;
           END;
           s := 0;
           FOR i := 0 TO 99 DO s := s + v[i].x; END;
           PutInt(s);
         END M.",
        4096,
        64,
        2,
    );
    assert!(out.gc_total.remembered_processed > 0);
}

#[test]
fn derived_values_follow_minor_collections() {
    // The dedicated §3 ordering test under generational collection: `h`
    // is an interior (derived) pointer into the array, held live across
    // allocations that trigger *minor* collections. The un-derive /
    // re-derive round trip must recover it from the relocated base both
    // when the array is copied within the nursery and when it is
    // promoted to tenured space mid-loop.
    let out = check_gen(
        "MODULE M;
         TYPE A = REF ARRAY [5..12] OF INTEGER;
              R = REF RECORD x: INTEGER END;
         VAR a: A; i, j, s: INTEGER;
         BEGIN
           a := NEW(A);
           FOR i := 5 TO 12 DO a[i] := i * 100; END;
           s := 0;
           FOR i := 5 TO 12 DO
             WITH h = a[i] DO
               FOR j := 1 TO 40 DO
                 WITH junk = NEW(R) DO junk.x := j; END;
               END;
               s := s + h;
             END;
           END;
           PutInt(s);
         END M.",
        2048,
        32,
        3,
    );
    assert!(out.gc_total.derived_updated > 0, "derived values must be traced");
    assert!(out.gc_total.promoted_objects > 0, "the array must survive long enough to promote");
}

#[test]
fn generational_gc_torture_matches_reference() {
    // Force a collection event at every allocation under the generational
    // heap: every freshness-elided barrier window closes immediately, so
    // this exercises the eager-remembering path and promotion aging hard.
    let src = "MODULE M;
         TYPE List = REF RECORD head: INTEGER; tail: List END;
         PROCEDURE Cons(h: INTEGER; t: List): List =
         VAR c: List;
         BEGIN c := NEW(List); c.head := h; c.tail := t; RETURN c; END Cons;
         VAR l: List; i, s: INTEGER;
         BEGIN
           l := NIL;
           FOR i := 1 TO 25 DO l := Cons(i, l); END;
           s := 0;
           WHILE l # NIL DO s := s + l.head; l := l.tail; END;
           PutInt(s);
         END M.";
    let expected = reference_output(src);
    let module = compile(src);
    let machine = Machine::new(
        module,
        MachineLayout {
            semi_words: 4096,
            stack_words: 4096,
            max_threads: 2,
            heap: HeapStrategy::Generational { nursery_words: 128, promote_age: 2 },
        },
    );
    let mut ex = Executor::new(machine, RuntimeOptions::new().torture(true));
    let out = ex.run_main().unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(out.output, expected);
    assert!(out.collections >= 20, "got {}", out.collections);
    assert!(out.gc_total.promoted_objects > 0);
}

/// A gc worker that panics must fail the run with a structured error —
/// not hang the leader on a barrier the dead worker never reaches, not
/// leave a helper parked, not poison anything the next run touches.
#[test]
fn a_panicking_gc_worker_fails_the_run_instead_of_hanging_it() {
    use crate::options::GcStrategy;
    use crate::parallel::{ParExecutor, ParOutcome};
    use crate::scheduler::ExecError;
    use std::sync::mpsc;
    use std::time::Duration;

    // All mutable state is procedure-local: three mutators run it.
    let src = "MODULE Churn;
    TYPE Node = REF RECORD v: INTEGER; next: Node END;
    PROCEDURE Work(): INTEGER =
    VAR head: Node; i, j, s: INTEGER;
    BEGIN
      s := 0;
      FOR i := 1 TO 10 DO
        head := NIL;
        FOR j := 1 TO 8 DO
          WITH c = NEW(Node) DO c.v := j; c.next := head; head := c; END;
        END;
        WHILE head # NIL DO s := (s * 31 + head.v) MOD 1000003; head := head.next; END;
      END;
      RETURN s;
    END Work;
    BEGIN PutInt(Work()); END Churn.";
    let expected = reference_output(src).repeat(3);
    let module = compile(src);
    // Three mutators and three workers: every worker is dealt a parked
    // thread, so worker 1 is inside the copy when it dies and workers 0
    // and 2 are waiting for it at the next rendezvous.
    let options = RuntimeOptions::new()
        .strategy(GcStrategy::Parallel)
        .semi_words(1 << 13)
        .threads(3)
        .gc_workers(3)
        .torture(true);
    let run = move |fault: Option<(usize, u64)>| -> Result<ParOutcome, ExecError> {
        let module = module.clone();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut ex = ParExecutor::new(options.build_par_machine(module), options);
            ex.fault = fault.map(|(w, n)| crate::parallel::Fault::Worker(w, n));
            // `run_main` returning at all means its scope joined every
            // mutator and every gc helper: nobody is left parked.
            drop(tx.send(ex.run_main()));
        });
        rx.recv_timeout(Duration::from_secs(2)).expect("the run must end within 2 s")
    };

    match run(Some((1, 3))) {
        Err(ExecError::GcWorkerPanic { worker: 1, phase: "copy", message }) => {
            assert!(message.contains("injected gc worker fault"), "{message}");
        }
        other => panic!("expected GcWorkerPanic from worker 1, got {other:?}"),
    }
    // The leader's own share goes through the same boundary.
    match run(Some((0, 2))) {
        Err(ExecError::GcWorkerPanic { worker: 0, phase: "copy", .. }) => {}
        other => panic!("expected GcWorkerPanic from worker 0, got {other:?}"),
    }
    // Nothing process-wide was left behind: the next executor works.
    let out = run(None).expect("a run without the fault");
    assert_eq!(out.output, expected);
    assert!(out.collections >= 3);
}

/// Runs `run` on its own thread and fails the test by name if it has
/// not come back after `secs` seconds: a thread left parked must show up
/// as a timeout, not as a hung test binary.
fn within<T: Send + 'static>(secs: u64, what: &str, run: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || drop(tx.send(run())));
    rx.recv_timeout(std::time::Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what}: no result within {secs} s (a thread was left parked)"))
}

/// The safepoint protocol, driven directly (`safepoint.rs`): real OS
/// threads over a real `RunCtx`, the interleavings forced by a barrier
/// and by waiting on the handshake's own counters.
mod safepoint_protocol {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Barrier, Mutex};

    use m3gc_vm::exec::Step;
    use m3gc_vm::{Mutator, ParMachine};

    use super::{compile, within};
    use crate::options::{GcStrategy, RuntimeOptions};
    use crate::parallel::{par_oracle_check, RunCtx};
    use crate::safepoint::{lead_while, locked, park, stop_world, try_lead, Cause};
    use crate::scheduler::ExecError;

    const SRC: &str = "MODULE P;
    TYPE Node = REF RECORD v: INTEGER; next: Node END;
    VAR n: Node; i: INTEGER;
    BEGIN FOR i := 1 TO 10 DO n := NEW(Node); n.v := i; END; PutInt(n.v); END P.";

    fn machine(mutators: usize) -> (ParMachine, RuntimeOptions) {
        let options = RuntimeOptions::new()
            .strategy(GcStrategy::Parallel)
            .semi_words(1 << 12)
            .threads(mutators);
        (options.build_par_machine(compile(SRC)), options)
    }

    /// A mutator of `vm` run to its first gc-point, where it may be
    /// deposited.
    fn at_gc_point(vm: &ParMachine, tid: usize) -> Mutator {
        let mut mu = vm.spawn_mutator(tid, vm.module.main, &[]);
        vm.gc_request.store(true, Ordering::Relaxed);
        while vm.step(&mut mu) != Step::AtSafepoint {}
        vm.gc_request.store(false, Ordering::Relaxed);
        mu
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Leader {
        Mutator,
        IdleScheduler,
        /// Not one of the run's `active` threads: leads uncounted.
        Coordinator,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Outcome {
        Ok,
        WorkFails,
        WorkPanics,
        /// An active thread fails instead of parking, with the leader
        /// already waiting and another thread already parked.
        HaltWhileWaiting,
        /// The same, but the thread panics.
        PanicWhileWaiting,
    }

    /// One pause: thread 0 parks as a mutator, thread 1 parks idle (or
    /// fails, or panics), the leader stops the world around `outcome`'s
    /// work. Whatever happens, the handshake must end released — request
    /// clear, nobody counted as parked, the generation advanced exactly
    /// once — and every thread must come back: resumed after a pause
    /// that ran, halted otherwise.
    fn one_pause(leader: Leader, outcome: Outcome) {
        let counted = leader != Leader::Coordinator;
        let (vm, options) = machine(3);
        let mutators: Vec<_> = (0..3).map(|t| Mutex::new(Some(at_gc_point(&vm, t)))).collect();
        let ctx = RunCtx::new(&vm, options, 3, if counted { 3 } else { 2 }, None);
        let requested = Barrier::new(3);
        let (ran, resumed) = (AtomicBool::new(false), Mutex::new(Vec::new()));
        let led = Mutex::new(None);
        let lead = || {
            assert!(try_lead(&ctx));
            requested.wait();
            let mut mu = if leader == Leader::Mutator { locked(&mutators[2]).take() } else { None };
            let result = stop_world(&ctx, mu.as_mut(), counted, |world| {
                ran.store(true, Ordering::SeqCst);
                let cause =
                    if leader == Leader::Mutator { Cause::Allocation } else { Cause::Forced };
                assert_eq!(world.cause(true), Ok(cause));
                match outcome {
                    Outcome::WorkFails => Err(ExecError::OutOfFuel),
                    Outcome::WorkPanics => panic!("injected pause fault"),
                    _ => Ok(()),
                }
            });
            *locked(&led) = Some(result);
            Ok(())
        };
        let run = std::thread::scope(|s| {
            if !counted {
                s.spawn(lead);
            }
            ctx.scoped(|t| {
                if t == 2 {
                    return lead();
                }
                requested.wait();
                let mut mu = locked(&mutators[t]).take();
                if t == 1
                    && matches!(outcome, Outcome::HaltWhileWaiting | Outcome::PanicWhileWaiting)
                {
                    // Thread 0 (and a counted leader) must be in first.
                    while ctx.coord.probe().0 < if counted { 2 } else { 1 } {
                        std::thread::yield_now();
                    }
                    if outcome == Outcome::PanicWhileWaiting {
                        panic!("injected mutator fault");
                    }
                    return Err(ExecError::StuckThread { thread: 1 });
                }
                let go_on = park(&ctx, if t == 0 { mu.as_mut() } else { None });
                locked(&resumed).push(go_on);
                Ok(())
            })
        });

        let what = format!("{leader:?} × {outcome:?}");
        let led = led.into_inner().unwrap().expect("the leader came back");
        let work_ran = matches!(outcome, Outcome::Ok | Outcome::WorkFails | Outcome::WorkPanics);
        assert_eq!(ran.load(Ordering::SeqCst), work_ran, "{what}: work ran");
        match outcome {
            Outcome::Ok => {
                assert_eq!(
                    (run, led),
                    (Ok(vec![(); if counted { 3 } else { 2 }]), Ok(true)),
                    "{what}"
                );
            }
            Outcome::WorkFails => {
                assert_eq!(
                    (run, led),
                    (Err(ExecError::OutOfFuel), Err(ExecError::OutOfFuel)),
                    "{what}"
                );
            }
            Outcome::WorkPanics => {
                assert_eq!(run, led.map(|_| Vec::new()), "{what}");
                let Err(ExecError::GcWorkerPanic { worker: 0, phase: "pause", message }) = run
                else {
                    panic!("{what}: expected the leader's panic, got {run:?}");
                };
                assert_eq!(message, "injected pause fault", "{what}");
            }
            Outcome::HaltWhileWaiting => {
                assert_eq!(
                    (run, led),
                    (Err(ExecError::StuckThread { thread: 1 }), Ok(false)),
                    "{what}"
                );
            }
            Outcome::PanicWhileWaiting => {
                let message = "injected mutator fault".to_string();
                assert_eq!(run, Err(ExecError::MutatorPanic { thread: 1, message }), "{what}");
                assert_eq!(led, Ok(false), "{what}");
            }
        }
        let parkers = if outcome == Outcome::Ok || work_ran { 2 } else { 1 };
        assert_eq!(resumed.into_inner().unwrap(), vec![outcome == Outcome::Ok; parkers], "{what}");
        assert!(!vm.gc_request.load(Ordering::SeqCst), "{what}: request left pending");
        assert_eq!(
            ctx.coord.probe(),
            (0, 1, outcome != Outcome::Ok),
            "{what}: (parked, generation, halt)"
        );
        // A resumed mutator took its (possibly rewritten) state back.
        assert!(ctx.slots.iter().all(|slot| locked(slot).is_none()), "{what}: a snapshot was left");
    }

    #[test]
    fn every_pause_ends_released_whoever_leads_and_however_it_ends() {
        for leader in [Leader::Mutator, Leader::IdleScheduler, Leader::Coordinator] {
            for outcome in [
                Outcome::Ok,
                Outcome::WorkFails,
                Outcome::WorkPanics,
                Outcome::HaltWhileWaiting,
                Outcome::PanicWhileWaiting,
            ] {
                within(1, &format!("{leader:?} × {outcome:?}"), move || {
                    one_pause(leader, outcome)
                });
            }
        }
    }

    /// A pause no thread owes (the cms coordinator closing a cycle) that
    /// loses the request CAS to another pause waits out that pause's
    /// release, asks again whether it is still wanted, and leads it: the
    /// pause under way need not be the one wanted.
    #[test]
    fn a_wanted_pause_outlasts_a_lost_request() {
        let (vm, options) = machine(1);
        let ctx = RunCtx::new(&vm, options.gc_workers(1), 1, 0, None);
        let asked = AtomicUsize::new(0);
        let wanted = || {
            asked.fetch_add(1, Ordering::SeqCst);
            vm.collections.load(Ordering::SeqCst) == 0
        };
        assert!(try_lead(&ctx), "another pause holds the request");
        std::thread::scope(|s| {
            s.spawn(|| lead_while(&ctx, wanted));
            // Release the other pause only once the waiting leader has
            // asked, so its request CAS meets the held request.
            let other = stop_world(&ctx, None, false, |_| {
                while asked.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                Ok(())
            });
            assert_eq!(other, Ok(true));
        });
        assert_eq!(vm.collections.load(Ordering::SeqCst), 1, "the wanted pause ran once");
        assert!(asked.load(Ordering::SeqCst) >= 2, "asked again after the release");
        assert!(!vm.gc_request.load(Ordering::SeqCst), "request left pending");
    }

    /// The collection-cause policy, on one thread that leads every pause
    /// itself: torture comes due and is re-armed, an idle leader's pause
    /// is forced, and an unforced pause that frees memory without any
    /// allocation since the last one is out of memory — but a pause that
    /// frees nothing (cms's snapshot and select) never asks.
    #[test]
    fn the_cause_of_a_pause_is_decided_once() {
        let (vm, options) = machine(1);
        let mut mu = at_gc_point(&vm, 0);
        let ctx = RunCtx::new(&vm, options.torture(true), 1, 1, None);
        let pause = |mu: Option<&mut Mutator>, frees: bool| {
            let cause = Mutex::new(None);
            assert!(try_lead(&ctx));
            let led = stop_world(&ctx, mu, true, |world| {
                world.cause(frees).map(|c| *locked(&cause) = Some(c))
            });
            led.map(|_| cause.into_inner().unwrap().expect("the work ran"))
        };
        vm.force_gc_at.store(0, Ordering::Relaxed);
        assert_eq!(pause(Some(&mut mu), true), Ok(Cause::Torture));
        assert_eq!(
            vm.force_gc_at.load(Ordering::Relaxed),
            vm.allocations.load(Ordering::Relaxed) + 1
        );
        assert_eq!(pause(None, true), Ok(Cause::Forced));
        assert_eq!(pause(Some(&mut mu), true), Ok(Cause::Allocation));
        assert_eq!(pause(Some(&mut mu), false), Ok(Cause::Allocation));
        assert_eq!(
            pause(Some(&mut mu), true),
            Err(ExecError::Trap(m3gc_vm::machine::VmTrap::OutOfMemory))
        );
    }

    /// `deposit` checks what it stores: a thread that is not at a park
    /// site has no tables to be scanned with, and with the oracle armed
    /// says so itself — with thread and pc — instead of surfacing a walk
    /// later as a root outside the heap.
    #[test]
    fn depositing_off_a_gc_point_is_an_oracle_error() {
        let (vm, options) = machine(1);
        let mut mu = vm.spawn_mutator(0, vm.module.main, &[]);
        let pc = mu.cpu.pc;
        assert!(!vm.is_gc_point_pc(pc), "a procedure's entry is not a gc-point");
        let ctx = RunCtx::new(&vm, options.oracle(true), 1, 1, None);
        assert!(try_lead(&ctx));
        let led = stop_world(&ctx, Some(&mut mu), true, |_| panic!("the world must not stop"));
        let what = format!("thread 0 deposited at pc {pc}, which is no park site");
        assert_eq!(led, Err(ExecError::Oracle(what)));
        assert_eq!(ctx.coord.probe(), (0, 1, true));
        assert!(!vm.gc_request.load(Ordering::SeqCst));
    }

    /// The oracle validates the globals at every pause, also one where
    /// no thread deposited a snapshot (serve's zombie-reclaim collection
    /// with no live request is one).
    #[test]
    fn the_oracle_checks_globals_when_nothing_is_deposited() {
        let options =
            RuntimeOptions::new().strategy(GcStrategy::Parallel).semi_words(1 << 12).oracle(true);
        let vm = options.build_par_machine(compile(SRC));
        let ctx = RunCtx::new(&vm, options, 1, 1, None);
        assert_eq!(par_oracle_check(&ctx), Ok(()));
        // `n`, the module's one pointer global, now points nowhere.
        let n = vm.globals_start() as i64 + i64::from(vm.module.global_ptr_roots[0]);
        vm.set_word(n, 12345);
        assert_eq!(
            par_oracle_check(&ctx),
            Err(format!("tidy root Mem({n}): value 12345 is outside the live heap"))
        );
    }
}

/// A concurrent marker that panics must fail the run with a structured
/// error naming its phase — not take the coordinator's scope down with
/// it and leave the next final-pause leader waiting forever for
/// `markers_idle`, nor leave a second marker spinning on the gray work
/// the dead one took with it.
#[test]
fn a_panicking_concurrent_gc_thread_fails_the_run_instead_of_hanging_it() {
    use crate::options::GcStrategy;
    use crate::parallel::{Fault, ParExecutor};
    use crate::scheduler::ExecError;

    // `Build` makes a live chain (gray work for every snapshot), `Fill`
    // churns past the occupancy trigger, and the allocation-free `Walk`
    // is long enough for marking to get going underneath it.
    let src = "MODULE Victim;
    TYPE Node = REF RECORD v: INTEGER; next: Node END;
    PROCEDURE Work(): INTEGER =
    VAR head, t, p: Node; i, s: INTEGER;
    BEGIN
      head := NIL;
      FOR i := 1 TO 64 DO t := NEW(Node); t.v := i; t.next := head; head := t; END;
      FOR i := 1 TO 1000 DO t := NEW(Node); t.v := i; END;
      s := 0;
      FOR i := 1 TO 100000 DO
        p := head;
        WHILE p # NIL DO s := (s + p.v) MOD 1000003; p := p.next; END;
      END;
      RETURN s;
    END Work;
    BEGIN PutInt(Work()); END Victim.";
    let module = compile(src);
    // No TLABs: retirement waste would fill the heap during `Fill` and a
    // mutator-led final pause would close the cycle first.
    let options = RuntimeOptions::new()
        .strategy(GcStrategy::Cms)
        .semi_words(1 << 12)
        .threads(1)
        .tlab_words(0)
        .gc_workers(2)
        .conc_workers(2);
    let result = within(5, "mark", move || {
        let mut ex = ParExecutor::new(options.build_par_machine(module), options);
        ex.fault = Some(Fault::Marker);
        ex.run_main()
    });
    match result {
        Err(ExecError::GcWorkerPanic { phase: "mark", message, .. }) => {
            assert!(message.starts_with("injected"), "{message}");
        }
        other => panic!("expected GcWorkerPanic during mark, got {other:?}"),
    }
}
