//! Integration tests: every untidy-pointer scenario from the paper's §2
//! and §4, written in Mini-M3, compiled at -O0 and -O2, and executed with
//! a collection forced at **every** allocation (gc-torture). The output
//! must match the reference interpreter (which never moves objects), so
//! any derived value the tables fail to describe — or mis-describe — is
//! caught immediately as corrupted data.

use m3gc::compiler::{compile, reference_output, run_module_par, run_module_with, Options};
use m3gc::core::encode::Scheme;
use m3gc::runtime::scheduler::ExecError;
use m3gc::runtime::RuntimeOptions;
use m3gc::vm::VmTrap;

fn torture(src: &str) {
    let expected = reference_output(src).unwrap_or_else(|e| panic!("reference: {e}"));
    for (name, opts) in [("O0", Options::o0()), ("O2", Options::o2())] {
        // Plain small heap first.
        let module = compile(src, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let out = run_module_with(module, 2048, RuntimeOptions::new())
            .unwrap_or_else(|e| panic!("{name} small heap: {e}"));
        assert_eq!(out.output, expected, "{name} small heap");
        // Then a collection at every allocation.
        let module = compile(src, &opts).unwrap();
        let out = run_module_with(module, 1 << 15, RuntimeOptions::new().torture(true))
            .unwrap_or_else(|e| panic!("{name} torture: {e}"));
        assert_eq!(out.output, expected, "{name} torture");
        assert!(out.collections > 0, "{name}: torture must collect");
    }
}

/// §2 "Strength Reduction": an array-initialization loop whose address
/// computation becomes a roving pointer at -O2 (`*p++ = 13`), live across
/// the loop's gc-point.
#[test]
fn strength_reduction_roving_pointer() {
    torture(
        "MODULE M;
         TYPE A = REF ARRAY [1..30] OF INTEGER;
              R = REF RECORD x: INTEGER END;
         VAR a: A; i, s: INTEGER; junk: R;
         BEGIN
           a := NEW(A);
           FOR i := 1 TO 30 DO
             a[i] := 13;
             junk := NEW(R);     (* gc-point inside the loop *)
             junk.x := i;
           END;
           s := 0;
           FOR i := 1 TO 30 DO s := s + a[i]; END;
           PutInt(s);
         END M.",
    );
}

/// §2 "Virtual Array Origin": ARRAY [7..13] — at -O2 the hoisted origin
/// `&A[0]` points *before* the array's first element.
#[test]
fn virtual_array_origin() {
    torture(
        "MODULE M;
         TYPE A = REF ARRAY [7..13] OF INTEGER;
              R = REF RECORD x: INTEGER END;
         VAR a: A; i, s: INTEGER; junk: R;
         BEGIN
           a := NEW(A);
           FOR i := 7 TO 13 DO
             a[i] := i;
             junk := NEW(R);
             junk.x := i;
           END;
           s := 0;
           FOR i := 7 TO 13 DO s := s + a[i]; END;
           PutInt(s);
         END M.",
    );
}

/// §2 "Common Subexpression Elimination": `A[i,j] := ..; A[i,k] := ..`
/// (modelled as arrays of arrays) shares `&A[i]` at -O2.
#[test]
fn cse_shared_element_address() {
    torture(
        "MODULE M;
         TYPE Row = REF ARRAY [0..9] OF INTEGER;
              Mat = REF ARRAY [0..4] OF Row;
              R = REF RECORD x: INTEGER END;
         VAR m: Mat; i, s: INTEGER; junk: R;
         BEGIN
           m := NEW(Mat);
           FOR i := 0 TO 4 DO m[i] := NEW(Row); END;
           FOR i := 0 TO 4 DO
             m[i][2] := 10;
             junk := NEW(R);
             junk.x := i;
             m[i][7] := 20;
           END;
           s := 0;
           FOR i := 0 TO 4 DO s := s + m[i][2] + m[i][7]; END;
           PutInt(s);
         END M.",
    );
}

/// §2 "Double Indexing" (pointer difference): two arrays walked with one
/// derived index — here the difference of two interior pointers feeds an
/// address at -O2 via CSE of the shared subexpressions.
#[test]
fn pointer_heavy_double_walk() {
    torture(
        "MODULE M;
         TYPE A = REF ARRAY [0..19] OF INTEGER;
              R = REF RECORD x: INTEGER END;
         VAR a, b: A; i, s: INTEGER; junk: R;
         BEGIN
           a := NEW(A);
           b := NEW(A);
           FOR i := 0 TO 19 DO
             a[i] := 1;
             b[i] := 2;
             junk := NEW(R);
             junk.x := i;
           END;
           s := 0;
           FOR i := 0 TO 19 DO s := s + a[i] + b[i]; END;
           PutInt(s);
         END M.",
    );
}

/// §4 "Dead Base": the base list pointer is consumed by the walk (`l :=
/// l.tail`) while a derived alias is still live; the dead-base rule keeps
/// the base recoverable across every collection.
#[test]
fn dead_base_walked_list() {
    torture(
        "MODULE M;
         TYPE A = REF ARRAY [0..9] OF INTEGER;
              R = REF RECORD x: INTEGER END;
         VAR a: A; i, s: INTEGER; junk: R;
         BEGIN
           a := NEW(A);
           FOR i := 0 TO 9 DO a[i] := i * 3; END;
           s := 0;
           FOR i := 0 TO 9 DO
             WITH h = a[i] DO
               junk := NEW(R);
               junk.x := i;
               s := s + h;
             END;
           END;
           PutInt(s);
         END M.",
    );
}

/// §4 "Indirect References": a VAR argument denoting a heap field reaches
/// the callee through memory; the intermediate reference is preserved so
/// the collector can update the pushed address.
#[test]
fn indirect_reference_var_args() {
    torture(
        "MODULE M;
         TYPE Inner = REF RECORD v: INTEGER END;
              Outer = REF RECORD inner: Inner END;
              R = REF RECORD x: INTEGER END;
         PROCEDURE Bump(VAR v: INTEGER) =
         VAR junk: R;
         BEGIN
           junk := NEW(R);     (* the outer/inner records may move here *)
           junk.x := 1;
           v := v + 1;
         END Bump;
         VAR o: Outer; i: INTEGER;
         BEGIN
           o := NEW(Outer);
           o.inner := NEW(Inner);
           o.inner.v := 0;
           FOR i := 1 TO 20 DO
             Bump(o.inner.v);
           END;
           PutInt(o.inner.v);
         END M.",
    );
}

/// §4 VAR-parameter *forwarding*: the address passes through a middle
/// frame; the caller-before-callee re-derive ordering fixes the chain.
#[test]
fn var_param_forwarding_chain() {
    torture(
        "MODULE M;
         TYPE R = REF RECORD v: INTEGER END;
              J = REF RECORD x: INTEGER END;
         PROCEDURE Leaf(VAR v: INTEGER) =
         VAR junk: J;
         BEGIN
           junk := NEW(J);
           junk.x := v;
           v := v + 1;
         END Leaf;
         PROCEDURE Middle(VAR v: INTEGER) =
         BEGIN
           Leaf(v);
         END Middle;
         PROCEDURE Top(VAR v: INTEGER) =
         BEGIN
           Middle(v);
         END Top;
         VAR r: R; i: INTEGER;
         BEGIN
           r := NEW(R);
           r.v := 0;
           FOR i := 1 TO 15 DO Top(r.v); END;
           PutInt(r.v);
         END M.",
    );
}

/// Interior pointers live across *calls* (the paper's main
/// call-by-reference case: derived values live at exactly one gc-point).
#[test]
fn with_alias_across_calls() {
    torture(
        "MODULE M;
         TYPE A = REF ARRAY [1..6] OF INTEGER;
              R = REF RECORD x: INTEGER END;
         PROCEDURE Alloc(): R =
         BEGIN
           RETURN NEW(R);
         END Alloc;
         VAR a: A; i, s: INTEGER; junk: R;
         BEGIN
           a := NEW(A);
           FOR i := 1 TO 6 DO a[i] := i * 100; END;
           s := 0;
           FOR i := 1 TO 6 DO
             WITH h = a[i] DO
               junk := Alloc();
               junk.x := i;
               s := s + h;
             END;
           END;
           PutInt(s);
         END M.",
    );
}

/// Registers across deep calls: pointers kept in callee-save registers
/// must be reconstructed through multiple save areas.
#[test]
fn register_reconstruction_depth() {
    torture(
        "MODULE M;
         TYPE L = REF RECORD v: INTEGER; next: L END;
         PROCEDURE Deep(n: INTEGER; keep: L): INTEGER =
         VAR mine: L;
         BEGIN
           IF n = 0 THEN RETURN keep.v; END;
           mine := NEW(L);
           mine.v := n;
           mine.next := keep;
           RETURN Deep(n - 1, mine) + keep.v;
         END Deep;
         VAR base: L;
         BEGIN
           base := NEW(L);
           base.v := 1000;
           PutInt(Deep(12, base));
         END M.",
    );
}

/// Global fixed arrays of REF are roots: every element is updated when
/// its referent moves.
#[test]
fn global_ref_array_roots() {
    torture(
        "MODULE M;
         TYPE R = REF RECORD x: INTEGER END;
         VAR slots: ARRAY [1..5] OF R; i, s: INTEGER; junk: R;
         BEGIN
           FOR i := 1 TO 5 DO
             slots[i] := NEW(R);
             slots[i].x := i * 11;
           END;
           FOR i := 1 TO 40 DO
             junk := NEW(R);
             junk.x := i;
           END;
           s := 0;
           FOR i := 1 TO 5 DO s := s + slots[i].x; END;
           PutInt(s);
         END M.",
    );
}

/// Local fixed arrays of REF live in the frame; each element is a separate
/// ground-table entry (§5.2) traced at every gc-point.
#[test]
fn local_ref_array_ground_entries() {
    torture(
        "MODULE M;
         TYPE R = REF RECORD x: INTEGER END;
         PROCEDURE Work(): INTEGER =
         VAR held: ARRAY [0..3] OF R; i, s: INTEGER; junk: R;
         BEGIN
           FOR i := 0 TO 3 DO
             held[i] := NEW(R);
             held[i].x := i + 100;
           END;
           FOR i := 1 TO 30 DO
             junk := NEW(R);
             junk.x := i;
           END;
           s := 0;
           FOR i := 0 TO 3 DO s := s + held[i].x; END;
           RETURN s;
         END Work;
         BEGIN
           PutInt(Work());
         END M.",
    );
}

/// A fixed-array REF used where an open-array REF is expected
/// (assignability), traced correctly through the open-array descriptor.
#[test]
fn fixed_into_open_array_param() {
    torture(
        "MODULE M;
         TYPE Fixed = REF ARRAY [1..4] OF INTEGER;
              Open = REF ARRAY OF INTEGER;
              R = REF RECORD x: INTEGER END;
         PROCEDURE Sum(v: Open): INTEGER =
         VAR i, s: INTEGER; junk: R;
         BEGIN
           s := 0;
           FOR i := 0 TO NUMBER(v) - 1 DO
             junk := NEW(R);
             junk.x := i;
             s := s + v[i];
           END;
           RETURN s;
         END Sum;
         VAR f: Fixed; i: INTEGER;
         BEGIN
           f := NEW(Fixed);
           FOR i := 1 TO 4 DO f[i] := i * 7; END;
           PutInt(Sum(f));
         END M.",
    );
}

/// Nested WITH bindings: two interior pointers into different objects live
/// across the same gc-points.
#[test]
fn nested_with_aliases() {
    torture(
        "MODULE M;
         TYPE A = REF ARRAY [0..5] OF INTEGER;
              R = REF RECORD x: INTEGER END;
         VAR p, q: A; i, s: INTEGER; junk: R;
         BEGIN
           p := NEW(A);
           q := NEW(A);
           FOR i := 0 TO 5 DO p[i] := i; q[i] := i * 10; END;
           s := 0;
           FOR i := 0 TO 5 DO
             WITH hp = p[i] DO
               WITH hq = q[i] DO
                 junk := NEW(R);
                 junk.x := i;
                 s := s + hp + hq;
               END;
             END;
           END;
           PutInt(s);
         END M.",
    );
}

/// Fuzz case seed 1599, minimised: `Bump(r.a)` with `r = NIL` pushes
/// `NIL + offset` as the VAR argument. At -O0 the address temp is
/// spilled and still listed, rightly, as derived from `r` at the
/// allocation that follows; its value is an integer to the shadow
/// tracker, and every base reads NIL, so the update is the identity and
/// the oracle must accept it (configuration `o0/full-info/semi`).
#[test]
fn var_argument_of_a_nil_record_passes_the_oracle() {
    let src = "MODULE Fuzz;
         TYPE A = REF ARRAY OF INTEGER;
              R = REF RECORD a: INTEGER; nxt: R; arr: A; END;
              M = REF ARRAY OF A;
         VAR r: R; a: A; m: M; i, j, s, k: INTEGER;
         PROCEDURE Bump(VAR v: INTEGER) = BEGIN END Bump;
         PROCEDURE Sum(p: A): INTEGER = BEGIN RETURN 0; END Sum;
         PROCEDURE F(x, y: INTEGER): INTEGER = BEGIN RETURN x; END F;
         BEGIN
           a := NEW(A, 8);
           m := NEW(M, 8);
           FOR k := 0 TO 7 DO m[k] := NEW(A, 8); END;
           IF Sum(m[j]) > 0 THEN
             s := F(1, Sum(m[j]));
           ELSE
             Bump(r.a);
           END;
           r := NEW(R);
           PutInt(s);
         END Fuzz.";
    let expected = reference_output(src).unwrap_or_else(|e| panic!("reference: {e}"));
    let module = compile(src, &Options::o0().with_scheme(Scheme::FULL_PLAIN)).unwrap();
    let out = run_module_with(module, 1 << 12, RuntimeOptions::new().torture(true).oracle(true))
        .unwrap_or_else(|e| panic!("o0/full-info/semi: {e}"));
    assert_eq!(out.output, expected);
    assert!(out.collections > 0);
}

/// An array length is never truncated to its low 32 bits. A fixed range
/// whose element count does not fit the `u32` length header is a type
/// error, wherever the type appears.
#[test]
fn oversized_array_ranges_are_type_errors() {
    for (what, decls, body) in [
        ("REF ARRAY", "TYPE A = REF ARRAY [0..4294967296] OF INTEGER; VAR a: A;", "a := NEW(A);"),
        ("global ARRAY", "VAR a: ARRAY [0..4294967296] OF INTEGER;", "a[1] := 7;"),
        (
            "range wider than INTEGER",
            "CONST Lo = -9223372036854775807 - 1; Hi = 9223372036854775807;
             VAR a: ARRAY [Lo..Hi] OF INTEGER;",
            "",
        ),
    ] {
        let src = format!("MODULE Big; {decls} BEGIN {body} END Big.");
        let err = compile(&src, &Options::o0()).expect_err(what).to_string();
        assert!(err.starts_with("type error"), "{what}: {err}");
        assert!(err.contains("has more than 4294967295 elements"), "{what}: {err}");
    }
}

/// `NEW(A, n)` with `n` past the length header's range traps
/// `OutOfMemory` before writing anything, on both machines, with and
/// without gc-torture, as the reference interpreter does. Truncated, it
/// allocated one element, and `a[1] := 7` overwrote the record behind it.
#[test]
fn open_array_lengths_past_u32_trap_out_of_memory() {
    let src = "MODULE Big;
         TYPE A = REF ARRAY OF INTEGER;
              R = REF RECORD x: INTEGER END;
         VAR a: A; r: R; n: INTEGER;
         BEGIN
           r := NEW(R);
           r.x := 5;
           n := 4294967297;
           a := NEW(A, n);
           a[1] := 7;
           PutInt(r.x);
         END Big.";
    assert_eq!(reference_output(src), Err("heap exhausted".to_string()));
    for (name, opts) in [("O0", Options::o0()), ("O2", Options::o2())] {
        for torture in [false, true] {
            let module = compile(src, &opts).unwrap();
            let semi = run_module_with(module, 1 << 15, RuntimeOptions::new().torture(torture));
            assert!(
                matches!(semi, Err(ExecError::Trap(VmTrap::OutOfMemory))),
                "{name} semi torture={torture}: {semi:?}"
            );
            let module = compile(src, &opts).unwrap();
            let par =
                run_module_par(module, 1 << 15, 1, false, RuntimeOptions::new().torture(torture));
            assert!(
                matches!(par, Err(ExecError::Trap(VmTrap::OutOfMemory))),
                "{name} par torture={torture}: {par:?}"
            );
        }
    }
}

/// A self-recursive procedure `depth` calls deep, under the reference.
fn deep_recursion(depth: i64) -> String {
    format!(
        "MODULE Deep;
         PROCEDURE Down(n: INTEGER): INTEGER =
         BEGIN
           IF n = 0 THEN RETURN 0; END;
           RETURN Down(n - 1) + 1;
         END Down;
         BEGIN
           PutInt(Down({depth}));
         END Deep."
    )
}

/// The reference bounds call depth by its own limit (40 000 frames), not
/// by the native stack: on a 1 MiB thread a recursion just inside the
/// limit returns its value and one just past it is `StackOverflow`, which
/// the differential fuzzer's reference run reports as that trap kind.
/// Each interpreted call used to cost native stack, and all three runs
/// aborted the process.
#[test]
fn reference_call_depth_is_bounded_by_its_limit_not_the_native_stack() {
    use m3gc::ir::interp::{run_program, Trap};
    use m3gc_fuzz::exec::{run_reference, RunStatus, TrapKind};
    std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(|| {
            let inside = m3gc::frontend::compile_to_ir(&deep_recursion(39_990)).unwrap();
            assert_eq!(run_program(&inside).map(|o| o.output), Ok("39990".to_string()));
            let past = m3gc::frontend::compile_to_ir(&deep_recursion(40_010)).unwrap();
            assert_eq!(run_program(&past), Err(Trap::StackOverflow));
            assert_eq!(
                run_reference(&deep_recursion(40_010)),
                RunStatus::Trap(TrapKind::StackOverflow)
            );
        })
        .unwrap()
        .join()
        .unwrap();
}
