//! `RuntimeOptions::check` is the one rule book for runtime options, by
//! construction rather than by enumeration: random option sets run a
//! small allocating program through the three library entry points, and
//! every draw either fails `check` (and then every entry point refuses it
//! the same way, before building a machine) or ends in the program's
//! output or a structured error. None may panic.

use m3gc::compiler::{compile, run_module_opts, run_module_par_opts, run_module_serve, Options};
use m3gc::runtime::scheduler::ExecError;
use m3gc::runtime::{GcStrategy, RuntimeOptions, ServeLoad};
use m3gc::vm::machine::VmTrap;
use m3gc::vm::VmModule;
use m3gc_testkit::{run_cases, Rng};

/// Builds and walks a 20-node list in procedure-local state, so every
/// mutator and every request prints the same sum.
const LIST_SUM: &str = "MODULE P;
    TYPE L = REF RECORD v: INTEGER; next: L END;
    PROCEDURE Work(): INTEGER =
    VAR l: L; i, s: INTEGER;
    BEGIN
      l := NIL;
      FOR i := 1 TO 20 DO
        WITH c = NEW(L) DO c.v := i; c.next := l; l := c; END;
      END;
      s := 0;
      WHILE l # NIL DO s := s + l.v; l := l.next; END;
      RETURN s;
    END Work;
    BEGIN PutInt(Work()); END P.";

/// A size in `0..=2^20` words, spread over its orders of magnitude.
fn words(rng: &mut Rng) -> usize {
    let bits = rng.below(21);
    rng.index((1 << bits) + 1)
}

/// Options with each field drawn over its whole range, but each rule
/// broken only now and then, so that about half the draws run.
fn draw(rng: &mut Rng) -> RuntimeOptions {
    let strategy = rng.pick_copy(&[
        GcStrategy::Semispace,
        GcStrategy::Generational,
        GcStrategy::Parallel,
        GcStrategy::Cms,
    ]);
    let sequential = matches!(strategy, GcStrategy::Semispace | GcStrategy::Generational);
    let count = |rng: &mut Rng, one: bool| {
        if rng.chance(1, 16) {
            0
        } else if one && !rng.chance(1, 8) {
            1
        } else {
            1 + rng.index(4)
        }
    };
    let mut o = RuntimeOptions::new()
        .strategy(strategy)
        .semi_words(words(rng))
        .stack_words(words(rng))
        .threads(count(rng, sequential))
        .gc_workers(count(rng, false))
        .tlab_words(words(rng))
        .torture(rng.coin())
        .oracle(rng.coin())
        .jit(rng.coin());
    if rng.chance(1, if strategy == GcStrategy::Generational { 2 } else { 16 }) {
        o = o.nursery_words(words(rng));
    }
    if rng.chance(1, if strategy == GcStrategy::Parallel { 2 } else { 16 }) {
        let region_words = if rng.chance(1, 8) { 0 } else { words(rng) };
        o = o.serve(region_words, count(rng, false));
    }
    o
}

/// An error a correct program may end in under some legal option set.
fn structured(e: &ExecError) -> bool {
    matches!(
        e,
        ExecError::Serve(_)
            | ExecError::OutOfFuel
            | ExecError::Trap(VmTrap::OutOfMemory | VmTrap::StackOverflow)
    )
}

#[test]
fn every_option_set_fails_check_or_runs_without_panicking() {
    let module = compile(LIST_SUM, &Options::o2()).expect("compiles");
    let expected = "210";
    let load = || ServeLoad { requests: 4, burst: 2, entry: None };
    let fresh = || -> VmModule { module.clone() };
    let (mut refused, mut ran) = (0u32, 0u32);
    run_cases("runtime options", 1500, |rng| {
        let o = draw(rng);
        let seq = run_module_opts(fresh(), o);
        let par = run_module_par_opts(fresh(), o);
        let serve = run_module_serve(fresh(), o, load());
        if let Err(e) = o.check() {
            refused += 1;
            let e = ExecError::Options(e);
            let got = [seq.err(), par.err(), serve.err()];
            assert!(got.iter().all(|g| g.as_ref() == Some(&e)), "{o:?}: {e} but {got:?}");
            return;
        }
        ran += 1;
        match seq {
            Ok(out) => assert_eq!(out.output, expected, "{o:?}"),
            Err(e) => assert!(structured(&e), "{o:?}: sequential run: {e}"),
        }
        match par {
            Ok(out) => {
                assert!(out.outputs.iter().all(|x| x == expected), "{o:?}: {:?}", out.outputs)
            }
            Err(e) => assert!(structured(&e), "{o:?}: parallel run: {e}"),
        }
        match serve {
            Ok(out) => {
                assert!(out.outputs.iter().all(|x| x == expected), "{o:?}: {:?}", out.outputs)
            }
            Err(e) => assert!(structured(&e), "{o:?}: serve run: {e}"),
        }
    });
    // Both sides of the rule book are exercised.
    assert!(refused > 300 && ran > 300, "{refused} refused, {ran} ran");
}
