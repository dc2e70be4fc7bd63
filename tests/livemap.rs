//! Liveness-driven gc-maps: end-to-end acceptance and mutation tests.
//!
//! The pruned maps make a two-sided claim at every gc-point: the
//! `live_stack` entries are the *only* slots the collector must trace,
//! and the `killed` entries are frame words whose references are dead —
//! dead enough that the collector may null them. Both sides must be
//! verifiable, so both directions of lying are tested:
//!
//! * **Over-aggressive** (a live slot demoted to `killed`): the
//!   collector nulls a root the program still reads, which under
//!   gc-torture becomes a NIL trap or an output divergence from the
//!   reference interpreter.
//! * **Under-aggressive / self-contradictory** (a slot listed both
//!   live and killed): the precision oracle rejects the table before
//!   anything moves — a killed entry that still shows up as a tidy
//!   root is a root the collector would null *and* trace.
//!
//! A clean run must kill dead roots (`roots_killed > 0`), produce the
//! reference output, and agree byte-for-byte with a `--no-live-maps`
//! build of the same program.

use m3gc::compiler::{compile, reference_output, run_module_opts, Options};
use m3gc::core::encode::encode_module;
use m3gc::core::tables::ModuleTables;
use m3gc::runtime::{Executor, RuntimeOptions};

/// Two frame slots with staggered lifetimes: `a` and `b` live in slots
/// (both are passed VAR), `b` dies right after `s := b.v`, while `a`
/// stays live across every loop gc-point until the final `a.v` read.
/// Liveness-pruned maps must kill `b` in the loop and must *not* kill
/// `a` anywhere.
const SRC: &str = "MODULE M;
     TYPE R = REF RECORD v: INTEGER END;
     PROCEDURE Fill(VAR r: R; n: INTEGER) =
     BEGIN r := NEW(R); r.v := n; END Fill;
     PROCEDURE P() =
     VAR a, b: R; s, i: INTEGER;
     BEGIN
       Fill(a, 100);
       Fill(b, 10);
       s := b.v;
       FOR i := 1 TO 20 DO
         WITH d = NEW(R) DO d.v := i; s := s + d.v; END;
       END;
       PutInt(s + a.v);
     END P;
     BEGIN P(); END M.";

fn torture_options() -> RuntimeOptions {
    RuntimeOptions::new()
        .semi_words(1 << 12)
        .stack_words(1 << 14)
        .max_threads(4)
        .torture(true)
        .oracle(true)
}

/// Compiles `SRC` at -O2 (liveness pruning on by default), corrupts the
/// logical tables with `mutate` (which must report how many sites it
/// hit), re-encodes them, and runs under torture with shadow mode and
/// the oracle armed.
fn run_mutated(mutate: impl Fn(&mut ModuleTables) -> usize) -> Result<String, String> {
    let opts = Options::o2();
    let mut module = compile(SRC, &opts).expect("compile");
    let hits = mutate(&mut module.logical_maps);
    assert!(hits > 0, "mutation found no site to corrupt — not a real test");
    module.gc_maps = encode_module(&module.logical_maps, opts.codegen.scheme);
    let ropts = torture_options();
    let machine = ropts.build_machine(module);
    let mut ex = Executor::try_new(machine, ropts).map_err(|e| e.to_string())?;
    ex.run_main().map(|out| out.output).map_err(|e| e.to_string())
}

#[test]
fn untouched_live_maps_run_clean_and_kill_dead_roots() {
    let expected = reference_output(SRC).expect("reference");

    let module = compile(SRC, &Options::o2()).expect("compile");
    let out = run_module_opts(module, torture_options()).expect("pruned run");
    assert_eq!(out.output, expected);
    assert!(
        out.gc_total.roots_killed > 0,
        "liveness pruning must kill the dead slot at the loop gc-points"
    );
    assert!(
        out.gc_total.float_words_avoided > 0,
        "the killed slot referenced a live object — its words are avoided float"
    );

    // The same program with pruning disabled: identical output, no
    // kills — the pruning is invisible to the program either way.
    let mut full_opts = Options::o2();
    full_opts.codegen.gc.live_maps = false;
    let module = compile(SRC, &full_opts).expect("compile full maps");
    let full = run_module_opts(module, torture_options()).expect("full-map run");
    assert_eq!(full.output, expected);
    assert_eq!(full.gc_total.roots_killed, 0, "full maps must not kill anything");
    assert!(
        out.gc_total.words_copied < full.gc_total.words_copied,
        "full maps must retain (and copy) float the pruned maps drop: {} vs {} words",
        out.gc_total.words_copied,
        full.gc_total.words_copied
    );
}

#[test]
fn over_aggressive_kill_is_caught() {
    // Demote every live stack entry to killed: the collector nulls
    // roots the program still needs (`a` among them), so the run must
    // trap or diverge from the reference output.
    let expected = reference_output(SRC).expect("reference");
    let result = run_mutated(|tables| {
        let mut hits = 0;
        for proc in &mut tables.procs {
            for point in &mut proc.points {
                hits += point.live_stack.len();
                point.killed.append(&mut point.live_stack);
                point.killed.sort_unstable();
                point.killed.dedup();
            }
        }
        hits
    });
    match result {
        Err(e) => eprintln!("over-aggressive kill: caught with error: {e}"),
        Ok(out) => {
            assert_ne!(
                out, expected,
                "nulling live roots produced the correct output — mutation not caught"
            );
            eprintln!("over-aggressive kill: caught as output divergence");
        }
    }
}

#[test]
fn retained_killed_slot_is_caught_by_oracle() {
    // Re-list every killed entry as live without removing the kill: a
    // self-contradictory table (the collector would null a root it is
    // also told to trace). The oracle's disjointness check must reject
    // it at the first collection that decodes such a point — before
    // anything moves, so the catch is deterministic.
    let err = run_mutated(|tables| {
        let mut hits = 0;
        for proc in &mut tables.procs {
            for point in &mut proc.points {
                if point.killed.is_empty() {
                    continue;
                }
                hits += point.killed.len();
                point.live_stack.extend_from_slice(&point.killed);
                point.live_stack.sort_unstable();
                point.live_stack.dedup();
            }
        }
        hits
    })
    .expect_err("a slot listed both live and killed must fail the oracle");
    assert!(err.contains("killed slot"), "diagnostic names the contradictory entry: {err}");
}
