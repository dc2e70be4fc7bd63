//! Mutation testing of the precision oracle.
//!
//! The differential harness is only as good as its ability to notice a
//! lying table. These tests corrupt the compiler-emitted gc-maps on
//! purpose — dropping derivation records, flipping derivation signs,
//! dropping live register roots, dropping live stack slots — re-encode
//! them, and assert the run is caught: either by the shadow oracle /
//! stale-pointer check, or by the output diverging from the reference
//! interpreter. If a mutation ever slips through silently, the oracle
//! has a blind spot. Encoded bytes are outside input too: a flipped
//! descriptor bit must be a decode error, not a collection.

use m3gc::compiler::{compile, reference_output, Options};
use m3gc::core::decode::DecodeCache;
use m3gc::core::derive::DerivationRecord;
use m3gc::core::encode::encode_module;
use m3gc::core::layout::RegSet;
use m3gc::core::tables::ModuleTables;
use m3gc::runtime::{Executor, RuntimeOptions};

/// §4 "Indirect References": `Bump(o.inner.v)` pushes an interior
/// pointer into the `Inner` record, derived from a register base, and
/// the callee allocates — so the derivation is live at a gc-point where
/// every torture run collects, and the collector must un-derive and
/// re-derive the pushed address through the moved record.
const SRC: &str = "MODULE M;
     TYPE Inner = REF RECORD v: INTEGER END;
          Outer = REF RECORD inner: Inner END;
          R = REF RECORD x: INTEGER END;
     PROCEDURE Bump(VAR v: INTEGER) =
     VAR junk: R;
     BEGIN
       junk := NEW(R);
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
     END M.";

/// Pointers in frame slots: `a` and `b` are passed VAR, so they live in
/// the frame, and `a` is read after every gc-point of the loop. A table
/// that stops listing the slots leaves both stale at the first
/// collection.
const SLOT_SRC: &str = "MODULE S;
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
     BEGIN P(); END S.";

/// Compiles `src` at -O2, corrupts the logical tables with `mutate`
/// (which must report how many sites it hit), re-encodes them, and runs
/// under torture with shadow mode and the oracle armed.
fn run_mutated(src: &str, mutate: impl Fn(&mut ModuleTables) -> usize) -> Result<String, String> {
    let opts = Options::o2();
    let mut module = compile(src, &opts).expect("compile");
    let hits = mutate(&mut module.logical_maps);
    assert!(hits > 0, "mutation found no site to corrupt — not a real test");
    module.gc_maps = encode_module(&module.logical_maps, opts.codegen.scheme);
    let ropts =
        RuntimeOptions::new().semi_words(1 << 12).stack_words(1 << 14).torture(true).oracle(true);
    let machine = ropts.build_machine(module);
    let mut ex = Executor::try_new(machine, ropts).map_err(|e| e.to_string())?;
    ex.run_main().map(|out| out.output).map_err(|e| e.to_string())
}

fn assert_caught(src: &str, kind: &str, result: Result<String, String>) {
    let expected = reference_output(src).expect("reference");
    match result {
        Err(e) => {
            eprintln!("{kind}: caught with error: {e}");
        }
        Ok(out) => {
            assert_ne!(
                out, expected,
                "{kind}: corrupted tables produced the correct output — mutation not caught"
            );
            eprintln!("{kind}: caught as output divergence");
        }
    }
}

#[test]
fn untouched_tables_pass() {
    let out = run_mutated(SRC, |_| usize::MAX).expect("clean run");
    assert_eq!(out, reference_output(SRC).expect("reference"));
}

#[test]
fn dropped_derivation_records_are_caught() {
    assert_caught(
        SRC,
        "drop-derivations",
        run_mutated(SRC, |tables| {
            let mut hits = 0;
            for proc in &mut tables.procs {
                for point in &mut proc.points {
                    hits += point.derivations.len();
                    point.derivations.clear();
                }
            }
            hits
        }),
    );
}

#[test]
fn flipped_derivation_signs_are_caught() {
    assert_caught(
        SRC,
        "flip-signs",
        run_mutated(SRC, |tables| {
            let mut hits = 0;
            for proc in &mut tables.procs {
                for point in &mut proc.points {
                    for rec in &mut point.derivations {
                        match rec {
                            DerivationRecord::Simple { bases, .. } => {
                                for (_, sign) in bases {
                                    *sign = sign.flip();
                                    hits += 1;
                                }
                            }
                            DerivationRecord::Ambiguous { variants, .. } => {
                                for bases in variants {
                                    for (_, sign) in bases {
                                        *sign = sign.flip();
                                        hits += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            hits
        }),
    );
}

#[test]
fn dropped_register_roots_are_caught() {
    assert_caught(
        SRC,
        "drop-reg-roots",
        run_mutated(SRC, |tables| {
            let mut hits = 0;
            for proc in &mut tables.procs {
                for point in &mut proc.points {
                    hits += point.regs.len();
                    point.regs = RegSet::EMPTY;
                }
            }
            hits
        }),
    );
}

#[test]
fn dropped_stack_slots_are_caught() {
    let clean = run_mutated(SLOT_SRC, |_| usize::MAX).expect("clean run");
    assert_eq!(clean, reference_output(SLOT_SRC).expect("reference"));
    assert_caught(
        SLOT_SRC,
        "drop-stack-slots",
        run_mutated(SLOT_SRC, |tables| {
            let mut hits = 0;
            for proc in &mut tables.procs {
                for point in &mut proc.points {
                    hits += point.live_stack.drain(..).count();
                }
            }
            hits
        }),
    );
}

/// Bits 6 and 7 of a gc-point descriptor are unassigned: flipping one in
/// a compiled module's table bytes is a decode error at load (`m3c`
/// builds the decode cache before it builds a machine).
#[test]
fn flipped_descriptor_bit_is_a_decode_error() {
    let mut module = compile(SRC, &Options::o2()).expect("compile");
    assert!(DecodeCache::build(&module.gc_maps).is_ok());
    // The first procedure's first descriptor follows the module and
    // procedure headers, its ground table and its pc map — the same
    // offset it has when that procedure is encoded alone.
    let first = module.logical_maps.procs[0].clone();
    assert!(!first.points.is_empty(), "first procedure has a gc-point");
    let alone = encode_module(&ModuleTables { procs: vec![first] }, module.gc_maps.scheme);
    let at = alone.sizes.headers + alone.sizes.ground + alone.sizes.pcmap;
    module.gc_maps.bytes[at] ^= 1 << 7;
    let err = DecodeCache::build(&module.gc_maps).expect_err("unassigned bit must not decode");
    assert_eq!(err.what, "unassigned descriptor bit set");
}
