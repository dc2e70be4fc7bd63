//! Property-based tests over the core data structures and the compiler
//! pipeline:
//!
//! * byte packing (Figure 3) round-trips every 32/64-bit value;
//! * ground entries and locations (Figure 4) round-trip;
//! * arbitrary gc-map modules encode and decode identically under all six
//!   schemes — the δ-main delta bitmaps and the Previous elision are pure
//!   compression, never information loss;
//! * the memoizing [`DecodeCache`] agrees point-for-point with a fresh
//!   sequential [`TableDecoder::lookup`] under every scheme, in arbitrary
//!   lookup orders;
//! * random straight-line arithmetic programs compute the same results at
//!   -O0 and -O2, on the reference interpreter and on the VM.
//!
//! The workspace builds with no registry access, so instead of `proptest`
//! these use the deterministic generator and replay-by-seed harness from
//! `m3gc-testkit`.

use std::collections::BTreeSet;

use m3gc::core::decode::{check_lossless, DecodeCache, TableDecoder};
use m3gc::core::derive::{DerivationRecord, Sign};
use m3gc::core::encode::{encode_module, Scheme};
use m3gc::core::layout::{BaseReg, GroundEntry, Location, RegSet, NUM_HARD_REGS};
use m3gc::core::pack;
use m3gc::core::tables::{GcPointTables, ModuleTables, ProcTables};
use m3gc_testkit::{run_cases, Rng};

#[test]
fn pack_roundtrip_i32() {
    run_cases("pack_roundtrip_i32", 256, |rng| {
        let v = rng.next_i32();
        let mut buf = Vec::new();
        let n = pack::pack_word(v, &mut buf);
        let (back, m) = pack::unpack_word(&buf, 0).unwrap();
        assert_eq!(back, v);
        assert_eq!(m, n);
    });
}

#[test]
fn pack_roundtrip_u32() {
    run_cases("pack_roundtrip_u32", 256, |rng| {
        let v = rng.next_u32();
        let mut buf = Vec::new();
        let n = pack::pack_uword(v, &mut buf);
        let (back, m) = pack::unpack_uword(&buf, 0).unwrap();
        assert_eq!(back, v);
        assert_eq!(m, n);
    });
}

#[test]
fn pack_stream_roundtrip() {
    run_cases("pack_stream_roundtrip", 128, |rng| {
        let vs: Vec<i32> = (0..rng.index(64)).map(|_| rng.next_i32()).collect();
        let packed = pack::pack_words(&vs);
        let (back, used) = pack::unpack_words(&packed, 0, vs.len()).unwrap();
        assert_eq!(back, vs);
        assert_eq!(used, packed.len());
    });
}

#[test]
fn ground_entry_roundtrip() {
    run_cases("ground_entry_roundtrip", 256, |rng| {
        let base = BaseReg::from_code(rng.range_i32(0, 3)).unwrap();
        let e = GroundEntry::new(base, rng.range_i32(-100_000, 100_000));
        assert_eq!(GroundEntry::from_word(e.to_word()), Some(e));
    });
}

#[test]
fn location_roundtrip() {
    run_cases("location_roundtrip", 256, |rng| {
        let loc = if rng.coin() {
            Location::Reg(rng.index(NUM_HARD_REGS) as u8)
        } else {
            let base = BaseReg::from_code(rng.range_i32(0, 3)).unwrap();
            Location::Slot(base, rng.range_i32(-50_000, 50_000))
        };
        assert_eq!(Location::from_word(loc.to_word()), Some(loc));
    });
}

/// A random location over the register file and the three base registers.
fn arb_location(rng: &mut Rng) -> Location {
    if rng.coin() {
        Location::Reg(rng.index(NUM_HARD_REGS) as u8)
    } else {
        let base = BaseReg::from_code(rng.range_i32(0, 3)).unwrap();
        Location::Slot(base, rng.range_i32(-60, 120))
    }
}

fn arb_sign(rng: &mut Rng) -> Sign {
    if rng.coin() {
        Sign::Plus
    } else {
        Sign::Minus
    }
}

fn arb_bases(rng: &mut Rng) -> Vec<(Location, Sign)> {
    (0..rng.index(4)).map(|_| (arb_location(rng), arb_sign(rng))).collect()
}

fn arb_derivation(rng: &mut Rng) -> DerivationRecord {
    let target = arb_location(rng);
    if rng.coin() {
        DerivationRecord::Simple { target, bases: arb_bases(rng) }
    } else {
        let path_var = arb_location(rng);
        let variants = (0..1 + rng.index(2)).map(|_| arb_bases(rng)).collect();
        DerivationRecord::Ambiguous { target, path_var, variants }
    }
}

/// A random module's worth of gc tables: 1–3 procedures, each with a
/// small ground table and 1–7 gc-points at strictly increasing pcs.
fn arb_module(rng: &mut Rng) -> ModuleTables {
    let mut module = ModuleTables::default();
    let mut pc = 0u32;
    for i in 0..1 + rng.index(3) {
        let ground_set: BTreeSet<(i32, i32)> =
            (0..rng.index(10)).map(|_| (rng.range_i32(0, 3), rng.range_i32(-60, 120))).collect();
        let ground: Vec<GroundEntry> = ground_set
            .into_iter()
            .map(|(b, o)| GroundEntry::new(BaseReg::from_code(b).unwrap(), o))
            .collect();
        let ng = ground.len() as u32;
        let mut tables =
            ProcTables { name: format!("p{i}"), entry_pc: pc, ground, points: Vec::new() };
        for _ in 0..1 + rng.index(7) {
            pc += rng.range_u32(1, 200);
            let live: BTreeSet<u32> =
                (0..rng.index(ng as usize + 1)).map(|_| rng.range_u32(0, ng.max(1))).collect();
            tables.points.push(GcPointTables {
                pc,
                live_stack: live.into_iter().filter(|&i| i < ng).collect(),
                regs: RegSet(rng.next_u32() & ((1 << NUM_HARD_REGS) - 1)),
                derivations: (0..rng.index(3)).map(|_| arb_derivation(rng)).collect(),
            });
        }
        pc += 10;
        module.procs.push(tables);
    }
    module
}

/// Every scheme is lossless: decoding reproduces exactly the logical
/// tables (resolved through the ground table).
#[test]
fn schemes_are_lossless() {
    run_cases("schemes_are_lossless", 64, |rng| {
        let module = arb_module(rng);
        assert_eq!(module.validate(), Ok(()));
        for scheme in Scheme::TABLE2 {
            let encoded = encode_module(&module, scheme);
            check_lossless(&module, &encoded, rng.next_u64()).unwrap_or_else(|e| panic!("{e}"));
        }
    });
}

/// The memoizing cache is semantically invisible: for every gc-point pc,
/// in an arbitrary lookup order (so prefix checkpoints are exercised at
/// random depths), the [`DecodeCache`]-served point equals a fresh
/// sequential [`TableDecoder::lookup`], under all six schemes — and once
/// every pc has been visited, repeats are pure memo hits costing zero
/// further decode operations.
#[test]
fn cached_and_uncached_decoding_agree() {
    run_cases("cached_and_uncached_decoding_agree", 64, |rng| {
        let module = arb_module(rng);
        for scheme in Scheme::TABLE2 {
            let encoded = encode_module(&module, scheme);
            let decoder = TableDecoder::build(&encoded).unwrap();
            let mut cache = DecodeCache::build(&encoded).unwrap();
            let mut pcs: Vec<u32> = decoder.gc_point_pcs().collect();
            // Random visit order: misses resume from mid-procedure
            // checkpoints, not just in-order prefix extensions.
            for k in (1..pcs.len()).rev() {
                pcs.swap(k, rng.index(k + 1));
            }
            for &pc in &pcs {
                assert_eq!(
                    cache.lookup(&encoded.bytes, pc),
                    decoder.lookup(pc).as_ref(),
                    "{scheme}: pc {pc}"
                );
            }
            let full = cache.counters();
            assert_eq!(
                full.points_decoded as usize,
                pcs.len(),
                "{scheme}: each point decodes once"
            );
            for &pc in &pcs {
                assert_eq!(
                    cache.lookup(&encoded.bytes, pc),
                    decoder.lookup(pc).as_ref(),
                    "{scheme}: warm pc {pc}"
                );
            }
            let warm = cache.counters().since(full);
            assert_eq!(warm.misses, 0, "{scheme}: warm pass must not miss");
            assert_eq!(warm.points_decoded, 0, "{scheme}: warm pass must not decode");
            assert_eq!(warm.hits as usize, pcs.len());
            // And a pc that is not a gc-point misses identically.
            assert_eq!(cache.lookup(&encoded.bytes, pc_gap(&pcs)), None);
            assert_eq!(decoder.lookup(pc_gap(&pcs)), None);
        }
    });
}

/// Some pc that is guaranteed not to be a gc-point.
fn pc_gap(pcs: &[u32]) -> u32 {
    pcs.iter().max().map_or(1, |m| m + 1)
}

/// Compression monotonicity: PP is never larger than packing alone or
/// previous alone, and packing never loses to plain.
#[test]
fn compression_never_grows() {
    run_cases("compression_never_grows", 64, |rng| {
        let module = arb_module(rng);
        let size = |s: Scheme| encode_module(&module, s).bytes.len();
        assert!(size(Scheme::FULL_PACKED) <= size(Scheme::FULL_PLAIN));
        assert!(size(Scheme::DELTA_PACKED) <= size(Scheme::DELTA_PLAIN));
        assert!(size(Scheme::DELTA_PREVIOUS) <= size(Scheme::DELTA_PLAIN));
        assert!(size(Scheme::DELTA_MAIN_PP) <= size(Scheme::DELTA_PACKED));
        assert!(size(Scheme::DELTA_MAIN_PP) <= size(Scheme::DELTA_PREVIOUS));
    });
}

/// A tiny random-expression generator for differential compiler testing.
#[derive(Debug, Clone)]
enum ExprTree {
    Lit(i16),
    Var(u8),
    Add(Box<ExprTree>, Box<ExprTree>),
    Sub(Box<ExprTree>, Box<ExprTree>),
    Mul(Box<ExprTree>, Box<ExprTree>),
}

fn arb_expr(rng: &mut Rng, depth: u32) -> ExprTree {
    if depth == 0 || rng.chance(1, 3) {
        if rng.coin() {
            ExprTree::Lit(rng.next_u32() as i16)
        } else {
            ExprTree::Var(rng.index(4) as u8)
        }
    } else {
        let a = Box::new(arb_expr(rng, depth - 1));
        let b = Box::new(arb_expr(rng, depth - 1));
        match rng.index(3) {
            0 => ExprTree::Add(a, b),
            1 => ExprTree::Sub(a, b),
            _ => ExprTree::Mul(a, b),
        }
    }
}

fn expr_to_m3(e: &ExprTree) -> String {
    match e {
        ExprTree::Lit(v) => {
            if *v < 0 {
                format!("(0 - {})", -i32::from(*v))
            } else {
                v.to_string()
            }
        }
        ExprTree::Var(i) => format!("v{i}"),
        ExprTree::Add(a, b) => format!("({} + {})", expr_to_m3(a), expr_to_m3(b)),
        ExprTree::Sub(a, b) => format!("({} - {})", expr_to_m3(a), expr_to_m3(b)),
        ExprTree::Mul(a, b) => format!("({} * {})", expr_to_m3(a), expr_to_m3(b)),
    }
}

/// Random arithmetic programs agree between the reference interpreter
/// and the VM, at both optimization levels. (MOD keeps every
/// intermediate well within i64 even after a few multiplications.)
#[test]
fn random_programs_agree() {
    run_cases("random_programs_agree", 24, |rng| {
        let mut body = String::new();
        for i in 0..4 {
            let v = rng.range_i32(-100, 100);
            if v < 0 {
                body.push_str(&format!("  v{i} := 0 - {};\n", -v));
            } else {
                body.push_str(&format!("  v{i} := {v};\n"));
            }
        }
        for k in 0..1 + rng.index(3) {
            let e = arb_expr(rng, 4);
            let target = k % 4;
            body.push_str(&format!("  v{target} := ({}) MOD 100003;\n", expr_to_m3(&e)));
        }
        body.push_str("  PutInt(v0 + v1 + v2 + v3);\n");
        let src = format!("MODULE P;\nVAR v0, v1, v2, v3: INTEGER;\nBEGIN\n{body}END P.");
        let expected = m3gc::compiler::reference_output(&src).unwrap();
        for opts in [m3gc::compiler::Options::o0(), m3gc::compiler::Options::o2()] {
            let module = m3gc::compiler::compile(&src, &opts).unwrap();
            let out = m3gc::compiler::run_module(module, 4096).unwrap();
            assert_eq!(out.output, expected);
        }
    });
}

/// Randomized heap graphs (seeded in-language LCG mutations): the VM with
/// a small heap — many compactions — must agree with the reference
/// interpreter for arbitrary seeds.
#[test]
fn random_graphs_survive_compaction() {
    run_cases("random_graphs_survive_compaction", 12, |rng| {
        let seed = rng.range_u32(1, 1_000_000);
        let nodes = rng.range_u32(6, 20);
        let src = format!(
            "MODULE G;
CONST N = {nodes};
TYPE Node = REF RECORD id: INTEGER; a, b: Node END;
     Arr = REF ARRAY OF Node;
VAR pool: Arr; seed, i, r, x, y: INTEGER;
PROCEDURE Next(bound: INTEGER): INTEGER =
BEGIN
  seed := (seed * 1103515245 + 12345) MOD 2147483648;
  IF seed < 0 THEN seed := -seed; END;
  RETURN seed MOD bound;
END Next;
PROCEDURE Checksum(): INTEGER =
VAR k, s, hops: INTEGER; n: Node;
BEGIN
  s := 0;
  FOR k := 0 TO N - 1 DO
    n := pool[k];
    hops := 0;
    WHILE (n # NIL) AND (hops < 6) DO
      s := (s * 31 + n.id) MOD 1000003;
      IF hops MOD 2 = 0 THEN n := n.a; ELSE n := n.b; END;
      INC(hops);
    END;
  END;
  RETURN s;
END Checksum;
BEGIN
  seed := {seed};
  pool := NEW(Arr, N);
  FOR i := 0 TO N - 1 DO pool[i] := NEW(Node); pool[i].id := i + 1; END;
  FOR r := 1 TO 200 DO
    x := Next(N);
    y := Next(N);
    IF r MOD 3 = 0 THEN pool[x].a := pool[y];
    ELSIF r MOD 3 = 1 THEN pool[x].b := pool[y];
    ELSE
      pool[x] := NEW(Node);
      pool[x].id := r;
      pool[x].a := pool[y];
    END;
    (* Periodically sever edges so replaced nodes become garbage and the
       live set stays bounded. *)
    IF r MOD 25 = 0 THEN
      FOR i := 0 TO N - 1 DO
        pool[i].a := NIL;
        pool[i].b := NIL;
      END;
    END;
  END;
  PutInt(Checksum());
END G."
        );
        let expected = m3gc::compiler::reference_output(&src).unwrap();
        let module = m3gc::compiler::compile(&src, &m3gc::compiler::Options::o2()).unwrap();
        // Heap sized to the worst-case live set plus a sliver, well below
        // total allocation: constant compaction.
        let semi = (nodes as usize + 30) * 4 + nodes as usize + 24;
        let out = m3gc::compiler::run_module(module, semi).unwrap();
        assert_eq!(out.output, expected, "seed {seed} nodes {nodes}");
        assert!(out.collections > 0, "expected collections with semi={semi}");
    });
}
