//! Generational / semispace equivalence property: random mutator
//! workloads — seeded in-language graph mutations with churn — must leave
//! *isomorphic reachable heap graphs* and produce identical output under
//! the generational collector and the plain semispace collector, for
//! arbitrary seeds and under all six table encoding schemes.
//!
//! Heap addresses legitimately differ between the two collectors (objects
//! sit in different spaces, headers carry age bits under the generational
//! heap), so the comparison canonicalises each final heap into a graph
//! signature: a breadth-first walk from the global pointer roots in
//! module order, mapping each object address to its discovery index and
//! each object to `(type id, length, fields)` with pointer fields
//! replaced by discovery indices. Two runs are equivalent iff their
//! signatures match word for word.
//!
//! The workspace builds with no registry access, so instead of `proptest`
//! this uses the deterministic replay-by-seed harness from `m3gc-testkit`.

use std::collections::HashMap;

use m3gc::compiler::{compile, Options};
use m3gc::core::encode::Scheme;
use m3gc::core::heap::{header_type_id, HeapType};
use m3gc::runtime::scheduler::Executor;
use m3gc::runtime::trace::{gather_global_roots, read_root_in};
use m3gc::runtime::RuntimeOptions;
use m3gc::vm::machine::{HeapStrategy, Machine, MachineLayout};
use m3gc_testkit::run_cases;

/// One canonicalised heap object: type, array length, and fields with
/// pointers rewritten to BFS discovery indices.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ObjSig {
    type_id: u32,
    len: i64,
    fields: Vec<FieldSig>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum FieldSig {
    Int(i64),
    Nil,
    Ref(usize),
}

/// Canonicalises the machine's reachable heap (from the global pointer
/// roots, in module order) into an address-independent signature.
fn heap_signature(m: &Machine) -> Vec<ObjSig> {
    let mut index: HashMap<i64, usize> = HashMap::new();
    let mut order: Vec<i64> = Vec::new();
    let enqueue = |v: i64, index: &mut HashMap<i64, usize>, order: &mut Vec<i64>| -> FieldSig {
        if v == 0 {
            return FieldSig::Nil;
        }
        let next = index.len();
        let idx = *index.entry(v).or_insert_with(|| {
            order.push(v);
            next
        });
        FieldSig::Ref(idx)
    };

    for r in gather_global_roots(&m.module, m.globals_start() as i64) {
        enqueue(read_root_in(m, r), &mut index, &mut order);
    }

    let mut sig = Vec::new();
    let mut at = 0;
    while at < order.len() {
        let addr = order[at];
        at += 1;
        let header = m.mem[addr as usize];
        assert!(header >= 0, "forwarded header in a finished heap at {addr}");
        let ty_id = header_type_id(header);
        let ty = m.module.types.get(ty_id);
        let (len, first_field, field_words) = match ty {
            HeapType::Record { words, .. } => (0, 1, i64::from(*words)),
            HeapType::Array { elem_words, .. } => {
                let n = m.mem[addr as usize + 1];
                (n, 2, i64::from(*elem_words) * n)
            }
        };
        let ptr_offsets: Vec<u32> = ty.pointer_offset_iter(len as u32).collect();
        let mut fields = Vec::with_capacity(field_words as usize);
        for w in 0..field_words {
            let off = first_field + w;
            let v = m.mem[(addr + off) as usize];
            if ptr_offsets.contains(&(off as u32)) {
                fields.push(enqueue(v, &mut index, &mut order));
            } else {
                fields.push(FieldSig::Int(v));
            }
        }
        sig.push(ObjSig { type_id: ty_id.0, len, fields });
    }
    sig
}

/// Compiles `src` under `scheme`, runs it on `heap`, and returns the
/// program output, collection count, and final heap signature.
fn run_and_sign(src: &str, scheme: Scheme, heap: HeapStrategy) -> (String, u64, Vec<ObjSig>) {
    let module = compile(src, &Options::o2().with_scheme(scheme)).expect("compiles");
    let machine = Machine::new(
        module,
        MachineLayout { semi_words: 4096, stack_words: 1 << 14, max_threads: 2, heap },
    );
    let mut ex = Executor::new(machine, RuntimeOptions::new());
    let out = ex.run_main().unwrap_or_else(|e| panic!("{e}\noutput so far: {}", ex.machine.output));
    let sig = heap_signature(&ex.machine);
    (out.output, out.collections, sig)
}

/// The random mutator: a pool of nodes mutated by a seeded in-language
/// LCG — re-linking, node replacement (creating garbage), periodic edge
/// severing, and a WITH-bound interior pointer held across allocations so
/// derived values are exercised too.
fn mutator_source(seed: u32, nodes: u32, rounds: u32) -> String {
    format!(
        "MODULE G;
CONST N = {nodes};
TYPE Node = REF RECORD id: INTEGER; a, b: Node END;
     Arr = REF ARRAY OF Node;
VAR pool: Arr; keep: Node; seed, i, r, x, y, s: INTEGER;
PROCEDURE Next(bound: INTEGER): INTEGER =
BEGIN
  seed := (seed * 1103515245 + 12345) MOD 2147483648;
  IF seed < 0 THEN seed := -seed; END;
  RETURN seed MOD bound;
END Next;
PROCEDURE Checksum(): INTEGER =
VAR k, cs, hops: INTEGER; n: Node;
BEGIN
  cs := 0;
  FOR k := 0 TO N - 1 DO
    n := pool[k];
    hops := 0;
    WHILE (n # NIL) AND (hops < 6) DO
      cs := (cs * 31 + n.id) MOD 1000003;
      IF hops MOD 2 = 0 THEN n := n.a; ELSE n := n.b; END;
      INC(hops);
    END;
  END;
  RETURN cs;
END Checksum;
BEGIN
  seed := {seed};
  pool := NEW(Arr, N);
  FOR i := 0 TO N - 1 DO pool[i] := NEW(Node); pool[i].id := i + 1; END;
  keep := NEW(Node);
  keep.id := 999983;
  s := 0;
  FOR r := 1 TO {rounds} DO
    x := Next(N);
    y := Next(N);
    IF r MOD 3 = 0 THEN pool[x].a := pool[y];
    ELSIF r MOD 3 = 1 THEN pool[x].b := pool[y];
    ELSE
      pool[x] := NEW(Node);
      pool[x].id := r;
      pool[x].a := pool[y];
      keep.b := pool[x];
    END;
    (* An interior pointer held across an allocation: derived values must
       survive both collectors' relocations. *)
    WITH h = pool[x].id DO
      IF r MOD 7 = 0 THEN
        keep.a := NEW(Node);
        keep.a.id := r;
      END;
      s := (s + h) MOD 1000003;
    END;
    IF r MOD 25 = 0 THEN
      FOR i := 0 TO N - 1 DO
        pool[i].a := NIL;
        pool[i].b := NIL;
      END;
    END;
  END;
  PutInt(Checksum() + s);
END G."
    )
}

#[test]
fn generational_and_semispace_heaps_are_isomorphic() {
    run_cases("generational_and_semispace_heaps_are_isomorphic", 10, |rng| {
        let seed = rng.range_u32(1, 1_000_000);
        let nodes = rng.range_u32(6, 16);
        let rounds = rng.range_u32(100, 300);
        let nursery = [32usize, 64, 128][rng.index(3)];
        let src = mutator_source(seed, nodes, rounds);
        let expected = m3gc::compiler::reference_output(&src).unwrap();
        for scheme in Scheme::TABLE2 {
            let (semi_out, semi_gcs, semi_sig) =
                run_and_sign(&src, scheme, HeapStrategy::Semispace);
            let (gen_out, _, gen_sig) = run_and_sign(
                &src,
                scheme,
                HeapStrategy::Generational { nursery_words: nursery, promote_age: 2 },
            );
            assert_eq!(semi_out, expected, "{scheme}: semispace output, seed {seed}");
            assert_eq!(gen_out, expected, "{scheme}: generational output, seed {seed}");
            assert_eq!(
                semi_sig, gen_sig,
                "{scheme}: heap graphs differ, seed {seed} nodes {nodes} rounds {rounds} \
                 nursery {nursery} (semispace ran {semi_gcs} collections)"
            );
            assert!(!semi_sig.is_empty(), "the pool must be reachable");
        }
    });
}

#[test]
fn gen_heaps_survive_collection_pressure() {
    // Same property at nastier pressure: a heap barely larger than the
    // live set and a tiny nursery, so minor collections, promotions and
    // majors all fire constantly.
    run_cases("gen_heaps_survive_collection_pressure", 6, |rng| {
        let seed = rng.range_u32(1, 1_000_000);
        let src = mutator_source(seed, 8, 400);
        let expected = m3gc::compiler::reference_output(&src).unwrap();
        let module = compile(&src, &Options::o2()).expect("compiles");
        let machine = Machine::new(
            module,
            MachineLayout {
                semi_words: 512,
                stack_words: 1 << 14,
                max_threads: 2,
                heap: HeapStrategy::Generational { nursery_words: 32, promote_age: 1 },
            },
        );
        let mut ex = Executor::new(machine, RuntimeOptions::new());
        let out = ex
            .run_main()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\noutput: {}", ex.machine.output));
        assert_eq!(out.output, expected, "seed {seed}");
        assert!(out.minor_collections > 0, "seed {seed}: no minors under pressure");
    });
}
