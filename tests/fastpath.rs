//! Allocation and root-scan fast paths: acceptance tests.
//!
//! * TLAB protocol invariants, driven directly against [`ParMachine`]:
//!   refills land exactly at the buffer boundary (an aligned buffer
//!   retires with zero waste), oversized objects bypass the buffer
//!   without disturbing it, a buffer that is still the newest claim
//!   hands its tail back to the frontier, and retirement accounts for
//!   every word the shared frontier has moved past — no dead words go
//!   missing.
//! * Deep stacks stay sound across collector transitions: a generational
//!   run that escalates minor → major walks a 60-frame recursion with
//!   the precision oracle armed and still produces semispace-identical
//!   output; a parallel torture run walks the same kind of stack across
//!   handshakes with the oracle on.

use m3gc::compiler::{compile, run_module, run_module_par_opts, Options};
use m3gc::core::heap::{HeapType, TypeId};
use m3gc::runtime::{Executor, GcStrategy, RuntimeOptions};
use m3gc::vm::machine::{HeapStrategy, Machine, MachineLayout};
use m3gc::vm::par::ParLayout;
use m3gc::vm::ParMachine;

/// A module whose type table holds a 4-word record (header + 3 fields)
/// and an open integer array, for driving `try_alloc` directly.
const TYPES_SRC: &str = "MODULE T;
TYPE R = REF RECORD a, b, c: INTEGER END;
     A = REF ARRAY OF INTEGER;
VAR r: R; x: A;
BEGIN
  r := NEW(R);
  x := NEW(A, 2);
  PutInt(r.a + x[0]);
END T.";

/// Finds the type id of the 4-word record in [`TYPES_SRC`].
fn record4_type(vm: &ParMachine) -> u16 {
    (0..vm.module.types.len())
        .find(|&i| {
            let t = vm.module.types.get(TypeId(i as u32));
            matches!(t, HeapType::Record { .. }) && t.object_words(0) == 4
        })
        .expect("4-word record type") as u16
}

/// Finds the open integer array's type id in [`TYPES_SRC`].
fn int_array_type(vm: &ParMachine) -> u16 {
    (0..vm.module.types.len())
        .find(|&i| matches!(vm.module.types.get(TypeId(i as u32)), HeapType::Array { .. }))
        .expect("array type") as u16
}

fn tiny_par_machine(semi_words: usize, tlab_words: usize) -> ParMachine {
    let module = compile(TYPES_SRC, &Options::o2()).expect("compiles");
    ParMachine::new(
        module,
        ParLayout { semi_words, stack_words: 1 << 12, mutators: 1, tlab_words, region_words: 0 },
    )
}

const REL: std::sync::atomic::Ordering = std::sync::atomic::Ordering::Relaxed;

#[test]
fn tlab_refills_exactly_at_alloc_limit_with_zero_waste() {
    // 4-word records into 16-word TLABs carved from a 64-word space:
    // every buffer fills exactly, so 16 allocations take exactly 4
    // shared-frontier CASes and retire nothing.
    let vm = tiny_par_machine(64, 16);
    let main = vm.module.main;
    let mut mu = vm.spawn_mutator(0, main, &[]).expect("bottom frame fits");
    let ty = record4_type(&vm);
    let (from_start, _) = vm.from_space();

    let mut addrs = Vec::new();
    for i in 0..16 {
        let a = vm
            .try_alloc(&mut mu, ty, 0)
            .expect("no trap")
            .unwrap_or_else(|| panic!("allocation {i} must fit"));
        addrs.push(a);
    }
    // Bump allocation straight through the buffer boundaries: contiguous
    // addresses, no holes.
    for (i, w) in addrs.windows(2).enumerate() {
        assert_eq!(w[1], w[0] + 4, "allocation {} not contiguous", i + 1);
    }
    assert_eq!(addrs[0], from_start);
    assert_eq!(vm.tlab_refills.load(REL), 4, "16 x 4 words = exactly 4 x 16-word refills");
    assert_eq!(vm.free.load(REL), from_start + 64, "frontier at the space end");

    // The space is exhausted: the next allocation must report "needs gc",
    // not trap and not succeed.
    assert_eq!(vm.try_alloc(&mut mu, ty, 0).expect("no trap"), None);

    vm.retire_tlab(&mut mu);
    assert_eq!(vm.tlab_waste_words.load(REL), 0, "aligned buffers retire with zero waste");
    assert_eq!(vm.allocations.load(REL), 16);
    assert_eq!(vm.words_allocated.load(REL), 64);
    assert_eq!(vm.tlab_allocs.load(REL), 12, "3 of every 4 allocations skip the CAS");
}

#[test]
fn oversized_allocation_bypasses_the_tlab() {
    let vm = tiny_par_machine(256, 8);
    let main = vm.module.main;
    let mut mu = vm.spawn_mutator(0, main, &[]).expect("bottom frame fits");
    let rec = record4_type(&vm);
    let arr = int_array_type(&vm);

    // Fill half a TLAB so there is a live buffer to disturb.
    vm.try_alloc(&mut mu, rec, 0).expect("no trap").expect("fits");
    let (ptr, limit) = (mu.tlab_ptr, mu.tlab_limit);
    assert_eq!(limit - ptr, 4, "half the 8-word buffer remains");
    let refills = vm.tlab_refills.load(REL);

    // A 2+30-word array exceeds tlab_words: straight to the shared
    // frontier, buffer untouched, no refill recorded.
    let big = vm.try_alloc(&mut mu, arr, 30).expect("no trap").expect("fits");
    assert!(big >= limit, "oversized object must come from beyond the live buffer");
    assert_eq!((mu.tlab_ptr, mu.tlab_limit), (ptr, limit), "buffer must be untouched");
    assert_eq!(vm.tlab_refills.load(REL), refills, "oversized path must not refill");

    // The next small allocation still bump-allocates from the old buffer.
    let small = vm.try_alloc(&mut mu, rec, 0).expect("no trap").expect("fits");
    assert_eq!(small, ptr, "small allocation resumes inside the buffer");
}

#[test]
fn retiring_the_newest_buffer_hands_its_tail_back() {
    let vm = tiny_par_machine(256, 16);
    let main = vm.module.main;
    let mut mu = vm.spawn_mutator(0, main, &[]).expect("bottom frame fits");
    let ty = record4_type(&vm);
    let (from_start, _) = vm.from_space();

    // Three 4-word records leave a 4-word tail in the 16-word buffer,
    // and nothing was claimed above it.
    for _ in 0..3 {
        vm.try_alloc(&mut mu, ty, 0).expect("no trap").expect("fits");
    }
    let tail = mu.tlab_ptr;
    assert_eq!((tail, vm.free.load(REL)), (from_start + 12, mu.tlab_limit));
    vm.retire_tlab(&mut mu);
    assert_eq!(vm.free.load(REL), tail, "the unused tail goes back to the frontier");
    assert_eq!(vm.tlab_waste_words.load(REL), 0, "a handed-back tail is not waste");
    assert_eq!((mu.tlab_ptr, mu.tlab_limit), (0, 0));
    // The next buffer starts where the last object ended.
    let next = vm.try_alloc(&mut mu, ty, 0).expect("no trap").expect("fits");
    assert_eq!(next, tail);
    assert_eq!(vm.free.load(REL), tail + 16);
}

#[test]
fn retire_accounts_for_every_frontier_word() {
    let vm = tiny_par_machine(256, 16);
    let main = vm.module.main;
    let mut mu = vm.spawn_mutator(0, main, &[]).expect("bottom frame fits");
    let ty = record4_type(&vm);
    let arr = int_array_type(&vm);
    let (from_start, _) = vm.from_space();

    // Three 4-word records leave a 4-word tail in the 16-word buffer;
    // an oversized 2+30-word array then claims directly from the
    // frontier above it, so the buffer is no longer the newest claim
    // and its tail cannot go back.
    for _ in 0..3 {
        vm.try_alloc(&mut mu, ty, 0).expect("no trap").expect("fits");
    }
    vm.try_alloc(&mut mu, arr, 30).expect("no trap").expect("fits");
    vm.retire_tlab(&mut mu);
    assert_eq!(vm.tlab_waste_words.load(REL), 4, "the partial tail is accounted as waste");
    assert_eq!(vm.words_allocated.load(REL), 12 + 32);
    // Every word the shared frontier moved past is either an allocated
    // object or recorded waste — nothing leaks.
    let moved = (vm.free.load(REL) - from_start) as u64;
    assert_eq!(moved, vm.words_allocated.load(REL) + vm.tlab_waste_words.load(REL));
    // A retired mutator holds no buffer; the next allocation refills.
    assert_eq!((mu.tlab_ptr, mu.tlab_limit), (0, 0));
    let refills = vm.tlab_refills.load(REL);
    vm.try_alloc(&mut mu, ty, 0).expect("no trap").expect("fits");
    assert_eq!(vm.tlab_refills.load(REL), refills + 1);
}

/// Deep recursion pinning a live cell per frame, a bottom churn loop
/// driving warm minors, and two rounds of live-list growth forcing
/// promotion pressure until minors escalate to majors.
const ESCALATION_SRC: &str = "MODULE Esc;
TYPE L = REF RECORD v: INTEGER; next: L END;
VAR keep: L;

PROCEDURE Churn(rounds: INTEGER): INTEGER =
VAR t: L; i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO rounds DO
    t := NEW(L);
    t.v := i;
    s := (s + t.v) MOD 1000003;
  END;
  RETURN s;
END Churn;

PROCEDURE Deep(d: INTEGER): INTEGER =
VAR c: L;
BEGIN
  c := NEW(L);
  c.v := d;
  IF d > 0 THEN
    RETURN (c.v + Deep(d - 1)) MOD 1000003;
  END;
  RETURN (c.v + Churn(2000)) MOD 1000003;
END Deep;

PROCEDURE Grow(n: INTEGER): INTEGER =
VAR i: INTEGER;
BEGIN
  FOR i := 1 TO n DO
    WITH c = NEW(L) DO c.v := i; c.next := keep; keep := c; END;
  END;
  RETURN keep.v;
END Grow;

VAR r, s: INTEGER;

BEGIN
  PutInt(Deep(60));
  (* Each round's list lives past the promotion age, then dies — but the
     promoted copies pile up in tenured space until a major collection
     cleans them out, so enough rounds force minor -> major escalation. *)
  s := 0;
  FOR r := 1 TO 6 DO
    keep := NIL;
    s := (s + Grow(200)) MOD 1000003;
  END;
  PutInt(s);
END Esc.";

#[test]
fn deep_stacks_survive_minor_major_escalation() {
    let module = compile(ESCALATION_SRC, &Options::o2()).expect("compiles");
    let semi = 2048;
    let reference = run_module(module.clone(), semi).expect("semispace reference");

    let heap = match HeapStrategy::generational_for(semi) {
        HeapStrategy::Generational { promote_age, .. } => {
            HeapStrategy::Generational { nursery_words: 128, promote_age }
        }
        HeapStrategy::Semispace => unreachable!(),
    };
    let mut machine =
        Machine::new(module, MachineLayout { semi_words: semi, stack_words: 1 << 14, heap });
    // Shadow + oracle: every root of every collection is checked against
    // the shadow ground truth.
    machine.enable_shadow();
    let mut ex = Executor::new(machine, RuntimeOptions::new().oracle(true));
    let out = ex.run_main().expect("generational run");

    assert_eq!(out.output, reference.output, "deep stacks must not perturb semantics");
    assert!(out.minor_collections >= 5, "workload must drive minors, got {out:?}");
    assert!(out.major_collections >= 1, "workload must escalate to majors, got {out:?}");
    // The churn at the bottom of `Deep(60)` collects under 61 `Deep`
    // frames: the walk must reach all of them.
    let deepest = out.gc_each.iter().map(|g| g.frames_traced).max().unwrap_or(0);
    assert!(deepest >= 61, "the deepest collection must walk Deep(60)'s stack, got {deepest}");
}

/// Per-mutator deep recursion plus bottom churn: parallel torture
/// collections repeatedly walk the same deep stacks across handshakes.
const PAR_DEEP_SRC: &str = "MODULE ParWm;
TYPE Cell = REF RECORD v: INTEGER END;

PROCEDURE Deep(d: INTEGER): INTEGER =
VAR c: Cell; i, s: INTEGER;
BEGIN
  c := NEW(Cell);
  c.v := d;
  IF d > 0 THEN
    RETURN (c.v + Deep(d - 1)) MOD 1000003;
  END;
  s := 0;
  FOR i := 1 TO 150 DO
    WITH t = NEW(Cell) DO t.v := i; s := (s + t.v) MOD 1000003; END;
  END;
  RETURN (s + c.v) MOD 1000003;
END Deep;

BEGIN
  PutInt(Deep(40));
END ParWm.";

#[test]
fn deep_stacks_survive_parallel_handshakes() {
    let module = compile(PAR_DEEP_SRC, &Options::o2()).expect("compiles");
    let reference = run_module(module.clone(), 1 << 14).expect("semispace reference");

    // 2 OS-thread mutators under torture with shadow + oracle: every
    // collection checks every root against the shadow ground truth.
    let opts = RuntimeOptions::new()
        .strategy(GcStrategy::Parallel)
        .semi_words(1 << 14)
        .stack_words(1 << 13)
        .threads(2)
        .tlab_words(8)
        .gc_workers(2)
        .torture(true)
        .oracle(true);
    let out = run_module_par_opts(module, opts).expect("parallel run");
    for (tid, o) in out.outputs.iter().enumerate() {
        assert_eq!(o, &reference.output, "mutator {tid} diverged");
    }
    // Torture at the bottom of `Deep(40)` collects under 41 `Deep`
    // frames per mutator.
    let deepest = out.gc_each.iter().map(|g| g.frames_traced).max().unwrap_or(0);
    assert!(deepest >= 41, "the deepest collection must walk Deep(40)'s stack, got {deepest}");
}

/// TLABs change how allocation reaches the shared frontier, never what
/// the program computes: the same module on two mutators with TLABs
/// off and on prints the same thing, the disabled configuration serves
/// no fast-path allocation at all, and the default one serves nearly
/// all of them.
#[test]
fn tlabs_serve_most_allocations_without_perturbing_output() {
    let module = compile(PAR_DEEP_SRC, &Options::o2()).expect("compiles");
    let run = |tlab_words: usize| {
        let opts = RuntimeOptions::new()
            .strategy(GcStrategy::Parallel)
            .semi_words(1 << 16)
            .threads(2)
            .gc_workers(2)
            .tlab_words(tlab_words);
        run_module_par_opts(module.clone(), opts).expect("parallel run")
    };
    let (shared, tlab) = (run(0), run(64));
    assert_eq!(shared.output, tlab.output, "TLABs must not perturb program semantics");
    assert_eq!(shared.tlab_allocs, 0, "disabled TLABs must not serve fast-path allocations");
    assert!(tlab.tlab_refills > 0, "TLABs must refill on this workload");
    assert!(
        tlab.tlab_allocs * 10 >= tlab.allocations * 9,
        "the TLAB fast path must serve the vast majority of allocations, got {}/{}",
        tlab.tlab_allocs,
        tlab.allocations
    );
}
