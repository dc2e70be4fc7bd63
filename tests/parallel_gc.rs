//! Parallel stop-the-world collection: end-to-end acceptance tests.
//!
//! * A 4-mutator gc-torture run (collection at every allocation, shadow
//!   mode + precision oracle armed) must produce per-thread output
//!   identical to the single-threaded semispace baseline — the parallel
//!   handshake, snapshot stack walks, work-stealing copy and two-phase
//!   derived-value update may not perturb program semantics.
//! * Compiler-placed polls are what bound the safepoint handshake
//!   (§5.3): every explicit poll site must also be a park site with a
//!   table entry.
//! * A mutator that *cannot* reach a gc-point within the advance budget
//!   (loop gc-points compiled out) must surface a structured
//!   [`ExecError::StuckThread`], never hang.
//! * The persistent gc-worker pool and the chunked gray hand-off (the
//!   `pool_*` cases): any worker count gives the sequential output
//!   and copies the same words; a wide heap wakes the helpers and gets
//!   chunks stolen; the lone starter's solo copy hands off to a woken
//!   helper under the oracle; a narrow heap wakes nobody and copies
//!   solo throughout; 2 000 collections with 4 mutators × 4 workers
//!   terminate under a watchdog.
//! * A panic on a mutator thread, or on one of cms's concurrent gc
//!   threads, is a structured error under a watchdog — not a process
//!   abort, not a hang (root twins of the safepoint-protocol unit tests
//!   in `crates/runtime/src/tests.rs`, which force the interleavings).
//! * Threads park only at allocations and polls (the `park_*` cases): a
//!   loop over `r := Make(i)` runs clean 20 times on interpreted and
//!   jitted `par` and on `cms`, although the call's table omits the
//!   pointer it returns; and tree recursion and a loop over a leaf call,
//!   whose returns are no park sites, still reach one in bounded time.

use std::sync::mpsc;
use std::time::Duration;

use m3gc::compiler::{compile, run_module_par, run_module_par_opts, run_module_with, Options};
use m3gc::core::heap::HeapType;
use m3gc::runtime::scheduler::ExecError;
use m3gc::runtime::{GcStrategy, ParOutcome, RuntimeOptions};
use m3gc::vm::{ParLayout, ParMachine};

/// Allocation-heavy program whose mutable state is all procedure-local:
/// module globals are shared between parallel mutators, so a
/// deterministic multi-mutator program must not touch them.
const LOCAL_CHURN: &str = "MODULE Churn;
TYPE Node = REF RECORD v: INTEGER; next: Node END;

PROCEDURE Work(): INTEGER =
VAR head: Node; i, j, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO 40 DO
    head := NIL;
    FOR j := 1 TO 12 DO
      WITH c = NEW(Node) DO c.v := j; c.next := head; head := c; END;
    END;
    WHILE head # NIL DO
      s := (s * 31 + head.v) MOD 1000003;
      head := head.next;
    END;
  END;
  RETURN s;
END Work;

BEGIN
  PutInt(Work());
END Churn.";

#[test]
fn four_mutator_torture_matches_single_thread_baseline() {
    let opts = Options::o2();
    let module = compile(LOCAL_CHURN, &opts).expect("compiles");

    // Single-threaded semispace baseline, also under torture.
    let baseline = run_module_with(module.clone(), 1 << 14, RuntimeOptions::new().torture(true))
        .expect("baseline run");
    assert!(baseline.collections >= 100, "torture must collect constantly");

    // 4 OS-thread mutators, 4 gc workers, shadow mode + oracle: every
    // collection validates each thread's gc-map roots first.
    let config = RuntimeOptions::new().gc_workers(4).torture(true).oracle(true);
    let out = run_module_par(module, 1 << 15, 4, true, config).expect("parallel run");
    assert_eq!(out.outputs.len(), 4);
    for (tid, thread_out) in out.outputs.iter().enumerate() {
        assert_eq!(thread_out, &baseline.output, "mutator {tid} diverged from baseline");
    }
    assert_eq!(out.output, baseline.output.repeat(4));
    assert!(out.collections >= baseline.collections, "4 mutators allocate at least as much");
    assert_eq!(out.gc_each.len() as u64, out.collections);
    for (i, gc) in out.gc_each.iter().enumerate() {
        assert_eq!(gc.per_worker_words.len(), 4, "collection {i} ran 4 workers");
        assert_eq!(
            gc.per_worker_words.iter().sum::<u64>(),
            gc.words_copied,
            "collection {i}: per-worker words must account for the total"
        );
    }
}

#[test]
fn poll_sites_are_gc_points_with_table_entries() {
    // An allocation-free loop only stops for the handshake because the
    // compiler put a gc-point on its back edge.
    let src = "MODULE Poll;
    PROCEDURE Crunch(n: INTEGER): INTEGER =
    VAR i, h: INTEGER;
    BEGIN
      h := 7;
      FOR i := 1 TO n DO h := (h * 31 + i) MOD 1000003; END;
      RETURN h;
    END Crunch;
    BEGIN
      PutInt(Crunch(1000));
    END Poll.";
    let module = compile(src, &Options::o2()).expect("compiles");
    let code_len = module.code.len() as u32;
    let vm = ParMachine::new(
        module,
        ParLayout {
            semi_words: 1 << 12,
            stack_words: 1 << 12,
            mutators: 1,
            ..ParLayout::default()
        },
    );
    let polls: Vec<u32> = (0..code_len).filter(|&pc| vm.is_poll_pc(pc)).collect();
    assert!(!polls.is_empty(), "loopy program must have explicit poll sites");
    for pc in polls {
        assert!(vm.is_gc_point_pc(pc), "poll site at pc {pc} must be a gc-point");
    }
}

/// Alternating allocation and a long allocation-free spin, compiled
/// *without* loop gc-points: once two mutators desynchronize, a torture
/// collection request lands while the other thread is mid-spin with no
/// gc-point in reach.
const SPIN_SRC: &str = "MODULE Spin;
TYPE R = REF RECORD x: INTEGER END;

PROCEDURE Crunch(n: INTEGER): INTEGER =
VAR i, h: INTEGER;
BEGIN
  h := 7;
  FOR i := 1 TO n DO h := (h * 31 + i) MOD 1000003; END;
  RETURN h;
END Crunch;

PROCEDURE Work(): INTEGER =
VAR r: R; round, s: INTEGER;
BEGIN
  s := 0;
  FOR round := 1 TO 4 DO
    r := NEW(R);
    r.x := round;
    s := (s + r.x + Crunch(2000000)) MOD 1000003;
  END;
  RETURN s;
END Work;

BEGIN
  PutInt(Work());
END Spin.";

fn no_loop_points() -> Options {
    let mut opts = Options::o2();
    opts.codegen.gc.loop_gc_points = false;
    opts
}

#[test]
fn parallel_max_advance_exhaustion_is_a_structured_error() {
    // Two OS-thread mutators under torture. After the first round they
    // drift apart, so some collection request finds the other mutator
    // deep inside Crunch with no gc-point within the advance budget;
    // the leader must observe the structured failure and release
    // everyone rather than waiting forever. With four gc workers for
    // two mutators the run ends — error, halt, scope joined — with
    // helpers parked in the pool: they must be released promptly.
    let module = compile(SPIN_SRC, &no_loop_points()).expect("compiles");
    let config = RuntimeOptions::new().gc_workers(4).torture(true).max_advance(10_000);
    let result = within(1, "stuck mutator with parked gc helpers", move || {
        run_module_par(module, 1 << 14, 2, false, config)
    });
    match result {
        Err(ExecError::StuckThread { .. }) => {}
        other => panic!("expected StuckThread, got {other:?}"),
    }
}

/// A module whose entry procedure does not exist makes every mutator
/// thread panic as it starts (`spawn_mutator`: "Panics if `proc` is
/// invalid"). The run must come back with the panic as its error: the
/// unwind is caught at the thread boundary and the thread still leaves
/// the handshake.
#[test]
fn a_panicking_mutator_thread_is_a_structured_error() {
    let mut module = compile(LOCAL_CHURN, &Options::o2()).expect("compiles");
    module.main = u16::try_from(module.procs.len()).expect("few procedures");
    let result = within(1, "panicking mutators", move || {
        run_module_par(module, 1 << 14, 3, false, RuntimeOptions::new())
    });
    match result {
        Err(ExecError::MutatorPanic { thread, message }) => {
            assert!(thread < 3, "thread {thread}");
            assert!(message.contains("index out of bounds"), "{message}");
        }
        other => panic!("expected MutatorPanic, got {other:?}"),
    }
}

/// A type descriptor claiming a pointer field far outside its object
/// makes whoever scans an instance read outside the machine's memory and
/// panic. Under `--gc cms` that is the coordinator, the run's one
/// marker: the program builds a live chain, churns past the occupancy
/// trigger, then walks the chain without allocating, so no mutator-led
/// pause gets to the chain first. The run must end with the marker's
/// panic as its error instead of hanging on the `markers_idle` flag the
/// coordinator sets once its marking call returns.
#[test]
fn a_panicking_cms_marker_is_a_structured_error() {
    let src = "MODULE Victim;
    TYPE Node = REF RECORD v: INTEGER; next: Node END;
    PROCEDURE Work(): INTEGER =
    VAR head, t, p: Node; i, s: INTEGER;
    BEGIN
      head := NIL;
      FOR i := 1 TO 64 DO t := NEW(Node); t.v := i; t.next := head; head := t; END;
      FOR i := 1 TO 1000 DO t := NEW(Node); t.v := i; END;
      s := 0;
      FOR i := 1 TO 1000000 DO
        p := head;
        WHILE p # NIL DO s := (s + p.v) MOD 1000003; p := p.next; END;
      END;
      RETURN s;
    END Work;
    BEGIN PutInt(Work()); END Victim.";
    let mut module = compile(src, &Options::o2()).expect("compiles");
    for ty in &mut module.types.types {
        if let HeapType::Record { ptr_offsets, .. } = ty {
            ptr_offsets.push(u32::MAX / 2);
        }
    }
    // No TLABs: retirement waste would fill the heap before the trigger.
    let options = RuntimeOptions::new()
        .strategy(GcStrategy::Cms)
        .semi_words(1 << 12)
        .threads(1)
        .tlab_words(0)
        .gc_workers(2);
    let result = within(5, "panicking cms marker", move || run_module_par_opts(module, options));
    match result {
        Err(ExecError::GcWorkerPanic { phase: "mark", message, .. }) => {
            assert!(message.contains("index out of bounds"), "{message}");
        }
        other => panic!("expected GcWorkerPanic during mark, got {other:?}"),
    }
}

/// Runs `run` on its own thread and fails the test by name if it has
/// not come back after `secs` seconds: a lost wake-up or a termination
/// race must show up as a timeout, not as a hung test binary.
fn within<T: Send + 'static>(secs: u64, what: &str, run: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || drop(tx.send(run())));
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what}: no result within {secs} s (hang or dead worker)"))
}

/// A live table of `lists` two-cell lists, built once, then `churn`
/// garbage cells allocated under it: every collection copies the table,
/// and scanning its one array floods the scanning worker's gray stack.
fn wide_source(lists: usize, churn: usize) -> String {
    format!(
        "MODULE Wide;
TYPE Node = REF RECORD v: INTEGER; next: Node END;
     Table = REF ARRAY OF Node;

PROCEDURE Work(): INTEGER =
VAR t: Table; tail, junk: Node; i, s: INTEGER;
BEGIN
  t := NEW(Table, {lists});
  FOR i := 0 TO {lists} - 1 DO
    tail := NEW(Node); tail.v := i; tail.next := NIL;
    t[i] := NEW(Node); t[i].v := i + 1; t[i].next := tail;
  END;
  FOR i := 1 TO {churn} DO junk := NEW(Node); junk.v := i; END;
  s := 0;
  FOR i := 0 TO {lists} - 1 DO
    s := (s * 31 + t[i].v + t[i].next.v) MOD 1000003;
  END;
  RETURN s;
END Work;

BEGIN
  PutInt(Work());
END Wide."
    )
}

fn words_copied(out: &ParOutcome) -> u64 {
    out.gc_each.iter().map(|gc| gc.words_copied).sum()
}

#[test]
fn pool_any_worker_count_matches_the_sequential_executor() {
    // A collection at every allocation, each copying a 400-list table:
    // wide enough that chunks are published (and helpers woken) in every
    // one of them, with more workers than mutators and than cores.
    let module = compile(&wide_source(400, 320), &Options::o2()).expect("compiles");
    let baseline = run_module_with(module.clone(), 1 << 14, RuntimeOptions::new().torture(true))
        .expect("sequential run");
    assert!(baseline.collections >= 300, "got {} collections", baseline.collections);

    let mut copied = Vec::new();
    for workers in [1usize, 2, 4, 7] {
        let module = module.clone();
        let out = within(60, &format!("gc_workers = {workers}"), move || {
            let config = RuntimeOptions::new().gc_workers(workers).torture(true).oracle(true);
            run_module_par(module, 1 << 14, 1, true, config).expect("parallel run")
        });
        assert_eq!(out.output, baseline.output, "gc_workers = {workers}");
        assert!(out.collections >= 300, "gc_workers = {workers}: {}", out.collections);
        for gc in &out.gc_each {
            assert_eq!(gc.per_worker_words.len(), workers);
            assert_eq!(gc.steals.len(), workers);
            assert_eq!(gc.per_worker_words.iter().sum::<u64>(), gc.words_copied);
            assert!(gc.helpers_woken < workers as u64);
        }
        copied.push((workers, out.collections, words_copied(&out)));
    }
    let (_, collections, words) = copied[0];
    for &(workers, c, w) in &copied[1..] {
        assert_eq!((c, w), (collections, words), "gc_workers = {workers} vs 1: same schedule");
    }
}

#[test]
fn pool_wide_heap_wakes_the_helper_and_gets_chunks_stolen() {
    // ≈ 140 k live words in one array of 20 000 lists; the 100 k garbage
    // cells force several collections of it.
    let module = compile(&wide_source(20_000, 100_000), &Options::o2()).expect("compiles");
    let expected = run_module_with(module.clone(), 200_000, RuntimeOptions::new())
        .expect("sequential run")
        .output;
    let out = within(120, "wide heap", move || {
        let config = RuntimeOptions::new().gc_workers(2);
        run_module_par(module, 200_000, 1, false, config).expect("parallel run")
    });
    assert_eq!(out.output, expected);
    assert!(out.collections >= 3, "got {} collections", out.collections);
    let sum = |f: fn(&m3gc::runtime::ParGcStats) -> &Vec<u64>| -> Vec<u64> {
        (0..2).map(|w| out.gc_each.iter().map(|gc| f(gc)[w]).sum()).collect()
    };
    let words = sum(|gc| &gc.per_worker_words);
    let steals = sum(|gc| &gc.steals);
    assert!(words.iter().all(|&w| w > 0), "every worker copies: {words:?}");
    assert!(steals.iter().sum::<u64>() > 0, "chunks are stolen: {steals:?}");
    assert!(steals[1] > 0, "the helper has no roots; all it copies hangs off stolen chunks");
    let published: u64 = out.gc_each.iter().map(|gc| gc.chunks_published).sum();
    let woken: u64 = out.gc_each.iter().map(|gc| gc.helpers_woken).sum();
    assert!(published >= steals.iter().sum(), "a stolen chunk was published first");
    assert!(woken > 0 && woken <= out.collections, "one helper, woken by work: {woken}");
}

#[test]
fn pool_solo_hand_off_under_the_oracle() {
    // The wide heap with shadow tags and the precision oracle armed. The
    // one started worker copies solo (plain claims, private frontier)
    // until its first published chunk wakes the helper; from then on both
    // claim under the CAS. A solo copy the helper could not see, or a
    // frontier handed off stale, would diverge or trip the shadow tags.
    let module = compile(&wide_source(20_000, 100_000), &Options::o2()).expect("compiles");
    let expected = run_module_with(module.clone(), 200_000, RuntimeOptions::new())
        .expect("sequential run")
        .output;
    let run = |workers: usize| {
        let module = module.clone();
        within(120, &format!("solo hand-off, gc_workers = {workers}"), move || {
            let config = RuntimeOptions::new().gc_workers(workers).oracle(true);
            run_module_par(module, 200_000, 1, true, config).expect("parallel run")
        })
    };
    let (one, two) = (run(1), run(2));
    assert_eq!(two.output, expected);
    let woken: u64 = two.gc_each.iter().map(|gc| gc.helpers_woken).sum();
    assert!(woken > 0, "solo was never left: no helper woken");
    for (i, gc) in two.gc_each.iter().enumerate() {
        // The hand-off comes while the table's 20 000 heads are forwarded.
        if gc.helpers_woken > 0 {
            assert!(gc.solo_words < gc.words_copied, "collection {i}: solo ends at the wake");
        } else {
            assert_eq!(gc.solo_words, gc.words_copied, "collection {i}: solo throughout");
        }
    }
    for (i, gc) in one.gc_each.iter().enumerate() {
        assert_eq!(gc.solo_words, gc.words_copied, "collection {i}: one worker is always solo");
    }
    assert_eq!(
        (two.collections, words_copied(&two)),
        (one.collections, words_copied(&one)),
        "two workers vs one: same collections, same words"
    );
}

#[test]
fn pool_narrow_heap_wakes_nobody() {
    // A 10 000-cell list: the depth-first trace never holds more than
    // one gray object, so nothing is published and no helper is woken.
    let src = "MODULE Narrow;
TYPE Node = REF RECORD v: INTEGER; next: Node END;

PROCEDURE Work(): INTEGER =
VAR head, junk: Node; i, s: INTEGER;
BEGIN
  head := NIL;
  FOR i := 1 TO 10000 DO
    junk := NEW(Node); junk.v := i; junk.next := head; head := junk;
  END;
  FOR i := 1 TO 60000 DO junk := NEW(Node); junk.v := i; END;
  s := 0;
  WHILE head # NIL DO s := (s * 31 + head.v) MOD 1000003; head := head.next; END;
  RETURN s;
END Work;

BEGIN
  PutInt(Work());
END Narrow.";
    let module = compile(src, &Options::o2()).expect("compiles");
    let expected =
        run_module_with(module.clone(), 50_000, RuntimeOptions::new()).expect("sequential").output;
    let out = within(60, "narrow heap", move || {
        let config = RuntimeOptions::new().gc_workers(4);
        run_module_par(module, 50_000, 1, false, config).expect("parallel run")
    });
    assert_eq!(out.output, expected);
    assert!(out.collections >= 3, "got {} collections", out.collections);
    for (i, gc) in out.gc_each.iter().enumerate() {
        assert_eq!(gc.per_worker_words[1..], [0, 0, 0], "collection {i}: helpers copied");
        assert_eq!(gc.per_worker_words[0], gc.words_copied, "collection {i}");
        assert_eq!(gc.solo_words, gc.words_copied, "collection {i}: the leader copied solo");
        assert_eq!(
            (gc.helpers_woken, gc.chunks_published, gc.idle_parks),
            (0, 0, 0),
            "collection {i}: an idle worker is free"
        );
    }
}

#[test]
fn pool_termination_stress_four_mutators_four_workers() {
    // Every allocation of every mutator forces a collection: 2 000+
    // start / trace / terminate / release rounds of the pool, each with
    // up to four started workers on however few cores the host has.
    let src = LOCAL_CHURN.replace("FOR i := 1 TO 40 DO", "FOR i := 1 TO 60 DO");
    let module = compile(&src, &Options::o2()).expect("compiles");
    let expected = run_module_with(module.clone(), 1 << 14, RuntimeOptions::new().torture(true))
        .expect("sequential run")
        .output;
    let out = within(30, "4 mutators x 4 workers under torture", move || {
        let config = RuntimeOptions::new().gc_workers(4).torture(true);
        run_module_par(module, 1 << 15, 4, false, config).expect("parallel run")
    });
    assert_eq!(out.output, expected.repeat(4));
    assert!(out.collections >= 2000, "got {} collections", out.collections);
}

/// A loop over `r := Make(i)`, where `Make` returns `NEW(R)`: the call's
/// table (keyed by its return address) omits the returned pointer, which
/// sits in `r0` there. A thread parked at that pc had its result left
/// stale by a collection; park sites are only allocations and polls.
const MAKE_LOOP: &str = "MODULE M;
TYPE R = REF RECORD v: INTEGER; next: R END;
PROCEDURE Make(i: INTEGER): R =
VAR r: R;
BEGIN
  r := NEW(R);
  r.v := i;
  RETURN r;
END Make;
PROCEDURE Loop(n: INTEGER): INTEGER =
VAR r, prev: R; i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO n DO
    r := Make(i);
    r.next := prev;
    prev := r;
    IF i MOD 8 = 0 THEN prev := NIL; END;
    s := (s + r.v) MOD 1000003;
  END;
  RETURN s;
END Loop;
BEGIN
  PutInt(Loop(400));
END M.";

/// Runs [`MAKE_LOOP`] 20 times on `mutators` OS threads under torture
/// with the oracle armed; every run must print the sequential answer.
fn make_loop_runs_clean(what: &str, mutators: usize, options: RuntimeOptions) {
    let module = compile(MAKE_LOOP, &Options::o2()).expect("compiles");
    let options = options.semi_words(4000).threads(mutators).torture(true).oracle(true);
    for run in 0..20 {
        let module = module.clone();
        let out = within(60, what, move || run_module_par_opts(module, options));
        let out = out.unwrap_or_else(|e| panic!("{what}, run {run}: {e}"));
        assert_eq!(out.output, "80200".repeat(mutators), "{what}, run {run}");
    }
}

#[test]
fn park_make_loop_on_four_interpreted_par_mutators() {
    make_loop_runs_clean("par", 4, RuntimeOptions::new().strategy(GcStrategy::Parallel));
}

#[test]
fn park_make_loop_on_four_jitted_par_mutators() {
    let options = RuntimeOptions::new().strategy(GcStrategy::Parallel).jit(true);
    make_loop_runs_clean("par --jit", 4, options);
}

#[test]
fn park_make_loop_on_two_cms_mutators() {
    let options = RuntimeOptions::new().strategy(GcStrategy::Cms);
    make_loop_runs_clean("cms", 2, options);
}

/// Runs `src` on 3 parallel mutators under torture with a tight advance
/// budget: a thread between park sites for longer than the budget while
/// a collection waits would end the run in `StuckThread`.
fn finishes_on_three_mutators(src: &str, expected: &str) {
    let module = compile(src, &Options::o2()).expect("compiles");
    let config = RuntimeOptions::new().torture(true).max_advance(20_000);
    let out = within(60, "3 mutators under torture", move || {
        run_module_par(module, 1 << 14, 3, false, config)
    });
    let out = out.unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(out.output, expected.repeat(3));
    assert!(out.collections >= 8, "torture must collect ({})", out.collections);
}

/// `Fib` allocates nothing, and returns are no park sites: its two
/// calls into itself earn it an entry poll, without which a thread
/// inside `Fib(22)` runs its 57 313 calls past a pending request.
#[test]
fn park_tree_recursion_between_allocations_finishes() {
    let src = "MODULE F;
    TYPE R = REF RECORD v: INTEGER END;
    PROCEDURE Fib(n: INTEGER): INTEGER =
    BEGIN
      IF n < 2 THEN RETURN n; END;
      RETURN Fib(n - 1) + Fib(n - 2);
    END Fib;
    PROCEDURE Work(): INTEGER =
    VAR r: R; i, s: INTEGER;
    BEGIN
      s := 0;
      FOR i := 1 TO 4 DO r := NEW(R); r.v := Fib(18 + i); s := s + r.v; END;
      RETURN s;
    END Work;
    BEGIN PutInt(Work()); END F.";
    finishes_on_three_mutators(src, "39603");
}

/// A loop whose only call is to a leaf that never parks gets its own
/// poll: the call's return is no park site.
#[test]
fn park_loop_over_a_leaf_call_finishes() {
    let src = "MODULE L;
    TYPE R = REF RECORD v: INTEGER END;
    PROCEDURE Leaf(x: INTEGER): INTEGER =
    BEGIN RETURN (x * 17 + 3) MOD 97; END Leaf;
    PROCEDURE Work(): INTEGER =
    VAR r: R; round, i, s: INTEGER;
    BEGIN
      s := 0;
      FOR round := 1 TO 4 DO
        r := NEW(R);
        r.v := round;
        FOR i := 1 TO 30000 DO s := (s + Leaf(i)) MOD 1000003; END;
        s := s + r.v;
      END;
      RETURN s;
    END Work;
    BEGIN PutInt(Work()); END L.";
    let expected = run_module_with(
        compile(src, &Options::o2()).expect("compiles"),
        1 << 14,
        RuntimeOptions::new(),
    )
    .expect("sequential run")
    .output;
    finishes_on_three_mutators(src, &expected);
}
