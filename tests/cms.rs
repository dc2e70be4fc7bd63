//! Concurrent SATB marking: end-to-end acceptance tests.
//!
//! * A 4-mutator `--gc cms` gc-torture run (collection forced at every
//!   allocation, shadow mode + precision oracle armed, every cycle
//!   shadow-verified against the stop-the-world reachable set) must
//!   produce per-thread output identical to the single-threaded
//!   semispace baseline.
//! * The 3/4-occupancy trigger must start cycles on its own — no
//!   torture, no explicit request — and every collection must be a cms
//!   cycle with both pauses accounted.
//! * SATB mutation tests: a deliberately broken deletion barrier — the
//!   old-value enqueue dropped, or reordered after the store so it reads
//!   the *new* value — must be caught by the cycle's shadow
//!   verification as an [`ExecError::Oracle`], using a deterministic
//!   lost-object reproducer (store-then-unlink during marking). The
//!   same program with the barrier intact must run clean and enqueue.
//! * A gc map with its roots dropped must trap as a stale read.

use std::sync::atomic::Ordering;

use m3gc::compiler::{compile, run_module_par_opts, run_module_with, Options};
use m3gc::core::encode::encode_module;
use m3gc::core::layout::RegSet;
use m3gc::runtime::scheduler::ExecError;
use m3gc::runtime::{GcStrategy, ParExecutor, RuntimeOptions};
use m3gc::vm::{SatbFault, VmTrap};

/// Allocation-heavy program whose mutable state is all procedure-local
/// (globals are shared between mutators, so a deterministic
/// multi-mutator program must not touch them).
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

fn cms_options() -> RuntimeOptions {
    RuntimeOptions::new()
        .strategy(GcStrategy::Cms)
        .semi_words(1 << 15)
        .gc_workers(4)
        .conc_workers(2)
        .shadow(true)
        .oracle(true)
}

#[test]
fn four_mutator_cms_torture_matches_single_thread_baseline() {
    let module = compile(LOCAL_CHURN, &Options::o2()).expect("compiles");

    let baseline = run_module_with(module.clone(), 1 << 14, RuntimeOptions::new().torture(true))
        .expect("baseline run");
    assert!(baseline.collections >= 100, "torture must collect constantly");

    // 4 OS-thread mutators under torture: every allocation forces a
    // pause, so the run alternates snapshot and final pauses as fast as
    // the handshake allows, with the oracle checking gc-map precision
    // at both and the shadow verifier re-deriving the reachable set
    // before every evacuation.
    let out = run_module_par_opts(module, cms_options().threads(4).torture(true))
        .expect("cms torture run");
    assert_eq!(out.outputs.len(), 4);
    for (tid, thread_out) in out.outputs.iter().enumerate() {
        assert_eq!(thread_out, &baseline.output, "mutator {tid} diverged from baseline");
    }
    assert!(out.collections > 0, "cms torture must complete cycles");
    assert_eq!(out.gc_each.len() as u64, out.collections);
    for (i, gc) in out.gc_each.iter().enumerate() {
        assert!(gc.cms_cycle, "collection {i} must be a cms cycle");
        assert!(gc.snapshot_pause.as_nanos() > 0, "cycle {i} records its snapshot pause");
        assert_eq!(
            gc.per_worker_words.iter().sum::<u64>(),
            gc.words_copied,
            "cycle {i}: per-worker words must account for the total"
        );
        assert!(gc.steals.iter().all(|&s| s == 0), "bitmap evacuation never steals");
    }
    assert_eq!(
        out.satb_drained,
        out.gc_each.iter().map(|g| g.satb_drained).sum::<u64>(),
        "every drained SATB entry is attributed to a cycle"
    );
}

#[test]
fn occupancy_trigger_runs_cycles_without_torture() {
    let module = compile(LOCAL_CHURN, &Options::o2()).expect("compiles");
    let baseline =
        run_module_with(module.clone(), 1 << 14, RuntimeOptions::new()).expect("baseline");

    // Small heap, no torture: cycles start from the 3/4-occupancy
    // trigger alone.
    let opts = cms_options().semi_words(1 << 12).threads(2);
    let out = run_module_par_opts(module, opts).expect("cms run");
    for thread_out in &out.outputs {
        assert_eq!(thread_out, &baseline.output);
    }
    assert!(out.collections > 0, "a 4K-word heap must fill at 3/4 and cycle");
    assert!(out.gc_each.iter().all(|g| g.cms_cycle));
}

/// Deterministic lost-object reproducer. Under `--gc cms` torture with
/// a collection forced at *every* allocation and `hold_marking` set
/// (markers idle, so only the snapshot seed and the final-pause SATB
/// drain mark anything), the two allocations per iteration make the
/// pauses alternate: `cur := NEW` leads the final pause, `b := NEW`
/// leads the snapshot pause — so marking spans the tail of each
/// iteration. There, iteration `i` loads the node its *previous*
/// iteration linked behind `prev` — unmarked at the snapshot,
/// reachable only through `prev.next` — into `t`, then unlinks it
/// (`prev.next := NIL`). The intact deletion barrier
/// enqueues the old value and the final drain marks it; a dropped or
/// reordered enqueue loses it while `t` still roots it, and the
/// cycle's shadow verification must report the violation.
const SATB_VICTIM: &str = "MODULE SatbVictim;
TYPE Node = REF RECORD v: INTEGER; next: Node END;

PROCEDURE Work(): INTEGER =
VAR prev, cur, b, t: Node; i, s: INTEGER;
BEGIN
  s := 0;
  prev := NEW(Node);
  b := NEW(Node);
  b.v := 0;
  prev.next := b;
  t := b;
  b := NIL;
  FOR i := 1 TO 40 DO
    cur := NEW(Node);
    b := NEW(Node);
    b.v := i;
    cur.next := b;
    b := NIL;
    s := (s + t.v) MOD 1000003;
    t := prev.next;
    prev.next := NIL;
    prev := cur;
  END;
  RETURN s;
END Work;

BEGIN
  PutInt(Work());
END SatbVictim.";

fn run_victim(fault: SatbFault) -> (Result<String, ExecError>, u64) {
    let module = compile(SATB_VICTIM, &Options::o2()).expect("compiles");
    let options =
        cms_options().semi_words(1 << 14).threads(1).gc_workers(2).force_every_allocs(Some(1));
    let vm = options.build_par_machine(module);
    {
        let cms = vm.cms.as_ref().expect("cms strategy arms the cms heap");
        cms.set_fault(fault);
        // Keep the concurrent markers out of the picture: marking must
        // rely entirely on the snapshot seed and the SATB drain, so a
        // broken barrier cannot be papered over by a lucky trace.
        cms.hold_marking.store(true, Ordering::Relaxed);
    }
    let mut ex = ParExecutor::new(vm, options);
    match ex.run_main() {
        Ok(out) => (Ok(out.output), out.satb_enqueued),
        Err(e) => (Err(e), 0),
    }
}

#[test]
fn intact_satb_barrier_runs_clean_and_enqueues() {
    let module = compile(SATB_VICTIM, &Options::o2()).expect("compiles");
    let baseline = run_module_with(module, 1 << 14, RuntimeOptions::new()).expect("baseline run");
    let (result, enqueued) = run_victim(SatbFault::None);
    assert_eq!(result.expect("intact barrier must pass the oracle"), baseline.output);
    assert!(enqueued > 0, "the reproducer must exercise the deletion barrier");
}

#[test]
fn dropped_satb_enqueue_is_caught_by_shadow_verification() {
    match run_victim(SatbFault::Drop) {
        (Err(ExecError::Oracle(msg)), _) => {
            assert!(msg.contains("unmarked"), "diagnostic names the lost object: {msg}");
        }
        (other, _) => panic!("dropped enqueue must fail shadow verification, got {other:?}"),
    }
}

#[test]
fn reordered_satb_enqueue_is_caught_by_shadow_verification() {
    // Store-then-load reads the *new* value — for the unlink that is
    // NIL, which the barrier filters, so the old value is lost exactly
    // as with a dropped enqueue.
    match run_victim(SatbFault::Reorder) {
        (Err(ExecError::Oracle(_)), _) => {}
        (other, _) => panic!("reordered enqueue must fail shadow verification, got {other:?}"),
    }
}

/// `a` lives across every allocation of the loop and is read after each
/// one, so some read follows the first final pause's flip. Records
/// without pointer fields keep the heap graph edgeless, so a root the
/// tables omit is reachable from nothing else.
const STALE_VICTIM: &str = "MODULE StaleVictim;
TYPE R = REF RECORD v: INTEGER END;

PROCEDURE P() =
VAR a: R; s, i: INTEGER;
BEGIN
  a := NEW(R);
  a.v := 100;
  s := 0;
  FOR i := 1 TO 20 DO
    WITH d = NEW(R) DO d.v := i; s := s + d.v + a.v; END;
  END;
  PutInt(s);
END P;

BEGIN
  P();
END StaleVictim.";

/// A gc map that stops listing pointers leaves them holding from-space
/// addresses once the final pause flips the spaces; the shadow run must
/// trap the first read through one as a stale pointer. (The oracle only
/// judges the entries a table *does* list, and the cycle's shadow
/// verification walks the same tables, so neither can see the omission:
/// this trap is what catches it on the parallel machine.)
#[test]
fn stale_read_is_trapped_by_the_shadow_oracle() {
    let opts = Options::o2();
    let mut module = compile(STALE_VICTIM, &opts).expect("compiles");
    let options = cms_options().threads(1).torture(true);
    let clean = run_module_par_opts(module.clone(), options).expect("intact tables run clean");
    assert_eq!(clean.output, "2210");
    let mut dropped = 0;
    for point in module.logical_maps.procs.iter_mut().flat_map(|p| &mut p.points) {
        dropped += point.regs.len() + point.live_stack.drain(..).count();
        point.regs = RegSet::EMPTY;
    }
    assert!(dropped > 0, "the mutation found no root to drop");
    module.gc_maps = encode_module(&module.logical_maps, opts.codegen.scheme);
    match run_module_par_opts(module, options) {
        Err(ExecError::Trap(VmTrap::StalePointer)) => {}
        other => panic!("a read through a dropped root must trap as StalePointer, got {other:?}"),
    }
}
