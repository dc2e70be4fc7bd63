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

use std::sync::atomic::Ordering;

use m3gc::compiler::{compile, run_module_par_opts, run_module_with, Options};
use m3gc::runtime::scheduler::ExecError;
use m3gc::runtime::{GcStrategy, ParExecutor, RuntimeOptions};
use m3gc::vm::{EvacFault, SatbFault, VmTrap};

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

// ---------------------------------------------------------------------
// Concurrent evacuation.
// ---------------------------------------------------------------------

/// Tiny-region conc-evac options: with 16-word regions every live chunk
/// of the heap lands in its own region, so each cycle's cset covers
/// essentially the whole live set and the self-healing load/store paths
/// are exercised on every object.
fn evac_options() -> RuntimeOptions {
    cms_options().conc_evac(true).evac_region_words(16)
}

#[test]
fn four_mutator_conc_evac_tiny_region_torture_matches_baseline() {
    let module = compile(LOCAL_CHURN, &Options::o2()).expect("compiles");
    let baseline = run_module_with(module.clone(), 1 << 14, RuntimeOptions::new().torture(true))
        .expect("baseline run");

    // 4 OS-thread mutators, collection forced at every allocation,
    // shadow + oracle armed, every region a cset candidate: forced
    // pauses constantly interrupt concurrent copies mid-flight, so the
    // pause-side frontier flush and the forwarding audit both run hot.
    let out = run_module_par_opts(module, evac_options().threads(4).torture(true))
        .expect("conc-evac torture run");
    assert_eq!(out.outputs.len(), 4);
    for (tid, thread_out) in out.outputs.iter().enumerate() {
        assert_eq!(thread_out, &baseline.output, "mutator {tid} diverged from baseline");
    }
    assert!(out.collections > 0, "conc-evac torture must complete cycles");
    assert!(out.gc_each.iter().all(|g| g.cms_cycle));
}

/// Two-phase reproducer for the forwarding hazards: `Build` makes a
/// small live chain, `Fill` churns past the occupancy trigger, and the
/// allocation-free `Walk` then reads and writes the chain for long
/// enough that marking, evacuation select and the concurrent copy all
/// complete underneath it. With `hold_evac` set the evacuation window
/// stays open to program exit, so every late `Walk` access runs against
/// published copies and the exit audit stands in for the final pause's.
const EVAC_VICTIM: &str = "MODULE EvacVictim;
TYPE Node = REF RECORD v: INTEGER; next: Node END;

PROCEDURE Build(n: INTEGER): Node =
VAR head, t: Node; i: INTEGER;
BEGIN
  head := NIL;
  FOR i := 1 TO n DO
    t := NEW(Node);
    t.v := i;
    t.next := head;
    head := t;
  END;
  RETURN head;
END Build;

PROCEDURE Fill(rounds: INTEGER): INTEGER =
VAR t: Node; i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO rounds DO
    t := NEW(Node);
    t.v := i;
    s := (s + t.v) MOD 1000003;
  END;
  RETURN s;
END Fill;

PROCEDURE Walk(head: Node; rounds: INTEGER): INTEGER =
VAR p: Node; i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO rounds DO
    p := head;
    WHILE p # NIL DO
      p.v := p.v + 1;
      s := (s + p.v) MOD 1000003;
      p := p.next;
    END;
  END;
  RETURN s;
END Walk;

PROCEDURE Work(): INTEGER =
VAR head: Node; s: INTEGER;
BEGIN
  head := Build(64);
  s := Fill(1000);
  RETURN (s + Walk(head, 20000)) MOD 1000003;
END Work;

BEGIN
  PutInt(Work());
END EvacVictim.";

fn run_evac_victim(fault: EvacFault) -> Result<m3gc::runtime::parallel::ParOutcome, ExecError> {
    let module = compile(EVAC_VICTIM, &Options::o2()).expect("compiles");
    // No TLABs: retirement waste would push the frontier past the heap
    // end during `Fill` and force a mutator-led one-pause evacuation
    // before the coordinator ever reaches the select handshake.
    let options = evac_options().semi_words(1 << 12).threads(1).gc_workers(2).tlab_words(0);
    let vm = options.build_par_machine(module);
    {
        let cms = vm.cms.as_ref().expect("cms strategy arms the cms heap");
        cms.set_evac_fault(fault);
        // Hold the evacuation window open to program exit: the final
        // pause never runs, so a surviving hazard cannot be papered
        // over by the pause-time rewrite — only the self-healing
        // mutator paths and the exit audit stand between the fault and
        // the program.
        cms.hold_evac.store(true, Ordering::Relaxed);
    }
    let mut ex = ParExecutor::new(vm, options);
    ex.run_main()
}

#[test]
fn intact_conc_evac_runs_clean_and_moves_objects() {
    let module = compile(EVAC_VICTIM, &Options::o2()).expect("compiles");
    let baseline = run_module_with(module, 1 << 14, RuntimeOptions::new()).expect("baseline run");
    let out = run_evac_victim(EvacFault::None).expect("intact forwarding must pass the audit");
    assert_eq!(out.output, baseline.output, "healed walk diverged from baseline");
    assert!(out.evac_objects > 0, "the walk must run against concurrently moved objects");
}

#[test]
fn stale_read_is_trapped_by_the_shadow_oracle() {
    // Healing faulted off: loads keep landing on published originals,
    // which the shadow run traps as a stale pointer the moment the walk
    // touches a moved node.
    match run_evac_victim(EvacFault::StaleRead) {
        Err(ExecError::Trap(VmTrap::StalePointer)) => {}
        other => panic!("stale reads must trap as StalePointer, got {other:?}"),
    }
}

#[test]
fn torn_forward_store_is_caught_by_the_evac_audit() {
    // The store-side redirect and post-store recheck are skipped, so a
    // mutator store lands only in the original after its copy is
    // published: the copy silently diverges, which the audit flags as a
    // torn store (divergent word with no healed-dirty bit).
    match run_evac_victim(EvacFault::TornForward) {
        Err(ExecError::Oracle(msg)) => {
            assert!(msg.contains("torn"), "diagnostic names the torn store: {msg}");
        }
        other => panic!("torn forwarding stores must fail the audit, got {other:?}"),
    }
}

#[test]
fn double_copy_is_caught_by_the_evac_audit() {
    // The claim CAS is skipped and the copy published twice: to-space
    // coverage no longer accounts for every cset object exactly once,
    // which the audit reports as a lost/duplicated publish.
    match run_evac_victim(EvacFault::DoubleCopy) {
        Err(ExecError::Oracle(_)) => {}
        other => panic!("double copies must fail the audit, got {other:?}"),
    }
}
