//! Region-lifetime edge cases for the allocation-service runtime.
//!
//! Every test runs under gc torture (a collection forced at every
//! allocation) with the precision oracle armed, so any region reset
//! that dropped a reachable object — or any gc-map imprecision in the
//! request snapshots — traps instead of silently corrupting.

use m3gc::compiler::{compile, run_module_serve, Options};
use m3gc::runtime::serve::ServeOutcome;
use m3gc::runtime::{GcStrategy, RuntimeOptions, ServeLoad};

fn serve(src: &str, opts: RuntimeOptions, requests: u64, burst: usize) -> ServeOutcome {
    let module = compile(src, &Options::o2()).expect("test program compiles");
    let load = ServeLoad { requests, burst, entry: Some("Handle".to_string()) };
    run_module_serve(module, opts, load).expect("serve run completes")
}

/// An object escapes its request's region into a module global, the
/// region is torn down, and the *next* request reads the escapee back:
/// the write-barrier escape check must force promotion instead of the
/// O(1) reset, and the promoted object must survive with its value.
#[test]
fn escape_promote_then_reclaim() {
    // One thread, one green slot: requests run strictly in sequence, so
    // the global handoff and the printed values are deterministic.
    let src = "MODULE Esc;
        TYPE R = REF RECORD id, v: INTEGER END;
        VAR keep: R;
        PROCEDURE Handle(id: INTEGER) =
        VAR junk: R; i: INTEGER;
        BEGIN
          IF keep # NIL THEN PutInt(keep.v); END;
          FOR i := 1 TO 20 DO junk := NEW(R); junk.v := i; END;
          WITH r = NEW(R) DO r.id := id; r.v := id * 3; keep := r; END;
        END Handle;
        BEGIN keep := NIL; END Esc.";
    let opts = RuntimeOptions::new()
        .strategy(GcStrategy::Parallel)
        .semi_words(1 << 14)
        .serve(256, 1)
        .threads(1)
        .gc_workers(2)
        .torture(true)
        .oracle(true);
    let out = serve(src, opts, 8, 1);
    // Request k reads request k-1's escapee: 0, 3, 6, … 18.
    assert_eq!(out.outputs.concat(), "0369121518", "wrong escapee values");
    let s = &out.stats;
    assert_eq!(s.requests, 8);
    assert!(s.region_escapes >= 8, "every request escapes, got {}", s.region_escapes);
    assert!(s.regions_zombied > 0, "escaped regions must exit as zombies");
    assert!(s.region_words_promoted > 0, "escapees must be promoted, not reset");
    assert!(s.region_words_reset > 0, "the garbage part of escaped regions must be reclaimed");
}

/// A slow request keeps a live region-local list across the dozens of
/// stop-the-world collections its torture-mode neighbours force: the
/// pinned region must be traced precisely (the list survives, sum
/// intact) while the fast requests' regions come and go around it.
#[test]
fn slow_request_pins_region_across_collections() {
    let src = "MODULE Pin;
        TYPE Node = REF RECORD v: INTEGER; next: Node END;
        PROCEDURE Handle(id: INTEGER) =
        VAR l, t: Node; i, s: INTEGER;
        BEGIN
          IF id = 0 THEN
            l := NIL;
            FOR i := 1 TO 40 DO
              WITH c = NEW(Node) DO c.v := i; c.next := l; l := c; END;
            END;
            s := 0;
            WHILE l # NIL DO s := s + l.v; l := l.next; END;
            PutInt(s);
          ELSE
            FOR i := 1 TO 10 DO t := NEW(Node); t.v := i; END;
          END;
        END Handle;
        BEGIN PutInt(0); END Pin.";
    let opts = RuntimeOptions::new()
        .strategy(GcStrategy::Parallel)
        .semi_words(1 << 14)
        .serve(512, 4)
        .threads(2)
        .gc_workers(2)
        .torture(true)
        .oracle(true);
    let out = serve(src, opts, 12, 4);
    let s = &out.stats;
    assert_eq!(s.requests, 12);
    assert!(s.collections > 10, "torture must force many collections, got {}", s.collections);
    // 1 + 2 + … + 40 = 820, printed by the pinned request after its
    // region survived the neighbours' collections.
    assert!(
        out.outputs.iter().any(|o| o.contains("820")),
        "slow request's region-local list was corrupted: outputs {:?}",
        out.outputs
    );
    assert!(
        s.regions_reclaimed_fast == s.regions_created,
        "nothing escapes here — every region must exit via the O(1) reset, got {}/{}",
        s.regions_reclaimed_fast,
        s.regions_created
    );
}

/// Request exits race the stop-the-world handshake: with a collection
/// forced at every allocation, two OS threads and eight green slots,
/// requests constantly finish (tearing their region down) while a
/// handshake is being gathered. The run must complete with every
/// request served and the oracle silent.
#[test]
fn request_exit_races_stw_handshake() {
    let src = "MODULE Race;
        TYPE R = REF RECORD v: INTEGER END;
        PROCEDURE Handle(id: INTEGER) =
        VAR r: R; i: INTEGER;
        BEGIN
          FOR i := 1 TO 3 DO r := NEW(R); r.v := id + i; END;
        END Handle;
        BEGIN PutInt(0); END Race.";
    let opts = RuntimeOptions::new()
        .strategy(GcStrategy::Parallel)
        .semi_words(1 << 14)
        .serve(64, 8)
        .threads(2)
        .gc_workers(2)
        .torture(true)
        .oracle(true);
    let out = serve(src, opts, 64, 8);
    let s = &out.stats;
    assert_eq!(s.requests, 64, "every admitted request must complete");
    assert_eq!(s.regions_created, 64);
    assert_eq!(
        s.regions_reclaimed_fast, 64,
        "purely request-local allocation must always take the O(1) reset"
    );
    assert!(s.collections > 0);
}

/// The allocation-service bar: on a request-local workload where one
/// request in ten leaks an object into a global, at least 90 % of all
/// region-allocated words are reclaimed by O(1) region reset rather
/// than promoted by tracing — with the oracle proving that no reset
/// dropped a reachable object.
#[test]
fn mostly_local_load_reclaims_ninety_percent_by_region_reset() {
    let src = "MODULE Mix;
        TYPE Node = REF RECORD v: INTEGER; next: Node END;
             Req = REF RECORD id: INTEGER END;
        VAR last: Req;
        PROCEDURE Handle(id: INTEGER) =
        VAR l: Node; i: INTEGER;
        BEGIN
          l := NIL;
          FOR i := 1 TO 40 DO
            WITH c = NEW(Node) DO c.v := i; c.next := l; l := c; END;
            IF i MOD 8 = 0 THEN l := NIL; END;
          END;
          IF id MOD 10 = 0 THEN
            WITH r = NEW(Req) DO r.id := id; last := r; END;
          END;
        END Handle;
        BEGIN last := NIL; END Mix.";
    let opts = RuntimeOptions::new()
        .strategy(GcStrategy::Parallel)
        .semi_words(1 << 14)
        .serve(512, 8)
        .threads(2)
        .gc_workers(2)
        .oracle(true);
    let out = serve(src, opts, 400, 8);
    let s = &out.stats;
    assert_eq!(s.requests, 400, "every admitted request must complete");
    assert_eq!(s.regions_created, 400, "one region per request");
    assert!(s.collections > 0, "zombie regions must drive collections");
    assert!(s.region_escapes > 0, "the escaping tenth must mark regions escaped");
    assert!(
        s.regions_reclaimed_fast * 2 > s.regions_created,
        "most requests must exit via the O(1) region reset, got {}/{}",
        s.regions_reclaimed_fast,
        s.regions_created
    );
    let ratio = s.region_reclaim_ratio();
    assert!(
        ratio >= 0.9,
        "region reset must recover >=90% of request-local words, got {:.1}% ({} of {} promoted)",
        ratio * 100.0,
        s.region_words_promoted,
        s.region_alloc_words
    );
}

/// Every request allocates three times its region: the overflow is a
/// shared allocation, bumped inside the slot's TLAB rather than CASed
/// onto the shared frontier object by object. Under torture and the
/// oracle on two threads the live overflow lists survive every
/// collection; on one thread each retiring buffer is still the newest
/// claim, so every unused tail goes back to the frontier.
#[test]
fn region_overflow_allocates_through_the_tlab() {
    let src = "MODULE Over;
        TYPE Node = REF RECORD v: INTEGER; next: Node END;
        PROCEDURE Handle(id: INTEGER) =
        VAR l: Node; i, s: INTEGER;
        BEGIN
          l := NIL;
          FOR i := 1 TO 64 DO
            WITH c = NEW(Node) DO c.v := id + i; c.next := l; l := c; END;
          END;
          s := 0;
          WHILE l # NIL DO s := s + l.v; l := l.next; END;
          PutInt(s);
        END Handle;
        BEGIN PutInt(0); END Over.";
    let requests = 24;
    let opts = RuntimeOptions::new()
        .strategy(GcStrategy::Parallel)
        .semi_words(1 << 14)
        .serve(64, 8)
        .gc_workers(2)
        .oracle(true);
    let two = serve(src, opts.threads(2).torture(true), requests, 8);
    // 64 three-word nodes summing to 64 * id + 1 + 2 + … + 64.
    for (id, reply) in two.outputs.iter().enumerate() {
        assert_eq!(*reply, (64 * id + 2080).to_string(), "request {id}");
    }
    let s = &two.stats;
    assert_eq!(s.requests, requests);
    assert!(s.tlab_refills > 0, "region overflow must refill TLABs");
    assert!(
        s.region_alloc_words < s.words_allocated,
        "the overflow must leave the region: {} of {} word(s) in regions",
        s.region_alloc_words,
        s.words_allocated
    );

    let one = serve(src, opts.threads(1), requests, 8);
    assert_eq!(one.outputs, two.outputs);
    assert!(one.stats.tlab_refills > 0);
    assert_eq!(one.stats.tlab_waste_words, 0, "one thread: every retired tail goes back");
}
