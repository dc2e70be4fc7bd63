//! Ablation **A2** (§5.3): loop gc-points on vs off.
//!
//! With pre-emptive threads, a collection may be requested while a thread
//! sits in a computational loop that never allocates; the paper inserts a
//! gc-point in every loop without a guaranteed one so resumed threads
//! reach a gc-point in bounded time. This experiment measures what the
//! insertion costs (gc-points, table bytes, code bytes, dynamic steps)
//! and demonstrates the failure mode it prevents on two OS-thread
//! mutators: with loop gc-points off, a mutator spinning in a pure loop
//! never reaches a gc-point and the stop-the-world handshake gets stuck.

use m3gc_compiler::{compile, run_module_par, GcConfig, Options};
use m3gc_core::stats::table_stats;
use m3gc_runtime::scheduler::ExecError;
use m3gc_runtime::RuntimeOptions;

/// Each mutator alternates an allocation with a long allocation-free
/// spin. Once two mutators drift apart, a collection requested by one
/// finds the other mid-spin.
const SRC: &str = "MODULE Spin;
TYPE R = REF RECORD x: INTEGER END;
PROCEDURE Spin(n: INTEGER): INTEGER =
VAR i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO n DO
    s := (s + i) MOD 1000003;
  END;
  RETURN s;
END Spin;
PROCEDURE Work(): INTEGER =
VAR r: R; round, s: INTEGER;
BEGIN
  s := 0;
  FOR round := 1 TO 4 DO
    r := NEW(R);
    r.x := round;
    s := (s + r.x + Spin(2000000)) MOD 1000003;
  END;
  RETURN s;
END Work;
BEGIN
  PutInt(Work());
END Spin.";

fn build(loop_gc_points: bool) -> m3gc_vm::VmModule {
    let gc = GcConfig { emit_tables: true, loop_gc_points };
    compile(SRC, &Options::o2().with_gc(gc)).expect("compiles")
}

/// Two OS-thread mutators under torture (a collection at every
/// allocation); a mutator that runs 200 000 instructions past a
/// collection request without reaching a gc-point ends the run.
fn run_two_mutators(loop_gc_points: bool) -> Result<(u64, u64), ExecError> {
    let module = build(loop_gc_points);
    let opts = RuntimeOptions::new().gc_workers(2).torture(true).max_advance(200_000);
    let out = run_module_par(module, 1 << 12, 2, false, opts)?;
    Ok((out.collections, out.steps))
}

fn main() {
    println!("A2 (§5.3): loop gc-points on/off\n");
    for on in [true, false] {
        let module = build(on);
        let stats = table_stats(&module.logical_maps);
        println!(
            "loop gc-points {:<3}: code {:>5} B, tables {:>5} B, gc-points {:>3}",
            if on { "ON" } else { "OFF" },
            module.code_size(),
            module.gc_maps.bytes.len(),
            stats.total_gc_points,
        );
    }
    println!("\nTwo mutators, each allocating between pure-loop spins:");
    match run_two_mutators(true) {
        Ok((gcs, steps)) => {
            println!("  ON : completed, {gcs} collections, {steps} steps");
        }
        Err(e) => println!("  ON : UNEXPECTED failure: {e}"),
    }
    match run_two_mutators(false) {
        Ok((gcs, steps)) => println!(
            "  OFF: completed ({gcs} collections, {steps} steps) — only possible if \
             no collection was requested while the other mutator spun"
        ),
        Err(ExecError::StuckThread { .. }) => println!(
            "  OFF: stuck — a mutator never reached a gc-point \
             (the §5.3 failure mode the loop gc-points prevent)"
        ),
        Err(e) => println!("  OFF: failed: {e}"),
    }
    println!(
        "\nPaper shape check: loop gc-points add a modest number of gc-points\n\
         and table bytes, and are what bounds the advance-to-gc-point wait in\n\
         a pre-emptive multi-threaded environment."
    );
}
