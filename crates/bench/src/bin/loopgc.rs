//! Ablation **A2** (§5.3): loop gc-points on vs off.
//!
//! With pre-emptive threads, a collection may be requested while a thread
//! sits in a computational loop that never allocates; the paper inserts a
//! gc-point in every loop without a guaranteed one so resumed threads
//! reach a gc-point in bounded time. This experiment measures what the
//! insertion costs (gc-points, table bytes, code bytes, dynamic steps)
//! and demonstrates the failure mode it prevents: with loop gc-points
//! off, a thread spinning in a pure loop never reaches a gc-point and the
//! collection protocol gets stuck.

use m3gc_compiler::{compile, GcConfig, Options};
use m3gc_core::stats::table_stats;
use m3gc_runtime::scheduler::{ExecError, Executor};
use m3gc_runtime::RuntimeOptions;

/// Thread 1 spins in a non-allocating loop; thread 0 allocates until a
/// collection is needed.
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
VAR r: R; i: INTEGER;
BEGIN
  FOR i := 1 TO 300 DO
    r := NEW(R);
    r.x := i;
  END;
  PutInt(r.x);
END Spin.";

fn build(loop_gc_points: bool) -> m3gc_vm::VmModule {
    let gc = GcConfig { emit_tables: true, loop_gc_points };
    compile(SRC, &Options::o2().with_gc(gc)).expect("compiles")
}

fn run_two_threads(loop_gc_points: bool) -> Result<(u64, u64), ExecError> {
    let module = build(loop_gc_points);
    let opts =
        RuntimeOptions::new().semi_words(256).stack_words(4096).max_threads(3).max_advance(200_000);
    let machine = opts.build_machine(module);
    let mut ex = Executor::new(machine, opts);
    ex.machine.spawn(ex.machine.module.main, &[]);
    let spin =
        ex.machine.module.procs.iter().position(|p| p.name == "Spin").expect("spin proc") as u16;
    // A long spin: far more iterations than the advance budget allows
    // without a gc-point.
    ex.machine.spawn(spin, &[2_000_000]);
    let out = ex.run()?;
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
    println!("\nTwo threads: one allocating, one spinning in a pure loop:");
    match run_two_threads(true) {
        Ok((gcs, steps)) => {
            println!("  ON : completed, {gcs} collections, {steps} steps");
        }
        Err(e) => println!("  ON : UNEXPECTED failure: {e}"),
    }
    match run_two_threads(false) {
        Ok((gcs, steps)) => println!(
            "  OFF: completed ({gcs} collections, {steps} steps) — only possible if \
             the spinner finished before the first collection"
        ),
        Err(ExecError::StuckThread { thread }) => println!(
            "  OFF: stuck — thread {thread} never reached a gc-point \
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
