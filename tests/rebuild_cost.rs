//! Rebuilding a machine costs what the program touches, however many
//! machines the process built before. Machine memory is a fresh
//! anonymous mapping per machine (`m3gc_vm::pages::Zeroed`); from the
//! allocator, only a process's first large blocks are lazily zeroed, since
//! glibc raises its mmap threshold when that block is freed and every
//! later machine of the size then comes from recycled heap that calloc
//! writes whole (≈ 16.5 MB of resident growth for the third 2²⁰-word
//! machine). This file holds one test on purpose: it reads the process's
//! peak resident set, which a second test running beside it would
//! disturb. The 2 MiB bound assumes base pages on first touch: where
//! transparent huge pages are `always` rather than `madvise`, one touch
//! can fault in 2 MiB at once.

#![cfg(target_os = "linux")]

use m3gc::compiler::{compile, Options};
use m3gc::runtime::{Executor, GcStrategy, ParExecutor, RuntimeOptions};

/// This process's peak resident set in KiB (`VmHWM` in
/// `/proc/self/status`).
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no VmHWM line in {status}"))
}

#[test]
fn every_rebuilt_machine_is_resident_only_where_touched() {
    let module = compile("MODULE P; BEGIN PutInt(7); END P.", &Options::o2()).expect("compiles");
    let seq = RuntimeOptions::new().semi_words(1 << 20);
    let par = seq.strategy(GcStrategy::Parallel);
    let mut grown_kib = Vec::new();
    for kind in ["Machine", "ParMachine"] {
        for _ in 0..4 {
            let before = vm_hwm_kib();
            let output = if kind == "Machine" {
                let vm = seq.build_machine(module.clone());
                Executor::new(vm, seq).run_main().expect("runs").output
            } else {
                let vm = par.build_par_machine(module.clone());
                ParExecutor::new(vm, par).run_main().expect("runs").output
            };
            assert_eq!(output, "7");
            grown_kib.push((kind, vm_hwm_kib() - before));
        }
    }
    // Eagerly written, each machine would be 16 MiB of heap alone.
    for (i, &(kind, kib)) in grown_kib.iter().enumerate() {
        assert!(
            kib < 2 * 1024,
            "{kind} {} of 4 grew the peak by {kib} KiB: {grown_kib:?}",
            i % 4 + 1
        );
    }
}
