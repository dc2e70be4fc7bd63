//! The precision oracle's shadow costs what the program touches: its
//! one tag byte per word is zeroed memory (`Tag::NonPtr` is the zero
//! byte), not a `vec![Tag::NonPtr; n]` written at every `--oracle` build.
//! This file holds one test on purpose: it reads the process's resident
//! set, which a second test running beside it would disturb.

#![cfg(target_os = "linux")]

use m3gc::compiler::{compile, Options};
use m3gc::runtime::{Executor, RuntimeOptions};

/// This process's resident set in KiB (`VmRSS` in `/proc/self/status`).
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no VmRSS line in {status}"))
}

#[test]
fn a_shadowed_288_mb_machine_is_resident_only_where_touched() {
    let module = compile("MODULE P; BEGIN PutInt(7); END P.", &Options::o2()).expect("compiles");
    let options = RuntimeOptions::new().semi_words(1 << 24).shadow(true);
    let before = vm_rss_kib();
    let vm = options.build_machine(module);
    let grown_mib = vm_rss_kib().saturating_sub(before) / 1024;
    // Eagerly written: 8 bytes of word plus 1 byte of tag per word.
    let eager_mib = vm.mem.len() * (8 + 1) / (1 << 20);
    assert!(eager_mib >= 288, "the machine is not the size this test means: {eager_mib} MiB");
    assert!(grown_mib < 32, "building the machine made {grown_mib} MiB of {eager_mib} resident");
    let out = Executor::new(vm, options).run_main().expect("runs");
    assert_eq!(out.output, "7");
}
