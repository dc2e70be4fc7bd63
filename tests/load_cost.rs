//! Loading a machine costs what the program touches. `ParMachine`'s
//! memory, shadow tags and cms bitmaps come from zeroed allocations the
//! kernel fills in on first touch, so building one is as cheap as
//! `Machine`'s `vec![0; n]` however large its semispaces are. This file
//! holds one test on purpose: it reads the process's resident set,
//! which a second test running beside it would disturb.

#![cfg(target_os = "linux")]

use m3gc::compiler::{compile, Options};
use m3gc::runtime::{GcStrategy, ParExecutor, RuntimeOptions};

const LIST_SUM: &str = "MODULE S;
TYPE L = REF RECORD v: INTEGER; next: L END;
PROCEDURE Sum(): INTEGER =
VAR l: L; i, s: INTEGER;
BEGIN
  l := NIL;
  FOR i := 1 TO 100 DO
    WITH c = NEW(L) DO c.v := i; c.next := l; l := c; END;
  END;
  s := 0;
  WHILE l # NIL DO s := s + l.v; l := l.next; END;
  RETURN s;
END Sum;
BEGIN PutInt(Sum()); END S.";

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
fn a_300_mb_par_machine_is_resident_only_where_touched() {
    let module = compile(LIST_SUM, &Options::o2()).expect("compiles");
    let options = RuntimeOptions::new().strategy(GcStrategy::Cms).semi_words(1 << 24).shadow(true);
    let before = vm_rss_kib();
    let vm = options.build_par_machine(module);
    let grown_mib = vm_rss_kib().saturating_sub(before) / 1024;
    // Eagerly written: 8 bytes of word plus 1 byte of tag per word, and
    // the cms mark and dirty bitmaps at 1 bit each.
    let eager_mib = vm.mem_words() * (8 + 1) / (1 << 20) + vm.mem_words() / 4 / (1 << 20);
    assert!(eager_mib >= 290, "the machine is not the size this test means: {eager_mib} MiB");
    assert!(grown_mib < 32, "building the machine made {grown_mib} MiB of {eager_mib} resident");
    let out = ParExecutor::new(vm, options).run_main().expect("runs");
    assert_eq!(out.output, "5050");
}
