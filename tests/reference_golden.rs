//! Same program, same fuel, same outcome: the reference interpreter's
//! `Result<Outcome, Trap>` over the paper's four programs and 256
//! generated ones hashes to one pinned value, and so does a fuel sweep of
//! every generated program. The reference is the semantics every other
//! run is checked against; a change that makes it faster must leave this
//! hash alone.
//!
//! The sweep runs each generated program (its unoptimised IR, as the
//! differential fuzzer and the ledger run it) at fuel `0..40`,
//! `S-3..=S+1` and 16 pseudo-random budgets in `0..S`, where `S` is the
//! step at which the full run ends. A second test states the property
//! the sweep samples: below `S` the run is exactly `Err(OutOfFuel)`, at
//! or above it exactly the full result.

use m3gc::compiler::{compile_to_ir, Options};
use m3gc::frontend::render::render_module;
use m3gc::ir::interp::{run_program, Interp, Outcome, Trap, DEFAULT_FUEL};
use m3gc::ir::Program;
use m3gc_testkit::Rng;
use programs::PAPER;

mod programs;

/// FNV-1a over the rendered outcome of every full run: each program in
/// [`corpus`] order, its unoptimised IR then its `o2` IR.
const FULL_GOLDEN: u64 = 0x8d5e_78b8_e3ed_edc7;

/// One hex digit per program and IR, in the same order: the low nibble
/// of that run's own FNV-1a. Only read on a mismatch, to name the first
/// run that changed.
const FULL_DIGESTS: &str = concat!(
    "88b731c9a199d6999999999914f599fb332ed4979998ae1f9999ec99d06470be43337b9999999999",
    "867b85ea997799949999e30a9999a67a999e15b599992b9433ca04cc99ae99999999998f3d709999",
    "33a291ea9933db99a07c9999d6fc9933baf08c994799c8993b17f5775ddb99999999a8994f0a791a",
    "f9f77d99b2ca339999b3999955339ba527339999ad7b599999f03399dcf90b1afb4b999999999999",
    "2a209999c294c30adaf84d99bb9999999c9999a9ad996399540d33994b999999993330539999cf71",
    "0f99d71e9999999933ed619947c7999999992033993f999999e3991a999933d2cc3f3399996c2918",
    "999917529799ceb141ca6321cd99999999999999",
);

/// FNV-1a over the fuel sweep: each generated program in seed order, the
/// step at which its full run ends, then the rendered outcome of every
/// budget in [`budgets`] order.
const SWEEP_GOLDEN: u64 = 0xb47e_2a8c_d65f_aae0;

/// One hex digit per generated program: the low nibble of the FNV-1a of
/// its own sweep. Only read on a mismatch.
const SWEEP_DIGESTS: &str = concat!(
    "a1cf0a0c719ebdfa357bc272d975313c54900f9fb2f4e086d732760ee5a72a463c9c806fc6c76e29",
    "68b29c71e35359b718b73212a2c8f9c03ab51873651b2fca816dcf3ab2a24f2bb9f53d4be93e982e",
    "911a55ee43e5ac03303b59a659a757775e71f45ac562adadf60775b9ca81ecddecbc2a61a568ab86",
    "cb73e240936ff7e9",
);

/// The paper's programs, then `gen::generate(0..256)`.
fn corpus() -> Vec<(String, String)> {
    let paper = PAPER.iter().map(|&(name, src)| (name.to_string(), src.to_string()));
    paper.chain(fuzz_corpus()).collect()
}

fn fuzz_corpus() -> impl Iterator<Item = (String, String)> {
    (0..256u64).map(|seed| (format!("fuzz-{seed}"), render_module(&m3gc_fuzz::gen::generate(seed))))
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One line per run: every field of the outcome, or the trap.
fn render(r: &Result<Outcome, Trap>) -> String {
    match r {
        Ok(o) => format!(
            "ok result={:?} steps={} allocations={} output={:?}\n",
            o.result, o.steps, o.allocations, o.output
        ),
        Err(t) => format!("trap {t:?}\n"),
    }
}

fn run_with(program: &Program, fuel: u64) -> Result<Outcome, Trap> {
    let mut interp = Interp::new(program);
    interp.set_fuel(fuel);
    interp.run()
}

fn unoptimised(name: &str, source: &str) -> Program {
    m3gc::frontend::compile_to_ir(source).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The step at which the full run of `program` ends: its step count when
/// it returns, else the least budget that reaches its trap. `None` when
/// even [`DEFAULT_FUEL`] does not.
fn full_steps(program: &Program, full: &Result<Outcome, Trap>) -> Option<u64> {
    match full {
        Ok(o) => Some(o.steps),
        Err(Trap::OutOfFuel) => None,
        Err(_) => {
            // The smallest fuel that does not run out: fuel `hi` reaches
            // the trap, fuel `lo` does not (every run takes at least one
            // step, so fuel 0 never does).
            let (mut lo, mut hi) = (0u64, DEFAULT_FUEL);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if run_with(program, mid) == Err(Trap::OutOfFuel) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            Some(hi)
        }
    }
}

/// The sweep's budgets for a program whose full run ends at step `s`.
fn budgets(seed: u64, s: u64) -> Vec<u64> {
    let mut fuels: Vec<u64> = (0..40).collect();
    fuels.extend(s.saturating_sub(3)..=s + 1);
    let mut rng = Rng::new(0x5eed_f0e1 ^ seed);
    fuels.extend((0..16).map(|_| if s == 0 { 0 } else { rng.below(s) }));
    fuels
}

/// Panics naming the first run whose digest moved, and prints the new
/// constants.
fn check(what: &str, all: u64, golden: u64, digests: &str, pinned: &str, labels: &[String]) {
    if all == golden {
        return;
    }
    let first = pinned
        .chars()
        .zip(digests.chars())
        .position(|(old, new)| old != new)
        .map_or("none found by the digests".to_string(), |i| labels[i].clone());
    panic!(
        "{what} changed: the hash is now {all:#018x} (pinned {golden:#018x}); \
         first differing run: {first}\ndigests are now \"{digests}\""
    );
}

#[test]
fn corpus_runs_to_the_pinned_outcomes() {
    let mut all = FNV_OFFSET;
    let mut digests = String::new();
    let mut labels = Vec::new();
    let mut traps = 0;
    for (name, source) in corpus() {
        let o2 = compile_to_ir(&source, &Options::o2()).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (ir, program) in [("o0", unoptimised(&name, &source)), ("o2", o2)] {
            let r = run_program(&program);
            traps += usize::from(r.is_err());
            let line = render(&r);
            all = fnv(all, line.as_bytes());
            let own = fnv(FNV_OFFSET, line.as_bytes());
            digests.push(char::from_digit((own & 0xf) as u32, 16).expect("a nibble"));
            labels.push(format!("{name} at {ir}"));
        }
    }
    assert!(traps > 10, "the corpus must trap somewhere ({traps})");
    check("reference outcomes", all, FULL_GOLDEN, &digests, FULL_DIGESTS, &labels);
}

#[test]
fn fuel_sweep_runs_to_the_pinned_outcomes() {
    let mut all = FNV_OFFSET;
    let mut digests = String::new();
    let mut labels = Vec::new();
    for (seed, (name, source)) in fuzz_corpus().enumerate() {
        let program = unoptimised(&name, &source);
        let full = run_program(&program);
        let mut own = FNV_OFFSET;
        if let Some(s) = full_steps(&program, &full) {
            let end = format!("ends at step {s}\n");
            all = fnv(all, end.as_bytes());
            own = fnv(own, end.as_bytes());
            for fuel in budgets(seed as u64, s) {
                let line = render(&run_with(&program, fuel));
                all = fnv(all, line.as_bytes());
                own = fnv(own, line.as_bytes());
            }
        }
        digests.push(char::from_digit((own & 0xf) as u32, 16).expect("a nibble"));
        labels.push(name);
    }
    check("fuel-sweep outcomes", all, SWEEP_GOLDEN, &digests, SWEEP_DIGESTS, &labels);
}

/// Fuel is exact: a run whose full length is `S` steps gives exactly
/// `Err(OutOfFuel)` with any smaller budget and exactly the full result
/// with any budget of at least `S`.
#[test]
fn fuel_is_exact_at_every_sampled_budget() {
    let mut checked = 0;
    for (seed, (name, source)) in fuzz_corpus().enumerate() {
        let program = unoptimised(&name, &source);
        let full = run_program(&program);
        let Some(s) = full_steps(&program, &full) else { continue };
        let mut fuels = budgets(seed as u64, s);
        fuels.extend([s, s * 2, DEFAULT_FUEL]);
        for fuel in fuels {
            let got = run_with(&program, fuel);
            if fuel < s {
                assert_eq!(got, Err(Trap::OutOfFuel), "{name}: fuel {fuel} < {s} steps");
            } else {
                assert_eq!(got, full, "{name}: fuel {fuel} >= {s} steps");
            }
            checked += 1;
        }
    }
    assert!(checked > 256 * 60, "the sweep must cover every program ({checked})");
}
