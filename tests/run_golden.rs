//! Same program, same run: what the sequential executor does with the
//! paper's four programs and 32 generated ones — output, steps and every
//! collection count the ledger reads — hashes to one pinned value, on a
//! semispace heap and a generational one, each small enough to fill and
//! again under torture. Where the host compiles natively, the JIT must
//! give the interpreter's numbers exactly.
//!
//! A change to the executor, the machine or a collector must leave it
//! alone. A change that alters a run on purpose updates `GOLDEN` and
//! `DIGESTS` from the values this test prints and says so in its
//! description.

use m3gc::compiler::{compile, Options};
use m3gc::frontend::render::render_module;
use m3gc::runtime::{Executor, GcStrategy, RuntimeOptions};
use programs::PAPER;

mod programs;

/// FNV-1a over every run's [`fingerprint`]: program by program in
/// [`corpus`] order, each under both [`HEAPS`] in both [`PACES`].
const GOLDEN: u64 = 0x2a94_5e02_48bf_1056;

/// One hex digit per program and heap, in the same order: the low
/// nibble of that run's own fingerprint. Only read on a mismatch, to
/// name the first run that changed.
const DIGESTS: &str = concat!(
    "8f27e4914b4d763a2020eeeecfcfeeeeeeeeeeeeeeeeeeeed4d0b2beeeee717944443a36",
    "1e120b0beeeebdb1d0d0343feeeeeeeeb5b9eeee1b18d2ded8d8969ab3b244442020eeee",
);

/// Words per semispace: small enough that the paper's programs fill it.
const SEMI_WORDS: usize = 8192;

const HEAPS: [(&str, GcStrategy); 2] =
    [("semi", GcStrategy::Semispace), ("gen", GcStrategy::Generational)];

/// Collect when the heap fills, or also at every third allocation (the
/// generated programs allocate too little to fill a heap).
const PACES: [(&str, Option<u64>); 2] = [("filled", None), ("torture", Some(3))];

/// The paper's programs, then `gen::generate(0..32)`.
fn corpus() -> Vec<(String, String)> {
    let paper = PAPER.iter().map(|&(name, src)| (name.to_string(), src.to_string()));
    let fuzz = (0..32)
        .map(|seed| (format!("fuzz-{seed}"), render_module(&m3gc_fuzz::gen::generate(seed))));
    paper.chain(fuzz).collect()
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What one run did: its output, steps, collections (all, minor, major),
/// words copied, frames traced and gc-point decodes — or its error.
fn fingerprint(source: &str, options: RuntimeOptions) -> (String, bool) {
    let module = compile(source, &Options::o2()).expect("the corpus compiles");
    let mut ex = Executor::new(options.build_machine(module), options);
    let text = match ex.run_main() {
        Ok(out) => format!(
            "{:?} steps {} collections {} minor {} major {} copied {} frames {} decodes {}",
            out.output,
            out.steps,
            out.collections,
            out.minor_collections,
            out.major_collections,
            out.gc_total.words_copied,
            out.gc_total.frames_traced,
            out.gc_total.decode_ops,
        ),
        Err(e) => format!("error: {e}"),
    };
    let native = ex.jit_summary().is_some_and(|s| s.enabled);
    (text, native)
}

#[test]
fn corpus_runs_to_the_pinned_counts() {
    let mut all = FNV_OFFSET;
    let mut digests = String::new();
    let mut labels = Vec::new();
    let mut collected = 0;
    for (name, source) in corpus() {
        for ((heap, strategy), (pace, every)) in
            HEAPS.into_iter().flat_map(|h| PACES.map(|p| (h, p)))
        {
            let options = RuntimeOptions::new()
                .strategy(strategy)
                .semi_words(SEMI_WORDS)
                .force_every_allocs(every);
            let (run, _) = fingerprint(&source, options);
            let (jit, native) = fingerprint(&source, options.jit(true));
            if native {
                assert_eq!(
                    jit, run,
                    "{name} on {heap}, {pace}: the jit and the interpreter differ"
                );
            }
            collected += usize::from(!run.contains("collections 0 "));
            let own = fnv(FNV_OFFSET, run.as_bytes());
            all = fnv(all, run.as_bytes());
            digests.push(char::from_digit((own & 0xf) as u32, 16).expect("a nibble"));
            labels.push(format!("{name} on {heap}, {pace}: {run}"));
        }
    }
    assert!(collected > 100, "the heap must be small enough to collect ({collected} runs did)");
    if all != GOLDEN {
        let first = DIGESTS
            .chars()
            .zip(digests.chars())
            .position(|(old, new)| old != new)
            .map_or("none found by the digests".to_string(), |i| labels[i].clone());
        let rows: String = digests
            .as_bytes()
            .chunks(72)
            .map(|row| format!("    \"{}\",\n", String::from_utf8_lossy(row)))
            .collect();
        panic!(
            "a run changed: GOLDEN is now {all:#018x} (pinned {GOLDEN:#018x}); \
             first differing run: {first}\nDIGESTS is now concat!(\n{rows});"
        );
    }
}
