//! Same source, same output: the code and encoded gc tables the compiler
//! emits for the paper's four programs and 256 generated ones, at `o0`
//! and `o2` under both ambiguity strategies, hash to one pinned value.
//! A change that makes an analysis cheaper must leave it alone.
//!
//! A change that alters the output on purpose (a new gc-point key, a new
//! optimization) updates `GOLDEN` and `DIGESTS` from the values this test
//! prints and says so in its description.

use m3gc::compiler::{compile, compile_to_ir, Options};
use m3gc::frontend::render::render_module;
use m3gc::ir::deriv::analyze_and_resolve;
use m3gc::ir::liveness::liveness;
use m3gc::ir::Temp;
use m3gc::opt::PathStrategy;

const PAPER: [(&str, &str); 4] = [
    ("typereg", include_str!("../crates/bench/programs/typereg.m3")),
    ("FieldList", include_str!("../crates/bench/programs/fieldlist.m3")),
    ("takl", include_str!("../crates/bench/programs/takl.m3")),
    ("destroy", include_str!("../crates/bench/programs/destroy.m3")),
];

/// FNV-1a over every module's `code` then `gc_maps.bytes`: program by
/// program in [`corpus`] order, each in the four [`configs`].
const GOLDEN: u64 = 0xdf49_c236_defb_2563;

/// One hex digit per program and configuration, in the same order: the
/// low nibble of that module's own FNV-1a. Only read on a mismatch, to
/// name the first module that changed.
const DIGESTS: &str = concat!(
    "66bb00ffff99ff44eedd7744bbaaccee55dd553300ee11aa668877aa44cc997788883344aacc66cc",
    "9911dd2277bb66aa9944cc1199ff22bbaa88cc22778866334400ccddbb3388441133ddcc66ccbbbb",
    "2288eecc9944331122dd550066221177aa3377bb55ffdd88ddddaaffccaaccdddd00aa6677aadd55",
    "4499228888ee66cc662277113388ee3311ff9977557777ff0099cc33dd558888ddddcc665588aa44",
    "dd662233ff552233bb11cc445588222200555555886666ff6677aadd99ee22ddffff7766aa887766",
    "33bb66ddee99aa55ff8855335555aa5544775555aa3355cccc66ee114488cc99110044997733eedd",
    "dd66aa00aadd5577ddccaa6633cc33885588aa77ee55556699889900bbdd7766ffaa004466ff5599",
    "113388aaff3322ffbb22dd7700bbff2299ffaadddd009900aa55ffaaffbbdd118833333300ffff88",
    "eedd227755770022ff66ee00ee0066bbffff66ddaa22aa3366aa003300aabbddff662244006622aa",
    "44ff22dd66ccee330077ddcc99eedd6611bbee771166bb2255220000bbbb55cc5500ff1199bb44cc",
    "22774422772266dd557799aa995511ffbb33cc88bb6688dd113322443377dd5511ff881144bb8866",
    "66445555ffdd4444ffbb55bb444400226677000066111133bb990033115522dd991177224411ffee",
    "22aaff558899ee336633776688666655223355cc0033cc66ff6688ddddaa3311556655dd55ddaa55",
);

/// The paper's programs, then `gen::generate(0..256)`.
fn corpus() -> Vec<(String, String)> {
    let paper = PAPER.iter().map(|&(name, src)| (name.to_string(), src.to_string()));
    let fuzz = (0..256)
        .map(|seed| (format!("fuzz-{seed}"), render_module(&m3gc_fuzz::gen::generate(seed))));
    paper.chain(fuzz).collect()
}

fn configs() -> [(&'static str, Options); 4] {
    [
        ("o0/variables", Options::o0()),
        ("o0/splitting", Options::o0().with_path_strategy(PathStrategy::Splitting)),
        ("o2/variables", Options::o2()),
        ("o2/splitting", Options::o2().with_path_strategy(PathStrategy::Splitting)),
    ]
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn corpus_compiles_to_the_pinned_bytes() {
    let mut all = FNV_OFFSET;
    let mut digests = String::new();
    let mut labels = Vec::new();
    for (name, source) in corpus() {
        for (config, options) in configs() {
            let module = compile(&source, &options).unwrap_or_else(|e| panic!("{name}: {e}"));
            all = fnv(fnv(all, &module.code), &module.gc_maps.bytes);
            let own = fnv(fnv(FNV_OFFSET, &module.code), &module.gc_maps.bytes);
            digests.push(char::from_digit((own & 0xf) as u32, 16).expect("a nibble"));
            labels.push(format!("{name} at {config}"));
        }
    }
    if all != GOLDEN {
        let first = DIGESTS
            .chars()
            .zip(digests.chars())
            .position(|(old, new)| old != new)
            .map_or("none found by the digests".to_string(), |i| labels[i].clone());
        let rows: String = digests
            .as_bytes()
            .chunks(80)
            .map(|row| format!("    \"{}\",\n", String::from_utf8_lossy(row)))
            .collect();
        panic!(
            "compiler output changed: GOLDEN is now {all:#018x} (pinned {GOLDEN:#018x}); \
             first differing module: {first}\nDIGESTS is now concat!(\n{rows});"
        );
    }
}

/// The dead-base support liveness expands once per analysis is the set
/// `DerivAnalysis::expand_support` lists for every derived temp.
#[test]
fn cached_supports_are_the_expanded_supports() {
    let mut derived = 0;
    for seed in 0..32 {
        let source = render_module(&m3gc_fuzz::gen::generate(seed));
        for (config, options) in configs() {
            let mut prog = compile_to_ir(&source, &options).expect("generated programs compile");
            for f in &mut prog.funcs {
                let deriv = analyze_and_resolve(f);
                let lv = liveness(f, Some(&deriv));
                for t in (0..f.temp_count() as u32).map(Temp) {
                    let mut expanded = Vec::new();
                    deriv.expand_support(t, &mut expanded);
                    expanded.sort_unstable();
                    expanded.dedup();
                    assert_eq!(lv.support(t), expanded, "seed {seed} at {config}: {}", f.name);
                    derived += usize::from(deriv.is_derived(t));
                }
            }
        }
    }
    assert!(derived > 100, "the sample must derive values ({derived})");
}
