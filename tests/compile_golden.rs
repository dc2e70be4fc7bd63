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
const GOLDEN: u64 = 0xb899_d7a4_7588_1247;

/// One hex digit per program and configuration, in the same order: the
/// low nibble of that module's own FNV-1a. Only read on a mismatch, to
/// name the first module that changed.
const DIGESTS: &str = concat!(
    "ffaa9966ff99661166ccbb445511009944774444dd00bb227766aa331199bb9988ee226688444400",
    "55ddffee22cc55aa0066668866ee11aa55cccc336644cc66aa2200aa2244224400ccdd22aa330066",
    "cc889900bb22bbff553333ccee0055aa55aacc66773377aa44ccdd44dd3388bb22555544ccdd4411",
    "1122cc33dd4455668811559944bb66ff110000886622773322aa44dd8833ffee66226622aa88cc77",
    "11aaff553344661166bbcc44aa22cccc441133ffdd00cc225522aaffbb6611cc11eecc8866660088",
    "cc000055ee5577ddaaff333355664477779988ccffbbbb6622aa55bb4477883388bb116666aacc99",
    "99998899001166ff2299446600ee77ccaabb5522bbccaa448811ddff8800883311dd1133ffee2211",
    "dd99bb88eeff7744ff22cc229933ee33224433ffaa33229922cc66bbdd5533ffaaeeffeeee005522",
    "dd77ff66cc7766dd6600ff55ffff66771111aa00cc5544664400bb66881122bb77aabb00eeddbbaa",
    "ee99447777ff7755774400cc88553366ccaa88bbaa44000000cc7733ccddaa774455ffff0066bb00",
    "88bb5577ffaa88aa5577aa99bbbb66eeffcc55bbdd11ff77118866dd0044ee88ffbbbb00dd6611ff",
    "33446611aabbbb66446644776666ffaa99dd6655bbff1133aaee222299117711aa55bbaa66ff6655",
    "dd9944ee0066cc77999911dd88bbcc11ff22dd7722aaffddbb8899880022aabb22ffaa0099447722",
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
