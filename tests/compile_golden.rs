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
const GOLDEN: u64 = 0xf2b2_fee2_a48c_f279;

/// One hex digit per program and configuration, in the same order: the
/// low nibble of that module's own FNV-1a. Only read on a mismatch, to
/// name the first module that changed.
const DIGESTS: &str = concat!(
    "ffaa99eeff99ffffccff7744cccc446655ddeedd00ee55cc11cc77aaee22997788883344aacc11dd",
    "aa00dd22aa5555779944771199ffee999988cc227788ee444400335588dd55ff1133bbaa55eebbbb",
    "2288eecc2222ffbbaa77550066227711ff4477bb6644dd88779922bbccaa8844dd0099ff77aabbbb",
    "4499ee66cc3355eeddee0022eeddaaee44cc9977992277ff0099cc33ff338877ee66cc88dd55aa44",
    "dd665577ff5522338899dd55558822220055ff99886666ff6677992299ee00ee11117766aa337766",
    "33bb3366ddee66bbff8855336611aa5555225555dd99bb55cc660077aa00ee6644ff449911ffddaa",
    "cc77aa00aadd0088ddccaa6633cc33883300442233aa77bb9988550033bbcc770033004466ff5599",
    "1133ffccdd7722ffbb22dd7733bbcc00eeeeee5566886699aa55ffaa11bbddccee443333aaffddff",
    "aa664455884455eedd883300119966bbffff66ddaa77bb0066aa11ee00aaee55bb0022449911cc99",
    "005533cc11cc668811cc6688aa99dd6611bbee773322770011ff0000ddddbb008855887799bb8866",
    "22774422aa33ee4455771133995511ff4488eeaabb66ddff77ff77aaeeaaaa6655cc11dd33990066",
    "bb3355557755ff9944ffddaa0000ee776677aa88117711339977ff6633aaee559911772299aa6677",
    "55773344994433668855776688666655cc55ff880033ff44bbee88ddcc44ffdd11cc55dd00ee7766",
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
