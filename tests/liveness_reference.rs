//! The liveness solver's sets span only the temps that are upward-exposed
//! in some block; this test holds them against a naive reference that
//! spans every temp. For every function of the paper's programs and of
//! `gen::generate(0..256)`, lowered and after `o2`, each without and with
//! derivation info (the dead-base rule), every block's `live_in`,
//! `live_out` and `gen` must agree with the reference on every temp.

use m3gc::compiler::{compile_to_ir, Options};
use m3gc::frontend::render::render_module;
use m3gc::ir::bitset::BitSet;
use m3gc::ir::deriv::{analyze_and_resolve, DerivAnalysis};
use m3gc::ir::liveness::liveness;
use m3gc::ir::{Function, Temp};
use programs::PAPER;

mod programs;

/// Per-block sets over all temps, solved by round-robin iteration to the
/// least fixpoint: `gen` by a backward walk of each block, then
/// `out = ∪ in[succ]`, `in = gen ∪ (out − defs)` over the blocks the
/// entry reaches (the others keep empty sets).
struct Reference {
    live_in: Vec<BitSet>,
    live_out: Vec<BitSet>,
    gen: Vec<BitSet>,
}

fn reference(f: &Function, deriv: Option<&DerivAnalysis>) -> Reference {
    let n = f.temp_count();
    let support: Vec<Vec<Temp>> = (0..n as u32)
        .map(|t| {
            let mut support = Vec::new();
            if let Some(d) = deriv {
                d.expand_support(Temp(t), &mut support);
            }
            support
        })
        .collect();
    let use_temp = |t: Temp, set: &mut BitSet| {
        set.insert(t.index());
        for s in &support[t.index()] {
            set.insert(s.index());
        }
    };
    let mut gen = Vec::new();
    let mut defs = Vec::new();
    for block in &f.blocks {
        let (mut g, mut k) = (BitSet::new(n), BitSet::new(n));
        let mut uses = Vec::new();
        block.term.uses(&mut uses);
        for &t in &uses {
            use_temp(t, &mut g);
        }
        for ins in block.instrs.iter().rev() {
            if let Some(d) = ins.def() {
                g.remove(d.index());
                k.insert(d.index());
            }
            uses.clear();
            ins.uses(&mut uses);
            for &t in &uses {
                use_temp(t, &mut g);
            }
        }
        gen.push(g);
        defs.push(k);
    }
    let mut reached = vec![false; f.blocks.len()];
    let mut stack = vec![f.entry];
    while let Some(b) = stack.pop() {
        if !std::mem::replace(&mut reached[b.index()], true) {
            stack.extend(f.block(b).term.successors());
        }
    }
    let mut live_in = vec![BitSet::new(n); f.blocks.len()];
    let mut live_out = vec![BitSet::new(n); f.blocks.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for b in f.block_ids().filter(|b| reached[b.index()]) {
            let mut out = BitSet::new(n);
            for s in f.block(b).term.successors() {
                out.union_with(&live_in[s.index()]);
            }
            let mut inn = out.clone();
            inn.subtract(&defs[b.index()]);
            inn.union_with(&gen[b.index()]);
            changed |= out != live_out[b.index()] || inn != live_in[b.index()];
            live_out[b.index()] = out;
            live_in[b.index()] = inn;
        }
    }
    Reference { live_in, live_out, gen }
}

/// Checks `f` with and without the dead-base rule; returns how many temps
/// the reference found live into some block.
fn check(f: &Function, what: &str) -> usize {
    let mut resolved = f.clone();
    let deriv = analyze_and_resolve(&mut resolved);
    let mut live_somewhere = 0;
    for (f, deriv, rule) in [(f, None, "plain"), (&resolved, Some(&deriv), "dead-base")] {
        let lv = liveness(f, deriv);
        let want = reference(f, deriv);
        for b in f.block_ids() {
            let bi = b.index();
            let sets = [
                ("live_in", lv.live_in(b), &want.live_in[bi]),
                ("live_out", lv.live_out(b), &want.live_out[bi]),
                ("gen", lv.gen(b), &want.gen[bi]),
            ];
            for (set, got, want) in sets {
                let listed: Vec<usize> = got.iter().map(Temp::index).collect();
                let expected: Vec<usize> = want.iter().collect();
                assert_eq!(listed, expected, "{what} ({rule}): {} block {bi} {set}", f.name);
            }
            let [(_, live_in, want_in), (_, live_out, want_out), (_, gen, want_gen)] = sets;
            for t in (0..f.temp_count() as u32).map(Temp) {
                let got = (live_in.contains(t), live_out.contains(t), gen.contains(t));
                let i = t.index();
                let expected = (want_in.contains(i), want_out.contains(i), want_gen.contains(i));
                assert!(
                    got == expected,
                    "{what} ({rule}): {} block {bi} {t:?}: (in, out, gen) {got:?}, expected \
                     {expected:?}",
                    f.name
                );
            }
            live_somewhere += want_in.count();
        }
    }
    live_somewhere
}

/// Checks every function of `source`, lowered and after `o2`; returns
/// (functions, temps live into some block).
fn check_program(name: &str, source: &str) -> (usize, usize) {
    let (mut functions, mut live) = (0, 0);
    for (level, options) in [("lowered", Options::o0()), ("o2", Options::o2())] {
        let prog = compile_to_ir(source, &options).expect("corpus programs compile");
        for f in &prog.funcs {
            live += check(f, &format!("{name} {level}"));
            functions += 1;
        }
    }
    (functions, live)
}

#[test]
fn restricted_liveness_equals_the_all_temps_fixpoint() {
    let paper = PAPER.iter().map(|&(name, src)| (name.to_string(), src.to_string()));
    let fuzz = (0..256)
        .map(|seed| (format!("fuzz-{seed}"), render_module(&m3gc_fuzz::gen::generate(seed))));
    let corpus: Vec<(String, String)> = paper.chain(fuzz).collect();
    // Two halves on two threads: the check costs a test per temp per
    // block, which a debug build pays in full.
    let (functions, live) = std::thread::scope(|s| {
        let halves: Vec<_> = (0..2)
            .map(|half| {
                let corpus = &corpus;
                s.spawn(move || {
                    corpus.iter().skip(half).step_by(2).fold((0, 0), |(f, l), (name, source)| {
                        let (df, dl) = check_program(name, source);
                        (f + df, l + dl)
                    })
                })
            })
            .collect();
        halves.into_iter().fold((0, 0), |(f, l), h| {
            let (df, dl) = h.join().expect("a half panicked");
            (f + df, l + dl)
        })
    });
    assert!(functions > 2000, "the corpus must reach the solver ({functions} functions)");
    assert!(live > 10_000, "the corpus must keep temps live across blocks ({live})");
}
