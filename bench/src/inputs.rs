//! Input generation: every source text a workload runs is made here
//! from the workload seed and the frozen [`Scale`]; the programs under
//! test receive only the generated text.

use crate::constants::Scale;

const TAKL: &str = include_str!("../programs/takl.m3");
const FIELDLIST: &str = include_str!("../programs/fieldlist.m3");
const TYPEREG: &str = include_str!("../programs/typereg.m3");
const DESTROY: &str = include_str!("../programs/destroy.m3");
const SERVE: &str = include_str!("../programs/serve.m3");

/// A named source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Name used in reports and reproduction lines.
    pub name: String,
    /// Mini-Modula-3 source.
    pub source: String,
}

impl Program {
    fn new(name: &str, source: String) -> Program {
        Program { name: name.to_string(), source }
    }

    /// Source lines (the unit of `compile_klines_per_s`).
    #[must_use]
    pub fn lines(&self) -> usize {
        self.source.lines().count()
    }
}

/// Rewrites the declaration `name = <integer>;` to carry `value`.
///
/// # Errors
///
/// Fails unless the pattern occurs exactly once: a scaled program whose
/// constant was renamed must not silently run at its old size.
pub fn set_const(source: &str, name: &str, value: i64) -> Result<String, String> {
    let needle = format!("{name} = ");
    let mut found = None;
    for (at, _) in source.match_indices(&needle) {
        let standalone =
            source[..at].chars().next_back().is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        let rest = &source[at + needle.len()..];
        let digits = rest.chars().take_while(char::is_ascii_digit).count();
        if standalone && digits > 0 && rest[digits..].starts_with(';') {
            if found.is_some() {
                return Err(format!("scale constant `{name}` is declared more than once"));
            }
            found = Some((at + needle.len(), digits));
        }
    }
    let (start, len) =
        found.ok_or_else(|| format!("scale constant `{name} = <integer>;` not found"))?;
    Ok(format!("{}{}{}", &source[..start], value, &source[start + len..]))
}

fn scaled(name: &str, template: &str, consts: &[(&str, i64)]) -> Program {
    let mut source = template.to_string();
    for &(c, v) in consts {
        source = set_const(&source, c, v).unwrap_or_else(|e| panic!("programs/{name}.m3: {e}"));
    }
    Program::new(name, source)
}

/// `takl` at `Mas(3k, 2k, k)`.
#[must_use]
pub fn takl(k: i64) -> Program {
    scaled("takl", TAKL, &[("Scale", k)])
}

/// `FieldList` over `rounds` passes.
#[must_use]
pub fn fieldlist(rounds: i64) -> Program {
    scaled("fieldlist", FIELDLIST, &[("Rounds", rounds)])
}

/// `typereg` registering `types` synthetic types.
#[must_use]
pub fn typereg(types: i64) -> Program {
    scaled("typereg", TYPEREG, &[("Types", types)])
}

/// `destroy`; the seed picks the start of its in-language random
/// sequence, so each seed replaces a different series of subtrees.
#[must_use]
pub fn destroy(scale: &Scale, seed: u64) -> Program {
    let start = 1 + (seed.wrapping_mul(2_654_435_761) % 2_147_483_647) as i64;
    scaled(
        "destroy",
        DESTROY,
        &[
            ("Depth", scale.destroy_depth),
            ("Iterations", scale.destroy_iterations),
            ("Start", start),
        ],
    )
}

/// The serve handler; the seed shifts every request id.
#[must_use]
pub fn serve(scale: &Scale, seed: u64) -> Program {
    scaled("serve", SERVE, &[("Offset", serve_offset(scale, seed)), ("Period", scale.serve_period)])
}

/// Offset the seed adds to every request id.
#[must_use]
pub fn serve_offset(scale: &Scale, seed: u64) -> i64 {
    (seed.wrapping_mul(7919) % scale.serve_period as u64) as i64
}

/// The three `mutator-calls` programs.
#[must_use]
pub fn mutator_programs(scale: &Scale) -> Vec<Program> {
    vec![takl(scale.takl), fieldlist(scale.fieldlist_rounds), typereg(scale.typereg_types)]
}

/// The compile corpus: the four paper programs, the fixed core of fuzz
/// programs and `scale.corpus_seeded` more drawn from the seed.
#[must_use]
pub fn corpus(scale: &Scale, seed: u64) -> Vec<Program> {
    let mut out = mutator_programs(scale);
    out.push(destroy(scale, seed));
    let drawn = (0..scale.corpus_seeded).map(|i| seed.wrapping_mul(1000).wrapping_add(1000 + i));
    for fuzz_seed in (0..scale.corpus_core).chain(drawn) {
        let module = m3gc_fuzz::gen::generate(fuzz_seed);
        out.push(Program::new(
            &format!("fuzz-{fuzz_seed}"),
            m3gc_frontend::render::render_module(&module),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::QUICK;

    #[test]
    fn same_seed_same_corpus_bytes() {
        assert_eq!(corpus(&QUICK, 7), corpus(&QUICK, 7));
        assert_ne!(corpus(&QUICK, 7), corpus(&QUICK, 8));
        assert_eq!(destroy(&QUICK, 3), destroy(&QUICK, 3));
        assert_ne!(destroy(&QUICK, 3).source, destroy(&QUICK, 4).source);
        assert_ne!(serve(&QUICK, 3).source, serve(&QUICK, 4).source);
    }

    #[test]
    fn scale_substitution_rewrites_exactly_one_declaration() {
        let src = "CONST\n  Rounds = 15;  (* x *)\n  MoreRounds = 15;\nFOR r := 1 TO Rounds DO";
        let out = set_const(src, "Rounds", 6000).unwrap();
        assert!(out.contains("  Rounds = 6000;") && out.contains("MoreRounds = 15;"), "{out}");
    }

    #[test]
    fn scale_substitution_fails_loudly() {
        assert!(set_const("CONST Rounds = 15;", "Laps", 3).unwrap_err().contains("not found"));
        assert!(set_const("x := Rounds = 15", "Rounds", 3).is_err(), "needs the `;`");
        assert!(set_const("A = 1; B = 2; A = 3;", "A", 9).unwrap_err().contains("more than once"));
    }

    #[test]
    #[should_panic(expected = "programs/takl.m3")]
    fn scaled_program_panics_when_its_constant_is_gone() {
        let _ = scaled("takl", "MODULE T; BEGIN END T.", &[("Scale", 8)]);
    }

    #[test]
    fn every_template_carries_its_constants() {
        assert!(takl(8).source.contains("Scale = 8;"));
        assert!(fieldlist(77).source.contains("Rounds = 77;"));
        assert!(typereg(99).source.contains("Types = 99;"));
        let d = destroy(&QUICK, 1).source;
        assert!(d.contains("Depth = 5;") && d.contains("Iterations = 60;"));
        assert!(serve(&QUICK, 1).source.contains("Period = 400;"));
    }
}
