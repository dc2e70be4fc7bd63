//! Differential fuzzing for the m3gc pipeline.
//!
//! The paper's central claim — compiler-emitted tables describe every
//! pointer and derived value precisely, at every gc-point, under every
//! optimization — is exactly the kind of invariant a compiler bug breaks
//! silently. This crate checks it from two independent directions:
//!
//! 1. **Differential execution** ([`exec`]): seeded random programs
//!    ([`gen`]) are compiled once at o0 and once at o2, and run through
//!    the reference interpreter and the VM matrix ({o0, o2} × two
//!    collectors on a table encoding rotated by the case seed, JIT twins,
//!    the parallel and concurrent collectors, serve) under gc torture;
//!    outputs and traps must agree everywhere.
//! 2. **The precision oracle**: every VM run executes in shadow mode
//!    (`m3gc_vm::shadow`), so missed pointers surface as stale-pointer
//!    traps and lying table entries are caught by the runtime oracle
//!    (`m3gc_runtime::oracle`) at each collection.
//!
//! Beside both, every case proves its two modules' tables lossless under
//! all six encodings without running them
//! (`m3gc_core::decode::check_lossless`).
//!
//! Failures report the reproducing case seed (re-run with
//! `m3c fuzz --seed <s> --iters 1`; the seed also fixes the rotated
//! encodings), the campaign prefix that ends at it, and, with shrinking
//! enabled, a 1-minimal program that still fails first in the same
//! configuration ([`shrink`]).

pub mod exec;
pub mod gen;
pub mod shrink;

use m3gc_frontend::render::render_module;

/// Fuzzing campaign options.
#[derive(Debug, Clone, Copy)]
pub struct FuzzOptions {
    /// Base seed; iteration `n` uses case seed `seed + n`.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub iters: u64,
    /// Minimize a failing program by whole-statement deletion.
    pub shrink: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions { seed: 1, iters: 100, shrink: true }
    }
}

/// A reproducible fuzzing failure.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The case seed that reproduces this failure standalone.
    pub case_seed: u64,
    /// Which iteration of the campaign hit it.
    pub iteration: u64,
    /// What went wrong, prefixed with the offending configuration.
    pub detail: String,
    /// The generated program.
    pub program: String,
    /// The 1-minimal program, when shrinking was enabled and the
    /// failure survived re-rendering.
    pub minimized: Option<String>,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fuzz failure at case seed {} (iteration {}):",
            self.case_seed, self.iteration
        )?;
        writeln!(f, "  {}", self.detail)?;
        writeln!(f, "reproduce with: m3c fuzz --seed {} --iters 1", self.case_seed)?;
        // A stop that depends on thread timing may not recur in a lone
        // case; the campaign prefix replays the cases before it too.
        let start = self.case_seed.wrapping_sub(self.iteration);
        writeln!(
            f,
            "or the campaign prefix: m3c fuzz --seed {start} --iters {}",
            self.iteration + 1
        )?;
        let src = self.minimized.as_deref().unwrap_or(&self.program);
        let kind = if self.minimized.is_some() { "minimized" } else { "generated" };
        write!(f, "--- {kind} program ---\n{src}")
    }
}

/// Campaign summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct FuzzSummary {
    /// Programs checked conclusively.
    pub checked: u64,
    /// Programs skipped because the reference run was inconclusive.
    pub skipped: u64,
}

/// Runs a fuzzing campaign. `progress` is called after each iteration
/// with (iteration, case seed).
///
/// # Errors
///
/// Returns the first [`FuzzFailure`].
pub fn run_campaign(
    opts: &FuzzOptions,
    mut progress: impl FnMut(u64, u64),
) -> Result<FuzzSummary, Box<FuzzFailure>> {
    let mut summary = FuzzSummary::default();
    for iteration in 0..opts.iters {
        let case_seed = opts.seed.wrapping_add(iteration);
        let module = gen::generate(case_seed);
        let program = render_module(&module);
        match exec::check_program(&program, case_seed) {
            Ok(true) => summary.checked += 1,
            Ok(false) => summary.skipped += 1,
            Err(detail) => {
                let minimized = if opts.shrink {
                    let min = shrink::shrink(&module, |src| {
                        exec::same_failure(&detail, &exec::check_program(src, case_seed))
                    });
                    (min != program).then_some(min)
                } else {
                    None
                };
                return Err(Box::new(FuzzFailure {
                    case_seed,
                    iteration,
                    detail,
                    program,
                    minimized,
                }));
            }
        }
        progress(iteration, case_seed);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failure_prints_the_case_and_the_campaign_prefix() {
        let failure = FuzzFailure {
            case_seed: 95,
            iteration: 35,
            detail: "[o2/serve-t2g8] boom".into(),
            program: "MODULE F; END F.".into(),
            minimized: None,
        };
        let text = failure.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"reproduce with: m3c fuzz --seed 95 --iters 1"), "{text}");
        assert!(lines.contains(&"or the campaign prefix: m3c fuzz --seed 60 --iters 36"), "{text}");
    }

    #[test]
    fn small_campaign_passes() {
        let summary =
            run_campaign(&FuzzOptions { seed: 0xF00D, iters: 4, shrink: false }, |_, _| {})
                .unwrap_or_else(|f| panic!("{f}"));
        assert!(summary.checked + summary.skipped == 4);
    }
}
