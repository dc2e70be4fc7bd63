//! The guts of the `m3c` command-line tool: each subcommand as a testable
//! function from (source, options) to printable output.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use m3gc_core::decode::{DecodeCache, DecodeError};
use m3gc_core::encode::Scheme;
use m3gc_core::stats::{size_report, table_stats};
use m3gc_frontend::error::{Diagnostic, Phase};
use m3gc_ir::verify::VerifyError;
use m3gc_runtime::scheduler::{ExecError, Executor};
use m3gc_runtime::{
    GcStrategy, ParExecutor, RuntimeOptions, ServeExecutor, ServeLoad, StatsReport,
};
use m3gc_vm::decode::decode_instr;
use m3gc_vm::{Instr, VmModule};

use crate::{compile, compile_timed, compile_to_ir, Options};

/// Default per-request region size (words) when `m3c serve` is invoked
/// without `--region-words`.
pub const DEFAULT_REGION_WORDS: usize = 1 << 12;

/// Errors surfaced to the CLI user, structured by pipeline stage.
///
/// Each variant wraps the underlying error type, so callers can match on
/// the failing stage and walk [`std::error::Error::source`]; `Display`
/// remains exactly the wrapped error's message (what the CLI prints).
#[derive(Debug)]
#[non_exhaustive]
pub enum DriverError {
    /// Lexical analysis failed.
    Lex(Diagnostic),
    /// Parsing failed.
    Parse(Diagnostic),
    /// Type checking failed.
    Type(Diagnostic),
    /// Code generation produced invalid IR or code.
    Codegen(VerifyError),
    /// The compiled module's gc tables failed to decode.
    Decode(DecodeError),
    /// Execution failed (trap, fuel, stuck thread).
    Runtime(ExecError),
    /// Malformed command line.
    Usage(String),
}

impl DriverError {
    fn usage(msg: impl Into<String>) -> DriverError {
        DriverError::Usage(msg.into())
    }
}

impl From<Diagnostic> for DriverError {
    /// Classifies a front-end diagnostic by its reporting phase.
    fn from(d: Diagnostic) -> DriverError {
        match d.phase {
            Phase::Lex => DriverError::Lex(d),
            Phase::Parse => DriverError::Parse(d),
            Phase::Type => DriverError::Type(d),
        }
    }
}

impl From<VerifyError> for DriverError {
    fn from(e: VerifyError) -> DriverError {
        DriverError::Codegen(e)
    }
}

impl From<DecodeError> for DriverError {
    fn from(e: DecodeError) -> DriverError {
        DriverError::Decode(e)
    }
}

impl From<ExecError> for DriverError {
    fn from(e: ExecError) -> DriverError {
        DriverError::Runtime(e)
    }
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Lex(d) | DriverError::Parse(d) | DriverError::Type(d) => d.fmt(f),
            DriverError::Codegen(e) => e.fmt(f),
            DriverError::Decode(e) => e.fmt(f),
            DriverError::Runtime(e) => e.fmt(f),
            DriverError::Usage(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for DriverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DriverError::Lex(d) | DriverError::Parse(d) | DriverError::Type(d) => Some(d),
            DriverError::Codegen(e) => Some(e),
            DriverError::Decode(e) => Some(e),
            DriverError::Runtime(e) => Some(e),
            DriverError::Usage(_) => None,
        }
    }
}

/// `m3c check`: parse and type-check only.
///
/// # Errors
///
/// Returns the first diagnostic.
pub fn check(source: &str) -> Result<String, DriverError> {
    let tokens = m3gc_frontend::lexer::lex(source)?;
    let module = m3gc_frontend::parser::parse(tokens)?;
    let checked = m3gc_frontend::typecheck::check(&module)?;
    Ok(format!(
        "module `{}`: {} procedure(s), {} global(s) — ok\n",
        module.name,
        module.procs.len(),
        checked.globals.len()
    ))
}

/// `m3c run`: compile and execute, returning program output (and
/// optionally gc statistics).
///
/// # Errors
///
/// Returns compile diagnostics or execution errors.
pub fn run(
    source: &str,
    options: &Options,
    config: impl Into<RuntimeOptions>,
) -> Result<String, DriverError> {
    let opts = config.into();
    check_options(&opts)?;
    let module = compile(source, options)?;
    // Surface malformed gc tables as a Decode error up front instead of a
    // panic inside the executor.
    let cache = DecodeCache::build(&module.gc_maps)?;
    if matches!(opts.strategy, GcStrategy::Parallel | GcStrategy::Cms) {
        return run_parallel(module, opts);
    }
    let total_points = cache.index().gc_point_pcs().count();
    let (machine, load_time) = timed(|| opts.build_machine(module));
    let mut ex = Executor::try_new(machine, opts)?;
    let out = ex.run_main()?;
    let mut s = out.output.clone();
    if opts.stats {
        let mut rep = StatsReport::new("run");
        rep.add_collector_summary(out.collections, &out.gc_total, out.steps);
        rep.add_decode_cache(
            out.gc_total.decode_hits,
            out.gc_total.decode_misses,
            out.gc_total.decode_ops,
            Some(total_points),
        );
        if opts.strategy == GcStrategy::Generational {
            rep.add_generational(
                out.minor_collections,
                out.major_collections,
                out.gc_total.promoted_objects,
                out.remembered_len,
                (
                    out.barrier.executed,
                    out.barrier.recorded,
                    out.barrier.deduped,
                    out.barrier.filtered(),
                ),
            );
        }
        if let Some(jit) = ex.jit_summary() {
            rep.add_jit(&jit);
        }
        rep.add_load(load_time);
        s.push_str(&rep.to_text());
    }
    Ok(s)
}

/// Runs `build` and says how long it took: the machine a run loads
/// before its first instruction, reported as `--- load: machine`.
fn timed<T>(build: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let built = build();
    (built, started.elapsed())
}

/// The `--gc=par` / `--gc=cms` path of [`run`]: `threads` OS-thread
/// mutators, each running the module body, with stop-the-world parallel
/// collection (or, for cms, concurrent SATB marking and a parallel
/// bitmap evacuation in the final pause).
fn run_parallel(module: m3gc_vm::VmModule, opts: RuntimeOptions) -> Result<String, DriverError> {
    let (vm, load_time) = timed(|| opts.build_par_machine(module));
    let mut ex = ParExecutor::new(vm, opts);
    let out = ex.run_main()?;
    let mut s = out.output.clone();
    if opts.stats {
        let name = if opts.strategy == GcStrategy::Cms { "run-cms" } else { "run-par" };
        let mut rep = StatsReport::new(name);
        rep.add_parallel(opts.threads, opts.gc_workers, out.collections, out.steps, &out.gc_each);
        if opts.strategy == GcStrategy::Cms {
            rep.add_cms(out.satb_enqueued, out.satb_drained, &out.gc_each);
        }
        rep.add_tlab(opts.tlab_words, out.tlab_refills, out.tlab_allocs, out.tlab_waste_words);
        if let Some(jit) = ex.jit_summary() {
            rep.add_jit(&jit);
        }
        rep.add_load(load_time);
        s.push_str(&rep.to_text());
    }
    Ok(s)
}

/// `m3c serve`: compile and run the allocation-service workload —
/// `load.requests` green-thread requests multiplexed over `threads` OS
/// threads, each allocating into a per-request region.
///
/// [`parse_serve_options`] applies serve's defaults. The report is
/// always printed (the whole point of the subcommand); `--stats` adds
/// nothing.
///
/// # Errors
///
/// Returns a usage error for options that fail
/// [`RuntimeOptions::check`], compile diagnostics, or the first failing
/// request's error (an unknown or unservable `--entry` included).
pub fn serve(
    source: &str,
    options: &Options,
    config: impl Into<RuntimeOptions>,
    load: ServeLoad,
) -> Result<String, DriverError> {
    let opts = config.into();
    check_options(&opts)?;
    let module = compile(source, options)?;
    DecodeCache::build(&module.gc_maps)?;
    let (vm, load_time) = timed(|| opts.build_par_machine(module));
    let mut ex = ServeExecutor::new(vm, opts, load);
    let out = ex.run()?;
    let (view, st) = (ex.config_view(), &out.stats);
    let mut rep = StatsReport::new("serve");
    rep.add_serve(view, st);
    rep.add_tlab(view.tlab_words, st.tlab_refills, st.tlab_allocs, st.tlab_waste_words);
    rep.add_load(load_time);
    Ok(rep.to_text())
}

/// `m3c ir`: dump the (optimized) IR.
///
/// # Errors
///
/// Returns compile diagnostics.
pub fn ir(source: &str, options: &Options) -> Result<String, DriverError> {
    let prog = compile_to_ir(source, options)?;
    Ok(m3gc_ir::pretty::program_to_string(&prog))
}

/// `m3c disasm`: dump the generated machine code with gc-points marked.
///
/// # Errors
///
/// Returns compile diagnostics.
pub fn disasm(source: &str, options: &Options) -> Result<String, DriverError> {
    let module = compile(source, options)?;
    Ok(m3gc_vm::disasm::disassemble(&module))
}

/// `m3c tables`: dump the gc-map tables in logical form.
///
/// # Errors
///
/// Returns compile diagnostics.
pub fn tables(source: &str, options: &Options) -> Result<String, DriverError> {
    let module = compile(source, options)?;
    let mut s = String::new();
    for proc in &module.logical_maps.procs {
        let _ = writeln!(s, "procedure `{}` (entry pc {}):", proc.name, proc.entry_pc);
        let _ = writeln!(
            s,
            "  ground table: {:?}",
            proc.ground.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        for pt in &proc.points {
            let slots: Vec<String> =
                pt.live_stack.iter().map(|&i| proc.ground[i as usize].to_string()).collect();
            let _ = writeln!(s, "  gc-point pc {:>5}: stack {:?} regs {}", pt.pc, slots, pt.regs);
            for d in &pt.derivations {
                let _ = writeln!(s, "     derivation {d}");
            }
        }
    }
    Ok(s)
}

/// `m3c stats`: code size, Table-1 statistics and Table-2 percentages,
/// then `--- opt:` with the time of each optimizer pass and `--- compile:`
/// with the time of each compiler stage.
///
/// # Errors
///
/// Returns compile diagnostics.
pub fn stats(source: &str, options: &Options) -> Result<String, DriverError> {
    let (module, times) = compile_timed(source, options)?;
    let st = table_stats(&module.logical_maps);
    let mut s = String::new();
    let _ = writeln!(s, "code size:        {} bytes", module.code_size());
    let _ = writeln!(s, "gc-points:        {} ({} non-empty)", st.total_gc_points, st.ngc);
    let (calls, with_tables) = call_tables(&module);
    let _ = writeln!(s, "calls:            {calls} ({with_tables} with tables)");
    let _ = writeln!(
        s,
        "tables:           NPTRS {} NDEL {} NREG {} NDER {}",
        st.nptrs, st.ndel, st.nreg, st.nder
    );
    for scheme in Scheme::TABLE2 {
        let r = size_report(&module.logical_maps, scheme, module.code_size());
        let _ = writeln!(
            s,
            "  {:<32} {:>6} B  {:>5.1}%",
            scheme.to_string(),
            r.total_bytes,
            r.percent_of_code
        );
    }
    let _ = writeln!(s, "--- opt: {}", times.passes);
    let _ = writeln!(s, "--- compile: {times}");
    Ok(s)
}

/// How many calls `module` makes, and how many of their return addresses
/// key a gc-point table (those whose callee may park).
fn call_tables(module: &VmModule) -> (usize, usize) {
    let pcs: HashSet<u32> =
        module.logical_maps.procs.iter().flat_map(|p| &p.points).map(|pt| pt.pc).collect();
    let (mut calls, mut with_tables) = (0, 0);
    let mut pos = 0;
    while let Some((ins, n)) = decode_instr(&module.code, pos) {
        pos += n;
        if matches!(ins, Instr::Call { .. }) {
            calls += 1;
            with_tables += usize::from(pcs.contains(&(pos as u32)));
        }
    }
    (calls, with_tables)
}

/// [`RuntimeOptions::check`] as a usage error: each message names the
/// flags that set the fields it is about.
fn check_options(config: &RuntimeOptions) -> Result<(), DriverError> {
    config.check().map_err(|e| DriverError::usage(e.to_string()))
}

/// Parses CLI-style option flags shared by the subcommands.
///
/// # Errors
///
/// Returns a usage error for unknown flags, malformed values, options
/// that fail [`RuntimeOptions::check`], or a flag the selected collector
/// would ignore.
pub fn parse_options(args: &[String]) -> Result<(Options, RuntimeOptions), DriverError> {
    let (options, config, _) = parse_all(args, false)?;
    Ok((options, config))
}

/// Parses flags for `m3c serve`: everything [`parse_options`] accepts
/// plus the load shape (`--requests`, `--burst`, `--entry`), with
/// serve's defaults applied before the check — the parallel runtime
/// (`--gc par`), [`DEFAULT_REGION_WORDS`]-word regions, four green
/// slots per OS thread and 100 requests. So a sequential `--gc`, `--gc
/// cms` or a `--nursery` is a usage error here.
///
/// # Errors
///
/// As [`parse_options`].
pub fn parse_serve_options(
    args: &[String],
) -> Result<(Options, RuntimeOptions, ServeLoad), DriverError> {
    parse_all(args, true)
}

fn parse_all(
    args: &[String],
    serve: bool,
) -> Result<(Options, RuntimeOptions, ServeLoad), DriverError> {
    let mut options = Options::o2();
    let mut config = RuntimeOptions::new();
    if serve {
        config.strategy = GcStrategy::Parallel;
    }
    let mut load = ServeLoad::default();
    // Whether `--gc-workers` or `--tlab-words` was typed: their fields
    // have plain-value defaults, so the struct alone cannot tell.
    let mut par_only = None;
    let mut it = args.iter();
    // A required numeric flag value, parsed or a usage error.
    fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, DriverError> {
        let v = v.ok_or_else(|| DriverError::usage(format!("{flag} needs a value")))?;
        v.parse().map_err(|_| DriverError::usage(format!("bad {flag} value `{v}`")))
    }
    // A count whose 0 would mean "off" (or serve's default) in the struct.
    fn count(flag: &str, v: Option<&String>) -> Result<usize, DriverError> {
        let n = value(flag, v)?;
        if n == 0 {
            return Err(DriverError::usage(format!("bad {flag} value `0`")));
        }
        Ok(n)
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--o0" => options = Options::o0().with_scheme(options.codegen.scheme),
            "--o2" => {}
            "--no-gc" => options.codegen.gc.emit_tables = false,
            "--split-paths" => {
                options = options.with_path_strategy(m3gc_opt::PathStrategy::Splitting);
            }
            "--torture" => config = config.torture(true),
            "--stats" => config = config.stats(true),
            "--oracle" => config = config.oracle(true),
            "--jit" => config = config.jit(true),
            "--heap" => config.semi_words = value("--heap", it.next())?,
            "--gc" | "--gc=semispace" | "--gc=gen" | "--gc=par" | "--gc=cms" => {
                let owned;
                let v = if let Some(eq) = a.strip_prefix("--gc=") {
                    owned = eq.to_string();
                    &owned
                } else {
                    it.next().ok_or_else(|| DriverError::usage("--gc needs a value"))?
                };
                config.strategy = match v.as_str() {
                    "gen" => GcStrategy::Generational,
                    "semispace" => GcStrategy::Semispace,
                    "par" => GcStrategy::Parallel,
                    "cms" => GcStrategy::Cms,
                    other => {
                        return Err(DriverError::usage(format!(
                            "unknown collector `{other}` (expected `semispace`, `gen`, `par` or \
                             `cms`)"
                        )))
                    }
                };
            }
            "--threads" => config.threads = value("--threads", it.next())?,
            "--gc-workers" => {
                par_only = par_only.or(Some("--gc-workers"));
                config.gc_workers = value("--gc-workers", it.next())?;
            }
            "--tlab-words" => {
                par_only = par_only.or(Some("--tlab-words"));
                config.tlab_words = value("--tlab-words", it.next())?;
            }
            "--nursery" => config.nursery_words = Some(value("--nursery", it.next())?),
            "--region-words" => config.region_words = count("--region-words", it.next())?,
            "--green" => config.green_slots = count("--green", it.next())?,
            "--requests" => load.requests = value("--requests", it.next())?,
            "--burst" => load.burst = value("--burst", it.next())?,
            "--entry" => {
                let v = it.next().ok_or_else(|| DriverError::usage("--entry needs a value"))?;
                load.entry = Some(v.clone());
            }
            "--scheme" => {
                let v = it.next().ok_or_else(|| DriverError::usage("--scheme needs a value"))?;
                let scheme = match v.as_str() {
                    "full" => Scheme::FULL_PLAIN,
                    "full-packed" => Scheme::FULL_PACKED,
                    "delta" => Scheme::DELTA_PLAIN,
                    "delta-previous" => Scheme::DELTA_PREVIOUS,
                    "delta-packed" => Scheme::DELTA_PACKED,
                    "pp" => Scheme::DELTA_MAIN_PP,
                    other => return Err(DriverError::usage(format!("unknown scheme `{other}`"))),
                };
                options = options.with_scheme(scheme);
            }
            other => return Err(DriverError::usage(format!("unknown option `{other}`"))),
        }
    }
    if serve {
        if config.region_words == 0 {
            config.region_words = DEFAULT_REGION_WORDS;
        }
        if config.green_slots == 0 {
            config.green_slots = config.threads * 4;
        }
        if load.requests == 0 {
            load.requests = 100;
        }
    }
    check_options(&config)?;
    if let Some(flag) = par_only
        .filter(|_| matches!(config.strategy, GcStrategy::Semispace | GcStrategy::Generational))
    {
        return Err(DriverError::usage(format!("{flag} requires --gc par or --gc cms")));
    }
    Ok((options, config, load))
}

#[cfg(test)]
mod tests {
    use m3gc_vm::DEFAULT_TLAB_WORDS;

    use super::*;

    const HELLO: &str = "MODULE H; VAR x: INTEGER; BEGIN x := 41 + 1; PutInt(x); END H.";
    const ALLOCATING: &str = "MODULE A;
        TYPE R = REF RECORD v: INTEGER END;
        VAR r: R; i, s: INTEGER;
        BEGIN
          s := 0;
          FOR i := 1 TO 50 DO r := NEW(R); r.v := i; s := s + r.v; END;
          PutInt(s);
        END A.";

    #[test]
    fn check_reports_module_shape() {
        let out = check(HELLO).unwrap();
        assert!(out.contains("module `H`"));
        assert!(out.contains("ok"));
    }

    #[test]
    fn check_surfaces_diagnostics() {
        let e = check("MODULE X; VAR b: BOOLEAN; BEGIN b := 3; END X.").unwrap_err();
        assert!(e.to_string().contains("cannot assign"), "{e}");
    }

    #[test]
    fn run_executes() {
        let (o, c) = parse_options(&[]).unwrap();
        assert_eq!(run(HELLO, &o, c).unwrap(), "42");
    }

    #[test]
    fn run_with_stats_and_torture() {
        let (o, mut c) = parse_options(&["--torture".into(), "--stats".into()]).unwrap();
        c.semi_words = 4096;
        let out = run(ALLOCATING, &o, c).unwrap();
        assert!(out.starts_with("1275"), "{out}");
        assert!(out.contains("collection(s)"), "{out}");
    }

    #[test]
    fn run_with_jit_matches_and_reports() {
        let (o, mut c) = parse_options(&["--torture".into(), "--stats".into()]).unwrap();
        c.semi_words = 4096;
        let baseline = run(ALLOCATING, &o, c).unwrap();
        let (oj, mut cj) =
            parse_options(&["--jit".into(), "--torture".into(), "--stats".into()]).unwrap();
        assert!(cj.jit);
        cj.semi_words = 4096;
        let out = run(ALLOCATING, &oj, cj).unwrap();
        assert_eq!(
            out.lines().next(),
            baseline.lines().next(),
            "jit output must match the interpreter"
        );
        assert!(out.contains("--- jit:"), "{out}");
        assert!(out.contains("proc(s) compiled"), "{out}");
    }

    #[test]
    fn stats_report_decode_cache_counters() {
        let (o, mut c) = parse_options(&["--torture".into(), "--stats".into()]).unwrap();
        c.semi_words = 4096;
        let out = run(ALLOCATING, &o, c).unwrap();
        assert!(out.contains("decode cache:"), "{out}");
        assert!(out.contains("hit(s)") && out.contains("miss(es)"), "{out}");
        // Torture mode collects at every allocation: warm lookups dominate,
        // so the report must show real hits.
        let hits: u64 = out
            .lines()
            .find(|l| l.contains("decode cache"))
            .and_then(|l| l.split_whitespace().nth(3))
            .and_then(|w| w.parse().ok())
            .unwrap_or_else(|| panic!("unparsable stats line in {out}"));
        assert!(hits > 0, "{out}");
    }

    #[test]
    fn errors_are_classified_by_stage() {
        let lex = check("MODULE X; VAR a: INTEGER; BEGIN a := 1 ? 2; END X.").unwrap_err();
        assert!(matches!(lex, DriverError::Lex(_)), "{lex:?}");
        let parse = check("MODULE X; BEGIN BEGIN END X.").unwrap_err();
        assert!(matches!(parse, DriverError::Parse(_)), "{parse:?}");
        let ty = check("MODULE X; VAR b: BOOLEAN; BEGIN b := 3; END X.").unwrap_err();
        assert!(matches!(ty, DriverError::Type(_)), "{ty:?}");
        let usage = parse_options(&["--bogus".into()]).unwrap_err();
        assert!(matches!(usage, DriverError::Usage(_)), "{usage:?}");
        let (o, mut c) = parse_options(&[]).unwrap();
        c.semi_words = 64; // far too small for a 100-element live list
        let rt = run(
            "MODULE Oom;
             TYPE L = REF RECORD v: INTEGER; next: L END;
             VAR l: L; i: INTEGER;
             BEGIN
               l := NIL;
               FOR i := 1 TO 100 DO
                 WITH c = NEW(L) DO c.v := i; c.next := l; l := c; END;
               END;
               PutInt(l.v);
             END Oom.",
            &o,
            c,
        )
        .unwrap_err();
        assert!(matches!(rt, DriverError::Runtime(_)), "{rt:?}");
    }

    #[test]
    fn errors_expose_their_source() {
        use std::error::Error as _;
        let e = check("MODULE X; VAR b: BOOLEAN; BEGIN b := 3; END X.").unwrap_err();
        let src = e.source().expect("diagnostic source");
        // Display stays byte-identical to the wrapped error's.
        assert_eq!(e.to_string(), src.to_string());
        let usage = parse_options(&["--bogus".into()]).unwrap_err();
        assert!(usage.source().is_none());
        assert_eq!(usage.to_string(), "unknown option `--bogus`");
    }

    #[test]
    fn ir_and_disasm_render() {
        let (o, _) = parse_options(&[]).unwrap();
        let ir_text = ir(HELLO, &o).unwrap();
        assert!(ir_text.contains("func main"));
        let asm = disasm(HELLO, &o).unwrap();
        assert!(asm.contains("sys"), "{asm}");
    }

    #[test]
    fn tables_show_gc_points() {
        let (o, _) = parse_options(&[]).unwrap();
        let t = tables(ALLOCATING, &o).unwrap();
        assert!(t.contains("gc-point pc"), "{t}");
        assert!(t.contains("ground table"), "{t}");
    }

    #[test]
    fn stats_include_all_schemes() {
        let (o, _) = parse_options(&[]).unwrap();
        let s = stats(ALLOCATING, &o).unwrap();
        assert!(s.contains("delta-main+previous+packing"), "{s}");
        assert!(s.contains("full-info"), "{s}");
    }

    #[test]
    fn stats_count_calls_and_their_tables() {
        let src = "MODULE C;
            TYPE R = REF RECORD v: INTEGER END;
            PROCEDURE Pure(x: INTEGER): INTEGER = BEGIN RETURN x * 3; END Pure;
            PROCEDURE Make(x: INTEGER): R =
            VAR r: R;
            BEGIN r := NEW(R); r.v := x; RETURN r; END Make;
            BEGIN PutInt(Pure(2) + Make(5).v); END C.";
        let (o, _) = parse_options(&[]).unwrap();
        let s = stats(src, &o).unwrap();
        assert!(s.contains("calls:            2 (1 with tables)"), "{s}");
    }

    #[test]
    fn run_generational_matches_semispace_output() {
        let (o, mut c) = parse_options(&["--gc".into(), "gen".into()]).unwrap();
        assert_eq!(c.strategy, GcStrategy::Generational);
        c.semi_words = 4096;
        c.nursery_words = Some(128);
        let gen_out = run(ALLOCATING, &o, c).unwrap();
        let (o2, mut c2) = parse_options(&[]).unwrap();
        c2.semi_words = 4096;
        let semi_out = run(ALLOCATING, &o2, c2).unwrap();
        assert_eq!(gen_out, semi_out);
        assert_eq!(gen_out, "1275");
    }

    #[test]
    fn gen_stats_report_minor_major_split_and_barriers() {
        let (o, mut c) =
            parse_options(&["--gc=gen".into(), "--nursery".into(), "64".into(), "--stats".into()])
                .unwrap();
        assert_eq!(c.strategy, GcStrategy::Generational);
        assert_eq!(c.nursery_words, Some(64));
        c.semi_words = 4096;
        let out = run(ALLOCATING, &o, c).unwrap();
        assert!(out.starts_with("1275"), "{out}");
        // Existing stats lines stay intact...
        assert!(out.contains("collection(s)"), "{out}");
        assert!(out.contains("decode cache:"), "{out}");
        // ...and the generational lines join them.
        let gen_line = out
            .lines()
            .find(|l| l.contains("generational:"))
            .unwrap_or_else(|| panic!("no generational line in {out}"));
        assert!(gen_line.contains("minor") && gen_line.contains("major"), "{gen_line}");
        assert!(gen_line.contains("remembered slot(s)"), "{gen_line}");
        let minors: u64 = gen_line
            .split_whitespace()
            .nth(2)
            .and_then(|w| w.parse().ok())
            .unwrap_or_else(|| panic!("unparsable generational line: {gen_line}"));
        assert!(minors > 0, "{out}");
        assert!(out.contains("barriers:"), "{out}");
        // Semispace runs must not print the generational lines.
        let (o2, mut c2) = parse_options(&["--stats".into()]).unwrap();
        c2.semi_words = 4096;
        let semi = run(ALLOCATING, &o2, c2).unwrap();
        assert!(!semi.contains("generational:"), "{semi}");
        assert!(!semi.contains("barriers:"), "{semi}");
    }

    #[test]
    fn run_parallel_matches_sequential_output() {
        let (o, mut c) =
            parse_options(&["--gc=par".into(), "--gc-workers".into(), "2".into()]).unwrap();
        assert_eq!(c.strategy, GcStrategy::Parallel);
        assert_eq!(c.gc_workers, 2);
        c.semi_words = 4096;
        let par_out = run(ALLOCATING, &o, c).unwrap();
        assert_eq!(par_out, "1275");
    }

    // All state procedure-local: module globals are *shared* between
    // parallel mutators, so a deterministic multi-thread program must
    // not touch them.
    const LOCAL_ALLOCATING: &str = "MODULE P;
        TYPE L = REF RECORD v: INTEGER; next: L END;
        PROCEDURE Work(): INTEGER =
        VAR l: L; i, s: INTEGER;
        BEGIN
          l := NIL;
          FOR i := 1 TO 50 DO
            WITH c = NEW(L) DO c.v := i; c.next := l; l := c; END;
          END;
          s := 0;
          WHILE l # NIL DO s := s + l.v; l := l.next; END;
          RETURN s;
        END Work;
        BEGIN PutInt(Work()); END P.";

    #[test]
    fn run_parallel_multi_thread_concatenates_outputs() {
        let (o, mut c) = parse_options(&[
            "--threads".into(),
            "3".into(),
            "--gc=par".into(),
            "--torture".into(),
            "--stats".into(),
        ])
        .unwrap();
        c.semi_words = 4096;
        let out = run(LOCAL_ALLOCATING, &o, c).unwrap();
        // Three mutators each print 1275, in tid order.
        assert!(out.starts_with("127512751275"), "{out}");
        assert!(out.contains("parallel: 3 mutator(s)"), "{out}");
        assert!(out.contains("handshake:"), "{out}");
        assert!(out.contains("workers: copied words"), "{out}");
    }

    #[test]
    fn option_parsing() {
        let (o, c) = parse_options(&[
            "--o0".into(),
            "--heap".into(),
            "123".into(),
            "--scheme".into(),
            "pp".into(),
        ])
        .unwrap();
        assert_eq!(c.semi_words, 123);
        assert_eq!(o.codegen.scheme, Scheme::DELTA_MAIN_PP);
        assert!(parse_options(&["--bogus".into()]).is_err());
        assert!(parse_options(&["--scheme".into(), "nope".into()]).is_err());
        assert!(parse_options(&["--heap".into()]).is_err());
        let (_, c) = parse_options(&["--gc".into(), "semispace".into()]).unwrap();
        assert_eq!(c.strategy, GcStrategy::Semispace);
        let (_, c) = parse_options(&["--gc=gen".into()]).unwrap();
        assert_eq!(c.strategy, GcStrategy::Generational);
        assert!(parse_options(&["--gc".into(), "mark-sweep".into()]).is_err());
        assert!(parse_options(&["--gc".into()]).is_err());
        assert!(parse_options(&["--nursery".into(), "x".into()]).is_err());
        let (_, c) = parse_options(&["--gc".into(), "par".into()]).unwrap();
        assert_eq!(c.strategy, GcStrategy::Parallel);
        assert_eq!((c.threads, c.gc_workers), (1, RuntimeOptions::new().gc_workers));
        let (_, c) = parse_options(&["--gc=par".into(), "--threads".into(), "4".into()]).unwrap();
        assert_eq!(c.threads, 4);
        assert!(parse_options(&["--threads".into(), "2".into()]).is_err());
        assert!(parse_options(&["--threads".into(), "0".into(), "--gc=par".into()]).is_err());
        assert!(parse_options(&["--gc-workers".into(), "zero".into()]).is_err());
        let (_, c) = parse_options(&[]).unwrap();
        assert_eq!(c.tlab_words, DEFAULT_TLAB_WORDS);
        let (_, c) =
            parse_options(&["--gc=par".into(), "--tlab-words".into(), "8".into()]).unwrap();
        assert_eq!(c.tlab_words, 8);
        // 0 disables TLABs (shared-frontier CAS per allocation).
        let (_, c) =
            parse_options(&["--gc=par".into(), "--tlab-words".into(), "0".into()]).unwrap();
        assert_eq!(c.tlab_words, 0);
        assert!(parse_options(&["--tlab-words".into(), "lots".into()]).is_err());
        assert!(parse_options(&["--tlab-words".into()]).is_err());
        // Concurrent marking: `--gc cms`.
        let (_, c) = parse_options(&["--gc".into(), "cms".into()]).unwrap();
        assert_eq!(c.strategy, GcStrategy::Cms);
        // Multiple mutators are legal under cms, as under par.
        let (_, c) = parse_options(&["--gc=cms".into(), "--threads".into(), "4".into()]).unwrap();
        assert_eq!(c.threads, 4);
    }

    #[test]
    fn run_cms_matches_sequential_output_and_reports_cycles() {
        let (o, mut c) = parse_options(&[
            "--gc=cms".into(),
            "--threads".into(),
            "2".into(),
            "--torture".into(),
            "--stats".into(),
        ])
        .unwrap();
        c.semi_words = 1 << 14;
        let out = run(LOCAL_ALLOCATING, &o, c).unwrap();
        // Two mutators each print 1275, then the stats sections: the
        // parallel lines plus the cms pause split and SATB ledger.
        assert!(out.starts_with("12751275"), "{out}");
        assert!(out.contains("parallel: 2 mutator(s)"), "{out}");
        let cms_line = out
            .lines()
            .find(|l| l.contains("cms:") && l.contains("cycle(s)"))
            .unwrap_or_else(|| panic!("no cms line in {out}"));
        assert!(cms_line.contains("snapshot pause"), "{cms_line}");
        assert!(cms_line.contains("final pause"), "{cms_line}");
        assert!(out.contains("satb:"), "{out}");
    }

    #[test]
    fn par_stats_report_tlab_counters() {
        let (o, mut c) = parse_options(&[
            "--gc=par".into(),
            "--threads".into(),
            "2".into(),
            "--torture".into(),
            "--stats".into(),
            "--tlab-words".into(),
            "16".into(),
        ])
        .unwrap();
        c.semi_words = 4096;
        let out = run(LOCAL_ALLOCATING, &o, c).unwrap();
        assert!(out.starts_with("12751275"), "{out}");
        let tlab_line = out
            .lines()
            .find(|l| l.contains("tlab:"))
            .unwrap_or_else(|| panic!("no tlab line in {out}"));
        assert!(tlab_line.contains("16 word(s) per buffer"), "{tlab_line}");
        assert!(tlab_line.contains("refill(s)"), "{tlab_line}");
    }

    /// The stack-watermark splice cache is retired: no `--stats` run, under
    /// any collector, prints its line.
    #[test]
    fn stats_reports_print_no_watermark_line() {
        for args in [
            vec!["--stats"],
            vec!["--gc=gen", "--nursery", "64", "--stats"],
            vec!["--gc=par", "--threads", "2", "--torture", "--stats"],
            vec!["--gc=cms", "--threads", "2", "--torture", "--stats"],
        ] {
            let args: Vec<String> = args.into_iter().map(String::from).collect();
            let (o, mut c) = parse_options(&args).unwrap();
            c.semi_words = 4096;
            let src = if args.iter().any(|a| a.contains("--threads")) {
                LOCAL_ALLOCATING
            } else {
                ALLOCATING
            };
            let out = run(src, &o, c).unwrap();
            assert!(out.contains("--- load:"), "{args:?}: {out}");
            assert!(!out.contains("watermark:"), "{args:?}: {out}");
        }
    }

    /// Every `--stats` run, under each collector, and every serve report
    /// end with how long loading the machine took.
    #[test]
    fn stats_report_the_machine_load_time() {
        let load_us = |out: &str| -> u64 {
            let line = out.lines().last().unwrap_or_default();
            line.strip_prefix("--- load: machine ")
                .and_then(|rest| rest.strip_suffix(" µs"))
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("no load line at the end of {out}"))
        };
        for gc in ["semispace", "gen", "par", "cms"] {
            let (o, mut c) = parse_options(&["--gc".into(), gc.into(), "--stats".into()]).unwrap();
            c.semi_words = 4096;
            let out = run(ALLOCATING, &o, c).unwrap();
            assert!(out.starts_with("1275"), "{gc}: {out}");
            load_us(&out);
        }
        let (o, c, l) = parse_serve_options(&["--requests".into(), "4".into()]).unwrap();
        load_us(&serve(LOCAL_ALLOCATING, &o, c, l).unwrap());
    }

    /// `m3c stats` ends with one line timing every optimizer pass and
    /// one timing every compiler stage, each in pipeline order and each
    /// entry `<name> <N> µs`. The passes run inside `opt`, so they sum to
    /// no more than it; at `o0` none runs.
    #[test]
    fn stats_end_with_the_compile_stage_times() {
        // `<name> <N> µs` entries after `prefix`, as (name, N).
        fn entries<'a>(line: &'a str, prefix: &str) -> Vec<(&'a str, u64)> {
            let rest = line.strip_prefix(prefix).unwrap_or_else(|| panic!("not {prefix}: {line}"));
            let words: Vec<&str> = rest.split(' ').collect();
            words
                .chunks(3)
                .map(|w| {
                    assert!(w.len() == 3 && w[2] == "µs", "{line}");
                    (w[0], w[1].parse().unwrap_or_else(|_| panic!("{line}")))
                })
                .collect()
        }
        for level in ["--o0", "--o2", "--split-paths"] {
            let (o, _) = parse_options(&[level.into()]).unwrap();
            let out = stats(ALLOCATING, &o).unwrap();
            let lines: Vec<&str> = out.lines().collect();
            let [.., opt_line, compile_line] = lines[..] else { panic!("{out}") };
            let passes = entries(opt_line, "--- opt: ");
            let stages = entries(compile_line, "--- compile: ");
            let pass_names: Vec<&str> = passes.iter().map(|&(n, _)| n).collect();
            let stage_names: Vec<&str> = stages.iter().map(|&(n, _)| n).collect();
            assert_eq!(pass_names, ["lvn", "licm", "sr", "dce", "simplify", "split"]);
            assert_eq!(
                stage_names,
                ["lex", "parse", "typecheck", "lower", "verify", "opt", "codegen"]
            );
            let opt = stages[5].1;
            let sum: u64 = passes.iter().map(|&(_, us)| us).sum();
            assert!(sum <= opt + passes.len() as u64, "{level}: passes {sum} µs > opt {opt} µs");
            if level == "--o0" {
                assert_eq!(sum, 0, "{opt_line}");
            }
        }
    }

    /// Retired features leave no flags behind: the liveness-pruned maps'
    /// two, concurrent evacuation's two, serve's `--quantum` (now a
    /// constant) and cms's `--conc-workers` (one marker) are unknown
    /// options like any other, under `run` and `serve` alike.
    #[test]
    fn retired_flags_are_usage_errors() {
        let cases: [&[&str]; 6] = [
            &["--live-maps"],
            &["--no-live-maps"],
            &["--conc-evac"],
            &["--evac-region-words", "64"],
            &["--quantum", "100"],
            &["--conc-workers", "2"],
        ];
        for args in cases {
            let argv: Vec<String> = args.iter().map(ToString::to_string).collect();
            let errors = [
                parse_options(&argv).map(|_| ()).unwrap_err(),
                parse_serve_options(&argv).map(|_| ()).unwrap_err(),
            ];
            for e in errors {
                assert!(matches!(e, DriverError::Usage(_)), "{e:?}");
                assert_eq!(e.to_string(), format!("unknown option `{}`", args[0]));
            }
        }
    }

    /// One row per contradictory pair: a collector-specific flag under a
    /// collector that would silently ignore it is a usage error naming
    /// both sides, and so is a `--gc gen` nursery the machine cannot lay
    /// out, naming the flag and the bound.
    #[test]
    fn contradictory_flags_are_usage_errors() {
        let cases: [(&[&str], &str, &str); 12] = [
            (&["--nursery", "64"], "--nursery", "--gc gen"),
            (&["--gc=cms", "--nursery", "64"], "--nursery", "--gc gen"),
            (&["--gc", "semispace", "--gc-workers", "8"], "--gc-workers", "--gc par"),
            (&["--gc-workers", "2", "--gc=gen"], "--gc-workers", "--gc par"),
            (&["--gc", "gen", "--tlab-words", "8"], "--tlab-words", "--gc par"),
            // A nursery outside 8..=--heap, given or by default.
            (&["--gc", "gen", "--nursery", "0"], "--nursery 0", "<= --heap (65536)"),
            (&["--gc", "gen", "--nursery", "1"], "--nursery 1", "<= --heap (65536)"),
            (
                &["--gc", "gen", "--heap", "64", "--nursery", "1000"],
                "--nursery 1000",
                "<= --heap (64)",
            ),
            (&["--gc", "gen", "--heap", "32"], "--heap 32", "<= --heap (32)"),
            // Regions and green slots under a collector that ignores them.
            (&["--region-words", "64", "--threads", "2"], "--region-words", "--gc par"),
            (&["--gc", "gen", "--region-words", "64"], "--gc gen", "--gc par"),
            (&["--green", "3"], "--green", "--region-words"),
        ];
        for (args, flag, needs) in cases {
            let args: Vec<String> = args.iter().map(ToString::to_string).collect();
            match parse_options(&args) {
                Err(DriverError::Usage(msg)) => {
                    assert!(msg.contains(flag) && msg.contains(needs), "{args:?}: {msg}");
                }
                other => panic!("{args:?}: expected a usage error, got {other:?}"),
            }
        }
        // The order of the flags does not matter, and the legal pairings
        // still parse.
        assert!(parse_options(&["--nursery".into(), "64".into(), "--gc=gen".into()]).is_ok());
        for args in [["--gc=gen", "--heap", "64"], ["--gc=gen", "--nursery", "8"]] {
            let args: Vec<String> = args.iter().map(ToString::to_string).collect();
            assert!(parse_options(&args).is_ok(), "{args:?}");
        }
        assert!(parse_options(&["--gc-workers".into(), "2".into(), "--gc=par".into()]).is_ok());
        let regions = ["--gc", "par", "--region-words", "64", "--green", "3"];
        assert!(parse_options(&regions.map(String::from)).is_ok());
        // Serve is the parallel runtime whatever `--gc` says.
        assert!(parse_serve_options(&["--gc-workers".into(), "2".into()]).is_ok());
        // ... except that regions and concurrent marking exclude each
        // other: a usage error naming both, not `enable_cms`'s assertion.
        for (serve, args, regions) in [
            (true, vec!["--gc", "cms"], "serve"),
            (false, vec!["--gc=cms", "--region-words", "64"], "--region-words"),
        ] {
            let args: Vec<String> = args.iter().map(ToString::to_string).collect();
            match parse_all(&args, serve) {
                Err(DriverError::Usage(msg)) => {
                    assert!(msg.contains(regions) && msg.contains("--gc cms"), "{args:?}: {msg}");
                }
                other => panic!("{args:?}: expected a usage error, got {other:?}"),
            }
        }
        assert!(parse_serve_options(&["--gc".into(), "par".into()]).is_ok());
        // Serve builds a parallel machine whatever else is asked for: a
        // sequential collector or a nursery is a usage error naming it.
        for (args, flag) in [
            (vec!["--gc", "gen"], "--gc gen"),
            (vec!["--gc", "gen", "--nursery", "8"], "--gc gen"),
            (vec!["--gc", "semispace"], "--gc semispace"),
            (vec!["--gc=gen"], "--gc gen"),
            (vec!["--nursery", "8"], "--nursery"),
        ] {
            let args: Vec<String> = args.iter().map(ToString::to_string).collect();
            match parse_serve_options(&args) {
                Err(DriverError::Usage(msg)) => {
                    assert!(msg.contains(flag) && msg.contains("serve"), "{args:?}: {msg}");
                }
                other => panic!("{args:?}: expected a usage error, got {other:?}"),
            }
        }
        assert!(parse_serve_options(&[]).is_ok());
    }

    #[test]
    fn serve_options_parse_load_and_regions() {
        let (_, c, l) = parse_serve_options(&[
            "--requests".into(),
            "12".into(),
            "--green".into(),
            "4".into(),
            "--region-words".into(),
            "256".into(),
            "--burst".into(),
            "3".into(),
            "--threads".into(),
            "2".into(),
            "--oracle".into(),
        ])
        .unwrap();
        assert_eq!(l.requests, 12);
        assert_eq!(l.burst, 3);
        assert_eq!(c.green_slots, 4);
        assert_eq!(c.region_words, 256);
        assert!(c.oracle && c.shadow);
        assert_eq!(c.threads, 2);
        assert!(parse_serve_options(&["--region-words".into(), "0".into()]).is_err());
        assert!(parse_serve_options(&["--requests".into(), "many".into()]).is_err());
        // The run subcommand still rejects multi-thread without `--gc par`.
        assert!(parse_options(&["--threads".into(), "2".into()]).is_err());
    }

    #[test]
    fn serve_reports_region_ledger() {
        let (o, c, l) = parse_serve_options(&[
            "--requests".into(),
            "8".into(),
            "--green".into(),
            "2".into(),
            "--region-words".into(),
            "512".into(),
        ])
        .unwrap();
        let out = serve(LOCAL_ALLOCATING, &o, c, l).unwrap();
        assert!(out.contains("serve: 8 request(s)"), "{out}");
        assert!(out.contains("regions:"), "{out}");
        assert!(out.contains("latency:"), "{out}");
        assert!(out.contains("pauses:"), "{out}");
        assert!(out.contains("tlab:"), "{out}");
    }
}
