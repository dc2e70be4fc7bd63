//! `m3c` — the Mini-M3 compiler driver.
//!
//! ```text
//! m3c <check|run|serve|ir|disasm|tables|stats> <file.m3> [options]
//! m3c fuzz [--seed N] [--iters N] [--no-shrink]
//!
//! compile options:
//!   --o0 | --o2          optimization level (default --o2)
//!   --no-gc              disable gc support (§6.2 baseline)
//!   --split-paths        resolve ambiguous derivations by code duplication
//!   --scheme S           table scheme: full, full-packed, delta,
//!                        delta-previous, delta-packed, pp (default pp)
//!   --heap N             semispace size in words (run; default 65536)
//!   --gc C               collector: semispace (default), gen, par
//!                        (OS-thread mutators + parallel collection) or cms
//!                        (par plus concurrent SATB marking: only the final
//!                        evacuation pause stops the world) (run)
//!   --nursery N          nursery size in words with --gc gen (run;
//!                        default: a quarter semispace)
//!   --threads N          mutator threads with --gc par (run; default 1);
//!                        scheduler threads (serve)
//!   --gc-workers M       gc worker threads with --gc par/cms (run; default
//!                        the host's cores, at most 4)
//!   --conc-workers M     concurrent marker threads with --gc cms (run;
//!                        default 2)
//!   --tlab-words N       thread-local allocation buffer size in words
//!                        with --gc par/cms (run) and for what overflows a
//!                        region (serve); 0 disables TLABs (default 1024)
//!   --torture            collect at every allocation (run, serve)
//!   --jit                baseline-compile procedures to native x86-64 at
//!                        load time (run; unsupported hosts or procedures
//!                        fall back to the interpreter, see --stats)
//!   --stats              print gc statistics after the output (run)
//!
//! serve options (allocation-service workload: green-thread requests
//! over OS threads, each allocating into a per-request region):
//!   --requests N         requests to serve (default 100)
//!   --green N            green-request slots (default 4 per thread)
//!   --region-words N     words per per-request region (default 4096)
//!   --burst N            requests admitted per scheduling gap (default 1)
//!   --quantum N          instructions per green-thread quantum
//!   --entry P            handler procedure (default: the module body;
//!                        may take the request id as its one argument)
//!   --oracle             shadow-verify gc maps before every collection
//!
//! fuzz options:
//!   --seed N             base seed (default 1); iteration i uses seed+i
//!   --iters N            programs to generate and check (default 100)
//!   --no-shrink          report the raw failing program unminimized
//! ```

use m3gc_compiler::driver;
use m3gc_fuzz::FuzzOptions;

fn usage() -> ! {
    eprintln!(
        "usage: m3c <check|run|serve|ir|disasm|tables|stats> <file.m3> \
         [--o0|--o2] [--no-gc] [--split-paths] [--scheme S] [--heap N] \
         [--gc semispace|gen|par|cms] [--nursery N] [--threads N] \
         [--gc-workers M] [--conc-workers M] [--tlab-words N] [--torture] \
         [--jit] [--stats]\n\
         \x20      m3c serve <file.m3> [--requests N] [--green N] \
         [--region-words N] [--burst N] [--quantum N] [--entry P] [--oracle]\n\
         \x20      m3c fuzz [--seed N] [--iters N] [--no-shrink]"
    );
    std::process::exit(2);
}

fn parse_fuzz_options(args: &[String]) -> Result<FuzzOptions, String> {
    let mut opts = FuzzOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" | "--iters" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("{arg} requires a value"))?
                    .parse::<u64>()
                    .map_err(|e| format!("{arg}: {e}"))?;
                if arg == "--seed" {
                    opts.seed = v;
                } else {
                    opts.iters = v;
                }
            }
            "--no-shrink" => opts.shrink = false,
            other => return Err(format!("unknown fuzz option `{other}`")),
        }
    }
    Ok(opts)
}

fn fuzz(args: &[String]) -> ! {
    let opts = match parse_fuzz_options(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("m3c: {e}");
            usage();
        }
    };
    let report_every = (opts.iters / 10).max(1);
    let result = m3gc_fuzz::run_campaign(&opts, |iteration, _| {
        if (iteration + 1) % report_every == 0 {
            eprintln!("m3c fuzz: {}/{} cases done", iteration + 1, opts.iters);
        }
    });
    match result {
        Ok(summary) => {
            println!(
                "m3c fuzz: ok — {} conclusive, {} skipped (seed {}, {} iters, {} configurations per program)",
                summary.checked,
                summary.skipped,
                opts.seed,
                opts.iters,
                m3gc_fuzz::exec::configs_per_program()
            );
            std::process::exit(0);
        }
        Err(failure) => {
            eprintln!("{failure}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fuzz") {
        fuzz(&args[1..]);
    }
    if args.len() < 2 {
        usage();
    }
    let cmd = &args[0];
    let path = &args[1];
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("m3c: cannot read `{path}`: {e}");
            std::process::exit(1);
        }
    };
    let result = if cmd == "serve" {
        match driver::parse_serve_options(&args[2..]) {
            Ok((options, config, load)) => driver::serve(&source, &options, config, load),
            Err(e) => {
                eprintln!("m3c: {e}");
                usage();
            }
        }
    } else {
        let (options, config) = match driver::parse_options(&args[2..]) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("m3c: {e}");
                usage();
            }
        };
        match cmd.as_str() {
            "check" => driver::check(&source),
            "run" => driver::run(&source, &options, config),
            "ir" => driver::ir(&source, &options),
            "disasm" => driver::disasm(&source, &options),
            "tables" => driver::tables(&source, &options),
            "stats" => driver::stats(&source, &options),
            _ => usage(),
        }
    };
    match result {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("m3c: {e}");
            std::process::exit(1);
        }
    }
}
