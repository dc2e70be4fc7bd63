//! Micro-benchmarks backing the paper's performance discussion
//! (dependency-free: a plain timing harness, `harness = false`):
//!
//! * `decode/lookup/*` — per-lookup cost of decoding gc-point tables under
//!   the compact δ-main+PP scheme vs uncompressed full information (§6.1's
//!   "compactly encoded tables are likely to have higher decoding
//!   overhead", ablation A1);
//! * `decode/cached/*` — the same lookups through a warm [`DecodeCache`]:
//!   what repeated collections actually pay;
//! * `encode/*` — table emission cost per scheme;
//! * `trace/stack_trace` — a full stack walk with derived-value
//!   un/re-derivation on a paused `destroy` (§6.3), cold cache vs warm;
//! * `collect/full` — a complete collection on the same state;
//! * `end_to_end/takl` — whole-program run of the call-heavy benchmark.
//!
//! [`DecodeCache`]: m3gc_core::decode::DecodeCache

use std::hint::black_box;
use std::time::Instant;

use m3gc_bench::{compile_benchmark, program};
use m3gc_core::decode::{DecodeCache, DecoderIndex, TableDecoder};
use m3gc_core::encode::{encode_module, Scheme};
use m3gc_runtime::collector;
use m3gc_vm::exec::Step;
use m3gc_vm::machine::{Machine, MachineLayout};

/// Times `f` over `iters` iterations (after one warmup call) and prints a
/// per-iteration figure.
fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per = t0.elapsed().as_secs_f64() * 1e6 / f64::from(iters);
    println!("{name:<44} {per:>10.2} us/iter");
}

fn decode_benchmarks() {
    let module = compile_benchmark(program("destroy"), true);
    for scheme in [Scheme::DELTA_MAIN_PP, Scheme::FULL_PLAIN, Scheme::FULL_PACKED] {
        let encoded = encode_module(&module.logical_maps, scheme);
        let decoder = TableDecoder::build(&encoded).expect("well-formed tables");
        let pcs: Vec<u32> = decoder.gc_point_pcs().collect();
        bench(&format!("decode/lookup/{scheme}"), 200, || {
            for &pc in &pcs {
                black_box(decoder.lookup(black_box(pc)));
            }
        });
        let mut cache = DecodeCache::build(&encoded).expect("well-formed tables");
        bench(&format!("decode/cached/{scheme}"), 200, || {
            for &pc in &pcs {
                black_box(cache.lookup(&encoded.bytes, black_box(pc)));
            }
        });
    }
}

fn encode_benchmarks() {
    let module = compile_benchmark(program("FieldList"), true);
    for scheme in Scheme::TABLE2 {
        bench(&format!("encode/{scheme}"), 200, || {
            black_box(encode_module(black_box(&module.logical_maps), scheme));
        });
    }
}

/// Runs destroy until its first genuine heap exhaustion and returns the
/// machine with its thread stopped at that allocation.
fn paused_destroy() -> Machine {
    let module = compile_benchmark(program("destroy"), true);
    let mut machine = Machine::new(
        module,
        MachineLayout { semi_words: 8 * 1024, stack_words: 1 << 15, ..MachineLayout::default() },
    );
    let main = machine.module.main;
    machine.spawn(main, &[]);
    match machine.run_thread(u64::MAX) {
        Step::NeedGc => machine,
        other => panic!("destroy did not reach a collection: {other:?}"),
    }
}

fn trace_benchmarks() {
    let mut machine = paused_destroy();
    bench("trace/stack_trace (cold cache each iter)", 200, || {
        let mut cache = DecodeCache::build(&machine.module.gc_maps).expect("valid maps");
        black_box(collector::trace_only(&mut machine, &mut cache));
    });
    let mut cache = DecodeCache::build(&machine.module.gc_maps).expect("valid maps");
    bench("trace/stack_trace (warm cache)", 200, || {
        black_box(collector::trace_only(&mut machine, &mut cache));
    });
}

fn collect_benchmarks() {
    let mut machine = paused_destroy();
    let mut cache = DecodeCache::build(&machine.module.gc_maps).expect("valid maps");
    bench("collect/full", 100, || {
        // Each collection flips semispaces; the thread's pc has not
        // moved, so the next iteration can collect again.
        black_box(collector::collect(&mut machine, &mut cache));
    });
    let _ = DecoderIndex::build(&machine.module.gc_maps).expect("valid maps");
}

fn end_to_end() {
    bench("end_to_end/takl", 5, || {
        let module = compile_benchmark(program("takl"), true);
        let out = m3gc_compiler::run_module(module, 1 << 16).expect("takl runs");
        black_box(out.steps);
    });
}

fn main() {
    decode_benchmarks();
    encode_benchmarks();
    trace_benchmarks();
    collect_benchmarks();
    end_to_end();
}
