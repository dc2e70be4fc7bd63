//! Runs the paper's gc-stress benchmark `destroy` (§6.1/§6.3) across a
//! range of heap sizes, printing per-collection statistics — the workload
//! behind the paper's stack-tracing timings.
//!
//! ```sh
//! cargo run --release --example destroy_gc
//! ```

use m3gc::compiler::{compile, run_module, Options};

const DESTROY: &str = include_str!("../tests/programs/destroy.m3");

fn main() {
    println!("destroy: complete tree (branch 3, depth 6), 60 random subtree replacements\n");
    println!(
        "{:>10} {:>6} {:>10} {:>10} {:>9} {:>12} {:>12}",
        "semi(words)", "GCs", "objs/GC", "words/GC", "frames/GC", "trace(us)/GC", "total(us)/GC"
    );
    for semi in [6 * 1024, 8 * 1024, 16 * 1024, 64 * 1024] {
        let module = compile(DESTROY, &Options::o2()).expect("compiles");
        let out = run_module(module, semi).expect("destroy runs");
        assert_eq!(out.output, "1093 3493\n");
        let n = out.collections.max(1) as f64;
        println!(
            "{:>10} {:>6} {:>10.0} {:>10.0} {:>9.1} {:>12.1} {:>12.1}",
            semi,
            out.collections,
            out.gc_total.objects_copied as f64 / n,
            out.gc_total.words_copied as f64 / n,
            out.gc_total.frames_traced as f64 / n,
            out.gc_total.trace_time.as_secs_f64() * 1e6 / n,
            out.gc_total.total_time.as_secs_f64() * 1e6 / n,
        );
    }
    println!(
        "\nSmaller heaps collect more often but copy less per collection; the\n\
         stack-trace share stays a small fraction of total gc time (§6.3)."
    );
}
