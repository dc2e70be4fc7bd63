//! The front end copies no names: lexing allocates nothing but the token
//! vector, and type checking allocates less than when every name was a
//! `String` key. A counting global allocator measures both; its counter
//! is thread-local because the test harness runs tests on parallel
//! threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use m3gc::frontend::render::render_module;
use m3gc::frontend::{lexer, parser, typecheck};
use programs::PAPER;

mod programs;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` performs on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn lexing_allocates_only_the_token_vector() {
    let fuzz = (0..32)
        .map(|seed| (format!("fuzz-{seed}"), render_module(&m3gc_fuzz::gen::generate(seed))));
    let corpus = PAPER.iter().map(|&(name, src)| (name.to_string(), src.to_string())).chain(fuzz);
    for (name, src) in corpus {
        let (n, tokens) = allocations(|| lexer::lex(&src).expect("lexes"));
        assert!(n <= 32, "{name}: lexing {} tokens made {n} allocations", tokens.len());
    }
}

/// `typecheck::check` on `destroy` made 132 allocations when the checker
/// keyed its tables by `String` and `HashMap<ExprId, _>`.
#[test]
fn checking_allocates_less_than_string_keyed_tables() {
    let src = PAPER[3].1;
    let module = parser::parse(lexer::lex(src).expect("lexes")).expect("parses");
    let (n, checked) = allocations(|| typecheck::check(&module).expect("checks"));
    assert!(n < 132, "checking destroy made {n} allocations");
    drop(checked);
}
