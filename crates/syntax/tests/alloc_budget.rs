//! Allocation budget for the front end. Tokens are `Copy` and their text is
//! interned once by the lexer, so preprocessing and parsing a file costs a
//! small fraction of one heap allocation per token: the token vectors, the
//! AST arena and one interner entry per distinct spelling, not a `String`
//! per identifier.
//!
//! This file is its own test binary because it installs a counting global
//! allocator; it holds one test so no other test allocates concurrently.

use lclint_syntax::pp::{preprocess, MemoryProvider};
use lclint_syntax::{Parser, SourceMap};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` meets the `GlobalAlloc` contract for each call; counting touches
// only an atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const HEADER: &str = "#ifndef NODES_H
#define NODES_H
typedef struct _node { int val; /*@null@*/ struct _node *next; } *node;
#define BUF_LEN 16
#define BUMP(x) ((x) + 1)
extern /*@only@*/ /*@null@*/ void *malloc(size_t n);
extern void free(/*@only@*/ /*@out@*/ /*@null@*/ void *p);
#endif
";

/// An annotated C file of `functions` allocator/deallocator pairs, about
/// 25 lines each, every pair with its own names.
fn generated_source(functions: usize) -> String {
    let mut src = String::from("#include \"nodes.h\"\n");
    for i in 0..functions {
        src.push_str(&format!(
            "/*@only@*/ /*@null@*/ node make_{i}(int v)
{{
  node n = (node) malloc(sizeof(*n));
  char buf[BUF_LEN];
  int k_{i};
  if (n == NULL) {{
    return NULL;
  }}
  for (k_{i} = 0; k_{i} < BUF_LEN; k_{i}++) {{
    buf[k_{i}] = 'a';
  }}
  n->val = BUMP(v) * {i};
  n->next = NULL;
  return n;
}}

void drop_{i}(/*@only@*/ /*@null@*/ node n)
{{
  if (n != NULL) {{
    printf(\"dropping %d\\n\", n->val);
    free(n);
  }}
}}

"
        ));
    }
    src
}

#[test]
fn front_end_allocates_under_half_a_block_per_token() {
    let functions = 200;
    let mut provider = MemoryProvider::new();
    provider.insert("nodes.h", HEADER);
    provider.insert("main.c", generated_source(functions));

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut sm = SourceMap::new();
    let out = preprocess("main.c", &provider, &mut sm).expect("preprocesses");
    let tokens = out.tokens.len();
    let (tu, errors) = Parser::new(out.tokens).parse_translation_unit_recovering();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert!(errors.is_empty(), "{errors:?}");
    // The typedef, two prototypes and two functions per pair.
    assert_eq!(tu.items.len(), 3 + 2 * functions);
    assert!(tokens > 20_000, "only {tokens} tokens");
    let per_token = allocs as f64 / tokens as f64;
    assert!(
        per_token <= 0.5,
        "{allocs} allocations for {tokens} tokens ({per_token:.3} per token)"
    );
}
