//! The E9 library row, in a process of its own: the unit tests in
//! `lib.rs` count process-wide stdlib cache hits, which any concurrent
//! check would disturb.

/// Both variants of the row check clean (asserted inside): the full-source
/// client reaches the module's typedefs only through an include, as in C.
#[test]
fn library_speedup_checks_clean_both_ways() {
    let (full_ms, lib_ms) = lclint_bench::library_speedup(1_000);
    assert!(full_ms > 0.0 && lib_ms > 0.0);
}
