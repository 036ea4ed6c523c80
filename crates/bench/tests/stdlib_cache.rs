//! The stdlib cache row, in a process of its own: the hit counter is
//! process-wide, so any check running concurrently in the same test binary
//! would add hits between the two reads.

#[test]
fn stdlib_cache_hits_every_warm_call() {
    let stats = lclint_bench::stdlib_cache_stats(5);
    assert_eq!(stats.hits_delta, 5, "{stats:?}");
}
