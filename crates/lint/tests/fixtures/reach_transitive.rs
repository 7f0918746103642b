//! Fixture: an annotated hot root with a panic in its own body, a second
//! root reaching a panic two calls away, and a cold function that may
//! panic freely.
//! Expected: exactly two `hot-path-reachability` violations — the direct
//! hit, and the transitive one whose message carries the full two-hop
//! witness path.

// lint:hot-path
pub fn decide(x: u64) -> u64 {
    if x == 0 {
        panic!("zero is not schedulable");
    }
    x - 1
}

// lint:hot-path
pub fn fast_entry(x: u64) -> u64 {
    helper(x)
}

fn helper(x: u64) -> u64 {
    deep(x)
}

fn deep(x: u64) -> u64 {
    if x == 7 {
        panic!("transitively reachable from fast_entry");
    }
    x
}

pub fn cold_helper() {
    // Unannotated and unreachable from any root — a panic here must NOT
    // fire the rule.
    panic!("cold path may panic");
}
