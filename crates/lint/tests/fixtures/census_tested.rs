//! Fixture: an item only a file under `tests/` calls
//! (`tests/census_tested.rs`).
//! Expected census: `only_tested` is `tests-only`.

pub fn only_tested() -> u64 {
    2
}
