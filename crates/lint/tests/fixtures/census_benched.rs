//! Fixture: an item only a file under `benches/` calls
//! (`benches/census_benched.rs`).
//! Expected census: `only_benched` is `bench`.

pub fn only_benched() -> u64 {
    3
}
