//! Fixture: the only caller of `census_benched.rs`'s `only_benched`.

fn main() {
    only_benched();
}
