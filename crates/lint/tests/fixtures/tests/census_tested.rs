//! Fixture: the only caller of `census_tested.rs`'s `only_tested`.

#[test]
fn calls_it() {
    assert_eq!(only_tested(), 2);
}
