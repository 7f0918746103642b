//! Fixture: an item only a `#[cfg(test)]` item calls.
//! Expected census: `only_unit_tested` is `tests-only`.

pub fn only_unit_tested() -> u64 {
    1
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        assert_eq!(super::only_unit_tested(), 1);
    }
}
