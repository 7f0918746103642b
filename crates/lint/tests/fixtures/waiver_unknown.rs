//! Fixture: a waiver naming a rule that does not exist.
//! Expected: exactly one `waivers` violation — a typo in a rule id must
//! never silently disable a check.

pub fn next(x: u64) -> u64 {
    x + 1 // lint:allow(no-such-rule) -- fixture: the id is unknown
}
