//! Fixture: an item nothing calls.
//! Expected census: `never_called` is `none`.

pub fn never_called() {}
