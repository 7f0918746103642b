//! Fixture: a waived SeqCst site — the waiver must suppress the finding and
//! be counted in the `waivers honored` statistic.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn total(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::SeqCst) // lint:allow(atomics-ordering) -- fixture: demonstrates an honored waiver
}
