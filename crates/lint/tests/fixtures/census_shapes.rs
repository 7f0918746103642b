//! Fixture: public items that are not fns, each reached one way only.
//! Expected census: `Limits::MAX` (named only as `Limits::MAX`), `Probe`
//! (a trait only a `use` names) and `Ticks` (an alias named only in a type
//! position) are `product`; `Spare::MAX` (same name, other owner) and
//! `only_imported` (a fn only a `use` names) are `none`; `internal` is
//! `pub(crate)`, so it is not in the census.

pub struct Limits;

impl Limits {
    pub const MAX: u32 = 8;
}

pub struct Spare;

impl Spare {
    pub const MAX: u32 = 9;
}

pub trait Probe {
    fn probe(&self) -> u32 {
        0
    }
}

pub type Ticks = u64;

pub fn only_imported() {}

pub(crate) fn internal() {}

fn main() {
    use crate::only_imported;
    use crate::Probe;
    let budget: Ticks = 3;
    let _ = (budget, Limits::MAX, Spare);
    internal();
}
