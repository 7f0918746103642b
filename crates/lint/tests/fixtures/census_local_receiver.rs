//! Fixture: a method reached only through a local receiver, which the call
//! graph leaves unresolved.
//! Expected census: `Gauge::read` is `product`, not `none`.

pub struct Gauge;

impl Gauge {
    pub fn new() -> Gauge {
        Gauge
    }

    pub fn read(&self) -> u64 {
        0
    }
}

fn main() {
    let g = Gauge::new();
    g.read();
}
