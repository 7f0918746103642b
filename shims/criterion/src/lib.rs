//! Offline stand-in for `criterion`.
//!
//! A real (if minimal) wall-clock benchmarking harness with criterion's API
//! shape: `criterion_group!`/`criterion_main!`, `Criterion::benchmark_group`,
//! `bench_function` / `bench_with_input`, `Bencher::iter` / `iter_batched`,
//! `BenchmarkId`, `Throughput`, and `black_box`. Each benchmark reports
//! mean ns/iter (and derived element throughput when configured) to stdout;
//! a bare command-line argument filters benchmarks by substring. There is
//! no statistical analysis, HTML report, or baseline comparison.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How long to warm up each benchmark before measuring.
const WARM_UP: Duration = Duration::from_millis(120);
/// Target measurement time per benchmark.
const MEASURE: Duration = Duration::from_millis(400);

/// Benchmark identifier: `function_id/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Criterion-style two-part id.
    pub fn new(function_id: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function_id}/{parameter}"),
        }
    }

    /// Id carrying only a parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

impl From<&String> for BenchmarkId {
    fn from(s: &String) -> Self {
        BenchmarkId { id: s.clone() }
    }
}

/// Throughput hint attached to a group; `Elements` yields a Melem/s line.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Number of logical elements processed per iteration.
    Elements(u64),
    /// Number of bytes processed per iteration.
    Bytes(u64),
}

/// Per-iteration batch sizing for `iter_batched` (accepted, not interpreted:
/// the shim always runs one setup per timed routine call).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small inputs: batch many per allocation in real criterion.
    SmallInput,
    /// Large inputs.
    LargeInput,
    /// Per-iteration setup.
    PerIteration,
}

/// Passed to benchmark closures; runs and times the measured routine.
pub struct Bencher {
    /// Accumulated measured time.
    elapsed: Duration,
    /// Number of timed iterations contributing to `elapsed`.
    iters: u64,
}

impl Bencher {
    /// Time `routine` over a warmup phase then a measurement phase.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: untimed.
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARM_UP {
            black_box(routine());
        }
        // Measurement: batches of doubling size until the budget is spent.
        let mut batch: u64 = 1;
        let measure_start = Instant::now();
        while measure_start.elapsed() < MEASURE {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.elapsed += t0.elapsed();
            self.iters += batch;
            if batch < 1 << 20 {
                batch *= 2;
            }
        }
    }

    /// Time `routine` with a fresh `setup()` input per call; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARM_UP {
            let input = setup();
            black_box(routine(input));
        }
        let measure_start = Instant::now();
        while measure_start.elapsed() < MEASURE {
            let input = setup();
            let t0 = Instant::now();
            let out = routine(input);
            self.elapsed += t0.elapsed();
            self.iters += 1;
            black_box(out);
        }
    }

    fn report(&self, name: &str, throughput: Option<Throughput>) {
        if self.iters == 0 {
            println!("{name:<56} (no iterations)");
            return;
        }
        let ns_per_iter = self.elapsed.as_nanos() as f64 / self.iters as f64;
        let mut line = format!("{name:<56} {ns_per_iter:>14.1} ns/iter");
        match throughput {
            Some(Throughput::Elements(n)) => {
                let per_sec = n as f64 * 1e9 / ns_per_iter;
                line.push_str(&format!("  {:>12.3} Melem/s", per_sec / 1e6));
            }
            Some(Throughput::Bytes(n)) => {
                let per_sec = n as f64 * 1e9 / ns_per_iter;
                line.push_str(&format!("  {:>12.3} MiB/s", per_sec / (1024.0 * 1024.0)));
            }
            None => {}
        }
        println!("{line}");
    }
}

/// Runs and reports one benchmark — unless the command line carries a
/// filter (criterion's convention: the first argument that is not a flag,
/// as in `cargo bench --bench fabric_scaling -- wr_cycle`) and `name` does
/// not contain it.
fn run_named(name: &str, throughput: Option<Throughput>, f: impl FnOnce(&mut Bencher)) {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    if filter.is_some_and(|f| !name.contains(&f)) {
        return;
    }
    let mut bencher = Bencher {
        elapsed: Duration::ZERO,
        iters: 0,
    };
    f(&mut bencher);
    bencher.report(name, throughput);
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    /// Set the throughput used for derived rates on subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Accepted for API compatibility; the shim sizes batches by time.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_named(&format!("{}/{}", self.name, id.id), self.throughput, f);
        self
    }

    /// Run one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        run_named(&format!("{}/{}", self.name, id.id), self.throughput, |b| {
            f(b, input)
        });
        self
    }

    /// End the group (prints a trailing blank line, mirroring criterion's
    /// visual grouping).
    pub fn finish(self) {
        println!();
    }
}

/// Top-level harness handle.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group: {name}");
        BenchmarkGroup {
            name,
            throughput: None,
            _criterion: self,
        }
    }

    /// Run a stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_named(&id.into().id, None, f);
        self
    }
}

/// Bundle benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emit `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        };
        b.iter(|| black_box(1u64 + 1));
        assert!(b.iters > 0);
        assert!(b.elapsed > Duration::ZERO);
    }

    #[test]
    fn iter_batched_runs_setup_per_iter() {
        let mut b = Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        };
        let mut setups = 0u64;
        b.iter_batched(
            || {
                setups += 1;
                vec![0u8; 16]
            },
            |v| v.len(),
            BatchSize::SmallInput,
        );
        assert!(b.iters > 0);
        assert!(setups >= b.iters);
    }
}
