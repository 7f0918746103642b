//! What the four workloads share: the timed slice loop, repeated set-up,
//! process accounting from `/proc`, and the run's context block.

use crate::stats::Hist;
use std::time::Instant;

/// A built, warmed-up workload that the slice loop drives.
pub trait Rig {
    /// Runs one op and records the time of the call the driver blocks on
    /// into `hist`. An op the workload withholds records nothing.
    fn op(&mut self, hist: &mut Hist);

    /// Packets that have reached their terminal transmit site so far.
    fn packets(&self) -> u64;
}

/// How long a pass measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Whole slices until this many seconds have passed (`--seconds`).
    Seconds(f64),
    /// Exactly this many slices: fixed work, so every count repeats.
    Slices(u32),
}

impl Budget {
    /// The same kind of budget, `share` of the size (at least one slice).
    pub fn share(self, share: f64) -> Self {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s * share),
            Budget::Slices(n) => Budget::Slices(((f64::from(n) * share) as u32).max(1)),
        }
    }

    /// `true` once a pass that began at `start` and has completed
    /// `slices` slices has used the budget up.
    pub fn spent(self, start: Instant, slices: usize) -> bool {
        match self {
            Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s,
            Budget::Slices(n) => slices >= n as usize,
        }
    }
}

/// Process counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User-mode CPU time of all threads, s.
    pub user_s: f64,
    /// Kernel-mode CPU time of all threads, s.
    pub sys_s: f64,
    /// Voluntary + involuntary context switches of all live threads.
    pub ctx_switches: u64,
}

/// `/proc/self/stat` counts CPU time in clock ticks; Linux fixes the
/// user-visible tick at 100 Hz on every architecture.
const TICKS_PER_S: f64 = 100.0;

/// User and kernel CPU seconds of the process so far (zeros where
/// `/proc` is unreadable).
fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after its ')'.
    let mut fields = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .skip(11);
    let mut ticks = || -> f64 {
        let t: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
        t as f64 / TICKS_PER_S
    };
    (ticks(), ticks())
}

impl ProcSample {
    /// Reads the counters now.
    pub fn now() -> Self {
        let (user_s, sys_s) = cpu_times();
        // /proc/self/status holds the main thread's switches only.
        let mut ctx_switches = 0u64;
        for task in std::fs::read_dir("/proc/self/task").into_iter().flatten() {
            let Ok(task) = task else { continue };
            let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
            ctx_switches += status
                .lines()
                .filter(|l| l.contains("ctxt_switches"))
                .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                .sum::<u64>();
        }
        Self {
            user_s,
            sys_s,
            ctx_switches,
        }
    }

    /// CPU seconds (user + kernel) spent since `earlier`.
    pub fn cpu_s_since(&self, earlier: &Self) -> f64 {
        (self.user_s - earlier.user_s) + (self.sys_s - earlier.sys_s)
    }
}

/// Peak resident set of the process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One timed slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Packets that reached their transmit site during the slice.
    pub packets: u64,
    /// Packets per second.
    pub rate: f64,
    /// Median op time, ns (0 if the slice timed no op).
    pub p50_ns: f64,
    /// Process CPU time charged during the slice, s (10 ms ticks).
    pub cpu_s: f64,
}

/// What the slice loop measured.
#[derive(Debug)]
pub struct Timed {
    /// Every slice, in order.
    pub slices: Vec<Slice>,
    /// Op times of the whole pass, ns.
    pub hist: Hist,
    /// Ops run.
    pub ops: u64,
    /// Packets that reached their transmit site during the slices.
    pub packets: u64,
    /// Wall time of the slices, s.
    pub wall_s: f64,
    /// Process counters before the first and after the last slice.
    pub proc_start: ProcSample,
    /// See `proc_start`.
    pub proc_end: ProcSample,
}

/// The share of slices (and of set-ups) a run-level timing is read from.
///
/// The shared 2-core build host disturbs a run in ways that are not the
/// program's doing. Another guest competes for the physical core: for
/// minutes on end the vCPU runs in bursts — the same op takes 1.2 µs in
/// one 10 ms slice and 2.0 µs in the next — and is descheduled for up to
/// 4 ms some twenty times a second. The socket path runs at two speeds
/// (≈ 8 µs and ≈ 12 µs per round trip; same segments and context
/// switches per op, also with every thread on one CPU) and flips between
/// them for seconds at a time. And the host's speed drifts by a few
/// percent over minutes. A statistic over the whole run reads whatever
/// mix of these the run happened to get: two runs of the same code
/// differed by up to half.
///
/// All of it is one-sided — it only ever makes things slower — so every
/// timing is read from the best decile of short slices: a slice is about
/// ten milliseconds, so some slices fall between the other guest's
/// bursts, and the decile reads the fast socket state whenever a tenth of
/// the run was in it. Within a slice the statistic is still the median
/// over hundreds or thousands of ops, and a cost the program pays more
/// often than once per slice is in every slice, so the decile cannot
/// hide it.
pub const BEST_SHARE: f64 = 0.1;

fn best(values: impl Iterator<Item = f64>, p: f64) -> f64 {
    let mut v: Vec<f64> = values.filter(|x| *x > 0.0).collect();
    crate::stats::percentile(&mut v, p).unwrap_or(0.0)
}

impl Timed {
    /// Packets per second: the slice at the 90th percentile.
    pub fn best_rate(&self) -> f64 {
        best(self.slices.iter().map(|s| s.rate), 1.0 - BEST_SHARE)
    }

    /// Median op time, ns: the slice at the 10th percentile.
    pub fn best_p50_ns(&self) -> f64 {
        best(self.slices.iter().map(|s| s.p50_ns), BEST_SHARE)
    }

    /// CPU ns per packet over the tenth of slices with the highest
    /// packet rate, pooled. One slice is charged one or two 10 ms ticks,
    /// so slices are chosen by their rate, which is exact, and their CPU
    /// time is summed: two hundred slices make some two seconds.
    pub fn best_cpu_ns_per_pkt(&self) -> f64 {
        let mut by_rate: Vec<&Slice> = self.slices.iter().collect();
        by_rate.sort_by(|a, b| b.rate.total_cmp(&a.rate));
        by_rate.truncate(((by_rate.len() as f64 * BEST_SHARE).ceil() as usize).max(1));
        let (cpu_s, packets) = by_rate
            .iter()
            .fold((0.0, 0u64), |(c, p), s| (c + s.cpu_s, p + s.packets));
        cpu_s * 1e9 / packets.max(1) as f64
    }

    /// Packets per second over the whole pass.
    pub fn overall_rate(&self) -> f64 {
        self.packets as f64 / self.wall_s
    }
}

/// Runs `rig` in slices of `ops_per_slice` ops until `budget` is spent.
pub fn measure<R: Rig>(rig: &mut R, ops_per_slice: u64, budget: Budget) -> Timed {
    let (mut hist, mut slice_hist) = (Hist::new(), Hist::new());
    let mut slices = Vec::with_capacity(8192);
    let cpu_now = || {
        let (user_s, sys_s) = cpu_times();
        user_s + sys_s
    };
    let proc_start = ProcSample::now();
    let first_packets = rig.packets();
    let start = Instant::now();
    let (mut slice_start, mut slice_packets, mut slice_cpu) = (start, first_packets, cpu_now());
    let mut ops = 0u64;
    loop {
        for _ in 0..ops_per_slice {
            rig.op(&mut slice_hist);
        }
        ops += ops_per_slice;
        let (now, packets, cpu) = (Instant::now(), rig.packets(), cpu_now());
        slices.push(Slice {
            packets: packets - slice_packets,
            rate: (packets - slice_packets) as f64 / now.duration_since(slice_start).as_secs_f64(),
            p50_ns: slice_hist.percentile(0.5).unwrap_or(0.0),
            cpu_s: cpu - slice_cpu,
        });
        hist.absorb(&mut slice_hist);
        // The bookkeeping above is outside the next slice's clock.
        (slice_start, slice_packets, slice_cpu) = (Instant::now(), packets, cpu);
        if budget.spent(start, slices.len()) {
            break;
        }
    }
    Timed {
        slices,
        hist,
        ops,
        packets: slice_packets - first_packets,
        wall_s: slice_start.duration_since(start).as_secs_f64(),
        proc_start,
        proc_end: ProcSample::now(),
    }
}

/// Runs every arm once per round, round after round, until `budget` is
/// spent (a round counts as a slice), so host drift lands on all arms
/// alike.
pub fn interleave(budget: Budget, arms: &mut [&mut dyn FnMut()]) {
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        for arm in arms.iter_mut() {
            arm();
        }
        rounds += 1;
        if budget.spent(start, rounds) {
            break;
        }
    }
}

/// Set-ups per run. Each is kept to a few milliseconds so that some of
/// them fall between the stalls of the host.
pub const SETUPS: usize = 30;

/// Builds the workload [`SETUPS`] times — construction through the end
/// of the warm-up slice, i.e. everything before the first timed op —
/// tears down all but the last, and returns the last with the build time
/// at the best decile ([`BEST_SHARE`]) in seconds.
pub fn setup_best<R>(mut build: impl FnMut() -> R, mut discard: impl FnMut(R)) -> (R, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t = Instant::now();
        kept = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    let best = crate::stats::percentile(&mut times, BEST_SHARE).expect("SETUPS > 0");
    (kept.expect("SETUPS > 0"), best)
}

/// The conditions a run was taken under, one `key: value` per line.
pub fn context_block() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let ba32 = ss_core::FabricConfig::dwcs(32, ss_core::FabricConfigKind::Base);
    let batched = ss_core::Fabric::new(ba32).is_ok_and(|f| f.is_batched());
    format!(
        "  nproc: {nproc}\n  features: default (telemetry, faults, simd, pinning, overload off)\n  \
         core.fabric dispatch (ba32): {}\n  rustc: {}\n  git: {}\n  \
         network: loopback interface (127.0.0.1), not a real link\n",
        if batched {
            "batched kernel"
        } else {
            "scalar reference (Fabric::is_batched() == false)"
        },
        env!("SS_BENCHMARK_RUSTC"),
        git_rev(),
    )
}

/// HEAD of the checkout in the working directory, read from `.git`
/// without running git; `unknown` outside a repository.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        r => r.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl Rig for Counter {
        fn op(&mut self, hist: &mut Hist) {
            self.0 += 2;
            hist.record(100);
        }
        fn packets(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn fixed_slices_run_fixed_work() {
        let mut rig = Counter(10);
        let t = measure(&mut rig, 50, Budget::Slices(4));
        assert_eq!((t.ops, t.packets, t.slices.len()), (200, 400, 4));
        assert_eq!(t.hist.count(), 200);
        assert!(t.wall_s > 0.0 && t.overall_rate() > 0.0);
        assert_eq!(t.best_p50_ns(), 100.0);
        assert!(t.best_cpu_ns_per_pkt() >= 0.0);
        assert!(t.best_rate() >= t.slices.iter().map(|s| s.rate).fold(f64::MAX, f64::min));
    }

    #[test]
    fn a_seconds_budget_stops_at_a_slice_boundary() {
        let mut rig = Counter(0);
        let t = measure(&mut rig, 1000, Budget::Seconds(0.02));
        assert!(t.wall_s >= 0.02);
        assert_eq!(t.ops, 1000 * t.slices.len() as u64);
        assert_eq!(Budget::Seconds(8.0).share(0.25), Budget::Seconds(2.0));
        assert_eq!(Budget::Slices(40).share(0.25), Budget::Slices(10));
        assert_eq!(Budget::Slices(2).share(0.25), Budget::Slices(1));
    }

    #[test]
    fn interleaved_arms_run_the_same_number_of_rounds() {
        let (mut a, mut b) = (0, 0);
        interleave(Budget::Slices(3), &mut [&mut || a += 1, &mut || b += 1]);
        assert_eq!((a, b), (3, 3));
    }

    #[test]
    fn setup_is_repeated_and_all_but_the_last_discarded() {
        let (mut built, mut dropped) = (0, 0);
        let (last, best) = setup_best(
            || {
                built += 1;
                built
            },
            |_| dropped += 1,
        );
        assert_eq!((last, built, dropped), (SETUPS, SETUPS, SETUPS - 1));
        assert!(best >= 0.0);
    }

    #[test]
    fn proc_counters_read_on_linux() {
        let a = ProcSample::now();
        let t = Instant::now();
        while t.elapsed().as_millis() < 30 {
            std::hint::spin_loop();
        }
        let b = ProcSample::now();
        assert!(b.cpu_s_since(&a) >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(context_block().contains("nproc"));
    }
}
