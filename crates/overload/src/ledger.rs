//! Loss-site conservation ledger.
//!
//! PR 3 established the conservation invariant `transmitted + lost ==
//! offered` with a single `lost` scalar. Once admission control and
//! shedding exist, a scalar is no longer trustworthy: a packet rejected at
//! admission must not *also* be counted when the shedder runs in the same
//! cycle, and "lost" stops being actionable if nobody knows *where*. The
//! ledger classifies every loss by the unique site that consumed the
//! packet:
//!
//! * **admission** — rejected by the token-bucket controller (never
//!   buffered);
//! * **ring** — dropped at an overflowing SPSC ring, or corrupted in it;
//! * **shed** — admitted but dropped by the QoS-aware shedder / RED front
//!   end, or by the fabric at the packet's
//!   deadline (`LatePolicy::Drop` expiry);
//! * **shard** — written off with a stuck fabric or crashed shard's
//!   backlog;
//! * **drain** — accepted at the network ingress edge but written off
//!   unserved when a graceful drain (or shutdown) flushed the boundary.
//!
//! A packet is recorded at exactly one site — the first that touches it —
//! so the partition sums *exactly*: `total() == admission + ring + shed +
//! shard + drain`, and the endsystem's conservation assert becomes
//! `transmitted + ledger.total() + still_queued == offered`.

use serde::Serialize;

/// Where a packet was lost. Each lost packet belongs to exactly one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum LossSite {
    /// Rejected by admission control before any buffering.
    Admission,
    /// Dropped at an SPSC ring (overflow burst or corrupt message).
    Ring,
    /// Dropped by the QoS-aware shedder or RED — or by
    /// the fabric itself, when a `LatePolicy::Drop` stream's head expires
    /// at its deadline (the threaded endsystem books those here).
    Shed,
    /// Written off with a stuck/crashed shard's abandoned backlog.
    Shard,
    /// Accepted at the ingress edge but written off unserved by a
    /// graceful drain or shutdown flush.
    Drain,
}

impl LossSite {
    /// Metric-label name.
    pub fn name(self) -> &'static str {
        match self {
            LossSite::Admission => "admission",
            LossSite::Ring => "ring",
            LossSite::Shed => "shed",
            LossSite::Shard => "shard",
            LossSite::Drain => "drain",
        }
    }

    /// All sites, in declaration order.
    pub const ALL: [LossSite; 5] = [
        LossSite::Admission,
        LossSite::Ring,
        LossSite::Shed,
        LossSite::Shard,
        LossSite::Drain,
    ];
}

/// Per-site loss counters. `Copy` so reports can embed a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LossLedger {
    /// Packets rejected at admission.
    pub admission: u64,
    /// Packets dropped at SPSC rings.
    pub ring: u64,
    /// Packets shed by QoS-aware policy, or dropped by the fabric at
    /// their deadline (`LatePolicy::Drop` expiry).
    pub shed: u64,
    /// Packets abandoned with failed/stuck shards.
    pub shard: u64,
    /// Packets written off unserved by a graceful ingress drain.
    pub drain: u64,
}

impl LossLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one loss at `site`. Hot path: branch + increment, nothing
    /// else.
    // lint:hot-path
    #[inline]
    pub fn record(&mut self, site: LossSite) {
        match site {
            LossSite::Admission => self.admission += 1,
            LossSite::Ring => self.ring += 1,
            LossSite::Shed => self.shed += 1,
            LossSite::Shard => self.shard += 1,
            LossSite::Drain => self.drain += 1,
        }
    }

    /// Records `n` losses at `site`.
    // lint:hot-path
    #[inline]
    pub fn record_n(&mut self, site: LossSite, n: u64) {
        match site {
            LossSite::Admission => self.admission += n,
            LossSite::Ring => self.ring += n,
            LossSite::Shed => self.shed += n,
            LossSite::Shard => self.shard += n,
            LossSite::Drain => self.drain += n,
        }
    }

    /// Count at one site.
    /// Tests-only: the chaos soak's replay fingerprint (`crates/ingress/tests/chaos_soak.rs`) reads
    /// it.
    pub fn at(&self, site: LossSite) -> u64 {
        match site {
            LossSite::Admission => self.admission,
            LossSite::Ring => self.ring,
            LossSite::Shed => self.shed,
            LossSite::Shard => self.shard,
            LossSite::Drain => self.drain,
        }
    }

    /// Total loss — by construction the exact sum of the partition.
    pub fn total(&self) -> u64 {
        self.admission + self.ring + self.shed + self.shard + self.drain
    }

    /// Folds another ledger in (e.g. merging per-thread ledgers).
    pub fn merge(&mut self, other: &LossLedger) {
        self.admission += other.admission;
        self.ring += other.ring;
        self.shed += other.shed;
        self.shard += other.shard;
        self.drain += other.drain;
    }
}

impl std::fmt::Display for LossLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lost {} (admission {}, ring {}, shed {}, shard {}, drain {})",
            self.total(),
            self.admission,
            self.ring,
            self.shed,
            self.shard,
            self.drain
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_sums_exactly() {
        let mut l = LossLedger::new();
        l.record(LossSite::Admission);
        l.record(LossSite::Admission);
        l.record(LossSite::Ring);
        l.record_n(LossSite::Shed, 5);
        l.record_n(LossSite::Shard, 3);
        l.record_n(LossSite::Drain, 4);
        assert_eq!(l.total(), 15);
        assert_eq!(
            LossSite::ALL.iter().map(|&s| l.at(s)).sum::<u64>(),
            l.total(),
            "the by-site partition is exact"
        );
    }

    #[test]
    fn merge_adds_sitewise() {
        let mut a = LossLedger::new();
        a.record(LossSite::Ring);
        let mut b = LossLedger::new();
        b.record_n(LossSite::Ring, 2);
        b.record(LossSite::Shed);
        a.merge(&b);
        assert_eq!(a.ring, 3);
        assert_eq!(a.shed, 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn display_names_every_site() {
        let mut l = LossLedger::new();
        l.record(LossSite::Shard);
        let s = l.to_string();
        for site in LossSite::ALL {
            assert!(s.contains(site.name()), "{s} missing {}", site.name());
        }
    }
}
