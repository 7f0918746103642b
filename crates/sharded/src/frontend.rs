//! What both drive modes need, written once: the global↔(shard, local)
//! slot indirection, the host-side shadow of every loaded stream, the
//! comparison mode, the failed shards as one mask word — and the four
//! rules over them: slot routing ([`Frontend::route`]), the merge order
//! ([`Frontend::merge_before`], with the scan and the streamlet sort built
//! on it), exclusion booking ([`Frontend::exclude`]) and merge-telemetry
//! recording ([`ss_core::MergeHooks::record_merge`], the `metrics` field).
//! [`ShardedScheduler::into_threaded`](crate::ShardedScheduler::into_threaded)
//! moves this struct whole, so whatever happened inline — a redistribution,
//! an exclusion, an attached registry or injector — is what the threaded
//! runtime runs with.

use ss_core::decision::{lane_order, DecisionRule};
use ss_core::{FabricConfig, RecoveryLedger, ScheduledPacket, StreamState, Telemetry};
use ss_types::packed::lane_valid;
use ss_types::{slot_bits, ComparisonMode, Error, Result, SlotId, MAX_SLOTS};

/// The most shards a frontend can have: a shard is at least a 2-slot
/// fabric, and global slot IDs are the 5-bit field. A set of shards is
/// therefore a `u32` word with the top half clear.
pub(crate) const MAX_SHARDS: usize = MAX_SLOTS / 2;

/// One shard's entry in a streamlet: its pre-service winner word (the
/// merge key), the packet it serviced, and the shard index.
pub(crate) type Lane = (u64, ScheduledPacket, usize);

/// The state and rules shared by the inline and threaded drive modes.
pub(crate) struct Frontend<T: Telemetry> {
    per_shard: usize,
    total_slots: usize,
    mode: ComparisonMode,
    /// Global slot → (shard, local). Starts as the contiguous partition;
    /// [`Frontend::rehome`] edits it when streams move off a failed shard.
    slot_map: Vec<(usize, usize)>,
    /// (shard, local) → global slot (exact inverse of `slot_map`).
    rev_map: Vec<Vec<usize>>,
    /// Host-side shadow of every loaded stream's configuration — the
    /// supervisor's copy that makes rehoming off dead hardware possible.
    shadow: Vec<Option<StreamState>>,
    /// The shards that exist: the low K bits set.
    shards: u32,
    /// Bit k set = shard k is out of the merge for good: operator-failed,
    /// crashed, or (in threaded mode) a worker whose proposal ring
    /// disconnected. Both drive modes read this one word.
    failed: u32,
    /// Backlogged packets written off when shards were excluded.
    lost_packets: u64,
    /// The shared injector's recovery ledger (zero-sized without `faults`).
    pub(crate) ledger: RecoveryLedger,
    /// Winner counters and merge latency (zero-sized for `T = ()`).
    pub(crate) metrics: T::Merge,
}

impl<T: Telemetry> Frontend<T> {
    /// The contiguous partition of `config.slots` global slots over
    /// `shards` shards: global `g` lives on shard `g / (M/K)` as local slot
    /// `g % (M/K)`. The caller has validated that `shards` divides the
    /// slot count and is at most [`MAX_SHARDS`].
    pub(crate) fn new(config: &FabricConfig, shards: usize) -> Self {
        let per_shard = config.slots / shards;
        Self {
            per_shard,
            total_slots: config.slots,
            mode: config.mode,
            slot_map: (0..config.slots)
                .map(|g| (g / per_shard, g % per_shard))
                .collect(),
            rev_map: (0..shards)
                .map(|k| (0..per_shard).map(|l| k * per_shard + l).collect())
                .collect(),
            shadow: vec![None; config.slots],
            shards: (1u32 << shards) - 1,
            failed: 0,
            lost_packets: 0,
            ledger: RecoveryLedger::new(),
            metrics: Default::default(),
        }
    }

    pub(crate) fn per_shard(&self) -> usize {
        self.per_shard
    }

    pub(crate) fn total_slots(&self) -> usize {
        self.total_slots
    }

    /// Global slot → its current (shard, local) home.
    #[inline]
    pub(crate) fn route(&self, global: usize) -> Result<(usize, usize)> {
        self.slot_map
            .get(global)
            .copied()
            .ok_or(Error::SlotOutOfRange {
                slot: global,
                slots: self.total_slots,
            })
    }

    /// Like [`Frontend::route`], but rejects slots homed on an excluded
    /// shard — data-path operations must not talk to dead hardware.
    #[inline]
    pub(crate) fn route_live(&self, global: usize) -> Result<(usize, usize)> {
        let (shard, local) = self.route(global)?;
        if self.is_failed(shard) {
            return Err(Error::ShardFailed { shard });
        }
        Ok((shard, local))
    }

    /// (shard, local) → the global slot homed there.
    #[inline]
    pub(crate) fn global_of(&self, shard: usize, local: usize) -> usize {
        self.rev_map[shard][local]
    }

    /// `packet`, which `shard` serviced, in global slot coordinates.
    #[inline]
    pub(crate) fn globalize(&self, shard: usize, packet: ScheduledPacket) -> ScheduledPacket {
        ScheduledPacket {
            slot: SlotId::new_unchecked(self.global_of(shard, packet.slot.index()) as u8),
            ..packet
        }
    }

    pub(crate) fn shadow(&self, global: usize) -> Option<&StreamState> {
        self.shadow[global].as_ref()
    }

    pub(crate) fn set_shadow(&mut self, global: usize, state: Option<StreamState>) {
        self.shadow[global] = state;
    }

    /// `true` once shard `k` (below [`MAX_SHARDS`]) is out of the merge.
    #[inline]
    pub(crate) fn is_failed(&self, k: usize) -> bool {
        self.failed & (1 << k) != 0
    }

    /// The shards still in the merge, as a mask.
    // lint:hot-path
    #[inline]
    pub(crate) fn live(&self) -> u32 {
        self.shards & !self.failed
    }

    /// Indices of excluded shards, ascending.
    pub(crate) fn failed_shards(&self) -> Vec<usize> {
        slot_bits(self.failed).collect()
    }

    /// The global slots homed on shard `k`, as a mask (0 when `k` is out
    /// of range): read off the reverse map, so it follows every rehoming.
    pub(crate) fn slots_on(&self, k: usize) -> u32 {
        self.rev_map
            .get(k)
            .map_or(0, |row| row.iter().fold(0, |mask, &g| mask | 1 << g))
    }

    pub(crate) fn lost_packets(&self) -> u64 {
        self.lost_packets
    }

    /// Takes `shard` out of the merge and books it: the flag, `lost`
    /// written-off packets, and one detection + one exclusion (+ `lost`)
    /// on the injector's recovery ledger. `lost` is what the caller could
    /// see queued on the shard: the fabric's backlog inline; 0 from the
    /// threaded merger, whose dead worker still owns its fabric (the
    /// stranded backlog is readable off the fabric
    /// [`ThreadedShards::join`](crate::ThreadedShards::join) returns).
    pub(crate) fn exclude(&mut self, shard: usize, lost: u64) {
        self.failed |= 1 << shard;
        self.lost_packets += lost;
        self.ledger.shard_excluded(lost);
    }

    /// Moves `global` off its (failed) home onto the first free slot of a
    /// surviving shard — one whose current tenant has nothing loaded — and
    /// returns the new (shard, local) home, or `None` when surviving
    /// capacity is exhausted. The two slots swap homes, so the indirection
    /// stays a bijection: the empty tenant takes over the dead home.
    pub(crate) fn rehome(&mut self, global: usize) -> Option<(usize, usize)> {
        let (from, local) = self.slot_map[global];
        let (k2, l2, tenant) = self
            .rev_map
            .iter()
            .enumerate()
            .filter(|&(k2, _)| !self.is_failed(k2))
            .find_map(|(k2, row)| {
                let l2 = row.iter().position(|&t| self.shadow[t].is_none())?;
                Some((k2, l2, row[l2]))
            })?;
        self.slot_map[global] = (k2, l2);
        self.slot_map[tenant] = (from, local);
        self.rev_map[k2][l2] = global;
        self.rev_map[from][local] = tenant;
        Some((k2, l2))
    }

    /// The merge order: does lane word `word` go before `incumbent`, and
    /// which Table 2 rule said so. A `SlotId` verdict compared shard-local
    /// IDs, which is meaningless across shards: proposals are visited in
    /// ascending shard order and the earlier shard holds the lower global
    /// IDs, so the incumbent keeps a full tie.
    #[inline]
    pub(crate) fn merge_before(&self, word: u64, incumbent: u64) -> (bool, DecisionRule) {
        let (wins, rule) = lane_order(word, incumbent, self.mode);
        (wins && rule != DecisionRule::SlotId, rule)
    }

    /// The winner scan over `(shard, winner word)` proposals in ascending
    /// shard order: the shard whose word goes before every other, with the
    /// rule that decided the last comparison it took part in (`None` when
    /// it was the only candidate). `None` when every proposal is an empty
    /// word.
    #[inline]
    pub(crate) fn pick(
        &self,
        proposals: impl Iterator<Item = (usize, u64)>,
    ) -> Option<(usize, Option<DecisionRule>)> {
        let mut best: Option<(usize, u64)> = None;
        let mut reason = None;
        for (k, w) in proposals {
            match best {
                None => best = Some((k, w)),
                Some((_, b)) => {
                    let (before, rule) = self.merge_before(w, b);
                    reason = Some(rule);
                    if before {
                        best = Some((k, w));
                    }
                }
            }
        }
        best.and_then(|(k, w)| lane_valid(w).then_some((k, reason)))
    }

    /// Orders one cycle's lanes into a streamlet. Insertion sort — K ≤
    /// [`MAX_SHARDS`], and the lanes arrive in ascending shard order, so
    /// full ties stay put.
    pub(crate) fn sort_streamlet(&self, lanes: &mut [Lane]) {
        for i in 1..lanes.len() {
            let mut j = i;
            while j > 0 && self.merge_before(lanes[j].0, lanes[j - 1].0).0 {
                lanes.swap(j - 1, j);
                j -= 1;
            }
        }
    }
}
