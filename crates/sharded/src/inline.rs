//! The inline drive mode: the K fabrics on the calling thread, one exact
//! global decision per [`ShardedScheduler::decision_cycle`]. Owns what only
//! this mode has — the fabrics themselves, the global cycle count, injected
//! stall horizons and the per-shard recovery supervisors — over the shared
//! [`Frontend`].

use crate::frontend::{Frontend, MAX_SHARDS};
use crate::threaded::ThreadedShards;
use ss_core::decision::DecisionRule;
use ss_core::hwsim::FabricConfigKind;
use ss_core::{
    DecisionWatchdog, Fabric, FabricConfig, MergeHooks, ScheduledPacket, SlotCounters, StreamState,
    SupervisorHooks, Telemetry, Traced, WatchdogVerdict,
};
use ss_types::{slot_bits, Error, Result, Wrap16};

/// One global cycle's proposed winner words, by shard, on the stack: the
/// merge and the grant read the same words.
#[derive(Default)]
struct Proposals {
    words: [u64; MAX_SHARDS],
    /// Bit k set = shard k proposed this cycle.
    made: u32,
}

impl Proposals {
    #[inline]
    fn set(&mut self, k: usize, word: u64) {
        self.words[k] = word;
        self.made |= 1 << k;
    }

    /// `(shard, word)` in ascending shard order — the order
    /// [`Frontend::pick`] breaks full ties by — visiting the bits of
    /// `made` only.
    #[inline]
    fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        slot_bits(self.made).map(|k| (k, self.words[k]))
    }
}

/// One shard's recovery supervisor (armed by
/// [`ShardedScheduler::enable_recovery`]).
#[derive(Debug, Clone)]
struct Supervisor {
    /// Judges the shard's grants: stuck after its stall threshold, fit to
    /// go back to the card after its healthy streak.
    watchdog: DecisionWatchdog,
    /// `true` from the hand-over to the re-attach: the host decides for
    /// the shard on its own register image, with no card faults drawn.
    on_host: bool,
    failovers: u64,
    reattaches: u64,
}

/// The sharded frontend: K fabric shards plus the comparator merge,
/// instrumented by `T` (`()` records nothing; [`Traced`] carries the
/// shard fabrics' telemetry, the merge metrics and the merge trace).
pub struct ShardedScheduler<T: Telemetry = ()> {
    front: Frontend<T>,
    shards: Vec<Fabric<T>>,
    decision_count: u64,
    /// Per-shard transient-stall horizon: the shard proposes nothing while
    /// `decision_count < stalled_until[k]` (it still expires, so shard
    /// clocks stay in lockstep).
    stalled_until: Vec<u64>,
    /// Per-shard recovery supervisors (empty until
    /// [`ShardedScheduler::enable_recovery`]; empty, a crashed shard is
    /// excluded and its backlog written off).
    recovery: Vec<Supervisor>,
    /// Merge wins on a span track and path switches in the flight recorder
    /// (zero-sized for `T = ()`). Inline-mode state: it does not follow
    /// the fabrics into [`ShardedScheduler::into_threaded`].
    trace: T::Supervisor,
}

impl ShardedScheduler {
    /// Builds K uninstrumented shards from `config`; see
    /// [`ShardedScheduler::with_telemetry`].
    pub fn new(config: FabricConfig, shards: usize) -> Result<Self> {
        Self::with_telemetry(config, shards)
    }
}

impl ShardedScheduler<Traced> {
    /// Attaches telemetry to the frontend and every shard fabric. Each
    /// shard registers its fabric metrics under a `shard="<k>"` label; the
    /// frontend adds per-shard winner counters, an idle-cycle counter and
    /// the merge-latency histogram. Call before
    /// [`ShardedScheduler::into_threaded`] — the instrumentation moves onto
    /// the workers with the fabrics.
    pub fn attach_telemetry(&mut self, registry: &ss_telemetry::Registry) {
        for (k, fabric) in self.shards.iter_mut().enumerate() {
            fabric.attach_telemetry(registry, k as u16);
        }
        self.front.metrics.attach(registry, self.shards.len());
    }

    /// Attaches lifecycle-span recording to the inline merge: every global
    /// decision leaves a `MergeWin` event on a `"merge"` track whose tag
    /// names the winning shard (origin), the global slot and the slot's win
    /// sequence, and whose detail byte is the Table 2 rule that decided the
    /// merge ([`ss_telemetry::span::detail::MERGE_ONLY_CANDIDATE`] when
    /// only one shard competed). Inline-mode state: spans do not follow the
    /// fabrics into [`ShardedScheduler::into_threaded`].
    pub fn attach_spans(&mut self, recorder: &ss_telemetry::SpanRecorder) {
        self.trace
            .attach_spans(recorder, "merge", self.front.total_slots());
    }

    /// Drops the merge track (flushing it into its recorder's drain set).
    /// Tests-only: `tests/trace_lifecycle.rs` checks with it that detaching flushes the track.
    pub fn detach_spans(&mut self) {
        self.trace.detach_spans();
    }

    /// Wires a shared flight recorder to the recovery supervisors: a
    /// hand-over to the host records a `Failover` control event (detail 1) and dumps
    /// ([`ss_telemetry::DumpReason::WatchdogTrip`]), a re-attach records
    /// one with detail 0.
    /// Tests-only: `tests/recovery.rs` checks the hand-over's flight dump with it.
    pub fn attach_flight_recorder(&mut self, flight: &ss_telemetry::SharedFlightRecorder) {
        self.trace.attach_flight(flight);
    }
}

impl<T: Telemetry> ShardedScheduler<T> {
    /// Builds K shards instrumented by `T` (detached) from `config`, whose
    /// `slots` field is the TOTAL stream count M. Each shard is an
    /// M/K-slot fabric with otherwise identical configuration.
    ///
    /// Constraints: `kind` must be `WinnerOnly` (the merge is a winner
    /// merge; block merges belong to the aggregation layer), `shards` must
    /// divide `slots`, M ≤ 32 (global slot IDs are the fabric's 5-bit
    /// field), and each shard's M/K slots must satisfy the fabric's own
    /// power-of-two 2..=32 rule — so K ≤ 16, and a set of shards is one
    /// mask word.
    pub fn with_telemetry(config: FabricConfig, shards: usize) -> Result<Self> {
        if config.kind != FabricConfigKind::WinnerOnly {
            return Err(Error::Config(
                "sharded frontend requires a WinnerOnly fabric (winner-merge)".into(),
            ));
        }
        if shards == 0 || !config.slots.is_multiple_of(shards) {
            return Err(Error::Config(format!(
                "shard count {shards} must divide the slot count {}",
                config.slots
            )));
        }
        if config.slots > 32 {
            return Err(Error::Config(format!(
                "total slots {} exceed the 5-bit global slot field",
                config.slots
            )));
        }
        if shards > MAX_SHARDS {
            return Err(Error::Config(format!(
                "{shards} shards of one slot each: a shard is at least a 2-slot fabric"
            )));
        }
        let front = Frontend::new(&config, shards);
        let shard_config = FabricConfig {
            slots: front.per_shard(),
            ..config
        };
        let fabrics = (0..shards)
            .map(|_| Fabric::with_telemetry(shard_config))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            front,
            shards: fabrics,
            decision_count: 0,
            stalled_until: vec![0; shards],
            recovery: Vec::new(),
            trace: Default::default(),
        })
    }

    /// Per-stream QoS accounting across all shards, with slot IDs remapped
    /// to global coordinates.
    pub fn qos_snapshot(&self) -> ss_telemetry::QosSet {
        let mut set = ss_telemetry::QosSet {
            decision_cycles: self.decision_count,
            streams: Vec::with_capacity(self.front.total_slots()),
        };
        for (k, fabric) in self.shards.iter().enumerate() {
            for mut row in fabric.qos_snapshot().streams {
                row.slot = self.front.global_of(k, row.slot as usize) as u8;
                set.streams.push(row);
            }
        }
        set
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Slots per shard.
    pub fn per_shard(&self) -> usize {
        self.front.per_shard()
    }

    /// Total stream slots across all shards.
    /// Tests-only: the conformance harness (`tests/support/harness.rs`) sizes its sharded paths
    /// with it.
    pub fn total_slots(&self) -> usize {
        self.front.total_slots()
    }

    /// Global decision cycles completed (inline mode).
    pub fn decision_count(&self) -> u64 {
        self.decision_count
    }

    /// Scheduler time in packet-times. All live shards advance in lockstep
    /// in inline mode, so the first surviving shard speaks for everyone
    /// (shard 0's clock freezes if it fails).
    pub fn now(&self) -> u64 {
        slot_bits(self.front.live())
            .next()
            .map_or(0, |k| self.shards[k].now())
    }

    /// Binds a stream to global slot `g` (routed to its shard).
    pub fn load_stream(
        &mut self,
        global: usize,
        state: StreamState,
        first_deadline: u64,
    ) -> Result<()> {
        let (shard, local) = self.front.route_live(global)?;
        self.shards[shard].load_stream(local, state.clone(), first_deadline)?;
        self.front.set_shadow(global, Some(state));
        Ok(())
    }

    /// Unbinds global slot `g`.
    /// Tests-only: the conformance harness's churn classes (`tests/support/harness.rs`) and
    /// `tests/recovery.rs` unload streams with it.
    pub fn unload_stream(&mut self, global: usize) -> Result<()> {
        let (shard, local) = self.front.route_live(global)?;
        self.shards[shard].unload_stream(local)?;
        self.front.set_shadow(global, None);
        Ok(())
    }

    /// Arms one recovery supervisor per shard, each judging its shard with
    /// its own copy of `watchdog`. Until called, a crashed shard is
    /// excluded and its backlog written off
    /// ([`ShardedScheduler::fail_shard`]). Armed, a shard is handed to the
    /// host when the per-cycle sweep finds it crashed — before it proposes,
    /// so the crash costs no packet-time — or when its watchdog declares
    /// it stuck: only the granted shard can be unproductive, so it
    /// observes whether it transmitted and every other shard observes a
    /// cycle with nothing owed. The hand-over is [`Fabric::clear_faults`]:
    /// the shard stays in the merge with its own register image — clock,
    /// heads, windows, arrival tags and counters — and draws no card
    /// faults. After the watchdog's healthy streak the injector is wired
    /// back: the reset card reloaded with the same image. Both switches
    /// book `failovers`/`reattaches` on the fault ledger and a `Failover`
    /// control event in the flight recorder. Recovery is inline-mode
    /// state; it does not follow the fabrics into
    /// [`ShardedScheduler::into_threaded`].
    /// Tests-only: `tests/recovery.rs` and `tests/chaos.rs` check the per-shard recovery supervisor
    /// with it.
    pub fn enable_recovery(&mut self, watchdog: DecisionWatchdog) {
        let supervisor = Supervisor {
            watchdog,
            on_host: false,
            failovers: 0,
            reattaches: 0,
        };
        self.recovery = vec![supervisor; self.shards.len()];
    }

    /// `true` while the host decides for shard `k` (between a hand-over
    /// and its re-attach); always `false` before
    /// [`ShardedScheduler::enable_recovery`].
    pub fn on_host(&self, k: usize) -> bool {
        self.recovery.get(k).is_some_and(|s| s.on_host)
    }

    /// Hand-overs to the host so far, across all shards.
    pub fn failovers(&self) -> u64 {
        self.recovery.iter().map(|s| s.failovers).sum()
    }

    /// Re-attaches to the card so far, across all shards.
    /// Tests-only: `tests/recovery.rs` and `tests/chaos.rs` check the per-shard recovery supervisor
    /// with it.
    pub fn reattaches(&self) -> u64 {
        self.recovery.iter().map(|s| s.reattaches).sum()
    }

    /// Hands shard `k` to the host: its wedge or crash is cleared and its
    /// injector dropped, and the healthy streak starts over. A shard
    /// already on the host (crashed again by an operator) books nothing.
    fn hand_over(&mut self, k: usize) {
        self.shards[k].clear_faults();
        let sup = &mut self.recovery[k];
        sup.watchdog.reset();
        if !sup.on_host {
            sup.on_host = true;
            sup.failovers += 1;
            self.front.ledger.failed_over();
            let failovers = self.failovers();
            self.trace
                .on_path_switch(self.decision_count, true, failovers);
        }
    }

    /// Gives shard `k` back to its card: the injector is wired again.
    fn re_attach(&mut self, k: usize) {
        self.front.ledger.wire(&mut self.shards[k]);
        let sup = &mut self.recovery[k];
        sup.on_host = false;
        sup.reattaches += 1;
        sup.watchdog.reset();
        self.front.ledger.reattached();
        let failovers = self.failovers();
        self.trace
            .on_path_switch(self.decision_count, false, failovers);
    }

    /// Feeds one global cycle into every live shard's watchdog: the
    /// granted shard `winner` owed a packet and `transmitted` says whether
    /// it sent one; every other shard owed nothing. A stuck shard is
    /// handed to the host, a host-path shard with its healthy streak is
    /// re-attached.
    fn observe_recovery(&mut self, winner: Option<usize>, transmitted: bool) {
        if self.recovery.is_empty() {
            return;
        }
        for k in slot_bits(self.front.live()) {
            let sup = &mut self.recovery[k];
            let granted = Some(k) == winner;
            let verdict = sup.watchdog.observe(transmitted || !granted, granted);
            let reattach = sup.on_host && sup.watchdog.ready_to_reattach();
            if verdict == WatchdogVerdict::Stuck {
                self.hand_over(k);
            } else if reattach {
                self.re_attach(k);
            }
        }
    }

    /// Deposits one arrival into global slot `g`'s queue. Inlinable: it is
    /// the node tick's per-arrival call.
    #[inline]
    pub fn push_arrival(&mut self, global: usize, arrival: Wrap16) -> Result<()> {
        let (shard, local) = self.front.route_live(global)?;
        self.shards[shard].push_arrival(local, arrival)
    }

    /// Queue depth of global slot `g`: 0 for a slot homed on an excluded
    /// shard, whose backlog [`ShardedScheduler::fail_shard`] already booked
    /// in [`ShardedScheduler::lost_packets`].
    pub fn backlog(&self, global: usize) -> Result<usize> {
        let (shard, local) = self.front.route(global)?;
        if self.front.is_failed(shard) {
            return Ok(0);
        }
        self.shards[shard].backlog(local)
    }

    /// Packets queued across the shards still in the merge: each live
    /// shard's queue depths summed straight off its registers, with no trip
    /// through the slot map. A failed shard's backlog was written off by
    /// [`ShardedScheduler::fail_shard`] and is not counted.
    // lint:hot-path
    #[inline]
    pub fn live_backlog(&self) -> u64 {
        slot_bits(self.front.live())
            .map(|k| self.shards[k].total_backlog() as u64)
            .sum()
    }

    /// Per-slot performance counters for global slot `g`.
    pub fn slot_counters(&self, global: usize) -> Result<&SlotCounters> {
        let (shard, local) = self.front.route(global)?;
        self.shards[shard].slot_counters(local)
    }

    /// Direct access to a shard fabric (read-only, diagnostics).
    /// Tests-only: `tests/recovery.rs` and `tests/chaos.rs` check the per-shard recovery supervisor
    /// with it.
    pub fn shard(&self, k: usize) -> &Fabric<T> {
        &self.shards[k]
    }

    /// `true` if shard `k` has been excluded from the merge.
    pub fn is_failed(&self, k: usize) -> bool {
        k < self.shards.len() && self.front.is_failed(k)
    }

    /// Indices of excluded shards, ascending.
    /// Tests-only: `tests/recovery.rs` and `tests/chaos.rs` check the per-shard recovery supervisor
    /// with it.
    pub fn failed_shards(&self) -> Vec<usize> {
        self.front.failed_shards()
    }

    /// The global slots homed on shard `k` right now, as a mask (bit `g`
    /// = global slot `g`; 0 for an out-of-range `k`). Read off the
    /// frontend's reverse map, so it follows
    /// [`ShardedScheduler::redistribute`]: a rehomed slot leaves its
    /// failed shard's mask for its survivor's, and the empty tenant it
    /// swapped with goes the other way.
    pub fn slots_on(&self, k: usize) -> u32 {
        self.front.slots_on(k)
    }

    /// Backlogged packets written off when shards failed.
    /// Tests-only: `tests/recovery.rs`, `tests/chaos.rs` and the conformance harness check the
    /// write-off ledger with it.
    pub fn lost_packets(&self) -> u64 {
        self.front.lost_packets()
    }

    /// Excludes shard `k` from the winner merge (with or without
    /// [`ShardedScheduler::enable_recovery`]): its proposals stop
    /// competing, its expiry clock stops, and its queued backlog is written
    /// off (returned, and added to [`ShardedScheduler::lost_packets`] —
    /// bounded, counted loss, never a hang). Streams homed there stay
    /// unreachable until [`ShardedScheduler::redistribute`] rehomes them.
    /// Errors if `k` is out of range or already failed.
    pub fn fail_shard(&mut self, k: usize) -> Result<u64> {
        if k >= self.shards.len() {
            return Err(Error::ShardOutOfRange {
                shard: k,
                shards: self.shards.len(),
            });
        }
        if self.front.is_failed(k) {
            return Err(Error::ShardFailed { shard: k });
        }
        let lost = self.shards[k].total_backlog() as u64;
        self.front.exclude(k, lost);
        Ok(lost)
    }

    /// Rehomes the streams of failed shard `from` onto free slots of
    /// surviving shards, updating the global→(shard, local) indirection so
    /// existing global slot IDs keep working. Each rehomed stream is
    /// reloaded from the supervisor's shadow configuration with a fresh
    /// first deadline (`now + request_period`) — its in-flight backlog was
    /// already written off by [`ShardedScheduler::fail_shard`]. Returns
    /// `(global_slot, new_shard)` for every move; streams that found no
    /// free surviving slot stay unreachable. Errors if `from` is not a
    /// failed shard.
    /// Tests-only: `tests/recovery.rs` moves a failed shard's slots with it.
    pub fn redistribute(&mut self, from: usize) -> Result<Vec<(usize, usize)>> {
        if from >= self.shards.len() || !self.front.is_failed(from) {
            return Err(Error::Config(format!("shard {from} is not failed")));
        }
        let mut moves = Vec::new();
        for local in 0..self.front.per_shard() {
            let global = self.front.global_of(from, local);
            let Some(state) = self.front.shadow(global).cloned() else {
                continue;
            };
            let Some((k2, l2)) = self.front.rehome(global) else {
                break; // surviving capacity exhausted
            };
            let restart = self.shards[k2].now() + state.request_period;
            self.shards[k2].load_stream(l2, state, restart)?;
            moves.push((global, k2));
        }
        Ok(moves)
    }

    /// Wires every shard fabric still on its card and the frontend's
    /// shard-fault sampling to a shared injector: decision cycles can
    /// wedge per shard, and the [`ss_faults::FaultSite::Shard`] stream
    /// drives transient stalls and permanent crashes (excluded on
    /// detection, or handed to the host with recovery armed).
    pub fn attach_faults(&mut self, injector: std::sync::Arc<ss_faults::FaultInjector>) {
        self.front.ledger.attach(injector);
        for k in 0..self.shards.len() {
            if !self.on_host(k) {
                self.front.ledger.wire(&mut self.shards[k]);
            }
        }
    }

    /// Permanently crashes shard `k`'s fabric (test/operator hook); the
    /// next decision cycle detects it and excludes it, or hands it to the
    /// host with recovery armed.
    /// Tests-only: `tests/recovery.rs` and the conformance harness crash shards with it.
    pub fn inject_shard_crash(&mut self, k: usize) {
        self.shards[k].inject_crash();
    }

    /// Samples the shard-level fault stream once per global cycle and
    /// applies the drawn fault to a round-robin-picked live shard still on
    /// its card.
    fn inject_shard_faults(&mut self) {
        use ss_faults::{FaultKind, FaultSite};
        let Some(inj) = self.front.ledger.injector() else {
            return;
        };
        let Some(kind) = inj.sample(FaultSite::Shard) else {
            return;
        };
        let n = self.shards.len();
        let Some(target) = (0..n)
            .map(|i| (self.decision_count as usize + i) % n)
            .find(|&k| !self.front.is_failed(k) && !self.on_host(k))
        else {
            return;
        };
        match kind {
            FaultKind::ShardCrash => self.shards[target].inject_crash(),
            FaultKind::ShardStall { cycles } => {
                self.stalled_until[target] = self.decision_count + cycles as u64;
                inj.stats()
                    .stalled_cycles
                    .fetch_add(cycles as u64, std::sync::atomic::Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Probes every live shard's health at the top of each global cycle:
    /// a crashed shard is excluded, or handed to the host with recovery
    /// armed.
    fn sweep_crashed(&mut self) {
        for k in slot_bits(self.front.live()) {
            if self.shards[k].is_crashed() {
                if self.recovery.is_empty() {
                    // fail_shard only errors on already-failed, excluded here.
                    let _ = self.fail_shard(k);
                } else {
                    self.hand_over(k);
                }
            }
        }
    }

    /// Test hook: shard `k` proposes nothing for the next `cycles` global
    /// cycles, as an injected `ShardStall` fault makes it.
    #[cfg(test)]
    pub(crate) fn stall_shard(&mut self, k: usize, cycles: u64) {
        self.stalled_until[k] = self.decision_count + 1 + cycles;
    }

    /// `true` if live shard `k` sits out global cycle `cycle`'s merge: a
    /// stalled shard proposes nothing for its injected window but keeps
    /// expiring (failed shards are out of the live mask for good).
    #[inline]
    fn stalled(&self, k: usize, cycle: u64) -> bool {
        cycle < self.stalled_until[k]
    }

    /// What the next cycle's winner-merge will pick, with provenance and no
    /// side effects — a diagnostic over [`Fabric::peek_winner`], and the
    /// oracle the tests hold [`ShardedScheduler::decision_cycle`] to; the
    /// cycle itself merges the words the shards *proposed*. Picks the shard
    /// whose word wins the Table 2 comparison, with slot ties resolved by
    /// *global* slot ID (shard-local IDs collide across shards; the
    /// contiguous partition makes lower-shard-first equal to
    /// lower-global-ID-first, matching the single-fabric tie-break).
    /// Returns `None` when every shard is idle. The second element is
    /// *why*: the Table 2 rule that decided the *last* comparison the
    /// winner took part in — `None` when it was the only competing shard
    /// (every other shard failed or stalled), so there was no comparison
    /// to decide. A `SlotId` reason means the winner held a full tie on the
    /// global-slot-ID convention.
    /// Tests-only: the oracle the crate's merge tests compare the inline decision against.
    pub fn merge_pick_with_reason(&self) -> Option<(usize, Option<DecisionRule>)> {
        self.front.pick(
            slot_bits(self.front.live())
                .filter(|&k| !self.stalled(k, self.decision_count + 1))
                .map(|k| (k, self.shards[k].peek_winner())),
        )
    }

    /// One exact global decision, as K hardware fabrics would run it:
    /// every competing shard *proposes* — one counted tournament each —
    /// the frontend merges the proposed words, the winning shard is
    /// *granted* its own word and services its packet, and every other
    /// live shard *passes* (the loser expiry path). Returns the
    /// transmitted packet in global coordinates, or `None` on an idle
    /// packet-time.
    // lint:hot-path
    pub fn decision_cycle(&mut self) -> Option<ScheduledPacket> {
        self.decision_count += 1;
        self.inject_shard_faults();
        self.sweep_crashed();
        let merge_start = self.front.metrics.start();
        // Dead hardware makes no decisions and keeps no expiry clock: both
        // walks below visit the live shards only.
        let live = self.front.live();
        let mut proposals = Proposals::default();
        for k in slot_bits(live) {
            if !self.stalled(k, self.decision_count) {
                proposals.set(k, self.shards[k].propose());
            }
        }
        let picked = self.front.pick(proposals.iter());
        let winner = picked.map(|(k, _)| k);
        self.front.metrics.record_merge(merge_start, winner);
        let mut out = None;
        for k in slot_bits(live) {
            if Some(k) == winner {
                // Granted the very word it proposed.
                let packet = self.shards[k].grant(proposals.words[k]).first().copied();
                out = packet.map(|p| self.front.globalize(k, p));
            } else {
                self.shards[k].expire_cycle();
            }
        }
        if let (Some((k, reason)), Some(p)) = (picked, &out) {
            self.trace
                .on_merge_win(self.decision_count, k, p.slot.index(), reason);
        }
        self.observe_recovery(winner, out.is_some());
        out
    }

    /// Runs `n` exact global decisions, appending transmitted packets to
    /// `sink`. Returns the number appended.
    pub fn decision_cycles(&mut self, n: u64, sink: &mut Vec<ScheduledPacket>) -> usize {
        let mut appended = 0;
        for _ in 0..n {
            if let Some(p) = self.decision_cycle() {
                sink.push(p);
                appended += 1;
            }
        }
        appended
    }

    /// Moves each shard's fabric onto its own worker thread for batch
    /// throughput. `ring_capacity` sizes the arrival and proposal rings
    /// (entries per shard).
    pub fn into_threaded(self, ring_capacity: usize) -> ThreadedShards<T> {
        ThreadedShards::spawn(self.front, self.shards, ring_capacity)
    }
}

impl<T: Telemetry> std::fmt::Debug for ShardedScheduler<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedScheduler")
            .field("shards", &self.shards.len())
            .field("per_shard", &self.front.per_shard())
            .field("decision_count", &self.decision_count)
            .finish()
    }
}
