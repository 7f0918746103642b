//! The threaded drive mode: each fabric on its own worker thread behind
//! three SPSC rings, merged per cycle on the calling thread. Owns what only
//! this mode has — the rings, the workers, the streamlet scratch — over the
//! [`Frontend`] the inline scheduler handed over whole. Each worker is an
//! [`ss_endsystem::Worker`], and every ring wait is
//! [`ss_endsystem::spsc`]'s `push_spinning` / `pop_waiting`, so a ring ends
//! on the one `finished` definition and an idle worker sleeps.

use crate::frontend::{Frontend, Lane};
use ss_core::{Fabric, MergeHooks, ScheduledPacket, Telemetry};
use ss_endsystem::spsc::{spsc_ring, Consumer, Producer};
use ss_endsystem::Worker;
use ss_types::{slot_bits, Error, Result, Wrap16};
use std::collections::VecDeque;

/// A packet together with the pre-service lane word that won it its
/// slot in the schedule — what a shard circulates to the merge stage.
#[derive(Debug, Clone, Copy)]
struct CycleProposal {
    /// The shard's winner lane word *before* service (merge ordering key).
    word: u64,
    /// The serviced packet, still in shard-local slot/time coordinates.
    packet: Option<ScheduledPacket>,
}

/// One merged streamlet report from [`ThreadedShards::run_cycles`].
#[derive(Debug, Clone, Default)]
pub struct StreamletReport {
    /// Packets in merged global transmission order: cycles ascending, and
    /// within each cycle's streamlet, Table-2 comparator order. Slot IDs
    /// are global; completion times remain shard-local (each shard models
    /// its own lane of the aggregate link).
    pub packets: Vec<ScheduledPacket>,
    /// Total shard decision cycles dispatched (cycles × live shards);
    /// shards that die mid-batch complete fewer.
    pub decisions: u64,
    /// Shards newly excluded during this run (worker exited or crashed):
    /// their lanes stop contributing but the surviving merge continues.
    pub excluded: Vec<usize>,
    /// Cycle proposals that never arrived from excluded shards — the
    /// bounded, counted gap their loss left in this batch.
    pub missed_proposals: u64,
}

/// Aligned to 128 bytes (two lines on common prefetch-paired hardware) so
/// that adjacent links in the merger's `links` vec never share a cache
/// line: each link's ring endpoints hold locally-cached head/tail copies
/// that the merge loop updates per proposal, and cross-shard false sharing
/// on those would serialize exactly the path sharding exists to spread.
/// Fields drop in order: a dropped link hangs up `cmd_tx`, then joins the
/// worker, which runs out its queued batches and leaves.
#[repr(align(128))]
struct ShardLink<T: Telemetry> {
    /// Batch commands: run this many decision cycles.
    cmd_tx: Producer<u64>,
    arr_tx: Producer<(usize, Wrap16)>,
    out_rx: Consumer<CycleProposal>,
    /// Proposals drained from `out_rx` in batches ahead of the per-cycle
    /// merge: one ring synchronization covers up to a ring's worth of
    /// cycles the worker ran ahead.
    buf: VecDeque<CycleProposal>,
    worker: Worker<Fabric<T>>,
}

/// One shard's worker: for every batch command, `n` decision cycles, each
/// draining the arrival ring first and proposing its winner. Ends when the
/// command ring is finished, or right after proposing from a crashed
/// fabric — dropping `out_tx` is the merger's exclusion signal.
fn worker<T: Telemetry>(
    mut fabric: Fabric<T>,
    mut cmd_rx: Consumer<u64>,
    mut arr_rx: Consumer<(usize, Wrap16)>,
    mut out_tx: Producer<CycleProposal>,
) -> Fabric<T> {
    while let Some(n) = cmd_rx.pop_waiting() {
        for _ in 0..n {
            while let Some((slot, tag)) = arr_rx.pop() {
                // Slots were validated at routing; a failed deposit is
                // dropped, never a worker panic.
                let _ = fabric.push_arrival(slot, tag);
            }
            let word = fabric.propose();
            let packet = fabric.grant(word).first().copied();
            out_tx.push_spinning(CycleProposal { word, packet }, || false);
            if fabric.is_crashed() {
                return fabric;
            }
        }
    }
    fabric
}

/// The thread-per-shard runtime: K workers, each owning one fabric, fed by
/// SPSC rings, merged on the calling thread; instrumented by `T`, as the
/// [`ShardedScheduler`](crate::ShardedScheduler) it came from.
///
/// No system path runs it: cluster nodes merge inline, and neither ingress
/// nor the endsystem shards. It stays for what measures and checks it: the
/// benchmark's `sharded.threaded_*` per-layer rows
/// (`crates/benchmark/src/cluster_soak.rs`), `tests/sharded_equivalence.rs`
/// and the conformance totals, which hold it to the inline merge, and
/// ROADMAP item 11, the only candidate for a system use.
pub struct ThreadedShards<T: Telemetry = ()> {
    /// Routing, merge order, exclusion and merge metrics — the inline
    /// scheduler's own frontend, moved here by `into_threaded`.
    front: Frontend<T>,
    links: Vec<ShardLink<T>>,
    /// Per-cycle merge scratch (≤ K entries), reused across cycles.
    merge_scratch: Vec<Lane>,
}

impl<T: Telemetry> ThreadedShards<T> {
    pub(crate) fn spawn(front: Frontend<T>, shards: Vec<Fabric<T>>, ring_capacity: usize) -> Self {
        let merge_scratch = Vec::with_capacity(shards.len());
        let links = shards
            .into_iter()
            .enumerate()
            .map(|(shard_idx, fabric)| {
                let (cmd_tx, cmd_rx) = spsc_ring(64);
                let (arr_tx, arr_rx) = spsc_ring(ring_capacity);
                let (out_tx, out_rx) = spsc_ring(ring_capacity);
                let worker = Worker::spawn(&format!("ss-shard-{shard_idx}"), move || {
                    worker(fabric, cmd_rx, arr_rx, out_tx)
                })
                .expect("spawning a shard worker thread");
                ShardLink {
                    cmd_tx,
                    arr_tx,
                    out_rx,
                    buf: VecDeque::with_capacity(ring_capacity),
                    worker,
                }
            })
            .collect();
        Self {
            front,
            links,
            merge_scratch,
        }
    }

    /// Routes one arrival to its shard's ring. Fails with `QueueFull` if
    /// the ring is full (workers drain it once per cycle) and with
    /// `ShardFailed` if the slot's shard has been excluded.
    pub fn push_arrival(&mut self, global: usize, arrival: Wrap16) -> Result<()> {
        let (shard, local) = self.front.route_live(global)?;
        let arr_tx = &mut self.links[shard].arr_tx;
        arr_tx.push((local, arrival)).map_err(|_| Error::QueueFull {
            slot: global,
            capacity: arr_tx.capacity(),
        })
    }

    /// Runs `n` cycles on every shard in parallel and merges the results:
    /// for each cycle index, the ≤K shard winners are ordered by the Table 2
    /// comparator (global-slot tie-break) into one streamlet. Workers run
    /// ahead of the merger through the proposal rings, so the shards never
    /// synchronize with each other — only with the ring capacity.
    pub fn run_cycles(&mut self, n: u64) -> StreamletReport {
        let live = self.front.live();
        for k in slot_bits(live) {
            self.links[k].cmd_tx.push_spinning(n, || false);
        }
        let mut report = StreamletReport {
            packets: Vec::new(),
            decisions: n * u64::from(live.count_ones()),
            excluded: Vec::new(),
            missed_proposals: 0,
        };
        for cycle in 0..n {
            self.merge_scratch.clear();
            // The frontend's live mask, read per cycle: a shard excluded
            // below drops out from the next cycle on.
            for k in slot_bits(self.front.live()) {
                let link = &mut self.links[k];
                // Wait for the shard's proposal. Proposals are drained in
                // batches: the worker runs ahead of the merge through the
                // ring, so one synchronization on `out_rx` typically buys a
                // whole backlog of cycles, and the per-cycle cost collapses
                // to a local `VecDeque` pop.
                let proposal = link.buf.pop_front().or_else(|| {
                    let first = link.out_rx.pop_waiting()?;
                    while let Some(p) = link.out_rx.pop() {
                        link.buf.push_back(p);
                    }
                    Some(first)
                });
                // A finished ring means the worker exited (crash fault or
                // panic): exclude the shard and account the cycles it will
                // never answer, instead of waiting forever or panicking the
                // merge. Its backlog is on the worker's fabric, out of the
                // merger's sight — booked as 0 lost here.
                let Some(proposal) = proposal else {
                    self.front.exclude(k, 0);
                    report.excluded.push(k);
                    report.missed_proposals += n - cycle;
                    continue;
                };
                if let Some(p) = proposal.packet {
                    self.merge_scratch.push((proposal.word, p, k));
                }
            }
            // The merge latency window covers ordering and emission only —
            // the proposal wait above measures worker speed, not the
            // comparator tree.
            let merge_start = self.front.metrics.start();
            self.front.sort_streamlet(&mut self.merge_scratch);
            for &(_, p, k) in &self.merge_scratch {
                report.packets.push(self.front.globalize(k, p));
            }
            self.front
                .metrics
                .record_merge(merge_start, self.merge_scratch.iter().map(|&(_, _, k)| k));
        }
        report
    }

    /// Shuts the workers down and returns the shard fabrics (for reading
    /// counters after a run). A worker that panicked simply yields no
    /// fabric — the join itself never panics.
    pub fn join(self) -> Vec<Fabric<T>> {
        self.links
            .into_iter()
            .filter_map(|link| {
                drop(link.cmd_tx);
                drop(link.arr_tx);
                link.worker.join().ok()
            })
            .collect()
    }
}
