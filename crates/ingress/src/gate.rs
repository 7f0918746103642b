//! The edge admission gate: [`ss_overload::Gate`] holding the decoded
//! packets themselves, plus what only the network boundary needs.
//!
//! Packets decoded from SUBMIT frames are offered to a
//! `Gate<IngressArrival>` — admission → RED proposal → QoS veto → one
//! ledger site per refusal; the composition, its conservation identity and
//! the backpressure-before-shedding rule are stated once in
//! [`ss_overload::gate`]. The backlog is served at the embedder's pace via
//! [`EdgeGate::pop_backlog`] / [`EdgeGate::mark_served`]; in the real
//! server the popped arrivals feed the endsystem SPSC ring.
//!
//! What this adapter adds: the gate ticks on its own backlog depth,
//! [`EdgeGate::reply_code`] turns the pressure level into the SUBMIT_ACK
//! backpressure byte, served packets are counted per slot, and the
//! graceful drain writes the backlog (and late arrivals) off at
//! [`LossSite::Drain`].

use ss_overload::{Gate, GateConfig, LossLedger, LossSite, RedConfig, SharedPressure};
use ss_types::WindowConstraint;
use std::sync::Arc;

/// One admitted arrival as handed to the endsystem ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngressArrival {
    /// Destination stream slot.
    pub slot: u32,
    /// 16-bit wrapping arrival tag from the wire.
    pub tag: u16,
}

/// Where an offered packet went: the [`ss_overload::GateReason`] folded
/// to its ledger site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeVerdict {
    /// Entered the edge backlog (will be served or drained).
    Admitted,
    /// No admission token ([`LossSite::Admission`]).
    RejectedAdmission,
    /// RED proposed and the QoS shedder confirmed ([`LossSite::Shed`]).
    Shed,
    /// Bounded edge buffer physically full ([`LossSite::Ring`]).
    Overflow,
}

/// The edge gate. Single-owner (`&mut`) — the server serializes
/// connections through it, which is also what makes the chaos soak's
/// verdict sequence a pure function of the offered sequence.
#[derive(Debug)]
pub struct EdgeGate {
    gate: Gate<IngressArrival>,
    capacity: usize,
    served_per_slot: Vec<u64>,
}

impl EdgeGate {
    /// Builds a gate for `windows`: per-stream admission classes derive
    /// their protection (squeeze tier and sheddability) from each window
    /// constraint; the RED backlog holds `red.capacity` packets and draws
    /// its early-drop randomness from `seed`.
    pub fn new(
        windows: &[WindowConstraint],
        rate_mtok: u32,
        burst_mtok: u32,
        red: RedConfig,
        seed: u64,
    ) -> Self {
        Self {
            capacity: red.capacity,
            served_per_slot: vec![0; windows.len()],
            gate: Gate::new(GateConfig::from_windows(
                windows, rate_mtok, burst_mtok, red, seed,
            )),
        }
    }

    /// Offers one decoded packet. Registered hot path.
    // lint:hot-path
    #[inline]
    pub fn offer(&mut self, arrival: IngressArrival) -> EdgeVerdict {
        match self.gate.offer(arrival.slot as usize, arrival).site() {
            None => EdgeVerdict::Admitted,
            Some(LossSite::Admission) => EdgeVerdict::RejectedAdmission,
            Some(LossSite::Shed) => EdgeVerdict::Shed,
            Some(_) => EdgeVerdict::Overflow,
        }
    }

    /// Pops the oldest backlogged arrival for service. The caller either
    /// [`EdgeGate::mark_served`]s it (handed to the endsystem) or
    /// [`EdgeGate::mark_ring_loss`]es it (endsystem ring refused).
    /// Registered hot path.
    // lint:hot-path
    #[inline]
    pub fn pop_backlog(&mut self) -> Option<IngressArrival> {
        self.gate.pop()
    }

    /// Accounts a popped arrival as served. Registered hot path.
    // lint:hot-path
    #[inline]
    pub fn mark_served(&mut self, slot: usize) {
        self.gate.mark_served(slot);
        if let Some(c) = self.served_per_slot.get_mut(slot) {
            *c += 1;
        }
    }

    /// Accounts a popped arrival the endsystem ring refused. Registered
    /// hot path.
    // lint:hot-path
    #[inline]
    pub fn mark_ring_loss(&mut self) {
        self.gate.mark_ring_loss();
    }

    /// One edge tick: the backlog's own depth drives the pressure signal
    /// and the admission refill. Registered hot path.
    // lint:hot-path
    #[inline]
    pub fn tick(&mut self) {
        self.gate.tick(self.gate.backlog_len(), self.capacity);
    }

    /// The backpressure byte for SUBMIT_ACK / HELLO_ACK replies: the
    /// current pressure level (0 nominal, 1 elevated, 2 overloaded).
    /// Registered hot path.
    // lint:hot-path
    #[inline]
    pub fn reply_code(&self) -> u8 {
        self.gate.core().level().as_u8()
    }

    /// Writes off the entire edge backlog at [`LossSite::Drain`] (the
    /// graceful-drain flush) and returns the count.
    pub fn drain_write_off(&mut self) -> u64 {
        self.gate.drain_write_off()
    }

    /// Accounts `n` packets that arrived after the drain cutoff and were
    /// written off without entering the backlog.
    pub fn write_off_late(&mut self, n: u64) {
        self.gate.write_off_late(n);
    }

    /// The shareable pressure handle (lock-free reads from any thread).
    pub fn shared_pressure(&self) -> Arc<SharedPressure> {
        self.gate.core().shared_pressure()
    }

    /// The loss ledger — an exact partition of every refused packet.
    pub fn ledger(&self) -> &LossLedger {
        self.gate.core().ledger()
    }

    /// Packets offered to the gate so far (including late write-offs).
    pub fn offered(&self) -> u64 {
        self.gate.offered()
    }

    /// Packets served out of the backlog so far.
    pub fn served(&self) -> u64 {
        self.gate.served()
    }

    /// Served counts per slot.
    pub fn served_per_slot(&self) -> &[u64] {
        &self.served_per_slot
    }

    /// Current backlog depth.
    pub fn backlog_len(&self) -> usize {
        self.gate.backlog_len()
    }

    /// The conservation identity: every offered packet is served, still
    /// backlogged, or at exactly one ledger site.
    pub fn conserves(&self) -> bool {
        self.gate.conserves()
    }

    /// Slots managed.
    pub fn slots(&self) -> usize {
        self.served_per_slot.len()
    }

    /// Packets shed from `slot` (QoS-confirmed RED drops).
    pub fn sheds_for(&self, slot: usize) -> u64 {
        self.gate.core().sheds_for(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(windows: &[WindowConstraint], capacity: usize) -> EdgeGate {
        EdgeGate::new(windows, 1000, 2000, RedConfig::classic(capacity), 7)
    }

    fn arr(slot: u32, tag: u16) -> IngressArrival {
        IngressArrival { slot, tag }
    }

    #[test]
    fn pressure_rises_and_reply_code_tracks() {
        let mut g = gate(&[WindowConstraint::new(3, 4)], 16);
        assert_eq!(g.reply_code(), 0);
        for t in 0..200u32 {
            g.offer(arr(0, t as u16));
            g.tick();
        }
        assert!(g.reply_code() >= 1, "sustained backlog raises pressure");
        assert_eq!(
            g.shared_pressure().level().as_u8(),
            g.reply_code(),
            "shared handle mirrors the reply code"
        );
    }

    #[test]
    fn served_counts_land_per_slot_and_drain_empties_the_rest() {
        let mut g = gate(
            &[WindowConstraint::new(3, 4), WindowConstraint::new(0, 1)],
            64,
        );
        let mut admitted = 0u64;
        for t in 0..40u32 {
            admitted += u64::from(g.offer(arr(t % 2, t as u16)) == EdgeVerdict::Admitted);
            g.tick();
        }
        for _ in 0..5 {
            let a = g.pop_backlog().expect("backlog holds the admitted packets");
            g.mark_served(a.slot as usize);
        }
        assert_eq!(g.served_per_slot(), &[3, 2], "FIFO pops alternate slots");
        assert_eq!(g.served(), 5);
        let backlog = g.backlog_len() as u64;
        assert_eq!(backlog, admitted - 5);
        assert_eq!(g.drain_write_off(), backlog);
        assert_eq!(g.backlog_len(), 0);
        g.write_off_late(5);
        assert_eq!(g.ledger().drain, backlog + 5);
        assert_eq!(g.offered(), 45);
        assert!(g.conserves());
    }
}
