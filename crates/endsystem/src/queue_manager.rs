//! The Queue Manager: per-stream packet queues on the Stream processor.
//!
//! The QM owns the host side of the split: it deposits arriving packets
//! into per-stream queues, keeps their service descriptors, and drains
//! *arrival-time offsets* (16-bit) toward the card in batches. Packets
//! themselves never cross the PCI bus — the Transmission Engine dequeues
//! them from host memory when the card returns the winning stream ID.

use crate::pci::{CardLink, TransferStrategy};
use ss_traffic::ArrivalEvent;
use ss_types::{Error, Nanos, Result};
use std::collections::VecDeque;

/// Per-stream queues with bounded capacity.
#[derive(Debug)]
pub struct QueueManager {
    queues: Vec<VecDeque<ArrivalEvent>>,
    capacity: usize,
    deposited: u64,
    dropped: u64,
}

impl QueueManager {
    /// Creates queues for `streams` streams, each holding up to
    /// `capacity` packets.
    ///
    /// # Panics
    /// Panics if `streams == 0` or `capacity == 0`.
    pub fn new(streams: usize, capacity: usize) -> Self {
        assert!(
            streams > 0 && capacity > 0,
            "streams and capacity must be positive"
        );
        Self {
            queues: (0..streams).map(|_| VecDeque::new()).collect(),
            capacity,
            deposited: 0,
            dropped: 0,
        }
    }

    /// Deposits an arriving packet; a full queue drops it (tail drop) and
    /// reports the error.
    pub fn deposit(&mut self, event: ArrivalEvent) -> Result<()> {
        let idx = event.stream.index();
        let q = self.queues.get_mut(idx).ok_or(Error::SlotOutOfRange {
            slot: idx,
            slots: 0,
        })?;
        if q.len() >= self.capacity {
            self.dropped += 1;
            return Err(Error::QueueFull {
                slot: idx,
                capacity: self.capacity,
            });
        }
        q.push_back(event);
        self.deposited += 1;
        Ok(())
    }

    /// Dequeues the head packet of `stream` (called by the Transmission
    /// Engine when the card schedules that stream).
    pub fn pop(&mut self, stream: usize) -> Option<ArrivalEvent> {
        self.queues.get_mut(stream)?.pop_front()
    }

    /// Drains up to `max` head packets of `stream` into `out` — one PCI
    /// transfer batch toward the card. Returns the number of packets moved.
    /// Tests-only: `tests/chaos.rs` checks with it that a failed PCI transfer requeues, never
    /// loses.
    pub fn pop_batch(&mut self, stream: usize, max: usize, out: &mut Vec<ArrivalEvent>) -> usize {
        let Some(q) = self.queues.get_mut(stream) else {
            return 0;
        };
        let n = max.min(q.len());
        out.extend(q.drain(..n));
        n
    }

    /// Drains up to `max` head packets of `stream` into `out` **through a
    /// checked PCI transfer**: the batch only leaves the host if
    /// [`CardLink::arrivals_to_card`] succeeds. On transfer failure
    /// (retry budget exhausted) the popped packets are requeued at the
    /// front in their original order and the error is returned — a failed
    /// transfer delays packets, it never silently loses them. Returns the
    /// simulated transfer cost on success (0 for an empty queue).
    /// Tests-only: `tests/chaos.rs` checks with it that a failed PCI transfer requeues, never
    /// loses.
    pub fn drain_to_card(
        &mut self,
        stream: usize,
        max: usize,
        link: &CardLink,
        strategy: TransferStrategy,
        out: &mut Vec<ArrivalEvent>,
    ) -> Result<Nanos> {
        let start = out.len();
        let n = self.pop_batch(stream, max, out);
        if n == 0 {
            return Ok(0);
        }
        match link.arrivals_to_card(n as u64, strategy) {
            Ok(cost) => Ok(cost),
            Err(e) => {
                // Undo: push the batch back at the front, preserving FIFO
                // order.
                let q = &mut self.queues[stream];
                for ev in out.drain(start..).rev() {
                    q.push_front(ev);
                }
                Err(e)
            }
        }
    }

    /// Head packet of `stream` without dequeuing.
    pub fn peek(&self, stream: usize) -> Option<&ArrivalEvent> {
        self.queues.get(stream)?.front()
    }

    /// Queue depth for `stream`.
    pub fn backlog(&self, stream: usize) -> usize {
        self.queues.get(stream).map_or(0, VecDeque::len)
    }

    /// Total queued packets.
    pub fn total_backlog(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Packets deposited so far.
    pub fn deposited(&self) -> u64 {
        self.deposited
    }

    /// Packets dropped at full queues.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The 16-bit arrival-time offset communicated to the card for a
    /// packet, in units of `unit_ns` (truncating like the hardware's
    /// 16-bit register).
    pub fn arrival_offset(event: &ArrivalEvent, unit_ns: Nanos) -> u16 {
        assert!(unit_ns > 0, "time unit must be positive");
        (event.time_ns / unit_ns) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_types::{PacketSize, StreamId};

    fn ev(stream: u8, t: u64) -> ArrivalEvent {
        ArrivalEvent {
            time_ns: t,
            stream: StreamId::new(stream).unwrap(),
            size: PacketSize(64),
        }
    }

    #[test]
    fn deposit_pop_fifo() {
        let mut qm = QueueManager::new(2, 8);
        qm.deposit(ev(0, 10)).unwrap();
        qm.deposit(ev(0, 20)).unwrap();
        qm.deposit(ev(1, 15)).unwrap();
        assert_eq!(qm.backlog(0), 2);
        assert_eq!(qm.total_backlog(), 3);
        assert_eq!(qm.pop(0).unwrap().time_ns, 10);
        assert_eq!(qm.pop(0).unwrap().time_ns, 20);
        assert_eq!(qm.pop(0), None);
        assert_eq!(qm.deposited(), 3);
    }

    #[test]
    fn tail_drop_when_full() {
        let mut qm = QueueManager::new(1, 2);
        qm.deposit(ev(0, 1)).unwrap();
        qm.deposit(ev(0, 2)).unwrap();
        let err = qm.deposit(ev(0, 3)).unwrap_err();
        assert!(matches!(
            err,
            Error::QueueFull {
                slot: 0,
                capacity: 2
            }
        ));
        assert_eq!(qm.dropped(), 1);
        assert_eq!(qm.backlog(0), 2);
    }

    #[test]
    fn pop_batch_drains_and_accounts() {
        let mut qm = QueueManager::new(2, 16);
        for t in 0..10 {
            qm.deposit(ev(0, t)).unwrap();
        }
        qm.deposit(ev(1, 99)).unwrap();
        let mut out = Vec::new();
        assert_eq!(qm.pop_batch(0, 4, &mut out), 4);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].time_ns, 0, "FIFO order preserved");
        assert_eq!(out[3].time_ns, 3);
        assert_eq!(qm.backlog(0), 6);
        // Short remainder, empty queue, and bad stream index.
        assert_eq!(qm.pop_batch(0, 100, &mut out), 6);
        assert_eq!(qm.pop_batch(0, 4, &mut out), 0, "empty drains nothing");
        assert_eq!(qm.pop_batch(7, 4, &mut out), 0, "bad stream drains nothing");
        assert_eq!(qm.backlog(1), 1, "other stream untouched");
    }

    #[test]
    fn peek_does_not_consume() {
        let mut qm = QueueManager::new(1, 4);
        qm.deposit(ev(0, 5)).unwrap();
        assert_eq!(qm.peek(0).unwrap().time_ns, 5);
        assert_eq!(qm.backlog(0), 1);
    }

    #[test]
    fn out_of_range_stream_rejected() {
        let mut qm = QueueManager::new(2, 4);
        assert!(qm.deposit(ev(5, 0)).is_err());
        assert_eq!(qm.pop(5), None);
        assert_eq!(qm.backlog(5), 0);
    }

    #[test]
    fn drain_to_card_succeeds_without_faults() {
        use crate::pci::{CardLink, PciModel, TransferStrategy};
        let mut qm = QueueManager::new(1, 16);
        for t in 0..6 {
            qm.deposit(ev(0, t)).unwrap();
        }
        let link = CardLink::new(PciModel::pci32_33());
        let mut out = Vec::new();
        let cost = qm
            .drain_to_card(0, 4, &link, TransferStrategy::PioPush, &mut out)
            .unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(
            cost,
            PciModel::pci32_33().arrivals_to_card_ns(4, TransferStrategy::PioPush)
        );
        assert_eq!(qm.backlog(0), 2);
        // Empty queue drains nothing at no cost.
        let mut out2 = Vec::new();
        assert_eq!(
            qm.drain_to_card(0, 0, &link, TransferStrategy::PioPush, &mut out2)
                .unwrap(),
            0
        );
    }

    #[test]
    fn drain_to_card_requeues_on_transfer_timeout() {
        use crate::pci::{CardLink, PciModel, TransferStrategy};
        use ss_faults::{FaultConfig, FaultInjector, RetryPolicy};
        use std::sync::Arc;
        let mut qm = QueueManager::new(1, 16);
        for t in 0..5 {
            qm.deposit(ev(0, t)).unwrap();
        }
        let mut link = CardLink::new(PciModel::pci32_33());
        // 100% fault rate: every transfer exhausts its retry budget.
        link.attach_faults(
            Arc::new(FaultInjector::new(
                4,
                FaultConfig {
                    pci_rate_ppm: 1_000_000,
                    ..FaultConfig::quiet()
                },
            )),
            RetryPolicy::default(),
        );
        let mut out = Vec::new();
        let err = qm
            .drain_to_card(0, 3, &link, TransferStrategy::PioPush, &mut out)
            .unwrap_err();
        assert!(matches!(err, Error::TransferTimeout { .. }));
        assert!(out.is_empty(), "nothing left the host");
        assert_eq!(qm.backlog(0), 5, "batch requeued, no loss");
        assert_eq!(qm.pop(0).unwrap().time_ns, 0, "FIFO order preserved");
        assert_eq!(qm.pop(0).unwrap().time_ns, 1);
    }

    #[test]
    fn arrival_offset_truncates_to_16_bits() {
        let e = ev(0, 1_000_000);
        // 1 ms at 1 µs units = offset 1000.
        assert_eq!(QueueManager::arrival_offset(&e, 1_000), 1000);
        // Huge time wraps at 16 bits like the hardware register.
        let e2 = ev(0, 70_000_000);
        assert_eq!(
            QueueManager::arrival_offset(&e2, 1_000),
            (70_000 % 65_536) as u16
        );
    }
}
