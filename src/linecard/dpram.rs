//! Dual-ported SRAM: concurrent fabric-side and scheduler-side access.
//!
//! Unlike the endsystem card's banked SRAM (which pays an ownership
//! handover per direction change), a dual-ported SRAM serves one access
//! from *each* port per cycle. The model exposes per-stream arrival-time
//! queues (written by the switch-fabric port) and a winner-ID FIFO
//! (written by the scheduler port, drained by the transceiver).

use ss_types::{Error, Result, Wrap16};
use std::collections::VecDeque;

/// Dual-ported SRAM with per-stream arrival queues and a winner-ID
/// partition.
#[derive(Debug)]
pub struct DualPortSram {
    arrival_queues: Vec<VecDeque<Wrap16>>,
    winner_ids: VecDeque<u8>,
    capacity_per_queue: usize,
    drops: u64,
}

impl DualPortSram {
    /// Creates `streams` per-stream queues of `capacity_per_queue` entries.
    ///
    /// # Panics
    /// Panics if `streams == 0` or `capacity_per_queue == 0`.
    pub fn new(streams: usize, capacity_per_queue: usize) -> Self {
        assert!(
            streams > 0 && capacity_per_queue > 0,
            "streams/capacity must be positive"
        );
        Self {
            arrival_queues: (0..streams).map(|_| VecDeque::new()).collect(),
            winner_ids: VecDeque::new(),
            capacity_per_queue,
            drops: 0,
        }
    }

    /// Switch-fabric port: deposits an arrival time for `stream`.
    /// Tests-only: `LinecardPipeline::run_backlogged` drives it for the §5.2 anchor tests in
    /// `linecard::pipeline`.
    pub fn fabric_write_arrival(&mut self, stream: usize, arrival: Wrap16) -> Result<()> {
        let cap = self.capacity_per_queue;
        let q = self
            .arrival_queues
            .get_mut(stream)
            .ok_or(Error::SlotOutOfRange {
                slot: stream,
                slots: 0,
            })?;
        if q.len() >= cap {
            self.drops += 1;
            return Err(Error::QueueFull {
                slot: stream,
                capacity: cap,
            });
        }
        q.push_back(arrival);
        Ok(())
    }

    /// Scheduler port: reads (consumes) the head arrival of `stream`.
    /// Tests-only: `LinecardPipeline::run_backlogged` drives it for the §5.2 anchor tests in
    /// `linecard::pipeline`.
    pub fn scheduler_read_arrival(&mut self, stream: usize) -> Option<Wrap16> {
        self.arrival_queues.get_mut(stream)?.pop_front()
    }

    /// Scheduler port: writes a winner stream ID.
    /// Tests-only: `LinecardPipeline::run_backlogged` drives it for the §5.2 anchor tests in
    /// `linecard::pipeline`.
    pub fn scheduler_write_winner(&mut self, id: u8) {
        self.winner_ids.push_back(id);
    }

    /// Transceiver port: drains the next winner ID.
    /// Tests-only: `LinecardPipeline::run_backlogged` drives it for the §5.2 anchor tests in
    /// `linecard::pipeline`.
    pub fn transceiver_read_winner(&mut self) -> Option<u8> {
        self.winner_ids.pop_front()
    }

    /// Arrivals dropped at full queues.
    /// Tests-only: `LinecardPipeline::run_backlogged` drives it for the §5.2 anchor tests in
    /// `linecard::pipeline`.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_roundtrip() {
        let mut m = DualPortSram::new(4, 8);
        m.fabric_write_arrival(2, Wrap16(7)).unwrap();
        m.fabric_write_arrival(2, Wrap16(9)).unwrap();
        assert_eq!(m.scheduler_read_arrival(2), Some(Wrap16(7)));
        m.scheduler_write_winner(2);
        assert_eq!(m.transceiver_read_winner(), Some(2));
        assert_eq!(m.transceiver_read_winner(), None);
        assert_eq!(m.scheduler_read_arrival(2), Some(Wrap16(9)));
        assert_eq!(m.scheduler_read_arrival(2), None);
    }

    #[test]
    fn full_queue_drops() {
        let mut m = DualPortSram::new(1, 2);
        m.fabric_write_arrival(0, Wrap16(1)).unwrap();
        m.fabric_write_arrival(0, Wrap16(2)).unwrap();
        assert!(m.fabric_write_arrival(0, Wrap16(3)).is_err());
        assert_eq!(m.drops(), 1);
    }

    #[test]
    fn out_of_range_stream() {
        let mut m = DualPortSram::new(2, 2);
        assert!(m.fabric_write_arrival(5, Wrap16(0)).is_err());
        assert_eq!(m.scheduler_read_arrival(5), None);
    }

    #[test]
    fn winner_fifo_order() {
        let mut m = DualPortSram::new(1, 1);
        for id in [3u8, 1, 4] {
            m.scheduler_write_winner(id);
        }
        assert_eq!(m.transceiver_read_winner(), Some(3));
        assert_eq!(m.transceiver_read_winner(), Some(1));
        assert_eq!(m.transceiver_read_winner(), Some(4));
    }
}
