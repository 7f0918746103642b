//! The Streaming unit: keeping the card's per-stream queues full.
//!
//! Paper §4.3: "The Streaming unit keeps per-stream queues on the FPGA PCI
//! card *full* using a combination of push and pull transfers. For small
//! transfers, the Stream processor can push arrival-times to the FPGA PCI
//! card. For bulk-transfers, the Stream processor will set the DMA engine
//! registers and assert the pull-start line so that bank ownership can be
//! arbitrated between the Stream processor and the Scheduler hardware
//! unit."
//!
//! This module runs that protocol over the transaction models: arrival
//! batches are staged into one SRAM bank while the FPGA drains the other
//! (double buffering), each handover paying the arbitration cost the paper
//! identifies as the PCI bottleneck. Events are sequenced on the
//! deterministic [`EventQueue`], so the overlap between host staging and
//! FPGA draining is explicit and measurable.

use crate::pci::{PciModel, TransferStrategy};
use crate::sram::{BankOwner, BankedSram};
use serde::{Deserialize, Serialize};
use ss_core::hwsim::EventQueue;
use ss_types::{Nanos, Result};

/// Events in the streaming-unit timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Host finished staging a batch into `bank`.
    HostStaged { bank: usize, items: u64 },
    /// FPGA finished consuming a batch from `bank`.
    FpgaDrained { bank: usize },
}

/// Result of a streaming run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StreamingReport {
    /// Arrival tags transferred.
    pub items: u64,
    /// Total simulated time, ns.
    pub elapsed_ns: Nanos,
    /// Effective transfer rate, items/second.
    pub items_per_sec: f64,
    /// SRAM bank ownership handovers performed.
    pub bank_switches: u64,
    /// Time the FPGA spent stalled waiting for a staged bank, ns.
    pub fpga_stall_ns: Nanos,
}

/// The double-buffered streaming unit.
#[derive(Debug)]
pub struct StreamingUnit {
    pci: PciModel,
    strategy: TransferStrategy,
    /// Items per staged batch.
    batch: u64,
    /// FPGA consumption cost per item (scheduler-side SRAM read + decision
    /// pacing), ns.
    fpga_ns_per_item: Nanos,
    sram: BankedSram,
}

impl StreamingUnit {
    /// Creates a streaming unit over a two-bank SRAM.
    ///
    /// # Panics
    /// Panics if `batch == 0` or `fpga_ns_per_item == 0`.
    pub fn new(
        pci: PciModel,
        strategy: TransferStrategy,
        batch: u64,
        fpga_ns_per_item: Nanos,
    ) -> Self {
        assert!(batch > 0, "batch must be positive");
        assert!(fpga_ns_per_item > 0, "consumption cost must be positive");
        Self {
            pci,
            strategy,
            batch,
            fpga_ns_per_item,
            sram: BankedSram::rc1000_like(),
        }
    }

    /// Streams `total_items` arrival tags to the card with double
    /// buffering, returning the timeline report.
    pub fn run(&mut self, total_items: u64) -> Result<StreamingReport> {
        let mut q: EventQueue<Event> = EventQueue::new();
        let mut remaining_to_stage = total_items;
        let mut drained = 0u64;
        // Bank states: items staged and ready, or None if empty/dirty.
        let mut ready: [Option<u64>; 2] = [None, None];
        let mut fpga_busy = false;
        let mut fpga_stall_started: Option<Nanos> = Some(0);
        let mut fpga_stall_ns: Nanos = 0;

        // Kick off: host stages bank 0.
        let first = remaining_to_stage.min(self.batch);
        remaining_to_stage -= first;
        let mut host_busy = true;
        let mut cost = self.sram.acquire(0, BankOwner::Host)?;
        cost += self.pci.arrivals_to_card_ns(first, self.strategy);
        q.schedule_in(
            cost,
            Event::HostStaged {
                bank: 0,
                items: first,
            },
        );

        while let Some((now, event)) = q.pop() {
            match event {
                Event::HostStaged { bank, items } => {
                    host_busy = false;
                    // Hand the staged bank to the FPGA.
                    let switch = self.sram.acquire(bank, BankOwner::Fpga)?;
                    ready[bank] = Some(items);
                    // Start the FPGA if it was stalled.
                    if !fpga_busy {
                        if let Some(start) = fpga_stall_started.take() {
                            fpga_stall_ns += now + switch - start;
                        }
                        fpga_busy = true;
                        q.schedule_in(
                            switch + items * self.fpga_ns_per_item,
                            Event::FpgaDrained { bank },
                        );
                    }
                    // Stage the other bank while the FPGA drains this one.
                    let other = 1 - bank;
                    if remaining_to_stage > 0 && ready[other].is_none() && !host_busy {
                        let items = remaining_to_stage.min(self.batch);
                        remaining_to_stage -= items;
                        host_busy = true;
                        let mut cost = self.sram.acquire(other, BankOwner::Host)?;
                        cost += self.pci.arrivals_to_card_ns(items, self.strategy);
                        q.schedule_in(cost, Event::HostStaged { bank: other, items });
                    }
                }
                Event::FpgaDrained { bank } => {
                    drained += ready[bank].take().expect("drained bank was ready");
                    fpga_busy = false;
                    // Continue on the other bank if it is ready.
                    let other = 1 - bank;
                    if let Some(items) = ready[other] {
                        fpga_busy = true;
                        q.schedule_in(
                            items * self.fpga_ns_per_item,
                            Event::FpgaDrained { bank: other },
                        );
                    } else if drained < total_items {
                        fpga_stall_started = Some(now);
                    }
                    // The drained bank is free for the host again.
                    if remaining_to_stage > 0 && !host_busy {
                        let items = remaining_to_stage.min(self.batch);
                        remaining_to_stage -= items;
                        host_busy = true;
                        let mut cost = self.sram.acquire(bank, BankOwner::Host)?;
                        cost += self.pci.arrivals_to_card_ns(items, self.strategy);
                        q.schedule_in(cost, Event::HostStaged { bank, items });
                    }
                }
            }
        }

        let elapsed = q.now();
        Ok(StreamingReport {
            items: drained,
            elapsed_ns: elapsed,
            items_per_sec: if elapsed > 0 {
                drained as f64 * 1e9 / elapsed as f64
            } else {
                0.0
            },
            bank_switches: self.sram.switch_count(),
            fpga_stall_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(strategy: TransferStrategy, batch: u64) -> StreamingUnit {
        StreamingUnit::new(PciModel::pci32_33(), strategy, batch, 100)
    }

    #[test]
    fn transfers_everything() {
        let mut u = unit(TransferStrategy::PioPush, 64);
        let r = u.run(1_000).unwrap();
        assert_eq!(r.items, 1_000);
        assert!(r.elapsed_ns > 0);
        assert!(r.items_per_sec > 0.0);
    }

    #[test]
    fn double_buffering_overlaps_staging_and_draining() {
        // With comparable stage and drain costs, total time must be far
        // below the serial sum (stage+drain per batch).
        let mut u = unit(TransferStrategy::DmaPull, 256);
        let r = u.run(16_384).unwrap();
        let batches = 16_384 / 256;
        let stage = u.pci.arrivals_to_card_ns(256, TransferStrategy::DmaPull);
        let drain = 256 * 100u64;
        let serial = batches * (stage + drain);
        // Overlap hides the staging cost behind the (dominant) drain: the
        // run should take barely more than the pure drain time, and well
        // below the serialized sum.
        assert!(
            r.elapsed_ns < serial * 9 / 10,
            "vs serial: {} vs {}",
            r.elapsed_ns,
            serial
        );
        let pure_drain = batches * drain;
        assert!(
            r.elapsed_ns < pure_drain * 115 / 100,
            "vs drain floor: {} vs {}",
            r.elapsed_ns,
            pure_drain
        );
    }

    #[test]
    fn larger_batches_amortize_handovers() {
        let small = unit(TransferStrategy::PioPush, 16).run(8_192).unwrap();
        let large = unit(TransferStrategy::PioPush, 512).run(8_192).unwrap();
        assert!(large.items_per_sec > small.items_per_sec);
        assert!(large.bank_switches < small.bank_switches);
    }

    #[test]
    fn dma_beats_pio_for_bulk() {
        let pio = unit(TransferStrategy::PioPush, 2048).run(65_536).unwrap();
        let dma = unit(TransferStrategy::DmaPull, 2048).run(65_536).unwrap();
        assert!(
            dma.items_per_sec > pio.items_per_sec,
            "{} vs {}",
            dma.items_per_sec,
            pio.items_per_sec
        );
    }

    #[test]
    fn fast_fpga_records_stalls() {
        // FPGA drains 10x faster than the host stages → it must stall.
        let mut u = StreamingUnit::new(PciModel::pci32_33(), TransferStrategy::PioPush, 32, 1);
        let r = u.run(4_096).unwrap();
        assert!(r.fpga_stall_ns > 0, "expected FPGA starvation");
    }

    #[test]
    fn slow_fpga_never_stalls_after_warmup() {
        // Host stages far faster than the FPGA drains → at most the
        // initial fill shows as stall.
        let mut u = StreamingUnit::new(
            PciModel::pci32_33(),
            TransferStrategy::DmaPull,
            1024,
            10_000,
        );
        let r = u.run(8_192).unwrap();
        let first_stage = u.pci.arrivals_to_card_ns(1024, TransferStrategy::DmaPull) + 500;
        assert!(
            r.fpga_stall_ns <= first_stage,
            "stalls beyond initial fill: {} vs {}",
            r.fpga_stall_ns,
            first_stage
        );
    }

    #[test]
    fn partial_final_batch() {
        let mut u = unit(TransferStrategy::PioPush, 100);
        let r = u.run(250).unwrap();
        assert_eq!(r.items, 250);
    }

    #[test]
    fn zero_items_is_trivial() {
        let mut u = unit(TransferStrategy::PioPush, 8);
        let r = u.run(0).unwrap();
        assert_eq!(r.items, 0);
    }
}
