//! Transaction-cost model of the 32-bit/33 MHz PCI path to the FPGA card.
//!
//! The Stream processor exchanges **16-bit arrival-time offsets** and
//! **5-bit stream IDs** with the card — "much less than the size of a
//! packet with header and payload" (§5.1), which is the whole point of the
//! endsystem split. Small batches are *pushed* with programmed I/O; bulk
//! transfers are *pulled* by the card's DMA engines. Every transfer also
//! pays the SRAM bank-ownership handover that the paper measured as the
//! bottleneck (§5.2).
//!
//! Calibration (recorded in EXPERIMENTS.md): with per-packet PIO — one
//! 32-bit posted write (~4 PCI cycles ≈ 121 ns), one 32-bit read
//! (~8 cycles ≈ 242 ns), and two ~425 ns bank handovers — the model adds
//! ≈1.21 µs per packet, which takes the modeled endsystem from the paper's
//! 469 483 pkt/s (no transfers) to 299 065 pkt/s (PIO included).

use crate::faults::EndsystemFaults;
use serde::{Deserialize, Serialize};
use ss_types::{Nanos, Result};

/// How arrival times are moved to the card.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferStrategy {
    /// Programmed-I/O pushes: cheap for small batches, no setup cost.
    PioPush,
    /// Card-initiated DMA pulls: setup cost amortized over bulk bursts.
    DmaPull,
}

/// The PCI/DMA/bank-handover cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PciModel {
    /// Cost of a 32-bit PIO write (posted), ns.
    pub pio_write_ns_per_word: Nanos,
    /// Cost of a 32-bit PIO read (non-posted: round trip), ns.
    pub pio_read_ns_per_word: Nanos,
    /// DMA descriptor setup + doorbell, ns per transfer.
    pub dma_setup_ns: Nanos,
    /// Per-word cost inside a DMA burst, ns.
    pub dma_burst_ns_per_word: Nanos,
    /// SRAM bank ownership handover, ns.
    pub bank_switch_ns: Nanos,
    /// 16-bit arrival times packed per 32-bit word.
    pub arrivals_per_word: u64,
    /// Stream IDs packed per 32-bit word.
    pub ids_per_word: u64,
}

impl Default for PciModel {
    fn default() -> Self {
        Self::pci32_33()
    }
}

impl PciModel {
    /// The Celoxica RC1000's 32-bit/33 MHz PCI, calibrated per module docs.
    pub fn pci32_33() -> Self {
        Self {
            pio_write_ns_per_word: 121,
            pio_read_ns_per_word: 242,
            dma_setup_ns: 2_000,
            dma_burst_ns_per_word: 30,
            bank_switch_ns: 425,
            arrivals_per_word: 2,
            ids_per_word: 2,
        }
    }

    fn words_for(&self, items: u64, per_word: u64) -> u64 {
        items.div_ceil(per_word)
    }

    /// Cost of moving `n` arrival times to the card.
    pub fn arrivals_to_card_ns(&self, n: u64, strategy: TransferStrategy) -> Nanos {
        if n == 0 {
            return 0;
        }
        let words = self.words_for(n, self.arrivals_per_word);
        match strategy {
            TransferStrategy::PioPush => words * self.pio_write_ns_per_word + self.bank_switch_ns,
            TransferStrategy::DmaPull => {
                self.dma_setup_ns + words * self.dma_burst_ns_per_word + self.bank_switch_ns
            }
        }
    }

    /// Cost of reading `n` scheduled stream IDs back from the card.
    pub fn ids_from_card_ns(&self, n: u64, strategy: TransferStrategy) -> Nanos {
        if n == 0 {
            return 0;
        }
        let words = self.words_for(n, self.ids_per_word);
        match strategy {
            TransferStrategy::PioPush => words * self.pio_read_ns_per_word + self.bank_switch_ns,
            TransferStrategy::DmaPull => {
                self.dma_setup_ns + words * self.dma_burst_ns_per_word + self.bank_switch_ns
            }
        }
    }

    /// Total transfer overhead per packet when arrivals and IDs move in
    /// batches of `batch` packets.
    pub fn per_packet_overhead_ns(&self, batch: u64, strategy: TransferStrategy) -> f64 {
        assert!(batch > 0, "batch must be positive");
        let total =
            self.arrivals_to_card_ns(batch, strategy) + self.ids_from_card_ns(batch, strategy);
        total as f64 / batch as f64
    }
}

/// A checked host↔card transfer front-end: the [`PciModel`] cost model
/// plus the endsystem fault hooks. Detached, every transfer succeeds at
/// its nominal cost; with an injector attached, transfers run through the
/// seeded fault schedule with bounded retry-with-backoff, and exhaustion
/// surfaces as [`ss_types::Error::TransferTimeout`] so callers can requeue
/// instead of losing the batch.
#[derive(Debug, Clone, Default)]
pub struct CardLink {
    model: PciModel,
    faults: EndsystemFaults,
}

impl CardLink {
    /// A link over `model`, fault-free until an injector is attached.
    pub fn new(model: PciModel) -> Self {
        Self {
            model,
            faults: EndsystemFaults::new(),
        }
    }

    /// The underlying cost model.
    pub fn model(&self) -> &PciModel {
        &self.model
    }

    /// Wires the link's transfers to a shared fault injector with the
    /// given retry policy.
    pub fn attach_faults(
        &mut self,
        injector: std::sync::Arc<ss_faults::FaultInjector>,
        policy: ss_faults::RetryPolicy,
    ) {
        self.faults.attach(injector, policy);
    }

    /// Moves `n` arrival times to the card, returning the total simulated
    /// cost (retries and backoff included).
    pub fn arrivals_to_card(&self, n: u64, strategy: TransferStrategy) -> Result<Nanos> {
        if n == 0 {
            return Ok(0);
        }
        self.faults
            .transfer_ns(self.model.arrivals_to_card_ns(n, strategy))
    }

    /// Reads `n` scheduled stream IDs back from the card.
    pub fn ids_from_card(&self, n: u64, strategy: TransferStrategy) -> Result<Nanos> {
        if n == 0 {
            return Ok(0);
        }
        self.faults
            .transfer_ns(self.model.ids_from_card_ns(n, strategy))
    }

    /// Like [`CardLink::arrivals_to_card`], but leaves a `PciTransfer`
    /// control event on `track` (detail = direction, arg = modeled ns) so
    /// host↔card hops show up on the lifecycle timeline between ring
    /// dequeue and fabric arrival.
    pub fn arrivals_to_card_traced(
        &self,
        n: u64,
        strategy: TransferStrategy,
        cycle: u64,
        track: &mut ss_telemetry::TrackRecorder,
    ) -> Result<Nanos> {
        let cost = self.arrivals_to_card(n, strategy)?;
        track.record(
            ss_telemetry::TraceTag::CONTROL.0,
            cycle,
            ss_telemetry::Stage::PciTransfer,
            ss_telemetry::span::detail::PCI_TO_CARD,
            cost.min(u32::MAX as u64) as u32,
        );
        Ok(cost)
    }

    /// Like [`CardLink::ids_from_card`], traced (see
    /// [`CardLink::arrivals_to_card_traced`]).
    pub fn ids_from_card_traced(
        &self,
        n: u64,
        strategy: TransferStrategy,
        cycle: u64,
        track: &mut ss_telemetry::TrackRecorder,
    ) -> Result<Nanos> {
        let cost = self.ids_from_card(n, strategy)?;
        track.record(
            ss_telemetry::TraceTag::CONTROL.0,
            cycle,
            ss_telemetry::Stage::PciTransfer,
            ss_telemetry::span::detail::PCI_FROM_CARD,
            cost.min(u32::MAX as u64) as u32,
        );
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: PciModel = PciModel {
        pio_write_ns_per_word: 121,
        pio_read_ns_per_word: 242,
        dma_setup_ns: 2_000,
        dma_burst_ns_per_word: 30,
        bank_switch_ns: 425,
        arrivals_per_word: 2,
        ids_per_word: 2,
    };

    #[test]
    fn per_packet_pio_matches_calibration() {
        // Unbatched PIO: 121 + 242 + 2·425 = 1213 ns — the §5.2 delta
        // between 469 483 and 299 065 pkt/s is 1214 ns.
        let per_pkt = M.per_packet_overhead_ns(1, TransferStrategy::PioPush);
        assert!((per_pkt - 1213.0).abs() < 1.0, "{per_pkt}");
        let paper_delta = 1e9 / 299_065.0 - 1e9 / 469_483.0;
        assert!(
            (per_pkt - paper_delta).abs() < 5.0,
            "{per_pkt} vs {paper_delta}"
        );
    }

    #[test]
    fn batching_amortizes_pio() {
        let b1 = M.per_packet_overhead_ns(1, TransferStrategy::PioPush);
        let b64 = M.per_packet_overhead_ns(64, TransferStrategy::PioPush);
        assert!(b64 < b1 / 3.0, "batched {b64} vs unbatched {b1}");
    }

    #[test]
    fn dma_wins_for_bulk_loses_for_single() {
        let pio1 = M.per_packet_overhead_ns(1, TransferStrategy::PioPush);
        let dma1 = M.per_packet_overhead_ns(1, TransferStrategy::DmaPull);
        assert!(dma1 > pio1, "DMA setup dominates single transfers");
        let pio256 = M.per_packet_overhead_ns(256, TransferStrategy::PioPush);
        let dma256 = M.per_packet_overhead_ns(256, TransferStrategy::DmaPull);
        assert!(
            dma256 < pio256,
            "DMA bursts win for bulk: {dma256} vs {pio256}"
        );
    }

    #[test]
    fn zero_items_cost_nothing() {
        assert_eq!(M.arrivals_to_card_ns(0, TransferStrategy::PioPush), 0);
        assert_eq!(M.ids_from_card_ns(0, TransferStrategy::DmaPull), 0);
    }

    #[test]
    fn word_packing() {
        // 3 arrival times → 2 words.
        let c3 = M.arrivals_to_card_ns(3, TransferStrategy::PioPush);
        let c4 = M.arrivals_to_card_ns(4, TransferStrategy::PioPush);
        assert_eq!(c3, c4);
        let c5 = M.arrivals_to_card_ns(5, TransferStrategy::PioPush);
        assert_eq!(c5 - c4, 121);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_rejected() {
        M.per_packet_overhead_ns(0, TransferStrategy::PioPush);
    }

    #[test]
    fn card_link_nominal_costs_match_model() {
        let link = CardLink::new(M);
        assert_eq!(
            link.arrivals_to_card(8, TransferStrategy::PioPush).unwrap(),
            M.arrivals_to_card_ns(8, TransferStrategy::PioPush)
        );
        assert_eq!(
            link.ids_from_card(8, TransferStrategy::DmaPull).unwrap(),
            M.ids_from_card_ns(8, TransferStrategy::DmaPull)
        );
        assert_eq!(
            link.arrivals_to_card(0, TransferStrategy::PioPush).unwrap(),
            0
        );
    }

    #[test]
    fn traced_transfers_leave_control_events_with_costs() {
        use ss_telemetry::span::detail;
        use ss_telemetry::{SpanRecorder, Stage};
        let link = CardLink::new(M);
        let spans = SpanRecorder::new(64);
        let mut track = spans.track("pci");
        let to = link
            .arrivals_to_card_traced(8, TransferStrategy::PioPush, 1, &mut track)
            .unwrap();
        let from = link
            .ids_from_card_traced(8, TransferStrategy::DmaPull, 1, &mut track)
            .unwrap();
        drop(track);
        let tracks = spans.drain();
        assert_eq!(tracks.len(), 1);
        let events = &tracks[0].events;
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.stage == Stage::PciTransfer));
        assert!(events.iter().all(|e| e.trace_tag().is_control()));
        assert_eq!(events[0].detail, detail::PCI_TO_CARD);
        assert_eq!(events[0].arg as u64, to);
        assert_eq!(events[1].detail, detail::PCI_FROM_CARD);
        assert_eq!(events[1].arg as u64, from);
    }

    #[test]
    fn card_link_retries_and_eventually_times_out() {
        use ss_faults::{FaultConfig, FaultInjector, RetryPolicy};
        use ss_types::Error;
        use std::sync::Arc;
        // Moderate rate: over many transfers, some retry (costing more than
        // nominal) and with 100% rate the budget exhausts into a timeout.
        let mut flaky = CardLink::new(M);
        flaky.attach_faults(
            Arc::new(FaultInjector::new(
                21,
                FaultConfig {
                    pci_rate_ppm: 300_000,
                    ..FaultConfig::quiet()
                },
            )),
            RetryPolicy::default(),
        );
        let nominal = M.arrivals_to_card_ns(4, TransferStrategy::PioPush);
        let mut retried = 0;
        for _ in 0..200 {
            match flaky.arrivals_to_card(4, TransferStrategy::PioPush) {
                Ok(cost) => {
                    if cost > nominal {
                        retried += 1;
                    }
                    assert!(cost >= nominal);
                }
                Err(Error::TransferTimeout { attempts, .. }) => {
                    assert!(attempts >= 1);
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(retried > 0, "some transfers recovered via retry");

        let mut dead = CardLink::new(M);
        dead.attach_faults(
            Arc::new(FaultInjector::new(
                22,
                FaultConfig {
                    pci_rate_ppm: 1_000_000,
                    ..FaultConfig::quiet()
                },
            )),
            RetryPolicy::default(),
        );
        assert!(matches!(
            dead.arrivals_to_card(4, TransferStrategy::PioPush),
            Err(Error::TransferTimeout { .. })
        ));
    }
}
