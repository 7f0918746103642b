//! The ShareStreams switch line-card realization (paper §4.2, Figure 2).
//!
//! In the backbone configuration there is no host in the loop: dual-ported
//! SRAM sits between the switch fabric and the FPGA scheduler. The switch
//! fabric deposits packets into per-stream SRAM queues and their arrival
//! times are read by the SRAM interface *concurrently*; the scheduler
//! writes winner Stream IDs back into an SRAM partition for the network
//! transceiver. Because both ports operate at once, there is no bank
//! ownership handover — the line-card's throughput is the raw fabric
//! decision rate (7.6 M packets/s at 4 stream-slots on the Virtex I).

pub mod card;
pub mod dpram;
pub mod pipeline;

pub use card::{Linecard, LinecardReport, LinecardThroughput};
pub use dpram::DualPortSram;
pub use pipeline::{LinecardPipeline, LinecardPipelineConfig, LinecardRunReport};
