//! The ShareStreams Endsystem / Host-based-router realization (paper §4.2).
//!
//! The endsystem splits work between the *Stream processor* (the host CPU)
//! and the FPGA scheduler card:
//!
//! ```text
//!  producers ──► per-stream circular queues (sync-free SPSC) ──► Queue Manager
//!                                                                  │ batches of
//!                                                                  │ 16-bit arrival times
//!                                                            PCI (push PIO / pull DMA)
//!                                                                  ▼
//!                                            banked SRAM ◄──► FPGA scheduler fabric
//!                                                                  │ 5-bit stream IDs
//!                                                                  ▼
//!                              Transmission Engine ──► network (DMA pulls)
//! ```
//!
//! * [`spsc`] — the "synchronization-free circular buffers with separate
//!   read and write pointers" the paper builds its concurrency on.
//! * [`sram`] — banked SRAM with host/FPGA ownership arbitration (the
//!   measured bottleneck of the Celoxica card, §5.2).
//! * [`pci`] — transaction-cost model of the 32-bit/33 MHz PCI bus: PIO
//!   pushes for small batches, DMA pulls for bulk.
//! * [`queue_manager`] — per-stream descriptors and arrival-time batching.
//! * [`transmission`] — the TE threads' accounting (bandwidth, delays).
//! * [`aggregation`] — streamlets: many flows multiplexed onto one
//!   stream-slot by processor-side round-robin (paper §5.1, Figure 10).
//! * [`streaming`] — the Streaming unit: double-buffered push/pull batch
//!   transfers over the banked SRAM, with the handover arbitration the
//!   paper measured as the PCI bottleneck.
//! * [`pipeline`] — the deterministic virtual-time pipeline that produces
//!   Figures 8, 9, 10 and the §5.2 endsystem throughput numbers.
//! * [`threaded`] — a real multi-threaded pipeline over the SPSC rings
//!   (used by the `host_router` example and the conformance harness).
//! * [`worker`] — the one thread lifecycle: named, joined when dropped.
//! * [`affinity`] — best-effort pinning for benchmark rigs (no-op off Linux).

#![warn(missing_docs)]

pub mod affinity;
pub mod aggregation;
pub mod faults;
pub mod pci;
pub mod pipeline;
pub mod queue_manager;
pub mod spsc;
pub mod sram;
pub mod streaming;
pub mod threaded;
pub mod transmission;
pub mod worker;

pub use affinity::pin_current_thread;
pub use aggregation::{StreamletMux, StreamletSetConfig};
pub use faults::EndsystemFaults;
pub use pci::{CardLink, PciModel, TransferStrategy};
pub use pipeline::{EndsystemConfig, EndsystemPipeline, EndsystemReport, StreamPipelineStats};
pub use queue_manager::QueueManager;
pub use spsc::{spsc_ring, Consumer, Producer, RingStats};
pub use sram::{BankOwner, BankedSram};
// RED and the overload gate live in ss-overload (`ss_overload::gate` has
// the composition and the backpressure rule); the endsystem runs
// `Gate<()>` as a zero-sized mirror of the fabric backlog.
pub use ss_overload::{
    early_drop_probability, Gate, GateConfig, GateReason, RedConfig, RedQueue, RedVerdict,
};
pub use streaming::{StreamingReport, StreamingUnit};
pub use threaded::{run_threaded, run_threaded_edf, run_threaded_faulted, ThreadedReport};
pub use threaded::{run_threaded_overload, OverloadRunReport};
pub use threaded::{run_threaded_traced, TraceConfig, TracedReport};
pub use transmission::TransmissionEngine;
pub use worker::Worker;
