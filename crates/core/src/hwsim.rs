//! Cycle-level hardware simulation substrate for ShareStreams.
//!
//! The published system ran on a Xilinx Virtex I FPGA (Celoxica RC1000 PCI
//! card). This module is the stand-in for that hardware:
//!
//! * [`sync`] — a two-phase (evaluate/commit) synchronous-logic simulation
//!   kernel. Every simulated flip-flop updates atomically at the clock edge,
//!   so simulated RTL cannot accidentally read this-cycle values, exactly as
//!   real registered logic cannot.
//! * [`events`] — a deterministic discrete-event queue used by the
//!   transaction-level endsystem models (PCI, DMA, SRAM banks).
//! * [`stats`] — counters, histograms, rate meters and time-series recorders
//!   that back every figure regeneration.
//! * [`vcd`] — a Value Change Dump writer for the RTL model's waveforms.
//! * [`virtex`] — the Virtex-I device table and the area/clock-rate model
//!   calibrated to the paper's published numbers (Decision block = 190
//!   slices, Register Base block = 150 slices, Control = 22 slices; WR@4
//!   slots sustains 7.6 M decisions/s).
//!
//! The area and clock models are *models*, not synthesis: DESIGN.md §2 and §7
//! record the calibration anchors and why cycle counts (which we simulate
//! exactly) rather than absolute MHz carry the paper's conclusions.

pub mod events;
pub mod stats;
pub mod sync;
pub mod vcd;
pub mod virtex;

pub use events::EventQueue;
pub use stats::{Histogram, RateMeter, Summary, TimeSeries};
pub use sync::{CycleSim, Synchronous};
pub use vcd::VcdWriter;
pub use virtex::{
    AreaEstimate, FabricConfigKind, VirtexDevice, VirtexIIDevice, VirtexIIProjection, VirtexModel,
};
