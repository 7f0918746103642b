//! Software reference packet-scheduling disciplines.
//!
//! These are the processor-resident schedulers the paper positions
//! ShareStreams against (§4.1, §5.2): the Click router's Stochastic
//! Fairness Queueing, the router-plugins Deficit Round Robin, fair-queuing
//! (virtual-time) disciplines, priority classes, EDF, and a reference
//! software DWCS. They serve three roles here:
//!
//! 1. **Baselines** — the §4.1 latency table and §5.2 throughput comparison
//!    run these through the same harness as the fabric simulation.
//! 2. **Golden models** — integration tests cross-check the hardware
//!    fabric's winner sequences against [`DwcsRef`] (the conformance
//!    harness) and [`StaticPriority`] (`tests/unified_architecture.rs`).
//! 3. **Library value** — a coherent, tested set of classic schedulers
//!    behind one [`Discipline`] trait.
//!
//! The five whose order is fixed when a packet is enqueued — [`Edf`],
//! [`StaticPriority`], [`Wfq`], [`StartTimeFq`] and [`VirtualClock`] — are
//! each a [`Rank`] function over one [`Pifo`]. DRR and stochastic FQ
//! decide at dequeue, and [`HierarchicalFq`] charges the
//! packet it serves at dequeue, so they keep their own queues.
//!
//! All disciplines are *work-conserving* (they emit a packet whenever any
//! queue is backlogged) and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drr;
pub mod dwcs_ref;
pub mod edf;
pub mod fcfs;
pub mod hfq;
pub mod packet;
pub mod pifo;
pub mod sfq;
pub mod static_prio;
pub mod stfq;
pub mod virtual_clock;
pub mod wfq;

pub use drr::Drr;
pub use dwcs_ref::{DwcsRef, DwcsStreamConfig, LatePolicy};
pub use edf::{Edf, EdfStreamConfig};
pub use fcfs::Fcfs;
pub use hfq::{HfqSpec, HierarchicalFq};
pub use packet::{Discipline, SwPacket};
pub use pifo::{Pifo, Rank};
pub use sfq::StochasticFq;
pub use static_prio::StaticPriority;
pub use stfq::StartTimeFq;
pub use virtual_clock::VirtualClock;
pub use wfq::Wfq;
