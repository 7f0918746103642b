//! Workspace-level analysis: symbol table, call graph, and the passes
//! built on top of them.
//!
//! Unlike the per-file token rules in [`crate::rules`], everything here
//! sees the whole workspace at once:
//!
//! * [`symbols`] — extracts fn/type/mod items (with `cfg` attribution and
//!   `// lint:hot-path` annotations) from each masked file.
//! * [`callgraph`] — resolves call edges conservatively by name and
//!   builds the [`callgraph::Analysis`] the later passes share; its own
//!   rule (`call-graph`) keeps annotations attached to real symbols.
//! * [`reachability`] — transitive hot-path purity: walks the graph from
//!   every hot root and reports forbidden sinks with a witness call path.
//! * [`interleave`] — a bounded-exhaustive two-thread interleaving
//!   checker (a miniature loom) with Acquire/Release visibility, plus
//!   [`models`] for the workspace's two lock-free protocols.

pub mod callgraph;
pub mod interleave;
pub mod models;
pub mod reachability;
pub mod symbols;
