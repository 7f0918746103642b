//! Hierarchical fair queuing — the link-sharing baseline class the paper
//! cites as H-FSC (Stoica, Zhang & Ng; ≈7–10 µs/packet on a 200 MHz
//! Pentium in §4.1).
//!
//! A weighted tree divides the link: each internal node runs self-clocked
//! fair queuing over its children, and selection descends from the root
//! picking the backlogged child with the least virtual finish tag. This is
//! the packetized H-PFQ simplification of H-FSC: it provides H-FSC's
//! *link-sharing* guarantee (a subtree's share is divided among its
//! members, and unused share is redistributed inside the subtree first)
//! without the decoupled real-time service curves.

use crate::packet::{Discipline, SwPacket};
use crate::wfq::TAG_SCALE;
use std::collections::VecDeque;

/// Specification of a node in the sharing hierarchy.
#[derive(Debug, Clone)]
pub enum HfqSpec {
    /// An interior class with a weight relative to its siblings.
    Class {
        /// Weight among siblings.
        weight: u32,
        /// Children (classes or streams).
        children: Vec<HfqSpec>,
    },
    /// A leaf stream.
    Stream {
        /// Weight among siblings.
        weight: u32,
        /// Stream index packets will arrive with.
        stream: usize,
    },
}

impl HfqSpec {
    /// Convenience: a leaf.
    pub fn stream(weight: u32, stream: usize) -> Self {
        HfqSpec::Stream { weight, stream }
    }

    /// Convenience: an interior class.
    pub fn class(weight: u32, children: Vec<HfqSpec>) -> Self {
        HfqSpec::Class { weight, children }
    }
}

#[derive(Debug)]
struct Node {
    weight: u64,
    /// Child node indices (empty for leaves).
    children: Vec<usize>,
    /// Leaf stream index, if a leaf.
    stream: Option<usize>,
    /// Virtual finish tag within the parent's clock.
    finish: u64,
    /// This node's own virtual clock (interior nodes).
    vtime: u64,
    /// Queued packets in this subtree.
    backlog: usize,
}

/// Hierarchical (link-sharing) fair queuing.
#[derive(Debug)]
pub struct HierarchicalFq {
    nodes: Vec<Node>,
    root: usize,
    /// Leaf node index per stream.
    leaf_of_stream: Vec<usize>,
    /// Parent of each node (root's parent = itself).
    parent: Vec<usize>,
    queues: Vec<VecDeque<SwPacket>>,
    backlog: usize,
}

impl HierarchicalFq {
    /// Builds the scheduler from a hierarchy specification.
    ///
    /// # Panics
    /// Panics if a weight is zero, a class is empty, a stream index
    /// repeats, or stream indices are not contiguous from 0.
    pub fn new(spec: HfqSpec) -> Self {
        let mut nodes = Vec::new();
        let mut parent = Vec::new();
        let mut leaves: Vec<(usize, usize)> = Vec::new(); // (stream, node)
        let root = Self::build(&spec, &mut nodes, &mut parent, &mut leaves, None);

        leaves.sort_by_key(|&(stream, _)| stream);
        for (expect, &(stream, _)) in leaves.iter().enumerate() {
            assert!(
                stream == expect,
                "stream indices must be contiguous from 0 and unique (missing or duplicate {expect})"
            );
        }
        let leaf_of_stream: Vec<usize> = leaves.iter().map(|&(_, node)| node).collect();
        let queues = (0..leaf_of_stream.len()).map(|_| VecDeque::new()).collect();
        Self {
            nodes,
            root,
            leaf_of_stream,
            parent,
            queues,
            backlog: 0,
        }
    }

    fn build(
        spec: &HfqSpec,
        nodes: &mut Vec<Node>,
        parent: &mut Vec<usize>,
        leaves: &mut Vec<(usize, usize)>,
        parent_idx: Option<usize>,
    ) -> usize {
        let idx = nodes.len();
        match spec {
            HfqSpec::Stream { weight, stream } => {
                assert!(*weight > 0, "stream weight must be positive");
                nodes.push(Node {
                    weight: u64::from(*weight),
                    children: Vec::new(),
                    stream: Some(*stream),
                    finish: 0,
                    vtime: 0,
                    backlog: 0,
                });
                parent.push(parent_idx.unwrap_or(idx));
                leaves.push((*stream, idx));
            }
            HfqSpec::Class { weight, children } => {
                assert!(*weight > 0, "class weight must be positive");
                assert!(!children.is_empty(), "class must have children");
                nodes.push(Node {
                    weight: u64::from(*weight),
                    children: Vec::new(),
                    stream: None,
                    finish: 0,
                    vtime: 0,
                    backlog: 0,
                });
                parent.push(parent_idx.unwrap_or(idx));
                let child_idxs: Vec<usize> = children
                    .iter()
                    .map(|c| Self::build(c, nodes, parent, leaves, Some(idx)))
                    .collect();
                nodes[idx].children = child_idxs;
            }
        }
        idx
    }

    /// Descends from the root picking the min-finish backlogged child.
    fn pick_leaf(&self) -> usize {
        let mut node = self.root;
        while self.nodes[node].stream.is_none() {
            node = self.nodes[node]
                .children
                .iter()
                .copied()
                .filter(|&c| self.nodes[c].backlog > 0)
                .min_by_key(|&c| (self.nodes[c].finish, c))
                .expect("backlogged interior node has a backlogged child");
        }
        node
    }
}

impl Discipline for HierarchicalFq {
    fn name(&self) -> &'static str {
        "HierarchicalFQ"
    }

    fn enqueue(&mut self, pkt: SwPacket) {
        let leaf = self.leaf_of_stream[pkt.stream];
        self.queues[pkt.stream].push_back(pkt);
        self.backlog += 1;
        // Mark the path backlogged; a child going from idle to backlogged
        // re-enters its parent's clock at the current virtual time (no
        // banked credit).
        let mut node = leaf;
        loop {
            let was_idle = self.nodes[node].backlog == 0;
            self.nodes[node].backlog += 1;
            let parent = self.parent[node];
            if was_idle && parent != node {
                let pv = self.nodes[parent].vtime;
                let n = &mut self.nodes[node];
                n.finish = n.finish.max(pv);
            }
            if parent == node {
                break;
            }
            node = parent;
        }
    }

    fn select(&mut self, _now: u64) -> Option<SwPacket> {
        if self.backlog == 0 {
            return None;
        }
        let leaf = self.pick_leaf();
        let stream = self.nodes[leaf].stream.expect("picked node is a leaf");
        let pkt = self.queues[stream]
            .pop_front()
            .expect("picked leaf backlogged");
        self.backlog -= 1;

        // Charge the packet along the path: each node's finish tag within
        // its parent advances by size/weight; each parent's clock follows
        // the serviced child (self-clocked).
        let size = u64::from(pkt.size_bytes);
        let mut node = leaf;
        loop {
            self.nodes[node].backlog -= 1;
            let parent = self.parent[node];
            if parent == node {
                break;
            }
            let w = self.nodes[node].weight;
            let n = &mut self.nodes[node];
            // Pure accumulation while backlogged — the clamp to the
            // parent's clock happens only on idle→backlogged transitions
            // (in `enqueue`), otherwise weights would collapse to
            // round-robin.
            n.finish += size * TAG_SCALE / w;
            let new_finish = n.finish;
            self.nodes[parent].vtime = new_finish;
            node = parent;
        }
        Some(pkt)
    }

    fn backlog(&self) -> usize {
        self.backlog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::conformance;

    /// Root with two classes: interactive (weight 1) with one stream,
    /// bulk (weight 1) with `bulk_streams` streams.
    fn two_class(bulk_streams: usize) -> HierarchicalFq {
        let bulk: Vec<HfqSpec> = (0..bulk_streams)
            .map(|s| HfqSpec::stream(1, s + 1))
            .collect();
        HierarchicalFq::new(HfqSpec::class(
            1,
            vec![
                HfqSpec::class(1, vec![HfqSpec::stream(1, 0)]),
                HfqSpec::class(1, bulk),
            ],
        ))
    }

    #[test]
    fn contract() {
        conformance::check_contract(two_class(3), 4, 25);
    }

    #[test]
    fn flat_hierarchy_matches_weighted_shares() {
        let mut h = HierarchicalFq::new(HfqSpec::class(
            1,
            vec![
                HfqSpec::stream(1, 0),
                HfqSpec::stream(1, 1),
                HfqSpec::stream(2, 2),
                HfqSpec::stream(4, 3),
            ],
        ));
        for s in 0..4 {
            for q in 0..4000 {
                h.enqueue(SwPacket::new(s, q, 0, 1000));
            }
        }
        let bytes = conformance::byte_shares(&mut h, 4, 4000);
        let total: u64 = bytes.iter().sum();
        for (i, expect) in [0.125, 0.125, 0.25, 0.5].iter().enumerate() {
            let share = bytes[i] as f64 / total as f64;
            assert!(
                (share - expect).abs() < 0.01,
                "stream {i}: {share} vs {expect}"
            );
        }
    }

    #[test]
    fn link_sharing_isolates_subtrees() {
        // The H-FSC pitch: one interactive stream in a 50% class keeps 50%
        // of the link even against 10 backlogged bulk streams — flat fair
        // queuing would give it 1/11.
        let mut h = two_class(10);
        for q in 0..20_000 {
            h.enqueue(SwPacket::new(0, q, 0, 1000));
        }
        for s in 1..=10 {
            for q in 0..4000 {
                h.enqueue(SwPacket::new(s, q, 0, 1000));
            }
        }
        let bytes = conformance::byte_shares(&mut h, 11, 8000);
        let total: u64 = bytes.iter().sum();
        let interactive = bytes[0] as f64 / total as f64;
        assert!(
            (interactive - 0.5).abs() < 0.01,
            "interactive share {interactive}"
        );
        // Bulk's half splits evenly among its ten members.
        for (s, &b) in bytes.iter().enumerate().skip(1) {
            let share = b as f64 / total as f64;
            assert!((share - 0.05).abs() < 0.01, "bulk {s}: {share}");
        }
    }

    #[test]
    fn unused_share_redistributes_inside_the_subtree_first() {
        // Three-level tree: root { A: {a1, a2}, B: {b1} } with equal class
        // weights. When a2 idles, its share goes to a1 (same subtree), not
        // to b1: A keeps 50%.
        let mut h = HierarchicalFq::new(HfqSpec::class(
            1,
            vec![
                HfqSpec::class(1, vec![HfqSpec::stream(1, 0), HfqSpec::stream(1, 1)]),
                HfqSpec::class(1, vec![HfqSpec::stream(1, 2)]),
            ],
        ));
        // a2 (stream 1) has no traffic at all.
        for q in 0..6000 {
            h.enqueue(SwPacket::new(0, q, 0, 1000));
            h.enqueue(SwPacket::new(2, q, 0, 1000));
        }
        let bytes = conformance::byte_shares(&mut h, 3, 6000);
        let total: u64 = bytes.iter().sum();
        let a1 = bytes[0] as f64 / total as f64;
        assert!(
            (a1 - 0.5).abs() < 0.01,
            "a1 inherits its sibling's share: {a1}"
        );
    }

    #[test]
    fn idle_class_does_not_bank_credit() {
        let mut h = two_class(1);
        // Bulk (stream 1) transmits alone for a while.
        for q in 0..100 {
            h.enqueue(SwPacket::new(1, q, 0, 1000));
        }
        for t in 0..50 {
            h.select(t);
        }
        // Interactive wakes: it must share from *now*, not claim the past.
        for q in 0..100 {
            h.enqueue(SwPacket::new(0, q, 50, 1000));
        }
        let mut consecutive0 = 0usize;
        let mut max_consecutive0 = 0usize;
        for t in 50..150 {
            match h.select(t).map(|p| p.stream) {
                Some(0) => {
                    consecutive0 += 1;
                    max_consecutive0 = max_consecutive0.max(consecutive0);
                }
                _ => consecutive0 = 0,
            }
        }
        assert!(
            max_consecutive0 <= 2,
            "woken class monopolized: {max_consecutive0}"
        );
    }

    #[test]
    #[should_panic(expected = "contiguous from 0")]
    fn rejects_gappy_stream_indices() {
        HierarchicalFq::new(HfqSpec::class(
            1,
            vec![HfqSpec::stream(1, 0), HfqSpec::stream(1, 2)],
        ));
    }

    #[test]
    #[should_panic(expected = "class must have children")]
    fn rejects_empty_class() {
        HierarchicalFq::new(HfqSpec::class(1, vec![]));
    }
}
