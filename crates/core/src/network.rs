//! The single-stage recirculating shuffle-exchange network and the
//! winner-only tournament.
//!
//! The paper's area argument (§3, §4.3): a Decision-block *tree* needs N−1
//! blocks and cannot be pipelined for window-constrained disciplines (the
//! winner must recirculate to the state store before the next decision), so
//! ShareStreams keeps only the lowest tree level — N/2 Decision blocks — and
//! recirculates attribute words through a perfect-shuffle interconnect for
//! log2(N) cycles per decision.
//!
//! ## Two networks for one BA decision
//!
//! [`ba_decision_from_planes`] computes the block over packed lane words.
//! The **word network** is the general form: log2(N) [`compare_batch`]
//! passes, each comparator the full [`crate::decision::lane_order`]. The
//! **key network** runs the same passes on `u32` keys — the 16-bit
//! deadline above the lane index — and gathers the words in key order. It
//! applies only when every lane is valid, the mode is deadline-first
//! (Dwcs/Edf) and no compared pair ties on its deadline: then every
//! verdict of the word network would have been Table 2's rule 1, decided
//! by the sign of the same wrapped 16-bit difference, so by induction over
//! the passes both networks route identically and the rule tally is
//! `passes × N/2` firings of `earliest_deadline`. An empty lane declines
//! before a key is extracted, a tie at the pass that sees it; the word
//! network then decides from the untouched input, and is the only code for
//! ties, empty lanes and the other two modes. The choice is made from the
//! input alone.
//!
//! ## Fidelity note (DESIGN.md §3)
//!
//! log2(N) shuffle-exchange passes guarantee the **maximum at position 0 and
//! the minimum at position N−1** — which is everything the paper's
//! max-first/min-first block modes consume — but *not* a fully sorted
//! permutation, which takes a bitonic schedule of log2(N)·(log2(N)+1)/2
//! passes. The unit tests enshrine the counterexample.

use crate::decision::{compare_batch, lane_select, DecisionBlock, RuleCounters};
use ss_types::packed::{lane_valid, DEADLINE_SHIFT, INVALID_BIT};
use ss_types::{ComparisonMode, StreamAttrs, MAX_SLOTS};

/// Validates the word-count for the network (power of two, 2..=32).
/// Debug-only: the callers are registered hot-path kernels, which must not
/// panic in release builds — a wrong size there still trips the slice
/// bounds checks rather than proceeding silently.
fn check_n(n: usize) {
    debug_assert!(
        n.is_power_of_two() && (2..=32).contains(&n),
        "network size {n} must be a power of two in 2..=32"
    );
}

/// One cycle of the recirculating shuffle-exchange network, writing the
/// result into `dst`. The perfect shuffle is fused into the indexing:
/// Decision block `j` reads the pair the shuffle would deliver to its ports
/// (`src[j]`, `src[j + n/2]`) and drives the winner onto the even port
/// `dst[2j]`, the loser onto the odd port `dst[2j + 1]`. This is the BA
/// (Base Architecture) datapath where both winners and losers are routed.
/// No allocation.
// lint:hot-path
pub fn shuffle_exchange_pass_into(
    src: &[StreamAttrs],
    dst: &mut [StreamAttrs],
    blocks: &mut [DecisionBlock],
    mode: ComparisonMode,
) {
    let n = src.len();
    check_n(n);
    debug_assert_eq!(blocks.len(), n / 2, "need N/2 decision blocks");
    debug_assert_eq!(dst.len(), n, "shuffle buffers must match in length");
    let half = n / 2;
    for j in 0..half {
        let (w, l) = blocks[j].compare(src[j], src[j + half], mode);
        dst[2 * j] = w;
        dst[2 * j + 1] = l;
    }
}

/// Runs the full BA decision by ping-ponging between two caller-owned
/// scratch buffers: the input words start in `a`, each pass shuffles the
/// current buffer into the other, and no allocation occurs. Returns
/// `(result_in_a, cycles)` where `result_in_a` says which buffer holds the
/// final block (position 0 = highest priority, position N−1 = lowest).
// lint:hot-path
pub fn ba_decision_ping_pong(
    a: &mut [StreamAttrs],
    b: &mut [StreamAttrs],
    blocks: &mut [DecisionBlock],
    mode: ComparisonMode,
) -> (bool, u64) {
    let n = a.len();
    check_n(n);
    debug_assert_eq!(b.len(), n, "scratch buffers must match in length");
    let passes = n.trailing_zeros() as u64;
    let mut src_is_a = true;
    for _ in 0..passes {
        if src_is_a {
            shuffle_exchange_pass_into(a, b, blocks, mode);
        } else {
            shuffle_exchange_pass_into(b, a, blocks, mode);
        }
        src_is_a = !src_is_a;
    }
    (src_is_a, passes)
}

/// The full BA decision over *packed* lane words, reading the first pass
/// straight out of the register file's word bank `src`, so the caller never
/// copies it into scratch first. Returns `true` if the final block
/// (position 0 = highest priority) is in `a`, `false` if in `b`;
/// bit-identical, block and rule tallies, to [`ba_decision_ping_pong`]. No
/// allocation.
///
/// The key network is tried first in the deadline-first modes; whatever it
/// declines, the word network — one [`compare_batch`] per pass — decides
/// from the original words (module docs).
// lint:hot-path
pub fn ba_decision_from_planes(
    src: &[u64],
    a: &mut [u64],
    b: &mut [u64],
    mode: ComparisonMode,
    counters: &mut RuleCounters,
) -> bool {
    match src.len() {
        2 => ba_decision_lanes::<2>(src, a, b, mode, counters),
        4 => ba_decision_lanes::<4>(src, a, b, mode, counters),
        8 => ba_decision_lanes::<8>(src, a, b, mode, counters),
        16 => ba_decision_lanes::<16>(src, a, b, mode, counters),
        32 => ba_decision_lanes::<32>(src, a, b, mode, counters),
        n => {
            check_n(n);
            false
        }
    }
}

/// [`ba_decision_from_planes`] for an `N`-lane network.
// lint:hot-path
fn ba_decision_lanes<const N: usize>(
    src: &[u64],
    a: &mut [u64],
    b: &mut [u64],
    mode: ComparisonMode,
    counters: &mut RuleCounters,
) -> bool {
    let (Ok(src), Ok(a), Ok(b)) = (
        <&[u64; N]>::try_from(src),
        <&mut [u64; N]>::try_from(a),
        <&mut [u64; N]>::try_from(b),
    ) else {
        debug_assert!(false, "scratch buffers must match the {N} lanes");
        return false;
    };
    let passes = N.trailing_zeros();
    if matches!(mode, ComparisonMode::Dwcs | ComparisonMode::Edf) && key_network(src, a) {
        counters.earliest_deadline += u64::from(passes) * (N as u64 / 2);
        return true;
    }
    compare_batch(src, b, mode, counters);
    let mut src_is_a = false;
    for _ in 1..passes {
        if src_is_a {
            compare_batch(a, b, mode, counters);
        } else {
            compare_batch(b, a, mode, counters);
        }
        src_is_a = !src_is_a;
    }
    src_is_a
}

/// Bit position of the 16-bit deadline in a network key; the lane index
/// sits in the low bits.
const KEY_DEADLINE_SHIFT: u32 = 16;
/// The deadline field of a network key.
const KEY_DEADLINE: u32 = !0 << KEY_DEADLINE_SHIFT;

/// The key network: sorts (deadline, lane index) keys through the same
/// log2(N) fused shuffle-exchange passes as the word network, branch-free,
/// and gathers `src` into `out` in the resulting lane order.
///
/// Returns `false`, leaving `out` unspecified, unless every lane of `src`
/// is valid and no compared pair had equal deadlines. When it returns
/// `true`, each of its `passes × N/2` comparisons is one the word network
/// would have decided by rule 1 with the same verdict — both words valid,
/// deadlines differing, winner = sign of the wrapped 16-bit difference —
/// so `out` is the word network's block.
// lint:hot-path
fn key_network<const N: usize>(src: &[u64; N], out: &mut [u64; N]) -> bool {
    // An empty lane sets the INVALID (top) bit of the OR: decline before
    // extracting a single key.
    if !lane_valid(src.iter().fold(0, |any, &w| any | w)) {
        return false;
    }
    let (mut keys, mut next) = ([0u32; N], [0u32; N]);
    for (lane, (key, &w)) in keys.iter_mut().zip(src).enumerate() {
        *key = ((w >> (DEADLINE_SHIFT - KEY_DEADLINE_SHIFT)) as u32 & KEY_DEADLINE) | lane as u32;
    }
    let (mut keys, mut next) = (&mut keys, &mut next);
    for _ in 0..N.trailing_zeros() {
        // A block that ties pays for no pass beyond the one that saw it.
        if key_pass(keys, next) {
            return false;
        }
        std::mem::swap(&mut keys, &mut next);
    }
    for (word, &key) in out.iter_mut().zip(keys.iter()) {
        *word = src[key as usize & (N - 1)];
    }
    true
}

/// One shuffle-exchange pass over network keys, routed exactly as
/// [`compare_batch`] routes words. Returns `true` if any compared pair
/// tied on its deadline (the pass's output is then meaningless).
///
/// Out of line on purpose: as a loop from one array to another it compiles
/// to SIMD compares and interleaved stores, while inlined into the
/// unrolled five-pass caller the arrays dissolve into scalar registers
/// and spills (88 → 50 ns per 32-lane network alone, ≈ 14 ns per decision
/// inside a fabric; EXPERIMENTS.md "A register file under the fabric").
// lint:hot-path
#[inline(never)]
fn key_pass<const N: usize>(src: &[u32; N], dst: &mut [u32; N]) -> bool {
    let (lo, hi) = src.split_at(N / 2);
    let mut distinct = !0u32;
    for ((&a, &b), out) in lo.iter().zip(hi).zip(dst.chunks_exact_mut(2)) {
        // The wrapped 16-bit difference `b − a`, in the top half-word: as
        // an `i32` it is positive exactly when `a` is the earlier deadline
        // (antipode 0x8000 → negative → `b`, as `lane_order` has it).
        let ahead = (b & KEY_DEADLINE).wrapping_sub(a & KEY_DEADLINE);
        // `x | −x` has its top bit set unless `x` is zero: the AND over a
        // pass keeps it only if no pair tied.
        distinct &= ahead | ahead.wrapping_neg();
        let a_wins = ((ahead as i32 > 0) as u32).wrapping_neg();
        let winner = (a & a_wins) | (b & !a_wins);
        out[0] = winner;
        out[1] = a ^ b ^ winner;
    }
    (distinct as i32) >= 0
}

/// Runs the WR (winner-only / max-finding) tournament in place: each round
/// compacts the winners into the front of `scratch`, so the buffer is
/// clobbered but nothing is allocated. Returns the winning attribute word
/// and the number of network cycles consumed.
// lint:hot-path
pub fn wr_decision_in_place(
    scratch: &mut [StreamAttrs],
    blocks: &mut [DecisionBlock],
    mode: ComparisonMode,
) -> (StreamAttrs, u64) {
    let n = scratch.len();
    check_n(n);
    debug_assert_eq!(blocks.len(), n / 2, "need N/2 decision blocks");
    let mut live = n;
    let mut cycles = 0u64;
    while live > 1 {
        for j in 0..live / 2 {
            let (w, _) = blocks[j].compare(scratch[2 * j], scratch[2 * j + 1], mode);
            scratch[j] = w;
        }
        live /= 2;
        cycles += 1;
    }
    (scratch[0], cycles)
}

/// The WR tournament over *packed* lane words, read in place: round one
/// plays bracket `(2j, 2j + 1)` straight off `src` — the register file's
/// word bank, which is never copied or clobbered — and the later rounds
/// compact winners in a stack scratch. The same comparisons and rule
/// tallies as [`wr_decision_in_place`]. Returns the winning word (an empty
/// word when nothing is queued).
// lint:hot-path
#[inline]
pub fn wr_decision_words(src: &[u64], mode: ComparisonMode, counters: &mut RuleCounters) -> u64 {
    match src.len() {
        2 => wr_tournament::<2>(src, mode, counters),
        4 => wr_tournament::<4>(src, mode, counters),
        8 => wr_tournament::<8>(src, mode, counters),
        16 => wr_tournament::<16>(src, mode, counters),
        32 => wr_tournament::<32>(src, mode, counters),
        n => {
            check_n(n);
            EMPTY_WORD
        }
    }
}

/// What a network of unsupported width proposes: nothing.
const EMPTY_WORD: u64 = 1 << INVALID_BIT;

/// [`wr_decision_words`] for an `N`-lane network: every round's trip count
/// is a constant, so the whole bracket unrolls.
// lint:hot-path
#[inline]
fn wr_tournament<const N: usize>(
    src: &[u64],
    mode: ComparisonMode,
    counters: &mut RuleCounters,
) -> u64 {
    let Ok(src) = <&[u64; N]>::try_from(src) else {
        debug_assert!(false, "the word bank must hold the {N} lanes");
        return EMPTY_WORD;
    };
    let mut winners = [0u64; MAX_SLOTS / 2];
    for (out, pair) in winners.iter_mut().zip(src.chunks_exact(2)) {
        let (a, b) = (pair[0], pair[1]);
        let a_wins = lane_select(a, b, mode, counters);
        *out = (a & a_wins) | (b & !a_wins);
    }
    let mut live = N / 2;
    while live > 1 {
        live /= 2;
        for j in 0..live {
            let (a, b) = (winners[2 * j], winners[2 * j + 1]);
            let a_wins = lane_select(a, b, mode, counters);
            winners[j] = (a & a_wins) | (b & !a_wins);
        }
    }
    winners[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::order;
    use proptest::prelude::*;
    use ss_types::{SlotId, WindowConstraint, Wrap16};
    use std::cmp::Ordering;

    /// Builds attribute words whose priority is fully determined by a list
    /// of service tags (ServiceTag mode gives a total order for distinct
    /// tags; ties broken by slot ID).
    fn tagged(tags: &[u16]) -> Vec<StreamAttrs> {
        tags.iter()
            .enumerate()
            .map(|(i, &t)| StreamAttrs {
                deadline: Wrap16(t),
                window: WindowConstraint::ZERO,
                arrival: Wrap16(0),
                slot: SlotId::new(i as u8).unwrap(),
                static_prio: 0,
                valid: true,
            })
            .collect()
    }

    fn blocks(n: usize) -> Vec<DecisionBlock> {
        (0..n / 2).map(|_| DecisionBlock::new()).collect()
    }

    /// Software argmax oracle under the same ordering.
    fn oracle_best(words: &[StreamAttrs], mode: ComparisonMode) -> StreamAttrs {
        let mut best = words[0];
        for w in &words[1..] {
            if order(w, &best, mode).0 == Ordering::Less {
                best = *w;
            }
        }
        best
    }

    fn oracle_worst(words: &[StreamAttrs], mode: ComparisonMode) -> StreamAttrs {
        let mut worst = words[0];
        for w in &words[1..] {
            if order(w, &worst, mode).0 == Ordering::Greater {
                worst = *w;
            }
        }
        worst
    }

    #[test]
    fn ba_uses_log2_n_cycles() {
        // Paper §5.1: 2, 3, 4, 5 cycles for 4, 8, 16, 32 stream-slots.
        for (n, expect) in [(4usize, 2u64), (8, 3), (16, 4), (32, 5)] {
            let mut a = tagged(&(0..n as u16).collect::<Vec<_>>());
            let mut b = a.clone();
            let (_, cycles) =
                ba_decision_ping_pong(&mut a, &mut b, &mut blocks(n), ComparisonMode::ServiceTag);
            assert_eq!(cycles, expect, "n = {n}");
        }
    }

    #[test]
    fn ba_puts_max_at_0_and_min_at_end() {
        let mut a = tagged(&[9, 3, 7, 1, 8, 2, 6, 4]);
        let mut b = a.clone();
        let (in_a, _) =
            ba_decision_ping_pong(&mut a, &mut b, &mut blocks(8), ComparisonMode::ServiceTag);
        let block = if in_a { &a } else { &b };
        assert_eq!(block[0].deadline, Wrap16(1), "earliest tag wins");
        assert_eq!(block[7].deadline, Wrap16(9), "latest tag sinks to the end");
    }

    #[test]
    fn fidelity_note_counterexample_not_fully_sorted() {
        // DESIGN.md §3: [1, 4, 2, 3] is NOT fully sorted by 2 shuffle-
        // exchange passes, though its extremes are correct. If this test
        // ever fails, the fidelity note should be revisited.
        let mut a = tagged(&[1, 4, 2, 3]);
        let mut b = a.clone();
        let (in_a, _) =
            ba_decision_ping_pong(&mut a, &mut b, &mut blocks(4), ComparisonMode::ServiceTag);
        let block = if in_a { &a } else { &b };
        let tags: Vec<u16> = block.iter().map(|w| w.deadline.raw()).collect();
        assert_eq!(tags[0], 1);
        assert_eq!(tags[3], 4);
        assert_ne!(tags, vec![1, 2, 3, 4], "fidelity note counterexample");
        assert_eq!(tags, vec![1, 3, 2, 4]);
    }

    #[test]
    fn wr_tournament_matches_oracle() {
        let mut words = tagged(&[12, 7, 3, 9, 15, 1, 8, 2]);
        let (winner, cycles) =
            wr_decision_in_place(&mut words, &mut blocks(8), ComparisonMode::ServiceTag);
        assert_eq!(winner.deadline, Wrap16(1));
        assert_eq!(cycles, 3);
    }

    #[test]
    fn wr_and_ba_agree_on_the_winner() {
        let tags = [
            5u16, 11, 2, 19, 7, 3, 13, 17, 23, 29, 31, 37, 41, 43, 47, 53,
        ];
        let mut a = tagged(&tags);
        let mut b = a.clone();
        let mut wr = a.clone();
        let (in_a, _) =
            ba_decision_ping_pong(&mut a, &mut b, &mut blocks(16), ComparisonMode::ServiceTag);
        let (wr_winner, _) =
            wr_decision_in_place(&mut wr, &mut blocks(16), ComparisonMode::ServiceTag);
        assert_eq!(if in_a { a[0] } else { b[0] }, wr_winner);
    }

    #[test]
    fn invalid_words_sink_to_the_bottom() {
        let mut a = tagged(&[4, 3, 2, 1]);
        a[2].valid = false; // the would-be winner is empty
        let mut b = a.clone();
        let (in_a, _) =
            ba_decision_ping_pong(&mut a, &mut b, &mut blocks(4), ComparisonMode::ServiceTag);
        let block = if in_a { &a } else { &b };
        assert!(!block[3].valid, "invalid word must be last");
        assert_eq!(block[0].deadline, Wrap16(1));
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug_assert! compiles out")]
    #[should_panic(expected = "must be a power of two")]
    fn rejects_non_power_of_two() {
        let mut a = tagged(&[1, 2, 3]);
        let mut b = a.clone();
        ba_decision_ping_pong(&mut a, &mut b, &mut blocks(4), ComparisonMode::ServiceTag);
    }

    #[test]
    fn lane_tournament_matches_scalar_on_a_half_empty_fabric() {
        // Four occupied slots among eight: every first-round pair meets an
        // empty port (rule 0, decided on the raw words), later rounds mix
        // empty-vs-empty and valid-vs-valid.
        use ss_types::packed::{pack, unpack};
        for mode in [
            ComparisonMode::Dwcs,
            ComparisonMode::Edf,
            ComparisonMode::StaticPriority,
            ComparisonMode::ServiceTag,
        ] {
            // (occupancy mask, comparisons decided valid-vs-empty,
            // comparisons decided empty-vs-empty)
            for (occupied, validity, slot_id) in [
                (0b0101_0101u8, 4, 0),
                (0b1010_1010, 4, 0),
                (0b0000_1111, 1, 3),
                (0b1111_0000, 1, 3),
            ] {
                let mut words = tagged(&[40, 10, 30, 20, 15, 45, 25, 35]);
                for (i, w) in words.iter_mut().enumerate() {
                    w.valid = occupied & (1 << i) != 0;
                    w.static_prio = (7 - i) as u8;
                }
                let mut blks = blocks(8);
                let (s_winner, _) = wr_decision_in_place(&mut words.clone(), &mut blks, mode);
                let lanes: Vec<u64> = words.iter().map(pack).collect();
                let mut counters = RuleCounters::default();
                let winner = wr_decision_words(&lanes, mode, &mut counters);
                assert_eq!(unpack(winner), s_winner, "{mode:?} {occupied:#010b}");
                let mut scalar = RuleCounters::default();
                blks.iter().for_each(|b| scalar.merge(b.counters()));
                assert_eq!(counters, scalar, "{mode:?} {occupied:#010b}");
                assert_eq!(
                    (counters.validity, counters.slot_id, counters.total()),
                    (validity, slot_id, 7),
                    "{mode:?} {occupied:#010b}"
                );
            }
        }
    }

    /// The word network alone — log2(N) [`compare_batch`] passes — with
    /// the depth of the first pass in which a compared pair tied on its
    /// deadline (the inputs here are all valid).
    fn word_network<const N: usize>(
        src: &[u64; N],
        mode: ComparisonMode,
    ) -> ([u64; N], RuleCounters, Option<u32>) {
        let deadline = |w: u64| (w >> DEADLINE_SHIFT) as u16;
        let (mut cur, mut next) = (*src, [0u64; N]);
        let mut counters = RuleCounters::default();
        let mut first_tie = None;
        for pass in 0..N.trailing_zeros() {
            let tied = (0..N / 2).any(|j| deadline(cur[j]) == deadline(cur[j + N / 2]));
            if tied && first_tie.is_none() {
                first_tie = Some(pass);
            }
            compare_batch(&cur, &mut next, mode, &mut counters);
            cur = next;
        }
        (cur, counters, first_tie)
    }

    /// One random lane: `((deadline, num, den), (arrival, static_prio))`.
    type LaneSeed = ((u16, u8, u8), (u16, u8));

    /// How the key-network cases shape the 32 random deadlines.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// Uniform deadlines: compared pairs almost never tie.
        Random,
        /// Pass 0 pairs lane j with a lane 0x7FFF, 0x8000 (the antipode:
        /// the second operand wins), 0x8001 or 1 ahead of it.
        WrapEdges { base: u16, rot: usize },
        /// The two earliest deadlines are equal and sit where they first
        /// meet in pass `depth`; every other deadline is distinct.
        TieAt { base: u16, depth: u32 },
    }

    /// One key-network case at width `N`: the key network accepts exactly
    /// the inputs with no empty lane and no tied comparison, its block is
    /// the word network's, and the public entry point — whichever network
    /// it picks — leaves the word network's block and rule tallies.
    fn check_key_network<const N: usize>(
        seed: &[LaneSeed],
        shape: Shape,
        empty_lane: Option<usize>,
    ) -> Result<(), TestCaseError> {
        use ss_types::packed::pack;
        let mut words: Vec<StreamAttrs> = seed[..N]
            .iter()
            .enumerate()
            .map(|(i, &((d, num, den), (arr, prio)))| StreamAttrs {
                deadline: Wrap16(d),
                window: WindowConstraint::new(num, den),
                arrival: Wrap16(arr),
                slot: SlotId::new(i as u8).unwrap(),
                static_prio: prio,
                valid: true,
            })
            .collect();
        match shape {
            Shape::Random => {}
            Shape::WrapEdges { base, rot } => {
                let edges = [0x7FFFu16, 0x8000, 0x8001, 1];
                for j in 0..N / 2 {
                    let d = base.wrapping_add(3 * j as u16);
                    words[j].deadline = Wrap16(d);
                    words[j + N / 2].deadline = Wrap16(d.wrapping_add(edges[(j + rot) % 4]));
                }
            }
            Shape::TieAt { base, depth } => {
                let depth = depth % N.trailing_zeros();
                let partner = N >> (depth + 1);
                for (i, w) in words.iter_mut().enumerate() {
                    w.deadline = Wrap16(base.wrapping_add(1 + i as u16));
                }
                words[0].deadline = Wrap16(base);
                words[partner].deadline = Wrap16(base);
            }
        }
        if let Some(lane) = empty_lane {
            words[lane % N].valid = false;
        }
        let lanes: [u64; N] = std::array::from_fn(|i| pack(&words[i]));

        let mut keyed = [0u64; N];
        let accepted = key_network(&lanes, &mut keyed);
        if empty_lane.is_some() {
            prop_assert!(!accepted, "an empty lane must decline");
        } else {
            // Deadline-first modes share rule 1, so Dwcs stands for both.
            let (block, counters, first_tie) = word_network(&lanes, ComparisonMode::Dwcs);
            if let Shape::TieAt { depth, .. } = shape {
                prop_assert_eq!(first_tie, Some(depth % N.trailing_zeros()));
            }
            prop_assert_eq!(accepted, first_tie.is_none(), "accepts iff no pair ties");
            if accepted {
                prop_assert_eq!(keyed, block);
                prop_assert_eq!(counters.earliest_deadline, counters.total());
            }
        }

        for mode in [
            ComparisonMode::Dwcs,
            ComparisonMode::Edf,
            ComparisonMode::StaticPriority,
            ComparisonMode::ServiceTag,
        ] {
            let (mut a, mut b) = ([0u64; N], [0u64; N]);
            let mut counters = RuleCounters::default();
            let in_a = ba_decision_from_planes(&lanes, &mut a, &mut b, mode, &mut counters);
            let (block, expect, _) = word_network(&lanes, mode);
            prop_assert_eq!(if in_a { a } else { b }, block, "{:?}", mode);
            prop_assert_eq!(counters, expect, "{:?}", mode);
        }
        Ok(())
    }

    #[test]
    fn key_network_routes_the_antipode_to_the_second_operand() {
        use ss_types::packed::pack;
        let mut words = tagged(&[0x1234, 0x1234u16.wrapping_add(0x8000)]);
        for _ in 0..2 {
            let lanes = [pack(&words[0]), pack(&words[1])];
            let mut out = [0u64; 2];
            assert!(key_network(&lanes, &mut out));
            assert_eq!(out, [lanes[1], lanes[0]], "distance 0x8000: port b wins");
            words.swap(0, 1);
        }
    }

    proptest! {
        /// After log2(N) passes the extremes are guaranteed for any N and
        /// any tag assignment (the property Table 3's block modes rely on).
        #[test]
        fn extremes_guaranteed(
            n_idx in 0usize..4,
            // Tags confined to a half-space window: serial-number order is
            // only transitive when live tags span < 32768 units (wrap16).
            seed_tags in proptest::collection::vec(0u16..32768, 32),
        ) {
            let n = [4usize, 8, 16, 32][n_idx];
            let words = tagged(&seed_tags[..n]);
            let (mut a, mut b) = (words.clone(), words.clone());
            let (in_a, _) =
                ba_decision_ping_pong(&mut a, &mut b, &mut blocks(n), ComparisonMode::ServiceTag);
            let block = if in_a { &a } else { &b };
            let best = oracle_best(&words, ComparisonMode::ServiceTag);
            let worst = oracle_worst(&words, ComparisonMode::ServiceTag);
            prop_assert_eq!(block[0], best);
            prop_assert_eq!(block[n - 1], worst);
        }

        /// The block is always a permutation of the inputs (no word is
        /// duplicated or lost in the wiring).
        #[test]
        fn block_is_permutation(
            n_idx in 0usize..4,
            seed_tags in proptest::collection::vec(any::<u16>(), 32),
        ) {
            let n = [4usize, 8, 16, 32][n_idx];
            let words = tagged(&seed_tags[..n]);
            let (mut a, mut b) = (words.clone(), words.clone());
            let (in_a, _) =
                ba_decision_ping_pong(&mut a, &mut b, &mut blocks(n), ComparisonMode::ServiceTag);
            let block = if in_a { &a } else { &b };
            let mut in_slots: Vec<u8> = words.iter().map(|w| w.slot.raw()).collect();
            let mut out_slots: Vec<u8> = block.iter().map(|w| w.slot.raw()).collect();
            in_slots.sort_unstable();
            out_slots.sort_unstable();
            prop_assert_eq!(in_slots, out_slots);
        }

        /// WR winner equals the software argmax for every mode.
        #[test]
        fn wr_matches_oracle_all_modes(
            seed_tags in proptest::collection::vec(0u16..32768, 8),
            mode_idx in 0usize..4,
        ) {
            let mode = [ComparisonMode::Dwcs, ComparisonMode::Edf,
                        ComparisonMode::StaticPriority, ComparisonMode::ServiceTag][mode_idx];
            let words = tagged(&seed_tags);
            let (winner, _) = wr_decision_in_place(&mut words.clone(), &mut blocks(8), mode);
            prop_assert_eq!(winner, oracle_best(&words, mode));
        }

        /// The packed BA ping-pong and WR tournament produce the
        /// bit-identical final block / winner and the same `RuleCounters`,
        /// field by field, as the scalar forms, at every fabric width, for
        /// arbitrary word contents in every mode.
        #[test]
        fn batched_ping_pong_matches_scalar(
            n_idx in 0usize..4,
            seed in proptest::collection::vec(any::<((u16, u8, u8), (u16, u8, bool))>(), 32),
            tie_deadlines in any::<bool>(),
            mode_idx in 0usize..4,
        ) {
            use ss_types::packed::{pack, unpack};
            let n = [4usize, 8, 16, 32][n_idx];
            let mode = [ComparisonMode::Dwcs, ComparisonMode::Edf,
                        ComparisonMode::StaticPriority, ComparisonMode::ServiceTag][mode_idx];
            let words: Vec<StreamAttrs> = seed[..n]
                .iter()
                .enumerate()
                .map(|(i, &((d, num, den), (arr, prio, valid)))| StreamAttrs {
                    // Half the cases squeeze deadlines onto two values so
                    // the tie chain behind the early exit is exercised.
                    deadline: Wrap16(if tie_deadlines { d & 1 } else { d }),
                    window: WindowConstraint::new(num, den),
                    arrival: Wrap16(arr),
                    slot: SlotId::new(i as u8).unwrap(),
                    static_prio: prio,
                    valid,
                })
                .collect();
            let merged = |blks: &[DecisionBlock]| {
                let mut total = RuleCounters::default();
                blks.iter().for_each(|b| total.merge(b.counters()));
                total
            };
            let lanes: Vec<u64> = words.iter().map(pack).collect();

            // BA: scalar reference vs packed lanes.
            let mut sa = words.clone();
            let mut sb = words.clone();
            let mut blks = blocks(n);
            let (s_in_a, _) = ba_decision_ping_pong(&mut sa, &mut sb, &mut blks, mode);
            let scalar = if s_in_a { &sa } else { &sb };
            let (mut aw, mut bw) = (vec![0u64; n], vec![0u64; n]);
            let mut counters = RuleCounters::default();
            let in_a = ba_decision_from_planes(&lanes, &mut aw, &mut bw, mode, &mut counters);
            let packed = if in_a { &aw } else { &bw };
            for (i, sw) in scalar.iter().enumerate() {
                prop_assert_eq!(&unpack(packed[i]), sw, "lane {}", i);
            }
            prop_assert_eq!(counters, merged(&blks));

            // WR: scalar tournament vs packed tournament.
            let mut blks = blocks(n);
            let (s_winner, _) = wr_decision_in_place(&mut words.clone(), &mut blks, mode);
            let mut counters = RuleCounters::default();
            let winner = wr_decision_words(&lanes, mode, &mut counters);
            prop_assert_eq!(unpack(winner), s_winner);
            prop_assert_eq!(counters, merged(&blks));
        }

        /// The key network against the word network at every width: same
        /// lane order and same `RuleCounters` delta whenever it accepts,
        /// and it declines every empty lane and every tied comparison,
        /// whichever pass the tie first shows in.
        #[test]
        fn key_network_matches_word_network(
            n_idx in 0usize..5,
            seed in proptest::collection::vec(any::<LaneSeed>(), 32),
            shape in prop_oneof![
                Just(Shape::Random),
                any::<(u16, u8)>().prop_map(|(base, rot)| Shape::WrapEdges {
                    base,
                    rot: rot as usize,
                }),
                any::<(u16, u8)>().prop_map(|(base, depth)| Shape::TieAt {
                    base,
                    depth: u32::from(depth),
                }),
            ],
            empty_lane in prop_oneof![3 => Just(None), 1 => (0usize..32).prop_map(Some)],
        ) {
            match n_idx {
                0 => check_key_network::<2>(&seed, shape, empty_lane)?,
                1 => check_key_network::<4>(&seed, shape, empty_lane)?,
                2 => check_key_network::<8>(&seed, shape, empty_lane)?,
                3 => check_key_network::<16>(&seed, shape, empty_lane)?,
                _ => check_key_network::<32>(&seed, shape, empty_lane)?,
            }
        }
    }
}
