//! The Decision block: single-cycle pairwise ordering of two streams.
//!
//! A Decision block (paper Figure 5) is *not* a simple comparator: it
//! evaluates every ordering rule of Table 2 concurrently on all attribute
//! fields of two streams and muxes out the verdict of the highest-precedence
//! rule that discriminates — one hardware cycle regardless of which rule
//! fires. This file is the bit-exact software model of that combinational
//! logic, plus per-rule firing counters used by the Table 2 experiment.

use serde::{Deserialize, Serialize};
use ss_types::{ComparisonMode, StreamAttrs};
use std::cmp::Ordering;

/// Which Table 2 rule (or tie-break) decided a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecisionRule {
    /// One side had no pending packet (slot-valid signal).
    Validity,
    /// Earliest-deadline-first on the deadline fields.
    EarliestDeadline,
    /// Equal deadlines → lowest window-constraint first.
    LowestWindowConstraint,
    /// Equal deadlines, both window-constraints zero → highest
    /// window-denominator first.
    HighestDenominator,
    /// Equal deadlines, equal non-zero constraints → lowest
    /// window-numerator first.
    LowestNumerator,
    /// Static-priority comparison (priority-class mode only).
    StaticPriority,
    /// Service-tag comparison (fair-queuing mode only).
    ServiceTag,
    /// All other cases → first-come-first-serve on arrival times.
    Fcfs,
    /// Full tie → lower slot ID (deterministic hardware tie-break).
    SlotId,
}

/// Per-rule firing counters for one Decision block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleCounters {
    /// Comparisons decided by slot validity.
    pub validity: u64,
    /// Comparisons decided by deadline.
    pub earliest_deadline: u64,
    /// Comparisons decided by window-constraint value.
    pub lowest_window_constraint: u64,
    /// Comparisons decided by denominator among zero constraints.
    pub highest_denominator: u64,
    /// Comparisons decided by numerator among equal constraints.
    pub lowest_numerator: u64,
    /// Comparisons decided by static priority.
    pub static_priority: u64,
    /// Comparisons decided by service tag.
    pub service_tag: u64,
    /// Comparisons decided FCFS.
    pub fcfs: u64,
    /// Comparisons decided by the slot-ID tie-break.
    pub slot_id: u64,
}

impl RuleCounters {
    fn bump(&mut self, rule: DecisionRule) {
        match rule {
            DecisionRule::Validity => self.validity += 1,
            DecisionRule::EarliestDeadline => self.earliest_deadline += 1,
            DecisionRule::LowestWindowConstraint => self.lowest_window_constraint += 1,
            DecisionRule::HighestDenominator => self.highest_denominator += 1,
            DecisionRule::LowestNumerator => self.lowest_numerator += 1,
            DecisionRule::StaticPriority => self.static_priority += 1,
            DecisionRule::ServiceTag => self.service_tag += 1,
            DecisionRule::Fcfs => self.fcfs += 1,
            DecisionRule::SlotId => self.slot_id += 1,
        }
    }

    /// Total comparisons recorded.
    pub fn total(&self) -> u64 {
        self.validity
            + self.earliest_deadline
            + self.lowest_window_constraint
            + self.highest_denominator
            + self.lowest_numerator
            + self.static_priority
            + self.service_tag
            + self.fcfs
            + self.slot_id
    }

    /// Merges another block's counters into this one.
    pub fn merge(&mut self, other: &RuleCounters) {
        self.validity += other.validity;
        self.earliest_deadline += other.earliest_deadline;
        self.lowest_window_constraint += other.lowest_window_constraint;
        self.highest_denominator += other.highest_denominator;
        self.lowest_numerator += other.lowest_numerator;
        self.static_priority += other.static_priority;
        self.service_tag += other.service_tag;
        self.fcfs += other.fcfs;
        self.slot_id += other.slot_id;
    }
}

/// Pure comparison: does `a` order before (win against) `b` under `mode`?
///
/// Returns the ordering (`Less` means `a` wins) and the rule that decided.
/// This free function is the combinational core; [`DecisionBlock`] wraps it
/// with firing counters.
// lint:hot-path
pub fn order(a: &StreamAttrs, b: &StreamAttrs, mode: ComparisonMode) -> (Ordering, DecisionRule) {
    // Rule 0 (implicit in hardware): an empty slot always loses.
    match (a.valid, b.valid) {
        (true, false) => return (Ordering::Less, DecisionRule::Validity),
        (false, true) => return (Ordering::Greater, DecisionRule::Validity),
        (false, false) => return (slot_tiebreak(a, b), DecisionRule::SlotId),
        (true, true) => {}
    }

    match mode {
        ComparisonMode::StaticPriority => match a.static_prio.cmp(&b.static_prio) {
            Ordering::Equal => (slot_tiebreak(a, b), DecisionRule::SlotId),
            ord => (ord, DecisionRule::StaticPriority),
        },
        ComparisonMode::ServiceTag => match a.deadline.serial_cmp(b.deadline) {
            Ordering::Equal => (slot_tiebreak(a, b), DecisionRule::SlotId),
            ord => (ord, DecisionRule::ServiceTag),
        },
        ComparisonMode::Edf => match a.deadline.serial_cmp(b.deadline) {
            Ordering::Equal => fcfs_then_slot(a, b),
            ord => (ord, DecisionRule::EarliestDeadline),
        },
        ComparisonMode::Dwcs => dwcs_order(a, b),
    }
}

/// The full Table 2 rule chain.
fn dwcs_order(a: &StreamAttrs, b: &StreamAttrs) -> (Ordering, DecisionRule) {
    // Rule 1: Earliest-deadline first.
    match a.deadline.serial_cmp(b.deadline) {
        Ordering::Equal => {}
        ord => return (ord, DecisionRule::EarliestDeadline),
    }
    // Rule 2: equal deadlines → lowest window-constraint first.
    match a.window.value_cmp(b.window) {
        Ordering::Equal => {}
        ord => return (ord, DecisionRule::LowestWindowConstraint),
    }
    if a.window.is_zero() {
        // Rule 3: equal deadlines, zero constraints → highest denominator
        // first (a violated stream that has had y' boosted wins).
        match b.window.den.cmp(&a.window.den) {
            Ordering::Equal => {}
            ord => return (ord, DecisionRule::HighestDenominator),
        }
    } else {
        // Rule 4: equal deadlines, equal non-zero constraints → lowest
        // numerator first.
        match a.window.num.cmp(&b.window.num) {
            Ordering::Equal => {}
            ord => return (ord, DecisionRule::LowestNumerator),
        }
    }
    // Rule 5: all other cases → FCFS.
    fcfs_then_slot(a, b)
}

fn fcfs_then_slot(a: &StreamAttrs, b: &StreamAttrs) -> (Ordering, DecisionRule) {
    match a.arrival.serial_cmp(b.arrival) {
        Ordering::Equal => (slot_tiebreak(a, b), DecisionRule::SlotId),
        ord => (ord, DecisionRule::Fcfs),
    }
}

// lint:hot-path
fn slot_tiebreak(a: &StreamAttrs, b: &StreamAttrs) -> Ordering {
    a.slot.cmp(&b.slot)
}

/// A Decision block instance: the combinational rule chain plus firing
/// counters. One fabric owns N/2 of these.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DecisionBlock {
    counters: RuleCounters,
}

impl DecisionBlock {
    /// Creates a block with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compares two attribute words in one (simulated) cycle, returning
    /// `(winner, loser)`.
    ///
    /// The comparison never returns `Equal`: the slot-ID tie-break is total,
    /// exactly as the hardware must always route one word to the winner port
    /// and one to the loser port.
    pub fn compare(
        &mut self,
        a: StreamAttrs,
        b: StreamAttrs,
        mode: ComparisonMode,
    ) -> (StreamAttrs, StreamAttrs) {
        let (ord, rule) = order(&a, &b, mode);
        self.counters.bump(rule);
        debug_assert_ne!(ord, Ordering::Equal, "slot tie-break must be total");
        if ord == Ordering::Less {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Rule-firing counters accumulated so far.
    pub fn counters(&self) -> &RuleCounters {
        &self.counters
    }
}

/// Pairwise ordering of two packed lane words (see [`ss_types::packed`]):
/// does `a` win against `b` under `mode`, and which rule decided.
///
/// Two cases decide almost every comparison, each on the raw words:
///
/// * both valid and, in a deadline-first mode (Dwcs/Edf), the deadline
///   fields differ — the verdict is the sign of the wrapped 16-bit
///   difference (antipode 0x8000 → `b`, exactly
///   [`ss_types::Wrap16::serial_cmp`]), rule
///   [`DecisionRule::EarliestDeadline`]: a rank packed into one word is
///   ordered by one integer compare;
/// * an empty slot on either port — [`order`]'s rule 0, which no mode
///   overrides: exactly one word invalid → the valid one wins, rule
///   [`DecisionRule::Validity`]; both invalid → the lower slot field wins
///   (`b` on equal fields), rule [`DecisionRule::SlotId`].
///
/// Everything else — deadline ties, the other modes — unpacks and asks
/// [`order`], so the verdict and the fired rule are [`order`]'s by
/// construction.
// lint:hot-path
#[inline(always)]
pub fn lane_order(a: u64, b: u64, mode: ComparisonMode) -> (bool, DecisionRule) {
    use ss_types::packed::{lane_slot, lane_valid, unpack, DEADLINE_SHIFT};
    // INVALID is the top bit: set in `a | b` when either slot is empty, in
    // `a & b` only when both are.
    if !lane_valid(a | b) {
        return if lane_valid(a & b) {
            (lane_valid(a), DecisionRule::Validity)
        } else {
            (lane_slot(a) < lane_slot(b), DecisionRule::SlotId)
        };
    }
    if matches!(mode, ComparisonMode::Dwcs | ComparisonMode::Edf) {
        let ahead = ((b >> DEADLINE_SHIFT) as u16).wrapping_sub((a >> DEADLINE_SHIFT) as u16);
        if ahead != 0 {
            return (ahead < 0x8000, DecisionRule::EarliestDeadline);
        }
    }
    let (ord, rule) = order(&unpack(a), &unpack(b), mode);
    (ord == Ordering::Less, rule)
}

/// [`lane_order`] plus the firing tally in `counters`. Returns an all-ones
/// mask when `a` wins, zero when `b` does, for branchless winner/loser
/// routing.
// lint:hot-path
#[inline(always)]
pub(crate) fn lane_select(
    a: u64,
    b: u64,
    mode: ComparisonMode,
    counters: &mut RuleCounters,
) -> u64 {
    let (a_wins, rule) = lane_order(a, b, mode);
    counters.bump(rule);
    (a_wins as u64).wrapping_neg()
}

/// One fused shuffle-exchange pass over packed lane words: the decision
/// kernel of the fabric hot path, monomorphised per network size.
///
/// Comparator `j` orders `src[j]` against `src[j + n/2]` — exactly the
/// pair the perfect shuffle delivers to adjacent exchange ports — and
/// routes the winner word to `dst[2j]`, the loser to `dst[2j + 1]`.
/// Bit-identical to running [`DecisionBlock::compare`] on every pair: same
/// winner, same loser, and the same Table-2 rule tallied into `counters`.
// lint:hot-path
pub fn compare_batch<const N: usize>(
    src: &[u64; N],
    dst: &mut [u64; N],
    mode: ComparisonMode,
    counters: &mut RuleCounters,
) {
    debug_assert!(N.is_power_of_two() && N >= 2);
    let (lo, hi) = src.split_at(N / 2);
    for ((&a, &b), out) in lo.iter().zip(hi).zip(dst.chunks_exact_mut(2)) {
        let a_wins = lane_select(a, b, mode, counters);
        let winner = (a & a_wins) | (b & !a_wins);
        out[0] = winner;
        out[1] = a ^ b ^ winner;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ss_types::{SlotId, StreamAttrs, WindowConstraint, Wrap16};

    fn attrs(slot: u8) -> StreamAttrs {
        StreamAttrs {
            deadline: Wrap16(100),
            window: WindowConstraint::new(1, 2),
            arrival: Wrap16(10),
            slot: SlotId::new(slot).unwrap(),
            static_prio: 0,
            valid: true,
        }
    }

    #[test]
    fn invalid_slot_always_loses() {
        let a = attrs(0);
        let mut b = attrs(1);
        b.valid = false;
        b.deadline = Wrap16(0); // would win on deadline if valid
        let (ord, rule) = order(&a, &b, ComparisonMode::Dwcs);
        assert_eq!(ord, Ordering::Less);
        assert_eq!(rule, DecisionRule::Validity);
    }

    #[test]
    fn both_invalid_break_on_slot_id() {
        let mut a = attrs(2);
        let mut b = attrs(1);
        a.valid = false;
        b.valid = false;
        let (ord, rule) = order(&a, &b, ComparisonMode::Dwcs);
        assert_eq!(ord, Ordering::Greater); // slot 1 < slot 2
        assert_eq!(rule, DecisionRule::SlotId);
    }

    #[test]
    fn rule1_earliest_deadline_first() {
        let mut a = attrs(0);
        let mut b = attrs(1);
        a.deadline = Wrap16(5);
        b.deadline = Wrap16(6);
        let (ord, rule) = order(&a, &b, ComparisonMode::Dwcs);
        assert_eq!(ord, Ordering::Less);
        assert_eq!(rule, DecisionRule::EarliestDeadline);
    }

    #[test]
    fn rule1_respects_wraparound() {
        let mut a = attrs(0);
        let mut b = attrs(1);
        a.deadline = Wrap16(65530); // pre-wrap: earlier
        b.deadline = Wrap16(4);
        let (ord, rule) = order(&a, &b, ComparisonMode::Dwcs);
        assert_eq!(ord, Ordering::Less);
        assert_eq!(rule, DecisionRule::EarliestDeadline);
    }

    #[test]
    fn rule2_lowest_window_constraint() {
        let mut a = attrs(0);
        let mut b = attrs(1);
        a.window = WindowConstraint::new(1, 4); // 0.25
        b.window = WindowConstraint::new(1, 2); // 0.5
        let (ord, rule) = order(&a, &b, ComparisonMode::Dwcs);
        assert_eq!(ord, Ordering::Less);
        assert_eq!(rule, DecisionRule::LowestWindowConstraint);
    }

    #[test]
    fn rule3_zero_constraints_highest_denominator() {
        let mut a = attrs(0);
        let mut b = attrs(1);
        a.window = WindowConstraint::new(0, 9); // violated stream, boosted y'
        b.window = WindowConstraint::new(0, 3);
        let (ord, rule) = order(&a, &b, ComparisonMode::Dwcs);
        assert_eq!(ord, Ordering::Less);
        assert_eq!(rule, DecisionRule::HighestDenominator);
    }

    #[test]
    fn rule4_equal_nonzero_lowest_numerator() {
        let mut a = attrs(0);
        let mut b = attrs(1);
        a.window = WindowConstraint::new(1, 2);
        b.window = WindowConstraint::new(2, 4); // same value, higher numerator
        let (ord, rule) = order(&a, &b, ComparisonMode::Dwcs);
        assert_eq!(ord, Ordering::Less);
        assert_eq!(rule, DecisionRule::LowestNumerator);
    }

    #[test]
    fn rule5_fcfs_fallback() {
        let mut a = attrs(0);
        let mut b = attrs(1);
        a.arrival = Wrap16(3);
        b.arrival = Wrap16(9);
        let (ord, rule) = order(&a, &b, ComparisonMode::Dwcs);
        assert_eq!(ord, Ordering::Less);
        assert_eq!(rule, DecisionRule::Fcfs);
    }

    #[test]
    fn full_tie_breaks_on_slot() {
        let a = attrs(0);
        let b = attrs(1);
        let (ord, rule) = order(&a, &b, ComparisonMode::Dwcs);
        assert_eq!(ord, Ordering::Less);
        assert_eq!(rule, DecisionRule::SlotId);
    }

    #[test]
    fn edf_mode_ignores_windows() {
        let mut a = attrs(0);
        let mut b = attrs(1);
        a.window = WindowConstraint::new(1, 9);
        b.window = WindowConstraint::new(0, 1); // would win rule 2 in DWCS
        a.arrival = Wrap16(1);
        b.arrival = Wrap16(2);
        let (ord, rule) = order(&a, &b, ComparisonMode::Edf);
        assert_eq!(ord, Ordering::Less); // decided FCFS, not by window
        assert_eq!(rule, DecisionRule::Fcfs);
    }

    #[test]
    fn static_priority_mode() {
        let mut a = attrs(0);
        let mut b = attrs(1);
        a.static_prio = 4;
        b.static_prio = 2;
        let (ord, rule) = order(&a, &b, ComparisonMode::StaticPriority);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(rule, DecisionRule::StaticPriority);
    }

    #[test]
    fn service_tag_mode_uses_deadline_field_only() {
        let mut a = attrs(0);
        let mut b = attrs(1);
        a.deadline = Wrap16(50); // start tag
        b.deadline = Wrap16(49);
        a.arrival = Wrap16(0); // would win FCFS
        let (ord, rule) = order(&a, &b, ComparisonMode::ServiceTag);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(rule, DecisionRule::ServiceTag);
    }

    #[test]
    fn block_counts_rule_firings() {
        let mut blk = DecisionBlock::new();
        let mut a = attrs(0);
        let mut b = attrs(1);
        a.deadline = Wrap16(1);
        b.deadline = Wrap16(2);
        blk.compare(a, b, ComparisonMode::Dwcs);
        blk.compare(a, b, ComparisonMode::Dwcs);
        a.deadline = b.deadline;
        a.window = WindowConstraint::new(0, 1);
        b.window = WindowConstraint::new(1, 2);
        blk.compare(a, b, ComparisonMode::Dwcs);
        let c = blk.counters();
        assert_eq!(c.earliest_deadline, 2);
        assert_eq!(c.lowest_window_constraint, 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn compare_returns_winner_then_loser() {
        let mut blk = DecisionBlock::new();
        let mut a = attrs(0);
        let mut b = attrs(1);
        a.deadline = Wrap16(9);
        b.deadline = Wrap16(3);
        let (w, l) = blk.compare(a, b, ComparisonMode::Dwcs);
        assert_eq!(w.slot, b.slot);
        assert_eq!(l.slot, a.slot);
    }

    #[test]
    fn counters_merge() {
        let mut a = RuleCounters {
            fcfs: 2,
            ..Default::default()
        };
        let b = RuleCounters {
            fcfs: 3,
            validity: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.fcfs, 5);
        assert_eq!(a.validity, 1);
        assert_eq!(a.total(), 6);
    }

    fn arb_attrs(slot: u8) -> impl Strategy<Value = StreamAttrs> {
        (
            any::<u16>(),
            any::<u8>(),
            any::<u8>(),
            any::<u16>(),
            any::<bool>(),
            any::<u8>(),
        )
            .prop_map(move |(d, num, den, arr, valid, prio)| StreamAttrs {
                deadline: Wrap16(d),
                window: WindowConstraint::new(num, den),
                arrival: Wrap16(arr),
                slot: SlotId::new(slot % 32).unwrap(),
                static_prio: prio,
                valid,
            })
    }

    proptest! {
        /// The comparison is total and antisymmetric in every mode: swapping
        /// operands flips the verdict, and some verdict is always produced.
        #[test]
        fn order_antisymmetric(
            a in arb_attrs(0),
            b in arb_attrs(1),
            mode_idx in 0usize..4,
        ) {
            let mode = [ComparisonMode::Dwcs, ComparisonMode::Edf,
                        ComparisonMode::StaticPriority, ComparisonMode::ServiceTag][mode_idx];
            let (ord_ab, _) = order(&a, &b, mode);
            let (ord_ba, _) = order(&b, &a, mode);
            prop_assert_ne!(ord_ab, Ordering::Equal);
            prop_assert_eq!(ord_ab, ord_ba.reverse());
        }

        /// compare() preserves the multiset of inputs: winner and loser are
        /// exactly the two input words (no attribute corruption in routing).
        #[test]
        fn compare_preserves_words(a in arb_attrs(0), b in arb_attrs(1)) {
            let mut blk = DecisionBlock::new();
            let (w, l) = blk.compare(a, b, ComparisonMode::Dwcs);
            prop_assert!((w == a && l == b) || (w == b && l == a));
        }

        /// A valid word never loses to an invalid one.
        #[test]
        fn valid_beats_invalid(a in arb_attrs(0), b in arb_attrs(1)) {
            prop_assume!(a.valid && !b.valid);
            let (ord, _) = order(&a, &b, ComparisonMode::Dwcs);
            prop_assert_eq!(ord, Ordering::Less);
        }
    }

    /// Runs one packed comparator on the pair `(a, b)` and returns
    /// `(winner, loser, counter delta)`.
    fn batch_pair(
        a: StreamAttrs,
        b: StreamAttrs,
        mode: ComparisonMode,
    ) -> (StreamAttrs, StreamAttrs, RuleCounters) {
        use ss_types::packed::{pack, unpack};
        let src = [pack(&a), pack(&b)];
        let mut dst = [0u64; 2];
        let mut counters = RuleCounters::default();
        compare_batch(&src, &mut dst, mode, &mut counters);
        (unpack(dst[0]), unpack(dst[1]), counters)
    }

    /// Asserts packed ≡ scalar on one pair: winner, loser, and every
    /// `RuleCounters` field. Returns the rule the scalar reference fired.
    fn assert_pair_equiv(a: StreamAttrs, b: StreamAttrs, mode: ComparisonMode) -> DecisionRule {
        let mut blk = DecisionBlock::new();
        let (sw, sl) = blk.compare(a, b, mode);
        let (bw, bl, counters) = batch_pair(a, b, mode);
        assert_eq!(bw, sw, "winner {a} vs {b} in {mode:?}");
        assert_eq!(bl, sl, "loser {a} vs {b} in {mode:?}");
        assert_eq!(
            &counters,
            blk.counters(),
            "fired rule {a} vs {b} in {mode:?}"
        );
        assert_eq!(counters.total(), 1, "exactly one firing per comparator");
        order(&a, &b, mode).1
    }

    const MODES: [ComparisonMode; 4] = [
        ComparisonMode::Dwcs,
        ComparisonMode::Edf,
        ComparisonMode::StaticPriority,
        ComparisonMode::ServiceTag,
    ];

    #[test]
    fn batched_matches_scalar_on_wrap_edges() {
        // Antipodal deadline/arrival distances (±32768) are the serial
        // arithmetic's most delicate corner: exercise them explicitly in
        // every mode, both operand orders.
        let edge_tags = [0u16, 1, 0x7FFF, 0x8000, 0x8001, 0xFFFF];
        for mode in MODES {
            for &da in &edge_tags {
                for &db in &edge_tags {
                    let mut a = attrs(0);
                    let mut b = attrs(1);
                    a.deadline = Wrap16(da);
                    b.deadline = Wrap16(db);
                    a.arrival = Wrap16(db); // cross the fields too
                    b.arrival = Wrap16(da);
                    assert_pair_equiv(a, b, mode);
                    assert_pair_equiv(b, a, mode);
                }
            }
        }
    }

    #[test]
    fn antipodal_deadlines_route_the_second_operand_to_the_winner_port() {
        // Distance exactly 0x8000: `serial_cmp` calls the other operand
        // greater in *both* directions, so whichever word sits on port b
        // wins — the early-exit sign test must reproduce that, not a
        // symmetric ordering.
        for base in [0u16, 1, 0x1234, 0x7FFF, 0x8000, 0xFFFF] {
            let mut a = attrs(0);
            let mut b = attrs(1);
            a.deadline = Wrap16(base);
            b.deadline = Wrap16(base.wrapping_add(0x8000));
            for (x, y) in [(a, b), (b, a)] {
                for mode in [ComparisonMode::Dwcs, ComparisonMode::Edf] {
                    let rule = assert_pair_equiv(x, y, mode);
                    assert_eq!(rule, DecisionRule::EarliestDeadline);
                    let (winner, _, counters) = batch_pair(x, y, mode);
                    assert_eq!(winner, y, "antipode routes port b to the winner port");
                    assert_eq!(counters.earliest_deadline, 1);
                }
            }
        }
    }

    #[test]
    fn equal_deadlines_fall_through_the_tie_chain() {
        // Deadline ties leave the early exit and must fire exactly the
        // rule `order()` names: 2, 3, 4, 5 and the slot tie-break in turn.
        let w = WindowConstraint::new;
        let cases = [
            (
                w(1, 4),
                w(1, 2),
                10,
                10,
                DecisionRule::LowestWindowConstraint,
            ),
            (w(0, 9), w(0, 3), 10, 10, DecisionRule::HighestDenominator),
            (w(5, 0), w(0, 3), 10, 10, DecisionRule::HighestDenominator),
            (w(1, 2), w(2, 4), 10, 10, DecisionRule::LowestNumerator),
            (w(1, 2), w(1, 2), 3, 9, DecisionRule::Fcfs),
            (w(1, 2), w(1, 2), 0x8000, 0, DecisionRule::Fcfs),
            (w(1, 2), w(1, 2), 10, 10, DecisionRule::SlotId),
            (w(0, 7), w(0, 7), 10, 10, DecisionRule::SlotId),
        ];
        for (wa, wb, arr_a, arr_b, expect) in cases {
            let mut a = attrs(0);
            let mut b = attrs(1);
            (a.window, b.window) = (wa, wb);
            (a.arrival, b.arrival) = (Wrap16(arr_a), Wrap16(arr_b));
            assert_eq!(assert_pair_equiv(a, b, ComparisonMode::Dwcs), expect);
            assert_eq!(assert_pair_equiv(b, a, ComparisonMode::Dwcs), expect);
            // The other modes skip the window chain but must still agree.
            for mode in MODES {
                assert_pair_equiv(a, b, mode);
                assert_pair_equiv(b, a, mode);
            }
        }
    }

    #[test]
    fn batched_matches_scalar_on_invalid_words() {
        for (va, vb) in [(true, false), (false, true), (false, false)] {
            let mut a = attrs(0);
            let mut b = attrs(1);
            a.valid = va;
            b.valid = vb;
            // Give the invalid side otherwise-winning fields.
            a.deadline = Wrap16(1);
            b.deadline = Wrap16(0);
            let expect = if va || vb {
                DecisionRule::Validity
            } else {
                DecisionRule::SlotId
            };
            for mode in MODES {
                assert_eq!(assert_pair_equiv(a, b, mode), expect);
                assert_eq!(assert_pair_equiv(b, a, mode), expect);
            }
        }
    }

    #[test]
    fn batched_routes_full_pass_like_the_shuffle() {
        // 8 lanes: comparator j must pair src[j] with src[j+4] and emit
        // winner/loser adjacently — the fused form of shuffle-then-compare.
        use ss_types::packed::{pack, unpack};
        let src: Vec<StreamAttrs> = (0..8u8)
            .map(|s| {
                let mut w = attrs(s);
                w.deadline = Wrap16([40, 10, 30, 20, 15, 45, 25, 35][s as usize]);
                w
            })
            .collect();
        let src_w: [u64; 8] = std::array::from_fn(|i| pack(&src[i]));
        let mut dst_w = [0u64; 8];
        let mut counters = RuleCounters::default();
        compare_batch(&src_w, &mut dst_w, ComparisonMode::Dwcs, &mut counters);
        for j in 0..4 {
            let mut blk = DecisionBlock::new();
            let (w, l) = blk.compare(src[j], src[j + 4], ComparisonMode::Dwcs);
            assert_eq!(unpack(dst_w[2 * j]), w, "pair {j} winner");
            assert_eq!(unpack(dst_w[2 * j + 1]), l, "pair {j} loser");
        }
        assert_eq!(counters.earliest_deadline, 4, "one firing per comparator");
        assert_eq!(counters.total(), 4);
    }

    proptest! {
        /// Packed ≡ scalar (winner, loser, fired rule) on arbitrary words
        /// across every mode — the kernel's bit-equivalence contract.
        /// Deadline ties are rare under uniform sampling, so half the cases
        /// force one: the fall-through to `order()` then sees arbitrary
        /// windows and arrivals.
        #[test]
        fn compare_batch_matches_scalar(
            a in arb_attrs(0),
            b in arb_attrs(1),
            tie in any::<bool>(),
            mode_idx in 0usize..4,
        ) {
            let mut b = b;
            if tie {
                b.deadline = a.deadline;
            }
            let mode = MODES[mode_idx];
            let mut blk = DecisionBlock::new();
            let (sw, sl) = blk.compare(a, b, mode);
            let (bw, bl, counters) = batch_pair(a, b, mode);
            prop_assert_eq!(bw, sw);
            prop_assert_eq!(bl, sl);
            prop_assert_eq!(&counters, blk.counters());
            // The comparator itself, as the shard merge calls it: verdict
            // and rule are `order()`'s whichever ports hold empty slots.
            use ss_types::packed::pack;
            let (ord, rule) = order(&a, &b, mode);
            prop_assert_eq!(
                lane_order(pack(&a), pack(&b), mode),
                (ord == Ordering::Less, rule)
            );
        }
    }

    #[test]
    fn lane_order_decides_empty_slots_on_the_raw_words() {
        use ss_types::packed::pack;
        let agree = |a: &StreamAttrs, b: &StreamAttrs, mode| {
            let (ord, rule) = order(a, b, mode);
            let lanes = lane_order(pack(a), pack(b), mode);
            assert_eq!(
                lanes,
                (ord == Ordering::Less, rule),
                "{a} vs {b} in {mode:?}"
            );
            lanes
        };
        for mode in MODES {
            // An empty slot loses even when its stale fields would win
            // every rule below validity.
            let occupied = attrs(0);
            let mut empty = attrs(1);
            empty.valid = false;
            empty.deadline = Wrap16(occupied.deadline.raw().wrapping_sub(5));
            empty.static_prio = 0; // numerically lowest = highest priority
            let mut occupied_low_prio = occupied;
            occupied_low_prio.static_prio = 9;
            assert_eq!(
                agree(&occupied_low_prio, &empty, mode),
                (true, DecisionRule::Validity)
            );
            assert_eq!(
                agree(&empty, &occupied_low_prio, mode),
                (false, DecisionRule::Validity)
            );
            // Two empty slots: lower slot field wins; on equal fields (two
            // shards' local slot 3, say) `b` does, as `order()` has it.
            let mut other_empty = empty;
            other_empty.slot = SlotId::new(3).unwrap();
            assert_eq!(
                agree(&empty, &other_empty, mode),
                (true, DecisionRule::SlotId)
            );
            assert_eq!(
                agree(&other_empty, &empty, mode),
                (false, DecisionRule::SlotId)
            );
            assert_eq!(agree(&empty, &empty, mode), (false, DecisionRule::SlotId));
        }
    }
}
