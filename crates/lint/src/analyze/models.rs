//! The two lock-free protocol models checked by [`super::interleave`].
//!
//! Each model is a faithful, miniature state machine of the real code,
//! parameterized by the `Ordering`s extracted from the source — so the
//! exploration verifies the protocol *as written*, not as intended:
//!
//! * [`SpscModel`] — the `crates/endsystem/src/spsc.rs` ring
//!   (§4.2 "synchronization-free" circular buffer): a producer pushing 3
//!   items through a capacity-2 ring while a consumer makes 4 pop
//!   attempts. Slots are non-atomic cells, so any ordering weakening
//!   shows up as a data race at a slot access; FIFO integrity is asserted
//!   on every successful pop.
//! * [`SharedPressureModel`] — the `crates/overload/src/pressure.rs`
//!   advisory publication: a writer publishing 3 monotone levels (store +
//!   `fetch_add` publish counter) against a reader polling both. The real
//!   protocol is all-`Relaxed` *by design* (it publishes no data), so the
//!   model asserts only per-location coherence; its `strict` knob adds
//!   the cross-location claim Relaxed deliberately does not make, which
//!   the unit tests use to prove the engine actually explores weak
//!   behaviors.

use super::interleave::{Action, MemOrd, Model};

/// `spsc.rs` atomic location indices.
const WRITE: usize = 0;
const READ: usize = 1;

/// The orderings at the six protocol sites of the SPSC ring.
#[derive(Debug, Clone)]
pub struct SpscOrds {
    /// `write.load` in `push` (producer-owned pointer).
    pub push_own_load: MemOrd,
    /// `read.load` in `push` (consumer-progress refresh).
    pub push_read_load: MemOrd,
    /// `write.store` in `push` (slot publication).
    pub push_write_store: MemOrd,
    /// `read.load` in `pop` (consumer-owned pointer).
    pub pop_own_load: MemOrd,
    /// `write.load` in `pop` (producer-progress refresh).
    pub pop_write_load: MemOrd,
    /// `read.store` in `pop` (slot reclamation).
    pub pop_read_store: MemOrd,
}

impl SpscOrds {
    /// The protocol as designed (what `spsc.rs` ships).
    /// Tests-only: the reference configuration this module's tests explore and mutate.
    pub fn correct() -> SpscOrds {
        SpscOrds {
            push_own_load: MemOrd::Relaxed,
            push_read_load: MemOrd::Acquire,
            push_write_store: MemOrd::Release,
            pop_own_load: MemOrd::Relaxed,
            pop_write_load: MemOrd::Acquire,
            pop_read_store: MemOrd::Release,
        }
    }
}

/// Producer pushing [`SpscModel::ITEMS`] values through a capacity-2 ring
/// vs a consumer popping. Thread 0 = producer, thread 1 = consumer.
#[derive(Debug, Clone)]
pub struct SpscModel {
    ords: SpscOrds,
    // Producer: program counter, item cursor, loaded pointers.
    p_pc: u8,
    p_item: u64,
    p_write: u64,
    p_read: u64,
    // Consumer: program counter, attempt cursor, loaded pointers.
    c_pc: u8,
    c_att: u64,
    c_read: u64,
    c_write: u64,
    /// Values published, in order (`push` records at the Release store).
    pushed: Vec<u64>,
    /// Successful pops so far.
    taken: u64,
}

impl SpscModel {
    /// Ring capacity (power of two, as in the real ring).
    pub const CAP: u64 = 2;
    /// Items the producer attempts to push (crosses a full ring and a
    /// slot-reuse wrap at capacity 2).
    pub const ITEMS: u64 = 3;
    /// Pop attempts (enough to drain in some schedules, to run dry in
    /// others).
    pub const ATTEMPTS: u64 = 4;

    /// A fresh model over the given site orderings.
    pub fn new(ords: SpscOrds) -> SpscModel {
        SpscModel {
            ords,
            p_pc: 0,
            p_item: 0,
            p_write: 0,
            p_read: 0,
            c_pc: 0,
            c_att: 0,
            c_read: 0,
            c_write: 0,
            pushed: Vec::new(),
            taken: 0,
        }
    }

    fn item_val(&self) -> u64 {
        self.p_item + 1
    }
}

impl Model for SpscModel {
    fn locs(&self) -> usize {
        2
    }

    fn cells(&self) -> usize {
        Self::CAP as usize
    }

    fn loc_name(&self, loc: usize) -> &'static str {
        ["write", "read"][loc]
    }

    fn thread_name(&self, tid: usize) -> &'static str {
        ["producer", "consumer"][tid]
    }

    fn next(&self, tid: usize) -> Action {
        if tid == 0 {
            match self.p_pc {
                0 if self.p_item == Self::ITEMS => Action::Done,
                0 => Action::Load {
                    loc: WRITE,
                    ord: self.ords.push_own_load,
                },
                1 => Action::Load {
                    loc: READ,
                    ord: self.ords.push_read_load,
                },
                2 => Action::CellWrite {
                    cell: (self.p_write % Self::CAP) as usize,
                    val: self.item_val(),
                },
                _ => Action::Store {
                    loc: WRITE,
                    val: self.p_write + 1,
                    ord: self.ords.push_write_store,
                },
            }
        } else {
            match self.c_pc {
                0 if self.c_att == Self::ATTEMPTS => Action::Done,
                0 => Action::Load {
                    loc: READ,
                    ord: self.ords.pop_own_load,
                },
                1 => Action::Load {
                    loc: WRITE,
                    ord: self.ords.pop_write_load,
                },
                2 => Action::CellTake {
                    cell: (self.c_read % Self::CAP) as usize,
                },
                _ => Action::Store {
                    loc: READ,
                    val: self.c_read + 1,
                    ord: self.ords.pop_read_store,
                },
            }
        }
    }

    fn apply(&mut self, tid: usize, loaded: Option<u64>) -> Result<(), String> {
        if tid == 0 {
            match self.p_pc {
                0 => {
                    self.p_write = loaded.expect("load returns a value");
                    self.p_pc = 1;
                }
                1 => {
                    self.p_read = loaded.expect("load returns a value");
                    if self.p_write - self.p_read >= Self::CAP {
                        // Full: the real push returns Err; the model moves
                        // to the next item so every exploration terminates.
                        self.p_item += 1;
                        self.p_pc = 0;
                    } else {
                        self.p_pc = 2;
                    }
                }
                2 => self.p_pc = 3,
                _ => {
                    self.pushed.push(self.item_val());
                    self.p_item += 1;
                    self.p_pc = 0;
                }
            }
        } else {
            match self.c_pc {
                0 => {
                    self.c_read = loaded.expect("load returns a value");
                    self.c_pc = 1;
                }
                1 => {
                    self.c_write = loaded.expect("load returns a value");
                    if self.c_read == self.c_write {
                        // Empty this attempt.
                        self.c_att += 1;
                        self.c_pc = 0;
                    } else {
                        self.c_pc = 2;
                    }
                }
                2 => {
                    let got = loaded.expect("take returns a value");
                    let expected =
                        self.pushed
                            .get(self.taken as usize)
                            .copied()
                            .ok_or_else(|| {
                                format!(
                                    "consumer popped slot {} before the producer published it",
                                    self.c_read % Self::CAP
                                )
                            })?;
                    if got != expected {
                        return Err(format!(
                            "FIFO violation: pop #{} returned {got}, expected {expected}",
                            self.taken
                        ));
                    }
                    self.c_pc = 3;
                }
                _ => {
                    self.taken += 1;
                    self.c_att += 1;
                    self.c_pc = 0;
                }
            }
        }
        Ok(())
    }

    fn finished(&self) -> Result<(), String> {
        // Every successful pop was checked against `pushed` in order; the
        // only end-state invariant left is that counts are consistent.
        if self.taken > self.pushed.len() as u64 {
            return Err(format!(
                "consumer took {} items but only {} were published",
                self.taken,
                self.pushed.len()
            ));
        }
        Ok(())
    }
}

/// `pressure.rs` atomic location indices.
const LEVEL: usize = 0;
const PUBLISHES: usize = 1;

/// The orderings at the four protocol sites of `SharedPressure`.
#[derive(Debug, Clone)]
pub struct PressureOrds {
    /// `level.store` in `publish`.
    pub store_level: MemOrd,
    /// `publishes.fetch_add` in `publish`.
    pub rmw_publishes: MemOrd,
    /// `level.load` in `level`.
    pub load_level: MemOrd,
    /// `publishes.load` in `publishes`.
    pub load_publishes: MemOrd,
}

impl PressureOrds {
    /// The protocol as designed: all-Relaxed (advisory signal, no data
    /// published through it).
    /// Tests-only: the reference configuration this module's tests explore and mutate.
    pub fn correct() -> PressureOrds {
        PressureOrds {
            store_level: MemOrd::Relaxed,
            rmw_publishes: MemOrd::Relaxed,
            load_level: MemOrd::Relaxed,
            load_publishes: MemOrd::Relaxed,
        }
    }
}

/// Writer publishing monotone levels 1..=3 vs a reader polling the
/// publish counter then the level. Thread 0 = writer, thread 1 = reader.
#[derive(Debug, Clone)]
pub struct SharedPressureModel {
    ords: PressureOrds,
    /// With `strict`, seeing `publishes == LEVELS` requires the *next*
    /// level read to return the final level — a cross-location claim that
    /// holds under Release/Acquire and must fail under Relaxed.
    strict: bool,
    w_pc: u8,
    w_i: u64,
    r_pc: u8,
    r_round: u64,
    r_pub_now: u64,
    r_last_level: u64,
    r_last_pub: u64,
}

impl SharedPressureModel {
    /// Levels published (monotone, like an escalating overload episode).
    pub const LEVELS: u64 = 3;
    /// Reader polling rounds.
    pub const ROUNDS: u64 = 3;

    /// A fresh model; see [`Self`] for `strict`.
    pub fn new(ords: PressureOrds, strict: bool) -> SharedPressureModel {
        SharedPressureModel {
            ords,
            strict,
            w_pc: 0,
            w_i: 0,
            r_pc: 0,
            r_round: 0,
            r_pub_now: 0,
            r_last_level: 0,
            r_last_pub: 0,
        }
    }
}

impl Model for SharedPressureModel {
    fn locs(&self) -> usize {
        2
    }

    fn cells(&self) -> usize {
        0
    }

    fn loc_name(&self, loc: usize) -> &'static str {
        ["level", "publishes"][loc]
    }

    fn thread_name(&self, tid: usize) -> &'static str {
        ["writer", "reader"][tid]
    }

    fn next(&self, tid: usize) -> Action {
        if tid == 0 {
            match self.w_pc {
                0 if self.w_i == Self::LEVELS => Action::Done,
                0 => Action::Store {
                    loc: LEVEL,
                    val: self.w_i + 1,
                    ord: self.ords.store_level,
                },
                _ => Action::Rmw {
                    loc: PUBLISHES,
                    add: 1,
                    ord: self.ords.rmw_publishes,
                },
            }
        } else {
            match self.r_pc {
                0 if self.r_round == Self::ROUNDS => Action::Done,
                0 => Action::Load {
                    loc: PUBLISHES,
                    ord: self.ords.load_publishes,
                },
                _ => Action::Load {
                    loc: LEVEL,
                    ord: self.ords.load_level,
                },
            }
        }
    }

    fn apply(&mut self, tid: usize, loaded: Option<u64>) -> Result<(), String> {
        if tid == 0 {
            match self.w_pc {
                0 => self.w_pc = 1,
                _ => {
                    self.w_i += 1;
                    self.w_pc = 0;
                }
            }
            return Ok(());
        }
        match self.r_pc {
            0 => {
                let pubs = loaded.expect("load returns a value");
                if pubs < self.r_last_pub {
                    return Err(format!(
                        "publish counter went backwards: {pubs} after {}",
                        self.r_last_pub
                    ));
                }
                self.r_pub_now = pubs;
                self.r_pc = 1;
            }
            _ => {
                let level = loaded.expect("load returns a value");
                if level < self.r_last_level {
                    return Err(format!(
                        "pressure level read went backwards: {level} after {} (single-writer monotone publication)",
                        self.r_last_level
                    ));
                }
                if level > Self::LEVELS {
                    return Err(format!("impossible level value {level}"));
                }
                if self.strict && self.r_pub_now == Self::LEVELS && level != Self::LEVELS {
                    return Err(format!(
                        "strict mode: saw publishes == {} but level == {level} — Relaxed makes no cross-location promise",
                        Self::LEVELS
                    ));
                }
                self.r_last_level = level;
                self.r_last_pub = self.r_pub_now;
                self.r_round += 1;
                self.r_pc = 0;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::interleave::explore;
    use super::*;

    const BOUND: usize = 3;

    #[test]
    fn spsc_correct_protocol_is_race_free() {
        let stats = explore(&SpscModel::new(SpscOrds::correct()), BOUND)
            .unwrap_or_else(|ce| panic!("counterexample: {}\n{:#?}", ce.error, ce.trace));
        assert!(
            stats.executions > 100,
            "explored {} executions",
            stats.executions
        );
    }

    #[test]
    fn spsc_relaxed_publication_races() {
        let mut ords = SpscOrds::correct();
        ords.push_write_store = MemOrd::Relaxed;
        let ce = explore(&SpscModel::new(ords), BOUND).expect_err("must find the race");
        assert!(ce.error.contains("data race"), "{}", ce.error);
        assert!(!ce.trace.is_empty());
    }

    #[test]
    fn spsc_relaxed_reclamation_races() {
        let mut ords = SpscOrds::correct();
        ords.pop_read_store = MemOrd::Relaxed;
        let ce = explore(&SpscModel::new(ords), BOUND).expect_err("must find the race");
        assert!(ce.error.contains("data race"), "{}", ce.error);
    }

    #[test]
    fn spsc_relaxed_consumer_refresh_races() {
        let mut ords = SpscOrds::correct();
        ords.pop_write_load = MemOrd::Relaxed;
        let ce = explore(&SpscModel::new(ords), BOUND).expect_err("must find the race");
        assert!(ce.error.contains("data race"), "{}", ce.error);
    }

    #[test]
    fn spsc_relaxed_producer_refresh_races() {
        let mut ords = SpscOrds::correct();
        ords.push_read_load = MemOrd::Relaxed;
        let ce = explore(&SpscModel::new(ords), BOUND).expect_err("must find the race");
        assert!(ce.error.contains("data race"), "{}", ce.error);
    }

    #[test]
    fn pressure_relaxed_protocol_holds_its_advisory_contract() {
        let stats = explore(
            &SharedPressureModel::new(PressureOrds::correct(), false),
            BOUND,
        )
        .unwrap_or_else(|ce| panic!("counterexample: {} \n{:#?}", ce.error, ce.trace));
        assert!(stats.executions > 100);
    }

    #[test]
    fn pressure_relaxed_cannot_make_cross_location_promises() {
        // The engine must *find* the weak behavior the strict assertion
        // wrongly rules out — this is the proof it models Relaxed, not SC.
        let ce = explore(
            &SharedPressureModel::new(PressureOrds::correct(), true),
            BOUND,
        )
        .expect_err("weak behavior must be explored");
        assert!(ce.error.contains("strict mode"), "{}", ce.error);
    }

    #[test]
    fn pressure_release_acquire_does_make_the_promise() {
        let ords = PressureOrds {
            store_level: MemOrd::Relaxed,
            rmw_publishes: MemOrd::Release,
            load_level: MemOrd::Relaxed,
            load_publishes: MemOrd::Acquire,
        };
        explore(&SharedPressureModel::new(ords, true), BOUND)
            .unwrap_or_else(|ce| panic!("counterexample: {}\n{:#?}", ce.error, ce.trace));
    }
}
