//! QoS-aware load shedding over DWCS window state.
//!
//! Under sustained pressure *something* must be dropped; the only question
//! is what. DWCS gives the answer for free: a stream whose window
//! constraint `x/y` is currently *satisfied* — fewer than `x` losses in
//! its current `y`-packet window — can absorb another loss without
//! violating its contract, while a stream that has exhausted its tolerance
//! cannot. [`QosShedder`] tracks a sliding window per stream and picks
//! victims among the satisfied ones, loosest contract first, which is the
//! policy that maximizes Table-3 deadlines-met under overload.
//!
//! The shedder is the *deterministic back end*; the probabilistic front
//! end is [`crate::RedQueue`], which decides *when* pressure warrants an
//! early drop. The composition lives in [`crate::gate`]: RED proposes, the
//! shedder disposes — and if the arriving stream is protected, the drop
//! is refused and the packet admitted anyway.

use ss_types::WindowConstraint;

/// One stream's sliding loss window.
#[derive(Debug, Clone, Copy)]
struct WindowState {
    /// Losses tolerated per window (`x`).
    num: u8,
    /// Window length in packets (`y`).
    den: u8,
    /// Losses recorded in the current window.
    losses: u8,
    /// Position in the current window (outcomes recorded).
    pos: u8,
}

impl WindowState {
    fn new(wc: WindowConstraint) -> Self {
        Self {
            num: wc.num,
            den: wc.den.max(1),
            losses: 0,
            pos: 0,
        }
    }

    /// Losses this stream can still absorb in the current window.
    #[inline]
    fn headroom(&self) -> u8 {
        self.num.saturating_sub(self.losses)
    }

    /// Advances the window by one outcome; a full window resets.
    #[inline]
    fn advance(&mut self, lost: bool) {
        if lost {
            self.losses = self.losses.saturating_add(1);
        }
        self.pos += 1;
        if self.pos >= self.den {
            self.pos = 0;
            self.losses = 0;
        }
    }
}

/// Picks shed victims among streams whose window constraints are
/// currently satisfied.
#[derive(Debug, Clone)]
pub struct QosShedder {
    windows: Vec<WindowState>,
    shed: Vec<u64>,
}

impl QosShedder {
    /// A shedder tracking one window per entry of `constraints`.
    pub fn new(constraints: &[WindowConstraint]) -> Self {
        Self {
            windows: constraints.iter().map(|&wc| WindowState::new(wc)).collect(),
            shed: vec![0; constraints.len()],
        }
    }

    /// `true` if `stream` can absorb a loss right now (its constraint is
    /// satisfied with headroom to spare). Out-of-range streams report
    /// `false` — never sheddable. Hot path.
    // lint:hot-path
    #[inline]
    pub fn sheddable(&self, stream: usize) -> bool {
        match self.windows.get(stream) {
            Some(w) => w.headroom() > 0,
            None => false,
        }
    }

    /// Records a shed for `stream`: one loss enters its window.
    // lint:hot-path
    #[inline]
    pub fn record_shed(&mut self, stream: usize) {
        if let Some(w) = self.windows.get_mut(stream) {
            w.advance(true);
            self.shed[stream] += 1;
        }
    }

    /// Records a served (or otherwise non-lost) outcome for `stream`.
    // lint:hot-path
    #[inline]
    pub fn record_served(&mut self, stream: usize) {
        if let Some(w) = self.windows.get_mut(stream) {
            w.advance(false);
        }
    }

    /// Packets shed from `stream` so far.
    #[inline]
    pub fn shed(&self, stream: usize) -> u64 {
        self.shed.get(stream).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wc(num: u8, den: u8) -> WindowConstraint {
        WindowConstraint::new(num, den)
    }

    #[test]
    fn tight_streams_are_never_victims() {
        let s = QosShedder::new(&[wc(0, 1), wc(0, 4)]);
        assert!(!s.sheddable(0));
        assert!(!s.sheddable(1));
    }

    #[test]
    fn shedding_consumes_headroom_until_constraint_binds() {
        let mut s = QosShedder::new(&[wc(2, 4)]);
        assert!(s.sheddable(0));
        s.record_shed(0);
        assert!(s.sheddable(0), "1 of 2 tolerated losses used");
        s.record_shed(0);
        assert!(!s.sheddable(0), "tolerance exhausted");
        // Window completes (2 served outcomes reach den=4): fresh headroom.
        s.record_served(0);
        s.record_served(0);
        assert!(s.sheddable(0));
        assert_eq!(s.shed(0), 2);
    }

    #[test]
    fn served_outcomes_slide_the_window() {
        let mut s = QosShedder::new(&[wc(1, 2)]);
        for _ in 0..10 {
            assert!(s.sheddable(0));
            s.record_shed(0); // uses the window's one tolerated loss
            assert!(!s.sheddable(0));
            s.record_served(0); // completes the window, resetting it
        }
        assert_eq!(s.shed(0), 10);
    }

    #[test]
    fn out_of_range_is_inert() {
        let mut s = QosShedder::new(&[wc(1, 2)]);
        assert!(!s.sheddable(9));
        s.record_shed(9);
        s.record_served(9);
        assert_eq!(s.shed(9), 0);
    }
}
