//! Packet sizes and packet-times.
//!
//! ShareStreams never moves payloads through the scheduler: the Stream
//! processor exchanges 16-bit arrival-time offsets and 5-bit stream IDs with
//! the FPGA (paper §4.3), so a packet matters here only by its length.

use crate::Nanos;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Packet length in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PacketSize(pub u32);

impl PacketSize {
    /// Minimum Ethernet frame (64 bytes) — the paper's worst-case packet-time.
    pub const ETH_MIN: PacketSize = PacketSize(64);
    /// Maximum standard Ethernet frame (1500-byte payload MTU framing).
    pub const ETH_MTU: PacketSize = PacketSize(1500);

    /// Size in bits on the wire.
    pub const fn bits(self) -> u64 {
        (self.0 as u64) * 8
    }

    /// Size in bytes.
    pub const fn bytes(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PacketSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.0)
    }
}

/// Packet-time in nanoseconds for a packet of `size` on a link of
/// `line_speed_bps` bits per second.
///
/// This is the budget within which a scheduling decision must complete to
/// keep the link fully utilized (paper §1).
pub fn packet_time_ns(size: PacketSize, line_speed_bps: u64) -> Nanos {
    assert!(line_speed_bps > 0, "line speed must be positive");
    // bits * 1e9 / bps, rounded to nearest, using u128 to avoid overflow.
    let num = (size.bits() as u128) * 1_000_000_000u128;
    ((num + (line_speed_bps as u128) / 2) / (line_speed_bps as u128)) as Nanos
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBPS: u64 = 1_000_000_000;

    #[test]
    fn paper_packet_times_10g() {
        // Paper §1: on 10 Gbps, 64-byte ≈ 0.05 µs, 1500-byte ≈ 1.2 µs.
        let t64 = packet_time_ns(PacketSize::ETH_MIN, 10 * GBPS);
        let t1500 = packet_time_ns(PacketSize::ETH_MTU, 10 * GBPS);
        assert_eq!(t64, 51); // 512 bits / 10 Gbps = 51.2 ns
        assert_eq!(t1500, 1200); // 12000 bits / 10 Gbps = 1.2 µs
    }

    #[test]
    fn paper_packet_times_1g() {
        // Paper §4.1: 1500-byte on 1 Gbps = 12 µs; 64-byte = ~500 ns.
        assert_eq!(packet_time_ns(PacketSize::ETH_MTU, GBPS), 12_000);
        assert_eq!(packet_time_ns(PacketSize::ETH_MIN, GBPS), 512);
    }

    #[test]
    fn packet_time_scales_inversely_with_speed() {
        let slow = packet_time_ns(PacketSize(1000), GBPS);
        let fast = packet_time_ns(PacketSize(1000), 2 * GBPS);
        assert_eq!(slow, 2 * fast);
    }

    #[test]
    #[should_panic(expected = "line speed must be positive")]
    fn zero_line_speed_panics() {
        packet_time_ns(PacketSize(64), 0);
    }
}
