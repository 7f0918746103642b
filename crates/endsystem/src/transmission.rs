//! The Transmission Engine: output-link service and QoS measurement.
//!
//! TE threads move scheduled frames to the network (in the real system, by
//! programming NI DMA registers; here, by occupying the modeled output
//! link). This module also owns the measurement instruments behind
//! Figures 8–10: per-stream bandwidth rate meters and queuing-delay
//! histograms/series.

use ss_core::hwsim::{Histogram, RateMeter, Summary, TimeSeries};
use ss_types::{Nanos, PacketSize};

/// Per-stream transmission accounting plus the shared output link.
#[derive(Debug)]
pub struct TransmissionEngine {
    link_bytes_per_sec: u64,
    /// The link is busy until this instant.
    busy_until: Nanos,
    meters: Vec<RateMeter>,
    delays: Vec<Histogram>,
    delay_series: Vec<TimeSeries>,
    /// Record every k-th packet into the delay series.
    decimate: u64,
    counts: Vec<u64>,
    bytes: Vec<u64>,
    /// Inter-departure interval statistics per stream (delay-jitter).
    interdeparture: Vec<Summary>,
    last_completion: Vec<Option<Nanos>>,
}

impl TransmissionEngine {
    /// Creates a TE for `streams` streams on a link of
    /// `link_bytes_per_sec`, with bandwidth binned into `window_ns` windows
    /// and every `decimate`-th delay sampled into the plot series.
    ///
    /// # Panics
    /// Panics on zero link rate, window, or decimation.
    pub fn new(streams: usize, link_bytes_per_sec: u64, window_ns: Nanos, decimate: u64) -> Self {
        assert!(link_bytes_per_sec > 0, "link rate must be positive");
        assert!(decimate > 0, "decimation must be positive");
        Self {
            link_bytes_per_sec,
            busy_until: 0,
            meters: (0..streams).map(|_| RateMeter::new(window_ns)).collect(),
            delays: (0..streams).map(|_| Histogram::new()).collect(),
            delay_series: (0..streams)
                .map(|i| TimeSeries::new("t_sec", format!("stream{i}_delay_us")))
                .collect(),
            decimate,
            counts: vec![0; streams],
            bytes: vec![0; streams],
            interdeparture: (0..streams).map(|_| Summary::new()).collect(),
            last_completion: vec![None; streams],
        }
    }

    /// Transmission duration of `size` on this link, ns.
    pub fn service_time_ns(&self, size: PacketSize) -> Nanos {
        (u64::from(size.bytes()) * 1_000_000_000).div_ceil(self.link_bytes_per_sec)
    }

    /// Transmits one frame: the frame became ready (was scheduled) at
    /// `ready_ns` and originally arrived at `arrival_ns`. Returns the
    /// completion time.
    pub fn transmit(
        &mut self,
        stream: usize,
        size: PacketSize,
        ready_ns: Nanos,
        arrival_ns: Nanos,
    ) -> Nanos {
        let start = self.busy_until.max(ready_ns);
        let completion = start + self.service_time_ns(size);
        self.busy_until = completion;

        self.meters[stream].record(completion, u64::from(size.bytes()));
        let delay = completion.saturating_sub(arrival_ns);
        self.delays[stream].record(delay);
        if self.counts[stream].is_multiple_of(self.decimate) {
            self.delay_series[stream].push(completion as f64 / 1e9, delay as f64 / 1e3);
        }
        if let Some(prev) = self.last_completion[stream] {
            self.interdeparture[stream].record((completion - prev) as f64);
        }
        self.last_completion[stream] = Some(completion);
        self.counts[stream] += 1;
        self.bytes[stream] += u64::from(size.bytes());
        completion
    }

    /// Instant the link frees up.
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }

    /// Frames transmitted per stream.
    pub fn count(&self, stream: usize) -> u64 {
        self.counts[stream]
    }

    /// Bytes transmitted per stream.
    pub fn bytes(&self, stream: usize) -> u64 {
        self.bytes[stream]
    }

    /// Bandwidth-over-time series for `stream` (Figure 8/10 y-axis,
    /// bytes/sec per window).
    pub fn bandwidth_series(&self, stream: usize) -> TimeSeries {
        self.meters[stream].rates_per_sec()
    }

    /// Mean output rate of `stream` in bytes/sec.
    pub fn mean_rate(&self, stream: usize) -> f64 {
        self.meters[stream].mean_rate_per_sec()
    }

    /// Queuing-delay histogram for `stream` (Figure 9).
    pub fn delay_histogram(&self, stream: usize) -> &Histogram {
        &self.delays[stream]
    }

    /// Decimated delay-vs-time series for `stream` (Figure 9 plot data).
    pub fn delay_series(&self, stream: usize) -> &TimeSeries {
        &self.delay_series[stream]
    }

    /// Inter-departure statistics for `stream`: the standard deviation is
    /// the stream's delay-jitter (the third leg of the paper's
    /// bandwidth/delay/jitter QoS triple).
    pub fn interdeparture(&self, stream: usize) -> &Summary {
        &self.interdeparture[stream]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_on_16mbps_link() {
        let te = TransmissionEngine::new(1, 16_000_000, 1_000_000, 1);
        // 1500 bytes at 16 MB/s = 93.75 µs.
        assert_eq!(te.service_time_ns(PacketSize(1500)), 93_750);
    }

    #[test]
    fn back_to_back_frames_serialize_on_the_link() {
        let mut te = TransmissionEngine::new(2, 1_000_000, 1_000_000, 1);
        // 1000-byte frames take 1 ms each.
        let c1 = te.transmit(0, PacketSize(1000), 0, 0);
        let c2 = te.transmit(1, PacketSize(1000), 0, 0);
        assert_eq!(c1, 1_000_000);
        assert_eq!(c2, 2_000_000, "second frame waits for the link");
        assert_eq!(te.busy_until(), 2_000_000);
    }

    #[test]
    fn idle_link_starts_at_ready_time() {
        let mut te = TransmissionEngine::new(1, 1_000_000, 1_000_000, 1);
        let c = te.transmit(0, PacketSize(500), 5_000_000, 4_000_000);
        assert_eq!(c, 5_500_000);
        // Delay measured from arrival: 1.5 ms.
        assert_eq!(te.delay_histogram(0).max(), Some(1_500_000));
    }

    #[test]
    fn per_stream_accounting() {
        let mut te = TransmissionEngine::new(2, 1_000_000, 1_000_000_000, 1);
        te.transmit(0, PacketSize(100), 0, 0);
        te.transmit(0, PacketSize(100), 0, 0);
        te.transmit(1, PacketSize(300), 0, 0);
        assert_eq!(te.count(0), 2);
        assert_eq!(te.bytes(0), 200);
        assert_eq!(te.bytes(1), 300);
    }

    #[test]
    fn bandwidth_series_reflects_rate() {
        // 1000-byte frames back-to-back on a 1 MB/s link for ~1 second
        // (1 ms windows keep the full-bin quantization error under 1%).
        let mut te = TransmissionEngine::new(1, 1_000_000, 1_000_000, 1);
        for _ in 0..1000 {
            te.transmit(0, PacketSize(1000), 0, 0);
        }
        let rate = te.mean_rate(0);
        assert!((rate - 1_000_000.0).abs() / 1e6 < 0.01, "rate {rate}");
        assert!(!te.bandwidth_series(0).is_empty());
    }

    #[test]
    fn decimation_thins_the_series() {
        let mut te = TransmissionEngine::new(1, 1_000_000, 1_000_000_000, 10);
        for _ in 0..100 {
            te.transmit(0, PacketSize(100), 0, 0);
        }
        assert_eq!(te.delay_series(0).len(), 10);
        assert_eq!(
            te.delay_histogram(0).count(),
            100,
            "histogram keeps every sample"
        );
    }
}

#[cfg(test)]
mod jitter_tests {
    use super::*;

    #[test]
    fn constant_rate_stream_has_zero_jitter() {
        let mut te = TransmissionEngine::new(1, 1_000_000, 1_000_000_000, 1);
        for _ in 0..100 {
            te.transmit(0, PacketSize(1000), 0, 0); // back-to-back: 1 ms apart
        }
        let j = te.interdeparture(0);
        assert_eq!(j.count(), 99);
        assert!(
            j.std_dev().unwrap().abs() < 1e-9,
            "CBR departures must be jitter-free"
        );
        assert_eq!(j.mean(), Some(1_000_000.0));
    }

    #[test]
    fn interleaving_creates_jitter() {
        // Stream 0 shares the link with stream 1 every other frame, then
        // gets it alone: its inter-departure gaps alternate → jitter > 0.
        let mut te = TransmissionEngine::new(2, 1_000_000, 1_000_000_000, 1);
        for _ in 0..10 {
            te.transmit(0, PacketSize(1000), 0, 0);
            te.transmit(1, PacketSize(1000), 0, 0);
        }
        for _ in 0..10 {
            te.transmit(0, PacketSize(1000), 0, 0);
        }
        let j = te.interdeparture(0);
        assert!(
            j.std_dev().unwrap() > 100_000.0,
            "expected alternating gaps"
        );
    }
}
