//! Open-loop load generator: requests are offered on a fixed schedule
//! whether or not earlier ones finished, and each request's latency is
//! taken from when it was *due*, so a stall that delays later sends is
//! charged to them (no coordinated omission).

use std::time::{Duration, Instant};

/// One offered request.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// How late the generator offered it, against its due time.
    pub lag: Duration,
    /// Whether the system took it.
    pub accepted: bool,
}

impl Sent {
    /// Latency from the due time, given the system's own time from the
    /// offer to the outcome.
    pub fn latency(&self, service: Duration) -> Duration {
        self.lag + service
    }
}

/// Offers requests `0..count` at `rate_hz` from one thread; request `i`
/// is due `i / rate_hz` after the start. `offer` must return promptly.
pub fn drive(rate_hz: f64, count: usize, mut offer: impl FnMut(u64) -> bool) -> Vec<Sent> {
    let start = Instant::now();
    (0..count)
        .map(|i| {
            let due = start + Duration::from_secs_f64(i as f64 / rate_hz);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let accepted = offer(i as u64);
            Sent {
                lag: sent.saturating_duration_since(due),
                accepted,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        // Request 5's offer blocks for 30 ms; the system itself answers
        // instantly. Requests 6.. were due 1 ms apart during the stall,
        // so their latency from the due time must include what is left
        // of it, although each was answered the moment it was sent.
        let stall = Duration::from_millis(30);
        let sent = drive(1000.0, 40, |i| {
            if i == 5 {
                std::thread::sleep(stall);
            }
            true
        });
        let service = Duration::ZERO;
        assert!(sent[6].latency(service) >= Duration::from_millis(25));
        assert!(sent[10].latency(service) >= Duration::from_millis(20));
        // The generator reports how late it ran.
        let worst = sent.iter().map(|s| s.lag).max().unwrap();
        assert!(worst >= Duration::from_millis(25), "{worst:?}");
        // Once caught up it runs on time again.
        assert!(
            sent[39].lag < Duration::from_millis(10),
            "{:?}",
            sent[39].lag
        );
    }

    #[test]
    fn on_time_requests_have_small_lag_and_keep_the_service_time() {
        let sent = drive(500.0, 20, |_| true);
        assert!(sent.iter().all(|s| s.accepted));
        let service = Duration::from_millis(3);
        for s in &sent {
            assert!(s.latency(service) >= service);
        }
    }
}
