//! Order statistics and the error-rate bound.

use std::collections::BTreeMap;
use std::time::Instant;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the middle two for an even count); NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`; NaN when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    s[rank(s.len(), p) - 1]
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Upper end of the 95% Wilson score interval for an error probability
/// after `errors` errors in `n` trials. Unlike the raw ratio it is never
/// zero: with no errors it is about 3.84 / n, the rate the run can still
/// not rule out.
pub fn wilson_upper(errors: u64, n: u64) -> f64 {
    let n = n.max(1) as f64;
    let p = errors as f64 / n;
    let z2 = 1.96f64 * 1.96;
    let centre = p + z2 / (2.0 * n);
    let spread = (1.96 * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt()).max(0.0);
    ((centre + spread) / (1.0 + z2 / n)).min(1.0)
}

/// Wall-time samples of named spans, recorded around calls into the
/// program. When off, [`Spans::time`] only runs the call.
pub struct Spans {
    on: bool,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            samples: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, on: bool) {
        self.on = on;
    }

    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        match self.samples.get_mut(name) {
            Some(v) => v.push(secs),
            None => {
                self.samples.insert(name.to_string(), vec![secs]);
            }
        }
        r
    }

    /// Median duration of span `name` in seconds.
    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(f64::NAN, |v| median(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 99.0), 990.0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(200, 95.0), 10);
    }

    #[test]
    fn wilson_bound_is_positive_and_tracks_the_rate() {
        let zero = wilson_upper(0, 10_000);
        assert!(zero > 0.0 && zero < 5e-4, "{zero}");
        let half = wilson_upper(5_000, 10_000);
        assert!(half > 0.5 && half < 0.511, "{half}");
        assert!(wilson_upper(0, 20_000) < zero);
    }
}
