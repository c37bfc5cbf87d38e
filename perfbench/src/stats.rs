//! Order statistics and the result line the benchmark prints.

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q ∈ [0, 1]` of an ascending slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Timed replays of a rotation of input variants.
#[derive(Default, Clone)]
pub struct Replays {
    /// By variant: the arrivals of one replay and each replay's seconds.
    variants: Vec<(u64, Vec<f64>)>,
}

impl Replays {
    pub fn push(&mut self, variant: usize, arrivals: u64, secs: f64) {
        if self.variants.len() <= variant {
            self.variants.resize(variant + 1, (0, Vec::new()));
        }
        let (n, times) = &mut self.variants[variant];
        *n = arrivals;
        times.push(secs);
    }

    /// Replays recorded.
    pub fn len(&self) -> usize {
        self.variants.iter().map(|(_, t)| t.len()).sum()
    }

    /// Decisions per second over one pass of every variant replayed:
    /// their arrivals ÷ the sum of each variant's median replay seconds.
    /// Each input weighs in by its share of the work (one slow input
    /// cannot become the median), and the per-variant median filters
    /// host hiccups. 0 when nothing was replayed.
    pub fn rate(&self) -> f64 {
        let (mut n, mut secs) = (0u64, 0.0);
        for (arrivals, times) in self.variants.iter().filter(|(_, t)| !t.is_empty()) {
            n += arrivals;
            secs += median(times);
        }
        if secs > 0.0 {
            n as f64 / secs
        } else {
            0.0
        }
    }
}

/// The metrics of one run, in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            !self.entries.iter().any(|(n, _, _)| *n == name),
            "metric {name} recorded twice"
        );
        self.entries.push((name, value, unit));
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,
    /// "metrics":{name:{"value":…,"unit":…},…}}`. Non-finite values are
    /// written as 0 (and the caller marks the run incorrect).
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            body.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
    }

    #[test]
    fn pooled_rate_weighs_variants_by_work() {
        let mut r = Replays::default();
        assert_eq!(r.rate(), 0.0);
        // Variant 0: 100 arrivals, median 1 s (the 9 s hiccup is
        // filtered); variant 2: 300 arrivals in 1 s; variant 1 unseen.
        for secs in [1.0, 9.0, 1.0] {
            r.push(0, 100, secs);
        }
        r.push(2, 300, 1.0);
        assert_eq!(r.len(), 4);
        assert_eq!(r.rate(), 200.0);
    }

    #[test]
    fn result_line_is_json() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("rate", f64::NAN, "1/s");
        assert!(!m.all_finite());
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":\
             {\"value\":0.5,\"unit\":\"s\"},\"rate\":{\"value\":0.0,\"unit\":\"1/s\"}}}"
        );
    }
}
