//! Exact summaries of raw samples.

/// The nearest-rank `q`-quantile of `samples` (0 when empty): the smallest
/// sample with at least a `q` share of the samples at or below it.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Exact latency samples in nanosecond buckets: memory does not grow with
/// the sample count (pages of the bucket array are touched only where
/// samples land), so the harness's own footprint stays out of
/// `peak_rss_mb`. Samples of a millisecond or more are kept as they are.
#[derive(Debug, Clone)]
pub struct Latencies {
    counts: Vec<u32>,
    over: Vec<u64>,
    len: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies { counts: vec![0; 1 << 20], over: Vec::new(), len: 0 }
    }
}

impl Latencies {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.len += 1;
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.over.push(ns),
        }
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The nearest-rank `q`-quantile (0 when empty), as [`quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let rank = ((q * self.len as f64).ceil() as u64).clamp(1, self.len);
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return ns as u64;
            }
        }
        let mut over = self.over.clone();
        over.sort_unstable();
        over[(rank - seen - 1) as usize]
    }
}

/// The median (nearest rank) of `samples`.
pub fn median(samples: &[u64]) -> u64 {
    quantile(samples, 0.5)
}

/// The process's peak resident set (`VmHWM`), in MB (2^20 bytes); 0 where
/// `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&s, 0.5), 50);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&s, 1.0), 100);
        assert_eq!(quantile(&s, 0.0), 1);
        assert_eq!(median(&[3, 1, 2]), 2);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn bucketed_latencies_match_sorted_samples() {
        let samples: Vec<u64> = (0..5_000u64).map(|i| (i * 7919) % 3_000_000).collect();
        let mut lat = Latencies::default();
        samples.iter().for_each(|&s| lat.record(s));
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(lat.quantile(q), quantile(&samples, q), "q = {q}");
        }
        assert_eq!(lat.len(), 5_000);
        assert_eq!(Latencies::default().quantile(0.5), 0);
    }
}
