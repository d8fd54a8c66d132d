//! Percentiles over exact samples (nearest rank, no interpolation).

/// Nearest-rank `q`-th percentile (`0 < q ≤ 100`) of `sorted`, which must
/// be sorted ascending; `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of the `q`-th percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the `q`-th percentile's rank among `n`: the
/// evidence a tail percentile rests on.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Median and 99th percentile of one sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Some(Summary {
            n: s.len(),
            p50: percentile(&s, 50.0)?,
            p99: percentile(&s, 99.0)?,
            max: *s.last()?,
        })
    }

    /// Samples beyond the p99 rank.
    pub fn beyond_p99(&self) -> usize {
        beyond(self.n, 99.0)
    }

    /// An error unless the p99 rests on at least ten samples beyond it.
    pub fn check_tail(&self, what: &str) -> std::io::Result<()> {
        if self.beyond_p99() < 10 {
            return Err(std::io::Error::other(format!(
                "{what}: p99 rests on {} samples beyond it (n = {}); need at least 10",
                self.beyond_p99(),
                self.n
            )));
        }
        Ok(())
    }
}

/// Median of `samples` (upper median for even counts); `None` when
/// empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s.get(s.len() / 2).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(percentile(&[4.0], 99.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_evidence_counts() {
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(0, 99.0), 0);
    }

    #[test]
    fn summary_sorts_its_input() {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        v.reverse();
        let s = Summary::of(&v).expect("non-empty");
        assert_eq!((s.n, s.p50, s.p99, s.max), (2000, 999.0, 1979.0, 1999.0));
        assert_eq!(s.beyond_p99(), 20);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert!(s.check_tail("t").is_ok());
        let short = Summary::of(&v[..999]).expect("non-empty");
        assert!(short.check_tail("t").is_err());
    }
}
