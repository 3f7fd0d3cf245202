//! Sample summaries and the report digest.

/// Median and quartiles of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarise `samples`; quartiles follow Python's
    /// `statistics.quantiles(n=4)` (the exclusive method), so figures
    /// printed here match the ones computed over runs. Panics on an empty
    /// set, which would be a bug in the caller's sampling loop.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of an empty sample set");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        let quartile = |i: usize| -> f64 {
            if n == 1 {
                return s[0];
            }
            let m = (n + 1) * i;
            let j = (m / 4).clamp(1, n - 1);
            let delta = m as f64 - 4.0 * j as f64;
            (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
        };
        Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        }
    }
}

/// FNV-1a 64-bit hash: a stable digest of a report's JSON bytes.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
