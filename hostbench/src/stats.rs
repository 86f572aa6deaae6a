//! Order statistics over timing samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between closest ranks. Panics on an empty slice: every caller times
/// at least one operation before it reports.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail percentile reported for a sample of `n`: p90, or below
/// 100 samples the highest quantile that still has ten samples beyond
/// it (never below the median). Not p99: on the 2-core reference host,
/// whose speed drifts by a quarter within seconds, the open-loop push
/// p99 spread by 0.3 to 0.8 of its median over ten runs.
pub fn tail_q(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.9)
}

/// FNV-1a over a list of match ends: a compact, order-sensitive digest
/// two processes can compare without shipping every position.
pub fn digest(ends: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for end in ends {
        for byte in end.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        assert_eq!(tail_q(2000), 0.9);
        assert!((tail_q(50) - 0.8).abs() < 1e-12);
        assert_eq!(tail_q(12), 0.5);
    }
}
