//! Order statistics over latency and rate samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by nearest rank; sorts in
/// place. Returns 0 for an empty slice so a skipped phase is visible as
/// a zero rather than a panic.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median: mean of the two middle values for an even count, so two
/// passes are not reported as the slower one.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Median over passes of each pass's `q`-quantile: a tail percentile that
/// one stalled pass cannot move.
pub fn median_of_passes(passes: &mut [Vec<f64>], q: f64) -> f64 {
    let mut per_pass: Vec<f64> = passes.iter_mut().map(|p| percentile(p, q)).collect();
    median(&mut per_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn median_of_passes_ignores_one_stalled_pass() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut stalled = calm.clone();
        stalled[98] = 1e6;
        let mut passes = vec![calm.clone(), stalled, calm];
        assert_eq!(median_of_passes(&mut passes, 0.99), 99.0);
    }
}
