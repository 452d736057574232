//! Medians, quartiles and the tail-percentile rule.

/// Percentiles a tail may be reported at, highest first; in per mille, so
/// that ranks are exact integer arithmetic.
const LADDER: [(usize, &str); 6] = [
    (999, "p99.9"),
    (990, "p99"),
    (950, "p95"),
    (900, "p90"),
    (750, "p75"),
    (500, "p50"),
];

/// Samples a tail percentile must leave beyond itself to be reported.
const BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 0-based index of the nearest-rank quantile at `per_mille` among `n`
/// sorted samples.
fn rank(n: usize, per_mille: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n) - 1
}

/// Nearest-rank quantile (an observed sample, never an interpolation).
pub fn quantile(xs: &[f64], per_mille: usize) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    sorted(xs)[rank(xs.len(), per_mille)]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 500)
}

/// Mean of the middle half of the samples. Where the samples take a few
/// discrete values, the median of a small sample jumps between them from run
/// to run; this moves smoothly, and ignores the same outliers.
pub fn midmean(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// A reported tail: which percentile the sample count supports, and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    pub per_mille: usize,
    pub label: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// The highest ladder percentile with at least ten samples beyond it; the
/// median when even that has fewer (the label says so either way).
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    let (p, label) = LADDER
        .into_iter()
        .find(|&(p, _)| n > rank(n, p) + BEYOND)
        .unwrap_or(LADDER[LADDER.len() - 1]);
    Tail {
        per_mille: p,
        label,
        value: quantile(xs, p),
        samples: n,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// exclusive method), so spreads printed here match the acceptance check.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 is sample 990, ten lie beyond; p99.9 leaves one.
        let t = tail(&ramp(1000));
        assert_eq!((t.label, t.value, t.samples), ("p99", 990.0, 1000));
        // 1001 samples: p99 is sample 991 with ten beyond, still not p99.9.
        assert_eq!(tail(&ramp(1001)).label, "p99");
        // 11000 samples support p99.9 (sample 10989, eleven beyond).
        let t = tail(&ramp(11_000));
        assert_eq!((t.label, t.value), ("p99.9", 10_989.0));
        // 200 samples: p95 is sample 190, exactly ten beyond.
        assert_eq!(tail(&ramp(200)).label, "p95");
        // 199: p95 is sample 190, nine beyond, so p90 (sample 180).
        let t = tail(&ramp(199));
        assert_eq!((t.label, t.value), ("p90", 180.0));
        // 144 (remote-tcp at full size): p90 = sample 130, 14 beyond.
        assert_eq!(tail(&ramp(144)).label, "p90");
        // 40: p75 is sample 30, ten beyond.
        assert_eq!(tail(&ramp(40)).label, "p75");
        // 21 samples: the median (sample 11) has ten beyond.
        assert_eq!(tail(&ramp(21)).label, "p50");
        // Fewer still: the median is all there is.
        let t = tail(&ramp(5));
        assert_eq!((t.label, t.value), ("p50", 3.0));
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut xs = ramp(300);
        xs.reverse();
        assert_eq!(tail(&xs), tail(&ramp(300)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&ramp(10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn midmean_moves_smoothly_between_modes() {
        let modes = |a: usize, b: usize, c: usize| {
            let mut v = vec![220.0; a];
            v.extend(vec![264.0; b]);
            v.extend(vec![308.0; c]);
            midmean(&v)
        };
        assert_eq!(modes(4, 4, 4), 264.0);
        // One sample changing mode moves it by a sixth of a mode's distance.
        assert!((modes(5, 4, 3) - (2.0 * 220.0 + 4.0 * 264.0) / 6.0).abs() < 1e-9);
        assert_eq!(midmean(&[1.0, 2.0, 3.0, 1000.0]), 2.5);
        assert_eq!(midmean(&[7.0]), 7.0);
    }

    #[test]
    fn median_is_an_observed_sample() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
    }
}
