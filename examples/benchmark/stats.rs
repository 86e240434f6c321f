//! Medians and quartiles of repeated measurements.

/// Summary of one metric's repeated measurements.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Spread {
    /// Summarises `values`, which must not be empty. The quartiles follow
    /// Python's `statistics.quantiles(values, n=4)`: its default
    /// "exclusive" method interpolates at positions (n + 1)/4 and
    /// 3(n + 1)/4 of the sorted values. A single value is its own
    /// quartiles.
    pub fn of(values: &[f64]) -> Spread {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quartile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let m = i * (n + 1);
            let j = (m / 4).clamp(1, n - 1);
            let delta = m as f64 / 4.0 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        };
        Spread {
            min: v[0],
            q1: quartile(1),
            median: if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            },
            q3: quartile(3),
            max: v[n - 1],
        }
    }

    /// The interquartile range as a share of the median.
    pub fn width(self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}
