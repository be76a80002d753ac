//! Order statistics over measured samples.

/// Sorts samples ascending; `f64::INFINITY` (a failed request) sorts last.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
/// Returns `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Arithmetic mean; `NaN` for no samples.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// A measuring window: the statistic it yielded and the steal share of
/// the host while it ran.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub value: f64,
    pub steal: f64,
}

/// Steal share up to which a window counts as measured on a host that gave
/// the benchmark its CPUs: about one stolen tick in a quarter second on
/// two CPUs.
pub const QUIET_STEAL: f64 = 0.02;

/// The values of the windows measured on a quiet host: those with a steal
/// share of at most [`QUIET_STEAL`] or, when they are fewer than a quarter
/// of the windows, the quarter with the least steal. A stolen CPU stalls
/// whatever ran on it, and the requests queued behind it, so a stolen
/// window measures the host more than the program. The choice looks only
/// at steal, never at the values.
pub fn quiet(windows: &[Window]) -> Vec<f64> {
    let mut w = windows.to_vec();
    w.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let quiet = w.iter().filter(|x| x.steal <= QUIET_STEAL).count();
    let keep = quiet.max(w.len().div_ceil(4));
    w[..keep].iter().map(|x| x.value).collect()
}

/// The median over the quiet windows (see [`quiet`]).
pub fn quiet_median(windows: &[Window]) -> f64 {
    median(&quiet(windows))
}

/// Splits samples into `n` windows of consecutive samples (the last
/// absorbs the remainder; fewer samples than windows make one window each).
pub fn chunks<T>(samples: &[T], n: usize) -> impl Iterator<Item = &[T]> {
    let n = n.clamp(1, samples.len().max(1));
    let per = samples.len() / n;
    (0..n).map(move |w| {
        let end = if w + 1 == n {
            samples.len()
        } else {
            (w + 1) * per
        };
        &samples[w * per..end]
    })
}

/// Events per second in each fixed-length time window, given each
/// event's completion time in seconds since the phase started. A window's
/// rate is its events after the first over the time from its first event
/// to its last, so it is not quantized to whole events per window. Only
/// windows that lie wholly inside `[0, span_s)` count.
pub fn window_rates(done_at_s: &[f64], span_s: f64, window_s: f64) -> Vec<f64> {
    let n = ((span_s / window_s).floor() as usize).max(1);
    let mut first_last = vec![(f64::INFINITY, f64::NEG_INFINITY, 0u64); n];
    for &t in done_at_s {
        let w = (t / window_s) as usize;
        if let Some((first, last, count)) = first_last.get_mut(w) {
            *first = first.min(t);
            *last = last.max(t);
            *count += 1;
        }
    }
    first_last
        .iter()
        .map(|&(first, last, count)| {
            if count >= 2 && last > first {
                (count - 1) as f64 / (last - first)
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn failures_sort_last() {
        let s = sorted(vec![3.0, f64::INFINITY, 1.0]);
        assert_eq!(s, vec![1.0, 3.0, f64::INFINITY]);
    }

    #[test]
    fn chunks_cover_every_sample() {
        let v: Vec<u32> = (0..103).collect();
        let c: Vec<&[u32]> = chunks(&v, 10).collect();
        assert_eq!(c.len(), 10);
        assert_eq!(c[0].len(), 10);
        assert_eq!(c[9].len(), 13);
        assert_eq!(chunks(&v[..3], 10).count(), 3);
    }

    #[test]
    fn quiet_windows_are_chosen_by_steal_only() {
        let w = |value, steal| Window { value, steal };
        // Enough quiet windows: the stolen one is left out.
        let v = quiet(&[w(1.0, 0.0), w(2.0, 0.01), w(9.0, 0.3), w(3.0, 0.0)]);
        assert_eq!(sorted(v), vec![1.0, 2.0, 3.0]);
        // Too few: the quarter with the least steal, whatever its values.
        let stolen: Vec<Window> = [5.0, 1.0, 7.0, 2.0, 9.0, 3.0, 8.0, 4.0]
            .iter()
            .zip([0.1, 0.4, 0.05, 0.3, 0.2, 0.6, 0.5, 0.7])
            .map(|(&v, s)| w(v, s))
            .collect();
        assert_eq!(sorted(quiet(&stolen)), vec![5.0, 7.0]);
    }

    #[test]
    fn rate_per_window() {
        let t: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
        for r in window_rates(&t, 1.0, 0.25) {
            assert!((r - 1000.0).abs() < 1e-6);
        }
    }
}
