//! Best-of-R timing, percentiles, process memory and the result line.
//!
//! Every repetition of a workload runs the same operations on the same
//! inputs with fresh program state, so an operation is identified by a
//! `(layer, item)` key that is the same in every repetition. The
//! [`Recorder`] keeps the fastest time seen per key; percentiles and sums
//! are then taken across items, never across repetitions.

use std::collections::HashMap;
use std::time::Duration;

/// Fastest time per `(layer, item)` over all repetitions recorded so far.
#[derive(Debug, Default)]
pub struct Recorder {
    best: HashMap<&'static str, Vec<f64>>,
}

impl Recorder {
    /// Record one timing of `item` in `layer`, keeping the fastest.
    pub fn add(&mut self, layer: &'static str, item: usize, elapsed: Duration) {
        let slots = self.best.entry(layer).or_default();
        if slots.len() <= item {
            slots.resize(item + 1, f64::INFINITY);
        }
        slots[item] = slots[item].min(elapsed.as_secs_f64());
    }

    /// The fastest time (seconds) of every item of `layer` that ran.
    pub fn items(&self, layer: &str) -> Vec<f64> {
        self.best
            .get(layer)
            .map(|slots| slots.iter().copied().filter(|s| s.is_finite()).collect())
            .unwrap_or_default()
    }

    /// Sum of the fastest times (seconds) of every item of `layer`.
    pub fn sum(&self, layer: &str) -> f64 {
        self.items(layer).iter().sum()
    }

    /// Sum over several layers, seconds.
    pub fn sum_of(&self, layers: &[&str]) -> f64 {
        layers.iter().map(|layer| self.sum(layer)).sum()
    }

    /// The `p`-th percentile (0..=100) of the fastest item times, seconds.
    pub fn percentile(&self, layer: &str, p: f64) -> f64 {
        percentile(&self.items(layer), p)
    }
}

/// Linear-interpolation percentile of `values` (`p` in 0..=100); NaN when
/// empty, which the result line refuses to print.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// `numerator / denominator`, 0 when nothing was counted.
pub fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Operations attempted and failed (returned `Err`) across a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. Errors when a metric is not a finite number.
pub fn result_line(correct: bool, ops: Ops, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for metric in metrics {
        if !metric.value.is_finite() {
            return Err(format!("metric {} is not finite", metric.name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 50.0), 2.5);
        assert_eq!(percentile(&values, 100.0), 4.0);
    }

    #[test]
    fn recorder_keeps_the_fastest_per_item() {
        let mut recorder = Recorder::default();
        recorder.add("x", 1, Duration::from_millis(5));
        recorder.add("x", 1, Duration::from_millis(3));
        recorder.add("x", 1, Duration::from_millis(4));
        assert_eq!(recorder.items("x"), vec![0.003]);
    }
}
