//! Sample summaries and the metric record every report line is built from.

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (runs, requests or spans).
    pub samples: usize,
    /// Free-text qualifier printed beside the value, e.g. the percentile
    /// a tail metric resolved to.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Nearest-rank quantile (`q` in `[0, 1]`); 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The tail quantile a sample of `n` supports: p99 when at least ten
/// samples lie beyond it, otherwise the highest quantile that still has
/// ten beyond it (never below the median).
pub fn tail_q(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// `p99`, `p88.5`, … for a quantile.
pub fn percentile_label(q: f64) -> String {
    let p = (q * 1000.0).round() / 10.0;
    format!("p{p}")
}

/// Prints one aligned human-readable line per metric.
pub fn print_table(tag: &str, metrics: &[Metric]) {
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!(
            "{tag:<6} {:<36} {:>14.4} {:<6} n={}{note}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The machine-readable result line: `correct`, `attempted`, `failed` and
/// each metric's value and unit.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite number in JSON syntax, with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(2000), 0.99);
        let q = tail_q(100);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ten samples (91..=100) lie beyond the tail value.
        assert_eq!(quantile(&v, q), 90.0);
        assert_eq!(tail_q(5), 0.5);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 3, 0, &[Metric::new("x_ms", 2.0, "ms", 3)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x_ms\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
    }
}
