//! The result line: metrics by name with units, plus the outcome
//! counts, printed as one JSON object.

/// Named metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric. A non-finite value (a bug in the derivation) is
    /// reported as 0 with a warning, so the result line stays JSON.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("warning: metric {name} is {value}; reporting 0");
            0.0
        };
        self.entries.push((name, value, unit));
    }

    /// One `name = value unit` line per metric.
    pub fn human(&self) -> String {
        self.entries.iter().map(|(n, v, u)| format!("  {n:<34} {v:>14.6} {u}\n")).collect()
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_is_one_json_object_with_the_four_keys() {
        let mut m = Metrics::default();
        m.push("latency_p50_ms", 1.25, "ms");
        m.push("bad", f64::NAN, "ms");
        let line = m.result_json(true, 10, 1);
        let v = serde_json::value_from_str(&line).expect("valid JSON");
        let text = format!("{v:?}");
        for key in ["correct", "attempted", "failed", "metrics", "latency_p50_ms"] {
            assert!(text.contains(key), "{key} missing from {line}");
        }
        assert!(line.contains("\"value\": 1.25"));
        assert!(line.contains("\"bad\": {\"value\": 0,"));
        assert!(!line.contains('\n'));
    }
}
