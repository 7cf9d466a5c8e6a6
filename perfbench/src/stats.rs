//! Order statistics and the one-line JSON the benchmark prints.

use std::fmt::Write as _;

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by the nearest-rank rule on a
/// sorted copy. `xs` must be non-empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((v.len() - 1) as f64 * q).round() as usize;
    v[rank]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Median wall time, in seconds, of `reps` calls of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// One named metric with its unit, in the order it was recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics; names are unique (a repeated name panics,
/// since it would silently shadow a measurement in the JSON object).
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} recorded twice"
        );
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`. Non-finite values have
    /// no JSON spelling and are a benchmark bug.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }
}

/// A finite f64 in a JSON-valid spelling that keeps every digit (Rust's
/// shortest round-trip form; integral values get no exponent).
pub fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains("e") && !s.contains('.') {
        // `1e20` → `1.0e20`: valid JSON either way, kept explicit.
        s.replacen('e', ".0e", 1)
    } else {
        s
    }
}

/// The benchmark's final stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.9), 5.0);
    }

    #[test]
    fn json_keeps_digits_and_shape() {
        let mut m = Metrics::default();
        m.put("a", 0.1 + 0.2, "ms");
        m.put("b", 3.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 0.30000000000000004, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
        assert_eq!(json_number(1e300), "1.0e300");
    }
}
