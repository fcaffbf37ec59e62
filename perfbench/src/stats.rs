//! Order statistics and the metric record the benchmark prints.

use std::fmt::Write as _;

/// Quantile `q` in `[0, 1]` by linear interpolation between order
/// statistics (the "inclusive" definition); 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            Some(entry) => *entry = (name, value, unit),
            None => self.entries.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    pub fn extend(&mut self, other: Metrics) {
        for (name, value, unit) in other.entries {
            self.set(name, value, unit);
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_the_inclusive_method() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metrics_render_as_named_values_with_units() {
        let mut m = Metrics::default();
        m.set("a", 1.5, "ms");
        m.set("b", f64::NAN, "count");
        m.set("a", 2.0, "ms");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 2.0, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}"
        );
    }
}
