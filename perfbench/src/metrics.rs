//! Metric catalogue, summary statistics and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cpu_s", "s"),
    ("sim_cycles_per_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_mem_cycles", "cycles"),
    ("sim_ns_exec_mean", "cycles"),
    ("sim_ns_read_p50", "cycles"),
    ("sim_ns_read_p99", "cycles"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.cpu_step_ns", "ns"),
    ("core.mem_tick_ns", "ns"),
    ("obs.overhead", "ratio"),
    ("wait.sd_sub", "cycles"),
    ("wait.normal_ch", "cycles"),
    ("wait.link", "cycles"),
    ("wait.sd_queue", "cycles"),
    ("wait.cpu_mux", "cycles"),
    ("cpu.steps", "count"),
    ("oram.accesses", "count"),
    ("oram.dummy_frac", "ratio"),
    ("sim_oram_access_cycles", "cycles"),
    ("link.bytes", "bytes"),
    ("dram.row_hit", "ratio"),
    ("dram.util", "ratio"),
    ("sd.refetches", "count"),
    ("sd.freshness_ops", "count"),
    ("sd.recovery_cycles", "cycles"),
    ("trace.record_ns", "ns"),
    ("cpu.step_ns", "ns"),
    ("dram.tick_ns", "ns"),
    ("bob.tick_ns", "ns"),
    ("oram.plan_ns", "ns"),
    ("oram.stash_ns", "ns"),
    ("core.sd_tick_ns", "ns"),
    ("crypto.bucket_mac_ns", "ns"),
    ("crypto.merkle_ns", "ns"),
];

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of letters, digits, `_ / % . -`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The `q`-quantile of the samples `v`, interpolating linearly between
/// the two nearest order statistics (the "inclusive" definition).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of a fixed-width histogram (`buckets[i]` counts values
/// in `[i * width, (i + 1) * width)`), interpolated linearly within the
/// bucket it falls in. `None` when empty or when the quantile lies in the
/// overflow beyond the last bucket.
///
/// Interpolation keeps a quantile from jumping a whole bucket when the
/// seed changes: read latencies of tens of cycles in 8-cycle buckets
/// would otherwise move by 10-20% between seeds.
pub fn histogram_quantile(buckets: &[u64], width: u64, total: u64, q: f64) -> Option<f64> {
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        if count > 0 && (seen + count) as f64 >= target {
            let within = (target - seen as f64) / count as f64;
            return Some((i as f64 + within) * width as f64);
        }
        seen += count;
    }
    None
}

/// Simulated memory cycles per host CPU second.
pub fn cycles_per_cpu_s(sim_cycles: u64, cpu_s: f64) -> f64 {
    sim_cycles as f64 / cpu_s
}

/// Tracing overhead: traced CPU seconds over untraced CPU seconds.
pub fn overhead_ratio(traced_cpu_s: f64, untraced_cpu_s: f64) -> f64 {
    traced_cpu_s / untraced_cpu_s
}

/// One measured metric. `name` and `unit` come from the catalogues.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects the metrics of one run, looking each unit up in a catalogue.
#[derive(Debug)]
pub struct MetricSet {
    catalogue: &'static [(&'static str, &'static str)],
    metrics: Vec<Metric>,
}

impl MetricSet {
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> MetricSet {
        MetricSet {
            catalogue,
            metrics: Vec::new(),
        }
    }

    /// Records `value` under `name`, which must be in the catalogue.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue or recorded twice: both are
    /// bugs in the benchmark.
    pub fn put(&mut self, name: &'static str, value: f64) {
        let &(name, unit) = self
            .catalogue
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} recorded twice"
        );
        self.metrics.push(Metric { name, value, unit });
    }

    /// Catalogue names with no recorded value.
    pub fn missing(&self) -> Vec<&'static str> {
        self.catalogue
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| self.metrics.iter().all(|m| m.name != *n))
            .collect()
    }

    /// Metrics in catalogue order.
    pub fn in_order(&self) -> Vec<&Metric> {
        self.catalogue
            .iter()
            .filter_map(|(n, _)| self.metrics.iter().find(|m| m.name == *n))
            .collect()
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
/// Values print with every digit Rust's shortest round-trip form gives;
/// a non-finite value (not valid JSON) prints as `null`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "metric {name} has bad unit {unit:?}");
        }
        for (i, (a, _)) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|(b, _)| a != b), "{a} listed twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("wait.sd_sub"));
        assert!(valid_name("9lives-ok"));
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
    }

    /// Every catalogue entry appears in `BENCHMARK.json` with the same unit
    /// and in the right section, and nothing else does.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str, next: &str| {
            let start = text.find(key).unwrap_or_else(|| panic!("no {key}"));
            let end = text[start..].find(next).map_or(text.len(), |e| start + e);
            text[start..end].to_string()
        };
        let e2e = section("\"end_to_end\"", "\"per_layer\"");
        let layer = section("\"per_layer\"", "\n}");
        for (part, cat) in [(&e2e, END_TO_END), (&layer, PER_LAYER)] {
            for (name, unit) in cat {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(part.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
            assert_eq!(part.matches("\"name\":").count(), cat.len());
        }
    }

    #[test]
    fn throughput_and_overhead_arithmetic() {
        assert_eq!(cycles_per_cpu_s(1_000_000, 0.5), 2_000_000.0);
        assert_eq!(cycles_per_cpu_s(3, 3.0), 1.0);
        assert_eq!(overhead_ratio(1.5, 1.0), 1.5);
        assert!((overhead_ratio(0.9, 1.2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn interpolated_histogram_quantiles() {
        // 10 values in [0, 8), 30 in [8, 16), 60 in [16, 24).
        let b = [10, 30, 60];
        assert_eq!(histogram_quantile(&b, 8, 100, 0.10), Some(8.0));
        assert_eq!(histogram_quantile(&b, 8, 100, 0.25), Some(12.0));
        assert_eq!(histogram_quantile(&b, 8, 100, 0.70), Some(20.0));
        assert_eq!(histogram_quantile(&b, 8, 100, 1.0), Some(24.0));
        // Empty, or beyond the last bucket (5 values in overflow).
        assert_eq!(histogram_quantile(&[0, 0], 8, 0, 0.5), None);
        assert_eq!(histogram_quantile(&b, 8, 105, 0.99), None);
    }

    #[test]
    fn sample_quantiles() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[3.0], 0.75), 3.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.75), 4.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.75), 3.25);
        assert_eq!(quantile(&[2.0, 1.0], 0.0), 1.0);
        assert_eq!(quantile(&[2.0, 1.0], 1.0), 2.0);
    }

    #[test]
    fn metric_set_orders_and_reports_missing() {
        let mut set = MetricSet::new(END_TO_END);
        set.put("setup_s", 0.25);
        set.put("cpu_s", 1.5);
        let names: Vec<_> = set.in_order().iter().map(|m| m.name).collect();
        assert_eq!(names, ["cpu_s", "setup_s"]);
        assert!(set.missing().contains(&"ok_frac"));
        assert!(!set.missing().contains(&"cpu_s"));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn metric_set_rejects_unknown_names() {
        MetricSet::new(END_TO_END).put("wall_s", 1.0);
    }

    #[test]
    fn result_line_shape() {
        let m = [
            Metric {
                name: "cpu_s",
                value: 1.25,
                unit: "s",
            },
            Metric {
                name: "setup_s",
                value: f64::NAN,
                unit: "s",
            },
        ];
        let refs: Vec<&Metric> = m.iter().collect();
        assert_eq!(
            result_json(true, 12, 0, &refs),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"cpu_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }
}
