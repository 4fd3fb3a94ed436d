//! The run's output: a readable summary, then one JSON result line.

use crate::workload::{Config, Outcome};

/// Whether a run passed every check and measured every metric.
pub fn correct(o: &Outcome) -> bool {
    o.failed == 0 && o.metrics.iter().all(|m| m.value.is_finite())
}

/// The final stdout line: `correct`, `attempted`, `failed` and every
/// metric with its value and unit.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { format!("{}", m.value) } else { "null".into() };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct(o),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Readable lines: what ran, every metric with its unit, sample counts,
/// the route digest and any failure.
pub fn summary(cfg: &Config, o: &Outcome) -> Vec<String> {
    let mut lines = vec![format!(
        "workload {} seed {} n {} seconds {} trace {} setups {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.n,
        cfg.seconds,
        cfg.trace as u8,
        o.setups
    )];
    for m in &o.metrics {
        lines.push(format!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit));
    }
    lines.push(format!(
        "latency samples {} (at most {} beyond p99); update samples {}",
        o.latency_samples,
        o.latency_samples - (o.latency_samples * 99).div_ceil(100),
        o.update_samples
    ));
    lines
        .push(format!("route digest {:016x} over the first {} routes", o.digest, o.digest_queries));
    lines.push(format!(
        "attempted {} failed {} fail_rate {} {:?}",
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failures
    ));
    if let Some(f) = &o.first_failure {
        lines.push(format!("first failure: {f}"));
    }
    lines
}
