//! The benchmark's own tests: seeded inputs, metric names against
//! `BENCHMARK.json`, and tiny runs of every workload.

use std::collections::BTreeSet;

use netsim::json::Value;
use perfbench::report::result_line;
use perfbench::rng::Rng;
use perfbench::stream::{uniform_pair, ChurnSchedule, Zipf, ZipfStream, CHURN_CYCLE, CYCLE};
use perfbench::workload::{run, Config, Outcome, Workload};

fn pairs(n: usize, seed: u64, count: usize) -> Vec<(u32, u32)> {
    let mut s = ZipfStream::new(n, seed);
    (0..count).map(|_| s.next_pair()).collect()
}

#[test]
fn same_seed_reproduces_the_inputs_and_another_seed_changes_them() {
    let count = CYCLE as usize + 1_000;
    assert_eq!(pairs(1024, 1, count), pairs(1024, 1, count));
    assert_ne!(pairs(1024, 1, count), pairs(1024, 2, count));

    let batches = |seed| {
        let mut c = ChurnSchedule::new(256, 0, seed);
        (0..4 * CHURN_CYCLE).map(|_| c.next_batch()).collect::<Vec<_>>()
    };
    assert_eq!(batches(5), batches(5));
    assert_ne!(batches(5), batches(6));

    let active: Vec<u32> = (0..100).collect();
    let uniform = |seed| {
        let mut rng = Rng::new(seed);
        (0..500).map(|_| uniform_pair(&mut rng, &active)).collect::<Vec<_>>()
    };
    assert_eq!(uniform(3), uniform(3));
    assert_ne!(uniform(3), uniform(4));
    assert!(uniform(3).iter().all(|(u, v)| u != v));
}

#[test]
fn zipf_stream_is_skewed_with_hot_bursts() {
    let zipf = Zipf::new(1_000_000);
    let mut rng = Rng::new(9);
    let mut counts = [0u32; 3];
    for _ in 0..200_000 {
        let r = zipf.sample(&mut rng);
        assert!((1..=1_000_000).contains(&r));
        if r <= 2 {
            counts[r as usize] += 1;
        }
    }
    // Zipf(1): rank 1 is drawn twice as often as rank 2.
    let ratio = counts[1] as f64 / counts[2] as f64;
    assert!((1.8..2.2).contains(&ratio), "rank-1/rank-2 ratio {ratio}");

    let p = pairs(64, 3, CYCLE as usize);
    assert!(p.iter().all(|(u, v)| u != v && *u < 64 && *v < 64));
    // Queries 8000..12000 of a cycle are the hot-64 burst.
    let burst: BTreeSet<_> = p[8_000..12_000].iter().collect();
    assert!(burst.len() <= 64, "burst drew {} distinct pairs", burst.len());
    let steady: BTreeSet<_> = p[..8_000].iter().collect();
    assert!(steady.len() > 256, "steady phase drew only {} distinct pairs", steady.len());
}

#[test]
fn churn_comes_in_leave_rejoin_pairs_led_by_the_target() {
    let mut c = ChurnSchedule::new(64, 7, 11);
    for step in (0..5 * CHURN_CYCLE).step_by(2) {
        let leave = c.next_batch();
        assert!(leave.joins.is_empty() && leave.leaves.len() == 1);
        if step % CHURN_CYCLE == 0 {
            assert_eq!(leave.leaves, vec![7], "each cycle opens with the targeted leave");
        }
        assert_eq!(c.active().len(), 63);
        let rejoin = c.next_batch();
        assert_eq!(rejoin.joins, leave.leaves);
        assert!(rejoin.leaves.is_empty());
        assert_eq!(c.active().len(), 64);
    }
}

/// `(end_to_end, per_layer)` metric names declared in `BENCHMARK.json`.
fn declared() -> (Vec<String>, Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).expect("named").to_string())
            .collect()
    };
    (names("end_to_end"), names("per_layer"))
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let mut cfg = Config::new(workload, 7, 0.05, trace);
    cfg.n = 36;
    run(&cfg)
}

fn names(o: &Outcome) -> Vec<String> {
    o.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let (e2e, layer) = declared();
    let all: Vec<&String> = e2e.iter().chain(&layer).collect();
    let unique: BTreeSet<_> = all.iter().collect();
    assert_eq!(unique.len(), all.len(), "a metric name is used twice");
    for name in all {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()),
            "bad metric name {name:?}"
        );
    }
    for required in ["setup_s", "qps", "latency_p50_us", "latency_p99_us", "update_p50_ms"] {
        assert!(e2e.iter().any(|n| n == required), "{required} missing");
    }
}

/// Runs `workload` tiny, untraced and traced, and checks that each run
/// reports exactly the declared metrics, every one finite, and that no
/// operation failed.
fn check_tiny_run(workload: Workload) {
    let (e2e, layer) = declared();
    for (trace, want) in [(false, &e2e), (true, &layer)] {
        let o = tiny(workload, trace);
        assert_eq!(&names(&o), want, "{} trace={trace}: reported metrics", workload.name());
        assert!(o.metrics.iter().all(|m| m.value.is_finite()), "{:?}", o.metrics);
        let line = Value::parse(&result_line(&o)).expect("result line is JSON");
        assert_eq!(line.get("attempted").and_then(Value::as_u64), Some(o.attempted));
        assert_eq!(
            o.failed,
            0,
            "{} trace={trace}: fail_rate {}/{}: {:?}; first: {:?}",
            workload.name(),
            o.failed,
            o.attempted,
            o.failures,
            o.first_failure
        );
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        if !trace {
            assert!(
                o.metrics.iter().all(|m| m.value > 0.0),
                "an end-to-end metric is 0: {:?}",
                o.metrics
            );
        }
    }
}

#[test]
fn tiny_labeled_zipf_reports_every_metric_without_failures() {
    check_tiny_run(Workload::LabeledZipf);
}

#[test]
fn tiny_named_zipf_reports_every_metric_without_failures() {
    check_tiny_run(Workload::NamedZipf);
}

#[test]
fn tiny_churn_mixed_reports_every_metric_without_failures() {
    check_tiny_run(Workload::ChurnMixed);
}
