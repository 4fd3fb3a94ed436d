//! Evaluation harness: run a scheme over a sample of source–destination
//! pairs and aggregate the quantities the paper's tables report.
//!
//! Every evaluator takes the scheme as a [`Target`] (see [`crate::scheme`]),
//! so one evaluator serves labeled and name-independent schemes alike. There
//! is one evaluator per result kind: [`eval`] ([`EvalResult`]),
//! [`sampled_stretch`] ([`SampledStretch`]), [`eval_under_faults`]
//! ([`FaultEvalResult`]) and [`eval_resilient`] ([`RecoveryEvalResult`]),
//! plus [`eval_par`], which splits [`eval`]'s fold across threads.
//!
//! # Observers
//!
//! Each serial evaluator takes a per-pair observer, the seam telemetry
//! layers attach to without this crate depending on them (pass
//! `|_, _, _| {}` to observe nothing). The contract is the same for all
//! of them: the observer is called exactly once per *attempted* pair, in
//! pair order, after the evaluator has verified and folded the pair's
//! outcome. Pairs a fault evaluator skips for a dead endpoint are not
//! attempted and are not observed. Observation never changes the result.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use doubling_metric::graph::NodeId;
use doubling_metric::provider::DistanceProvider;
use doubling_metric::space::MetricSpace;

use crate::faults::{FaultPlan, FaultTimeline};
use crate::recovery::{DeliveryOutcome, LossReason, RecoveryEvent, ResilientRouter};
use crate::route::{Route, RouteError};
use crate::scheme::Target;

/// Aggregated measurements for one scheme on one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// Scheme display name.
    pub scheme: &'static str,
    /// Worst stretch over all routed pairs.
    pub max_stretch: f64,
    /// Mean stretch.
    pub avg_stretch: f64,
    /// Number of routed pairs.
    pub routes: usize,
    /// Number of failed routes (must be 0 for correct schemes).
    pub failures: usize,
    /// Largest per-node table, in bits.
    pub max_table_bits: u64,
    /// Mean per-node table, in bits.
    pub avg_table_bits: f64,
    /// Largest header observed on any hop of any route, in bits.
    pub max_header_bits: u64,
    /// Routed pairs whose measured stretch fell below 1 (beyond float
    /// tolerance). A correct simulator never under-charges a route, so any
    /// nonzero value flags an accounting bug; it is surfaced here instead
    /// of being silently clamped away.
    pub understretch: usize,
}

/// Float tolerance below which a stretch value counts as an under-stretch
/// accounting violation rather than rounding noise. Public so external
/// auditors (the `conform` crate) apply the same tolerance when they
/// cross-check route costs against [`doubling_metric::shortest_paths::Apsp`].
pub const UNDERSTRETCH_TOL: f64 = 1e-9;

/// Whether a measured stretch is an under-stretch accounting violation:
/// strictly below `1 - UNDERSTRETCH_TOL`. The one rule every counter of
/// under-stretch routes applies.
pub fn is_understretch(stretch: f64) -> bool {
    stretch < 1.0 - UNDERSTRETCH_TOL
}

fn count_understretch(stretches: &[f64]) -> usize {
    stretches.iter().filter(|&&s| is_understretch(s)).count()
}

/// `(max, mean)` of the stretches, `(1.0, 1.0)` when there are none. No
/// clamping: an observed max below 1.0 is a real signal and is reported
/// as-is, with the violation count kept separately.
fn max_and_mean(stretches: &[f64]) -> (f64, f64) {
    if stretches.is_empty() {
        return (1.0, 1.0);
    }
    let max = stretches.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (max, stretches.iter().sum::<f64>() / stretches.len() as f64)
}

impl EvalResult {
    fn from_parts(
        scheme: &'static str,
        stretches: &[f64],
        failures: usize,
        tables: &[u64],
        max_header_bits: u64,
    ) -> Self {
        let (max_stretch, avg_stretch) = max_and_mean(stretches);
        let max_table_bits = tables.iter().cloned().max().unwrap_or(0);
        let avg_table_bits = if tables.is_empty() {
            0.0
        } else {
            tables.iter().sum::<u64>() as f64 / tables.len() as f64
        };
        EvalResult {
            scheme,
            max_stretch,
            avg_stretch,
            routes: stretches.len(),
            failures,
            max_table_bits,
            avg_table_bits,
            max_header_bits,
            understretch: count_understretch(stretches),
        }
    }
}

/// Deterministic sample of `count` ordered pairs of distinct nodes.
pub fn sample_pairs(n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    assert!(n >= 2, "need at least two nodes to sample pairs");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let u = rng.gen_range(0..n) as NodeId;
            let mut v = rng.gen_range(0..n - 1) as NodeId;
            if v >= u {
                v += 1;
            }
            (u, v)
        })
        .collect()
}

/// All ordered pairs of distinct nodes (use only for small `n`).
pub fn all_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::with_capacity(n * (n - 1));
    for u in 0..n as NodeId {
        for v in 0..n as NodeId {
            if u != v {
                out.push((u, v));
            }
        }
    }
    out
}

/// The per-pair fold behind [`eval`] and [`eval_par`]: verified routes,
/// in pair order.
#[derive(Default)]
struct EvalFold {
    stretches: Vec<f64>,
    failures: usize,
    max_header: u64,
}

impl EvalFold {
    fn add(&mut self, m: &MetricSpace, v: NodeId, res: &Result<Route, RouteError>) {
        match res {
            Ok(r) => {
                assert_eq!(r.dst, v, "route delivered to the wrong node");
                r.verify(m).expect("route must verify");
                self.max_header = self.max_header.max(r.max_header_bits);
                self.stretches.push(r.stretch(m));
            }
            Err(_) => self.failures += 1,
        }
    }

    fn finish(self, target: &dyn Target, m: &MetricSpace) -> EvalResult {
        let tables: Vec<u64> = (0..m.n() as NodeId).map(|u| target.table_bits(u)).collect();
        EvalResult::from_parts(
            target.scheme_name(),
            &self.stretches,
            self.failures,
            &tables,
            self.max_header,
        )
    }
}

/// Evaluates a scheme over the given pairs, verifying every route, and
/// calls `observe(u, v, outcome)` per pair (see the
/// [module docs](self#observers)).
///
/// # Panics
///
/// Panics if a delivered route fails trace verification or ends at the
/// wrong node — those are simulator-level invariants, not measurements.
pub fn eval<F>(
    target: &dyn Target,
    m: &MetricSpace,
    pairs: &[(NodeId, NodeId)],
    mut observe: F,
) -> EvalResult
where
    F: FnMut(NodeId, NodeId, &Result<Route, RouteError>),
{
    let mut fold = EvalFold { stretches: Vec::with_capacity(pairs.len()), ..EvalFold::default() };
    for &(u, v) in pairs {
        let res = target.route_to(m, u, v);
        fold.add(m, v, &res);
        observe(u, v, &res);
    }
    fold.finish(target, m)
}

/// [`eval`] without an observer, with the pairs split across `threads` OS
/// threads (schemes route through `&self`, so any `Sync` target works).
/// Chunks fold in pair order and merge in chunk order, so the result is
/// identical to [`eval`]'s, floating-point sums included.
///
/// # Panics
///
/// As [`eval`].
pub fn eval_par(
    target: &(dyn Target + Sync),
    m: &MetricSpace,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> EvalResult {
    let threads = threads.max(1).min(pairs.len().max(1));
    let chunk = pairs.len().div_ceil(threads).max(1);
    let partials: Vec<EvalFold> = std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|slice| {
                s.spawn(move || {
                    let mut fold = EvalFold::default();
                    for &(u, v) in slice {
                        fold.add(m, v, &target.route_to(m, u, v));
                    }
                    fold
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let mut fold = EvalFold { stretches: Vec::with_capacity(pairs.len()), ..EvalFold::default() };
    for p in partials {
        fold.stretches.extend(p.stretches);
        fold.failures += p.failures;
        fold.max_header = fold.max_header.max(p.max_header);
    }
    fold.finish(target, m)
}

/// Sampled-pair stretch statistics with a 95% confidence interval on the
/// mean, produced by [`sampled_stretch`].
///
/// The point statistics (`mean`, `p99`, `max`) use the backend's
/// [`DistanceProvider::dist`] as denominator. With an exact backend they
/// equal the exhaustive statistics restricted to the sampled pairs and
/// `mean_upper == mean`; with an estimated backend the true per-pair
/// stretch lies in `[point, upper]` (the provider's `dist` is an upper
/// bound on the true distance), so the true sampled mean lies in
/// `[mean, mean_upper]`. `ci_half_width` is the *sampling* error only:
/// `1.96 · s / √k` over the point values (normal approximation), so with
/// an exact backend and seeded pairs the exhaustive mean is expected
/// inside `mean ± ci_half_width` on ≈95% of sample seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledStretch {
    /// Pairs routed.
    pub pairs: usize,
    /// Routes that returned an error (excluded from the statistics).
    pub failures: usize,
    /// Mean point stretch over delivered routes (1.0 when none).
    pub mean: f64,
    /// 95% CI half-width on `mean` (sampling error; 0.0 for < 2 routes).
    pub ci_half_width: f64,
    /// 99th-percentile point stretch ([`StretchQuantiles`] convention).
    pub p99: f64,
    /// Worst point stretch.
    pub max: f64,
    /// Mean stretch using the provider's *lower* distance bounds as
    /// denominators — equals `mean` for exact backends, an upper bound on
    /// the true sampled mean otherwise.
    pub mean_upper: f64,
    /// Whether the backend was exact ([`DistanceProvider::is_exact`]).
    pub exact: bool,
}

impl SampledStretch {
    /// Aggregates `(cost, bounds)` observations in pair order (the order
    /// fixes the floating-point summation, keeping documents
    /// byte-identical for a given pair sample).
    fn from_observations(
        obs: &[(u64, doubling_metric::DistBounds)],
        failures: usize,
        exact: bool,
    ) -> Self {
        let points: Vec<f64> = obs.iter().map(|&(c, b)| c as f64 / b.upper.max(1) as f64).collect();
        let uppers: Vec<f64> = obs.iter().map(|&(c, b)| c as f64 / b.lower.max(1) as f64).collect();
        if points.is_empty() {
            return SampledStretch {
                pairs: failures,
                failures,
                mean: 1.0,
                ci_half_width: 0.0,
                p99: 1.0,
                max: 1.0,
                mean_upper: 1.0,
                exact,
            };
        }
        let k = points.len() as f64;
        let mean = points.iter().sum::<f64>() / k;
        let mean_upper = uppers.iter().sum::<f64>() / k;
        let ci_half_width = if points.len() >= 2 {
            let var = points.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (k - 1.0);
            1.96 * (var / k).sqrt()
        } else {
            0.0
        };
        let q = StretchQuantiles::from_stretches(&points);
        SampledStretch {
            pairs: obs.len() + failures,
            failures,
            mean,
            ci_half_width,
            p99: q.p99,
            max: q.max,
            mean_upper,
            exact,
        }
    }
}

/// Evaluates a scheme over sampled pairs, taking stretch denominators
/// from `provider` instead of the dense matrix — the scalable evaluation
/// path — and calls `observe(u, v, outcome)` per pair (see the
/// [module docs](self#observers)). Routing still simulates over `m`
/// (schemes walk real shortest-path trees); only the *measurement*
/// denominator goes through the backend, which is what lets
/// certification-grade exactness be traded for `O(k·n)` memory at large
/// `n`.
///
/// # Panics
///
/// Panics if a delivered route fails verification or ends at the wrong
/// node, or if `provider` covers a different node count than `m`.
pub fn sampled_stretch<F>(
    target: &dyn Target,
    m: &MetricSpace,
    provider: &dyn DistanceProvider,
    pairs: &[(NodeId, NodeId)],
    mut observe: F,
) -> SampledStretch
where
    F: FnMut(NodeId, NodeId, &Result<Route, RouteError>),
{
    assert_eq!(provider.n(), m.n(), "provider covers a different node count");
    let mut obs = Vec::with_capacity(pairs.len());
    let mut failures = 0usize;
    for &(u, v) in pairs {
        let res = target.route_to(m, u, v);
        match &res {
            Ok(r) => {
                assert_eq!(r.dst, v, "route delivered to the wrong node");
                r.verify(m).expect("route must verify");
                obs.push((r.cost, provider.dist_bounds(u, v)));
            }
            Err(_) => failures += 1,
        }
        observe(u, v, &res);
    }
    SampledStretch::from_observations(&obs, failures, provider.is_exact())
}

/// Aggregated measurements for one scheme routing under a [`FaultPlan`].
///
/// Reachability follows the DRFE-R convention: the denominator is the set
/// of sampled pairs whose *endpoints* both survive (a dead endpoint is a
/// lost customer, not a routing failure), and a pair counts as delivered
/// only if the scheme's path avoided every casualty.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvalResult {
    /// Scheme display name.
    pub scheme: &'static str,
    /// Pairs attempted (both endpoints alive).
    pub attempted: usize,
    /// Pairs delivered (path avoided all dead nodes/edges).
    pub delivered: usize,
    /// `delivered / attempted` (1.0 when nothing was attempted).
    pub reachability: f64,
    /// Mean stretch over delivered routes.
    pub avg_stretch: f64,
    /// Worst stretch over delivered routes.
    pub max_stretch: f64,
    /// Routes lost entering a dead node.
    pub lost_to_node: usize,
    /// Routes lost crossing a dead edge.
    pub lost_to_edge: usize,
    /// Routes lost to non-fault scheme errors (must stay 0 for correct
    /// schemes).
    pub lost_other: usize,
    /// Delivered routes whose measured stretch fell below 1 (see
    /// [`EvalResult::understretch`]).
    pub understretch: usize,
}

impl FaultEvalResult {
    fn from_outcomes(
        scheme: &'static str,
        attempted: usize,
        stretches: &[f64],
        lost_to_node: usize,
        lost_to_edge: usize,
        lost_other: usize,
    ) -> Self {
        let delivered = stretches.len();
        let reachability = if attempted == 0 { 1.0 } else { delivered as f64 / attempted as f64 };
        let (max_stretch, avg_stretch) = max_and_mean(stretches);
        FaultEvalResult {
            scheme,
            attempted,
            delivered,
            reachability,
            avg_stretch,
            max_stretch,
            lost_to_node,
            lost_to_edge,
            lost_other,
            understretch: count_understretch(stretches),
        }
    }
}

/// Evaluates a scheme routing with *stale tables* under `faults`
/// ([`Target::route_with_faults`]): reachability, surviving-route
/// stretch, and loss breakdown. `observe(u, v, outcome)` sees each
/// attempted pair, so every individual loss is attributable (see the
/// [module docs](self#observers)).
///
/// # Panics
///
/// Panics if a delivered route fails verification or ends at the wrong
/// node.
pub fn eval_under_faults<F>(
    target: &dyn Target,
    m: &MetricSpace,
    faults: &FaultPlan,
    pairs: &[(NodeId, NodeId)],
    mut observe: F,
) -> FaultEvalResult
where
    F: FnMut(NodeId, NodeId, &Result<Route, RouteError>),
{
    let mut stretches = Vec::new();
    let mut attempted = 0usize;
    let (mut lost_node, mut lost_edge, mut lost_other) = (0usize, 0usize, 0usize);
    for &(u, v) in pairs {
        if faults.is_node_dead(u) || faults.is_node_dead(v) {
            continue; // dead endpoint: out of the denominator entirely
        }
        attempted += 1;
        let res = target.route_with_faults(m, u, v, faults);
        match &res {
            Ok(r) => {
                assert_eq!(r.dst, v, "fault-free delivery must reach the destination");
                r.verify(m).expect("route must verify");
                stretches.push(r.stretch(m));
            }
            Err(RouteError::NodeFailed { .. }) => lost_node += 1,
            Err(RouteError::EdgeFailed { .. }) => lost_edge += 1,
            Err(_) => lost_other += 1,
        }
        observe(u, v, &res);
    }
    let name = target.scheme_name();
    FaultEvalResult::from_outcomes(name, attempted, &stretches, lost_node, lost_edge, lost_other)
}

/// Aggregated measurements for one scheme delivering under a
/// [`FaultTimeline`] with a recovery policy (see
/// [`crate::recovery::ResilientRouter`]).
///
/// The denominator convention matches [`FaultEvalResult`]: pairs with an
/// endpoint dead in the timeline's *initial* epoch are out of the
/// denominator (a dead customer, not a routing failure); with the `Drop`
/// policy and a single-epoch timeline the delivered/lost split is
/// identical to [`eval_under_faults`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvalResult {
    /// Scheme display name.
    pub scheme: &'static str,
    /// The recovery policy, in its canonical `Display` spelling (parse it
    /// back with [`crate::recovery::RecoveryPolicy::parse`]).
    pub policy: String,
    /// Pairs attempted (both endpoints alive initially).
    pub attempted: usize,
    /// Pairs delivered (possibly after recoveries).
    pub delivered: usize,
    /// `delivered / attempted` (1.0 when nothing was attempted).
    pub delivered_fraction: f64,
    /// Mean stretch over delivered routes (detours included in the cost).
    pub avg_stretch: f64,
    /// Worst stretch over delivered routes.
    pub max_stretch: f64,
    /// Total successful recovery interventions across delivered *and*
    /// lost packets.
    pub recoveries: usize,
    /// Total extra hops spent inside detours, over delivered packets.
    pub detour_hops: usize,
    /// Losses where the final casualty was a dead node and the policy
    /// offered no way out.
    pub lost_to_node: usize,
    /// Losses where the final casualty was a dead edge.
    pub lost_to_edge: usize,
    /// Losses where the destination was unreachable in the surviving
    /// graph (no policy could have delivered; includes dead sources).
    pub lost_unreachable: usize,
    /// Losses where the destination was still reachable but the recovery
    /// budget (TTL / climbs) ran out first.
    pub lost_exhausted: usize,
    /// Losses to anything else — hop-budget trips and scheme errors
    /// (must stay 0 for correct schemes).
    pub lost_other: usize,
    /// Delivered routes whose measured stretch fell below 1 (see
    /// [`EvalResult::understretch`]).
    pub understretch: usize,
}

/// Evaluates a scheme delivering under `timeline` through `router`,
/// applying the router's recovery policy: delivered fraction, stretch of
/// survivors (detours included), recovery/detour totals, and a loss
/// taxonomy. `on_event(u, v, ev)` fires for every recovery decision
/// mid-delivery, and `observe(u, v, outcome)` once per attempted pair
/// (see the [module docs](self#observers)); pairs skipped for dead
/// endpoints see neither hook.
///
/// # Panics
///
/// Panics if a delivered route misdelivers, fails [`Route::verify`], or
/// does not replay cleanly under [`FaultTimeline::check_route`] — those
/// are simulator invariants, not measurements.
pub fn eval_resilient<E, O>(
    router: &ResilientRouter<'_>,
    target: &dyn Target,
    timeline: &FaultTimeline,
    pairs: &[(NodeId, NodeId)],
    mut on_event: E,
    mut observe: O,
) -> RecoveryEvalResult
where
    E: FnMut(NodeId, NodeId, &RecoveryEvent),
    O: FnMut(NodeId, NodeId, &DeliveryOutcome),
{
    let m = router.metric();
    let initial = timeline.initial();
    let mut stretches = Vec::new();
    let mut attempted = 0usize;
    let mut recoveries_total = 0usize;
    let mut detour_hops_total = 0usize;
    let (mut lost_node, mut lost_edge) = (0usize, 0usize);
    let (mut lost_unreachable, mut lost_exhausted, mut lost_other) = (0usize, 0usize, 0usize);
    for &(u, v) in pairs {
        if initial.is_node_dead(u) || initial.is_node_dead(v) {
            continue; // dead endpoint: out of the denominator entirely
        }
        attempted += 1;
        let outcome = router.deliver(target, u, v, timeline, &mut |ev| on_event(u, v, ev));
        match &outcome {
            DeliveryOutcome::Delivered { stretch, detour_hops, recoveries, route } => {
                assert_eq!(route.dst, v, "resilient delivery must reach the destination");
                route.verify(m).expect("delivered route must verify");
                timeline
                    .check_route(route)
                    .expect("delivered route must replay cleanly under the timeline");
                stretches.push(*stretch);
                detour_hops_total += detour_hops;
                recoveries_total += recoveries;
            }
            DeliveryOutcome::Lost { reason, progress } => {
                recoveries_total += progress.recoveries;
                match reason {
                    LossReason::Casualty { error: RouteError::NodeFailed { .. } } => lost_node += 1,
                    LossReason::Casualty { error: RouteError::EdgeFailed { .. } } => lost_edge += 1,
                    LossReason::Casualty { .. } => lost_other += 1,
                    // A dead source never happens here (endpoints are
                    // pre-filtered on the initial epoch), but classify it
                    // with unreachability for robustness.
                    LossReason::SourceDead | LossReason::Unreachable => lost_unreachable += 1,
                    LossReason::RecoveryExhausted => lost_exhausted += 1,
                    LossReason::HopBudget | LossReason::SchemeError { .. } => lost_other += 1,
                }
            }
        }
        observe(u, v, &outcome);
    }
    let delivered = stretches.len();
    let delivered_fraction = if attempted == 0 { 1.0 } else { delivered as f64 / attempted as f64 };
    let (max_stretch, avg_stretch) = max_and_mean(&stretches);
    RecoveryEvalResult {
        scheme: target.scheme_name(),
        policy: router.policy().to_string(),
        attempted,
        delivered,
        delivered_fraction,
        avg_stretch,
        max_stretch,
        recoveries: recoveries_total,
        detour_hops: detour_hops_total,
        lost_to_node: lost_node,
        lost_to_edge: lost_edge,
        lost_unreachable,
        lost_exhausted,
        lost_other,
        understretch: count_understretch(&stretches),
    }
}

/// Stretch quantiles over a set of routed pairs — the measurement behind
/// the paper's concluding open question (can relaxing the guarantee for a
/// small fraction of pairs buy better stretch?): the distribution shows
/// how far below the worst case typical routes sit. The raw stretches
/// come from an [`eval`] observer.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchQuantiles {
    /// Median stretch.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl StretchQuantiles {
    /// Computes quantiles from raw stretch values (empty input yields all
    /// 1.0).
    pub fn from_stretches(stretches: &[f64]) -> Self {
        if stretches.is_empty() {
            return StretchQuantiles { p50: 1.0, p90: 1.0, p99: 1.0, max: 1.0 };
        }
        let mut s = stretches.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("stretches are finite"));
        let at = |q: f64| s[((s.len() - 1) as f64 * q).round() as usize];
        StretchQuantiles { p50: at(0.50), p90: at(0.90), p99: at(0.99), max: *s.last().unwrap() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::FullTable;
    use doubling_metric::gen;

    use crate::naming::Naming;
    use crate::recovery::RecoveryPolicy;
    use crate::route::RouteRecorder;
    use crate::scheme::{ByLabel, ByName, LabeledScheme};
    use doubling_metric::{LandmarkEstimator, OnDemandDijkstra};
    use std::sync::Arc;

    /// Test-only labeled scheme that routes every packet through node 0 —
    /// cheap to build and its stretch actually *varies* across pairs,
    /// unlike [`FullTable`], so sampling statistics are non-degenerate.
    struct HubScheme;

    impl LabeledScheme for HubScheme {
        fn scheme_name(&self) -> &'static str {
            "hub"
        }
        fn label_of(&self, v: NodeId) -> crate::scheme::Label {
            v
        }
        fn label_bits(&self) -> u64 {
            32
        }
        fn table_bits(&self, _u: NodeId) -> u64 {
            64
        }
        fn route(
            &self,
            m: &MetricSpace,
            src: NodeId,
            target: crate::scheme::Label,
        ) -> Result<Route, RouteError> {
            let mut rec = RouteRecorder::new(m, src);
            rec.walk_shortest(0)?;
            rec.walk_shortest(target)?;
            Ok(rec.finish())
        }
    }

    #[test]
    fn sampled_stretch_with_exact_backends_is_identical() {
        let g = Arc::new(gen::grid(6, 6));
        let m = MetricSpace::from_shared(Arc::clone(&g), 1);
        let pairs = sample_pairs(m.n(), 150, 9);
        let via_matrix = sampled_stretch(&ByLabel(&HubScheme), &m, &m, &pairs, |_, _, _| {});
        let lazy = OnDemandDijkstra::new(Arc::clone(&g), 4);
        let via_lazy = sampled_stretch(&ByLabel(&HubScheme), &m, &lazy, &pairs, |_, _, _| {});
        assert_eq!(via_matrix, via_lazy);
        assert!(via_matrix.exact);
        assert_eq!(via_matrix.mean, via_matrix.mean_upper);
        assert!(via_matrix.mean > 1.0, "hub routing must have stretch variance");
        assert!(via_matrix.ci_half_width > 0.0);
        assert!(via_matrix.p99 <= via_matrix.max);
    }

    #[test]
    fn sampled_stretch_landmark_bracket_contains_exact_mean() {
        let g = Arc::new(gen::grid(7, 6));
        let m = MetricSpace::from_shared(Arc::clone(&g), 1);
        let pairs = sample_pairs(m.n(), 200, 4);
        let exact = sampled_stretch(&ByLabel(&HubScheme), &m, &m, &pairs, |_, _, _| {});
        let lm = LandmarkEstimator::new(&g, 6);
        let est = sampled_stretch(&ByLabel(&HubScheme), &m, &lm, &pairs, |_, _, _| {});
        assert!(!est.exact);
        assert!(
            est.mean <= exact.mean + 1e-12 && exact.mean <= est.mean_upper + 1e-12,
            "true mean {} outside landmark bracket [{}, {}]",
            exact.mean,
            est.mean,
            est.mean_upper
        );
    }

    #[test]
    fn sampled_ci_covers_exhaustive_mean_on_at_least_90_percent_of_seeds() {
        let m = MetricSpace::new(&gen::grid(10, 10));
        // Exhaustive oracle value: mean stretch over every ordered pair.
        let truth =
            sampled_stretch(&ByLabel(&HubScheme), &m, &m, &all_pairs(m.n()), |_, _, _| {}).mean;
        let trials = 40usize;
        let covered = (0..trials)
            .filter(|&seed| {
                let pairs = sample_pairs(m.n(), 400, seed as u64);
                let s = sampled_stretch(&ByLabel(&HubScheme), &m, &m, &pairs, |_, _, _| {});
                (s.mean - truth).abs() <= s.ci_half_width
            })
            .count();
        assert!(
            covered * 10 >= trials * 9,
            "CI covered the true mean on only {covered}/{trials} seeds"
        );
    }

    #[test]
    fn sampled_stretch_name_independent_matches_labeled_on_identity_naming() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let nm = Naming::random(16, 5);
        let s = FullTable::with_naming(&m, nm.clone());
        let pairs = sample_pairs(16, 60, 2);
        let res = sampled_stretch(&ByName(&s, &nm), &m, &m, &pairs, |_, _, _| {});
        assert_eq!(res.failures, 0);
        assert!((res.mean - 1.0).abs() < 1e-12);
        assert_eq!(res.ci_half_width, 0.0);
        assert!(res.exact);
    }

    #[test]
    fn sample_pairs_distinct_and_reproducible() {
        let a = sample_pairs(10, 50, 3);
        let b = sample_pairs(10, 50, 3);
        assert_eq!(a, b);
        for &(u, v) in &a {
            assert_ne!(u, v);
            assert!((u as usize) < 10 && (v as usize) < 10);
        }
    }

    #[test]
    fn all_pairs_count() {
        assert_eq!(all_pairs(5).len(), 20);
    }

    #[test]
    fn baseline_eval_has_unit_stretch() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let s = FullTable::new(&m);
        let res = eval(&ByLabel(&s), &m, &all_pairs(25), |_, _, _| {});
        assert_eq!(res.failures, 0);
        assert_eq!(res.routes, 600);
        assert!((res.max_stretch - 1.0).abs() < 1e-12);
        assert!((res.avg_stretch - 1.0).abs() < 1e-12);
        assert!(res.max_table_bits > 0);
    }

    #[test]
    fn baseline_eval_name_independent() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let nm = Naming::random(16, 5);
        let s = FullTable::with_naming(&m, nm.clone());
        let res = eval(&ByName(&s, &nm), &m, &sample_pairs(16, 40, 1), |_, _, _| {});
        assert_eq!(res.failures, 0);
        assert!((res.max_stretch - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_eval_matches_serial() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let s = FullTable::new(&m);
        let pairs = sample_pairs(36, 120, 2);
        let serial = eval(&ByLabel(&s), &m, &pairs, |_, _, _| {});
        for threads in [1usize, 2, 4, 7] {
            let par = eval_par(&ByLabel(&s), &m, &pairs, threads);
            assert_eq!(par.routes, serial.routes);
            assert!((par.max_stretch - serial.max_stretch).abs() < 1e-12);
            assert!((par.avg_stretch - serial.avg_stretch).abs() < 1e-9);
            assert_eq!(par.max_table_bits, serial.max_table_bits);
            assert_eq!(par.max_header_bits, serial.max_header_bits);
        }
    }

    #[test]
    fn parallel_ni_eval_matches_serial() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let nm = Naming::random(25, 3);
        let s = FullTable::with_naming(&m, nm.clone());
        let pairs = sample_pairs(25, 80, 4);
        let serial = eval(&ByName(&s, &nm), &m, &pairs, |_, _, _| {});
        let par = eval_par(&ByName(&s, &nm), &m, &pairs, 3);
        assert_eq!(par.routes, serial.routes);
        assert!((par.avg_stretch - serial.avg_stretch).abs() < 1e-9);
    }

    #[test]
    fn parallel_eval_handles_more_threads_than_pairs() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let s = FullTable::new(&m);
        let pairs = sample_pairs(9, 3, 5);
        let par = eval_par(&ByLabel(&s), &m, &pairs, 64);
        assert_eq!(par.routes, 3);
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let stretches: Vec<f64> = (1..=100).map(|k| k as f64).collect();
        let q = StretchQuantiles::from_stretches(&stretches);
        assert_eq!(q.p50, 51.0);
        assert_eq!(q.p90, 90.0);
        assert_eq!(q.p99, 99.0);
        assert_eq!(q.max, 100.0);
        let empty = StretchQuantiles::from_stretches(&[]);
        assert_eq!(empty.max, 1.0);
    }

    #[test]
    fn understretch_is_surfaced_not_clamped() {
        // A (bogus) stretch below 1.0 must show up both in max_stretch
        // (unclamped) and in the violation counter.
        let res = EvalResult::from_parts("bogus", &[0.5, 0.9, 1.2], 0, &[8], 4);
        assert_eq!(res.understretch, 2);
        assert!((res.max_stretch - 1.2).abs() < 1e-12);
        // Rounding noise just below 1.0 is not a violation.
        let ok = EvalResult::from_parts("ok", &[1.0 - 1e-12, 1.0], 0, &[8], 4);
        assert_eq!(ok.understretch, 0);
        // Empty input keeps the neutral 1.0 convention.
        let empty = EvalResult::from_parts("empty", &[], 3, &[8], 0);
        assert_eq!(empty.max_stretch, 1.0);
        assert_eq!(empty.understretch, 0);
    }

    #[test]
    fn fault_understretch_is_surfaced_not_clamped() {
        let res = FaultEvalResult::from_outcomes("bogus", 4, &[0.8, 1.1], 1, 1, 0);
        assert_eq!(res.understretch, 1);
        assert!((res.max_stretch - 1.1).abs() < 1e-12);
        let empty = FaultEvalResult::from_outcomes("empty", 0, &[], 0, 0, 0);
        assert_eq!(empty.max_stretch, 1.0);
        assert_eq!(empty.understretch, 0);
    }

    /// Records the pairs an observer sees, asserting nothing else.
    fn seen<T: ?Sized>(log: &mut Vec<(NodeId, NodeId)>) -> impl FnMut(NodeId, NodeId, &T) + '_ {
        |u, v, _| log.push((u, v))
    }

    #[test]
    fn observed_eval_sees_every_pair_and_matches_plain() {
        // Every evaluator: the observer sees each attempted pair exactly once,
        // in pair order, and observing never changes the result.
        let m = MetricSpace::new(&gen::grid(5, 5));
        let nm = Naming::random(25, 5);
        let s = FullTable::with_naming(&m, nm.clone());
        let pairs = sample_pairs(25, 60, 9);
        for target in [&ByLabel(&s) as &dyn Target, &ByName(&s, &nm)] {
            let mut log = Vec::new();
            let observed = eval(target, &m, &pairs, seen(&mut log));
            assert_eq!(log, pairs, "eval");
            assert_eq!(observed, eval(target, &m, &pairs, |_, _, _| {}));

            let mut log = Vec::new();
            let observed = sampled_stretch(target, &m, &m, &pairs, seen(&mut log));
            assert_eq!(log, pairs, "sampled_stretch");
            assert_eq!(observed, sampled_stretch(target, &m, &m, &pairs, |_, _, _| {}));

            let faults = FaultPlan::random_nodes(25, 0.2, 11);
            let attempted: Vec<_> = pairs
                .iter()
                .copied()
                .filter(|&(u, v)| !faults.is_node_dead(u) && !faults.is_node_dead(v))
                .collect();
            assert!(attempted.len() < pairs.len(), "some pairs must be skipped");
            let mut log = Vec::new();
            let observed = eval_under_faults(target, &m, &faults, &pairs, seen(&mut log));
            assert_eq!(log, attempted, "eval_under_faults");
            assert_eq!(observed, eval_under_faults(target, &m, &faults, &pairs, |_, _, _| {}));

            let timeline = FaultTimeline::from_plan(faults);
            let router =
                ResilientRouter::without_hierarchy(&m, RecoveryPolicy::LocalDetour { ttl: 8 });
            let mut log = Vec::new();
            let observed =
                eval_resilient(&router, target, &timeline, &pairs, |_, _, _| {}, seen(&mut log));
            assert_eq!(log, attempted, "eval_resilient");
            let plain =
                eval_resilient(&router, target, &timeline, &pairs, |_, _, _| {}, |_, _, _| {});
            assert_eq!(observed, plain);
        }
    }

    #[test]
    fn resilient_drop_single_epoch_matches_legacy_fault_eval() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let s = FullTable::new(&m);
        let pairs = sample_pairs(25, 80, 7);
        let faults = FaultPlan::random_nodes(25, 0.2, 11);
        let legacy = eval_under_faults(&ByLabel(&s), &m, &faults, &pairs, |_, _, _| {});
        let timeline = FaultTimeline::from_plan(faults);
        let router = ResilientRouter::without_hierarchy(&m, RecoveryPolicy::Drop);
        let res =
            eval_resilient(&router, &ByLabel(&s), &timeline, &pairs, |_, _, _| {}, |_, _, _| {});
        assert_eq!(res.attempted, legacy.attempted);
        assert_eq!(res.delivered, legacy.delivered);
        assert_eq!(res.lost_to_node, legacy.lost_to_node);
        assert_eq!(res.lost_to_edge, legacy.lost_to_edge);
        assert_eq!(res.lost_other + res.lost_unreachable + res.lost_exhausted, legacy.lost_other);
        assert!((res.delivered_fraction - legacy.reachability).abs() < 1e-12);
        assert!((res.avg_stretch - legacy.avg_stretch).abs() < 1e-12);
        assert!((res.max_stretch - legacy.max_stretch).abs() < 1e-12);
        assert_eq!(res.recoveries, 0);
        assert_eq!(res.detour_hops, 0);
        assert_eq!(res.policy, "drop");
    }

    #[test]
    fn resilient_detour_delivers_at_least_as_much_as_drop() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let s = FullTable::new(&m);
        let pairs = sample_pairs(36, 120, 3);
        let faults = FaultPlan::random_nodes(36, 0.15, 5);
        let timeline = FaultTimeline::from_plan(faults);
        let drop = eval_resilient(
            &ResilientRouter::without_hierarchy(&m, RecoveryPolicy::Drop),
            &ByLabel(&s),
            &timeline,
            &pairs,
            |_, _, _| {},
            |_, _, _| {},
        );
        let mut events = 0usize;
        let detour = eval_resilient(
            &ResilientRouter::without_hierarchy(&m, RecoveryPolicy::LocalDetour { ttl: 8 }),
            &ByLabel(&s),
            &timeline,
            &pairs,
            |_, _, _| events += 1,
            |_, _, _| {},
        );
        assert_eq!(drop.attempted, detour.attempted);
        assert!(detour.delivered >= drop.delivered);
        assert!(detour.recoveries > 0, "a 15% kill rate must force some detours");
        assert_eq!(events, detour.recoveries + detour.lost_exhausted + detour.lost_unreachable);
    }

    #[test]
    fn resilient_ni_eval_delivers_under_faults() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let nm = Naming::random(25, 5);
        let s = FullTable::with_naming(&m, nm.clone());
        let pairs = sample_pairs(25, 60, 13);
        let faults = FaultPlan::random_nodes(25, 0.2, 17);
        let target = ByName(&s, &nm);
        let legacy = eval_under_faults(&target, &m, &faults, &pairs, |_, _, _| {});
        let timeline = FaultTimeline::from_plan(faults);
        let resilient = |policy| {
            let router = ResilientRouter::without_hierarchy(&m, policy);
            eval_resilient(&router, &target, &timeline, &pairs, |_, _, _| {}, |_, _, _| {})
        };
        let drop = resilient(RecoveryPolicy::Drop);
        assert_eq!(drop.delivered, legacy.delivered);
        assert_eq!(drop.attempted, legacy.attempted);
        let detour = resilient(RecoveryPolicy::LocalDetour { ttl: 8 });
        assert!(detour.delivered >= drop.delivered);
    }

    #[test]
    fn stretch_samples_match_eval() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let nm = Naming::random(16, 5);
        let s = FullTable::with_naming(&m, nm.clone());
        let pairs = sample_pairs(16, 30, 1);
        let mut samples = Vec::new();
        eval(&ByName(&s, &nm), &m, &pairs, |_, _, r| samples.push(r.as_ref().unwrap().stretch(&m)));
        assert_eq!(samples.len(), 30);
        assert!(samples.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }
}
