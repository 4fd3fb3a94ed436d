//! The three workloads and the run that measures them.
//!
//! A run sets the deployment up at least [`SETUP_MIN`] times (reporting
//! the median), then drives it from one client thread in a closed loop: each
//! forwarding call returns before the next is made. Every served route is
//! checked, untimed, against the reference scheme, and every churn batch
//! against its audits and the epoch gate.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use doubling_metric::{gen, Eps, MetricSpace, NodeId};
use netsim::maintain::MaintainError;
use netsim::plane::ForwardingPlane;
use netsim::route::{Route, RouteError};
use netsim::Naming;

use crate::rng::Rng;
use crate::schemes::{Ingress, Kind, Scheme};
use crate::stats::{median, peak_rss_mb, quantile, Latencies};
use crate::stream::{uniform_pair, ChurnSchedule, ZipfStream, CHURN_CYCLE};
use crate::trace::Tracer;

/// 1/ε for every scheme.
pub const EPS_INV: u64 = 8;
/// Queries generated, then served, then verified at a time.
const CHUNK: usize = 2_048;
/// The first queries of a run, served and verified but left out of `qps`
/// and latency.
const WARMUP_QUERIES: u64 = CHUNK as u64;
/// Pairs each batch's spot audit routes.
const AUDIT_PAIRS: usize = 16;
/// Queries served after each `churn-mixed` batch.
const CHURN_SLICE: usize = 64;
/// Batches a run makes at least, so `update_p90_ms` has ten samples
/// beyond it; runs end on a whole churn cycle. `named-zipf` is the
/// exception (see [`Workload::min_batches`]).
const MIN_CHURN_BATCHES: usize = 100;
/// Share of a `*-zipf` run's measured time given to churn batches; they
/// run whole churn cycles, at least [`Workload::min_batches`].
const ZIPF_UPDATE_SHARE: f64 = 0.5;
/// Set-ups a run makes at least; `setup_s` is their median.
const SETUP_MIN: usize = 3;
/// Set-ups continue past [`SETUP_MIN`] until they have taken this many
/// seconds in all, so a cheap set-up's median rests on more samples.
const SETUP_MIN_S: f64 = 5.0;
/// Set-ups a run makes at most.
const SETUP_MAX: usize = 25;
/// Reference fingerprints kept before the cache is cleared.
const REFERENCE_CAP: usize = 50_000;
/// Served queries folded into the route digest.
const DIGEST_QUERIES: u64 = 4_096;
/// Route segment labels reported per query; hops outside them count as
/// `other`.
pub const SEGMENTS: [&str; 7] =
    ["ring-walk", "to-center", "tree-search", "to-target", "zoom", "search", "final"];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Labeled planes, labeled ingress, Zipf pairs; grid n = 1024.
    LabeledZipf,
    /// Name-independent planes, name ingress, Zipf pairs; grid n = 2025.
    NamedZipf,
    /// All four planes under single-node churn, uniform mixed-ingress
    /// pairs between batches; grid n = 256.
    ChurnMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::LabeledZipf, Workload::NamedZipf, Workload::ChurnMixed];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LabeledZipf => "labeled-zipf",
            Workload::NamedZipf => "named-zipf",
            Workload::ChurnMixed => "churn-mixed",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Grid size (a square).
    pub fn default_n(self) -> usize {
        match self {
            Workload::LabeledZipf => 1024,
            Workload::NamedZipf => 2025,
            Workload::ChurnMixed => 256,
        }
    }

    /// Churn batches a run makes at least. A `named-zipf` batch takes
    /// seconds, so it makes one cycle, and its `update_p90_ms` is the
    /// largest of [`CHURN_CYCLE`] batches.
    fn min_batches(self) -> usize {
        match self {
            Workload::NamedZipf => CHURN_CYCLE,
            Workload::LabeledZipf | Workload::ChurnMixed => MIN_CHURN_BATCHES,
        }
    }

    fn kinds(self) -> &'static [Kind] {
        match self {
            Workload::LabeledZipf => &[Kind::NetLabeled, Kind::ScaleFreeLabeled],
            Workload::NamedZipf => &[Kind::SimpleNi, Kind::ScaleFreeNi],
            Workload::ChurnMixed => {
                &[Kind::NetLabeled, Kind::ScaleFreeLabeled, Kind::SimpleNi, Kind::ScaleFreeNi]
            }
        }
    }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Measured time: serving plus churn batches, excluding set-up and
    /// verification.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Grid size; must be a square.
    pub n: usize,
    /// Where a traced run writes its span log.
    pub span_log: Option<std::path::PathBuf>,
}

impl Config {
    /// The run of `workload` at its default size.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config { workload, seed, seconds, trace, n: workload.default_n(), span_log: None }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Checks that failed, by kind. A query stops at its first failed check;
/// a batch counts every check it fails here, and once in
/// [`Outcome::failed`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Failures {
    /// A plane returned a route error.
    pub route_errors: u64,
    /// A route ended somewhere other than its destination.
    pub misdelivered: u64,
    /// A plane's route differed from the reference scheme's.
    pub divergences: u64,
    /// A plane's `next_hop` disagreed with its route's first hop (traced
    /// runs only).
    pub next_hop_mismatches: u64,
    /// A maintainer refused a batch.
    pub batches_rejected: u64,
    /// A spot audit failed (even if the rebuild fallback recovered).
    pub audits_failed: u64,
    /// A plane compiled before a committed batch passed the epoch check.
    pub stale_accepted: u64,
    /// A freshly compiled plane failed the epoch check.
    pub fresh_refused: u64,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted: set-ups, queries and batches.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The failures, by kind.
    pub failures: Failures,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// FNV digest of the first [`DIGEST_QUERIES`] served routes.
    pub digest: u64,
    /// Routes in the digest.
    pub digest_queries: u64,
    /// Set-ups behind `setup_s`.
    pub setups: usize,
    /// Latency samples behind the quantiles.
    pub latency_samples: usize,
    /// Update samples behind the update quantiles.
    pub update_samples: usize,
    /// First failure seen, for the report.
    pub first_failure: Option<String>,
}

/// The deployment a set-up produces.
struct Deployment {
    m: MetricSpace,
    schemes: Vec<Scheme>,
    planes: Vec<Box<dyn ForwardingPlane>>,
}

/// Served-query bookkeeping.
#[derive(Default)]
struct Tally {
    queries: u64,
    measured: u64,
    serve_ns: u64,
    latencies: Latencies,
    routes_ok: u64,
    stretch_sum: f64,
    seg_hops: BTreeMap<&'static str, u64>,
    allocs: u64,
    alloc_bytes: u64,
    digest: u64,
    digest_n: u64,
    /// Reference-route fingerprints by (plane, source, ingress); cleared
    /// after every batch (routes change) and when it reaches
    /// [`REFERENCE_CAP`] entries.
    reference: HashMap<(usize, NodeId, Ingress), u64>,
}

/// Maintenance bookkeeping.
#[derive(Default)]
struct MaintainTally {
    batches: u64,
    blast_sum: f64,
    repairs: u64,
    rings_rebuilt: u64,
    trees_rebuilt: u64,
    fallbacks: u64,
    stale_refused: u64,
}

/// A query to serve: plane, source, destination, ingress.
type Query = (usize, NodeId, NodeId, Ingress);

/// FNV-1a over everything a route records.
fn fingerprint(r: &Result<Route, RouteError>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    match r {
        Ok(r) => {
            r.hops.iter().for_each(|&x| mix(x as u64));
            mix(r.cost);
            mix(r.max_header_bits);
            for s in &r.segments {
                s.label.bytes().for_each(|b| mix(b as u64));
                mix(s.level.map_or(u64::MAX, u64::from));
                mix(s.cost);
                mix(s.hops as u64);
            }
        }
        Err(e) => e.to_string().bytes().for_each(|b| mix(b as u64 | 0x100)),
    }
    h
}

fn set_up(
    cfg: &Config,
    naming: &Naming,
    tracer: &mut Tracer,
    failures: &mut Failures,
) -> Deployment {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get()).min(2);
    let graph = tracer.span("metric.graph", || gen::Family::Grid.build(cfg.n, cfg.seed));
    let m = tracer.span("metric.build", || MetricSpace::from_shared(Arc::new(graph), threads));
    assert_eq!(m.n(), cfg.n, "grid size must be a square");
    let eps = Eps::one_over(EPS_INV);
    let schemes: Vec<Scheme> =
        cfg.workload.kinds().iter().map(|&k| Scheme::build(k, &m, eps, naming, tracer)).collect();
    let dir = directory(cfg.workload, naming);
    let planes: Vec<_> = schemes.iter().map(|s| s.compile(&m, dir, tracer)).collect();
    for (s, p) in schemes.iter().zip(&planes) {
        if s.check_plane(p.as_ref(), tracer).is_err() {
            failures.fresh_refused += 1;
        }
    }
    Deployment { m, schemes, planes }
}

/// Labeled planes carry a name directory only where name ingress reaches
/// them.
fn directory(w: Workload, naming: &Naming) -> Option<&Naming> {
    (w == Workload::ChurnMixed).then_some(naming)
}

struct Run<'a> {
    cfg: &'a Config,
    naming: Naming,
    tracer: Tracer,
    failures: Failures,
    failed_ops: u64,
    first_failure: Option<String>,
    tally: Tally,
    maintain: MaintainTally,
}

impl Run<'_> {
    fn fail(&mut self, what: String) {
        self.failed_ops += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what);
        }
    }

    /// Serves `queries` back to back (timed), then verifies them (untimed).
    fn serve(&mut self, dep: &Deployment, queries: &[Query], measured: bool) {
        let traced = self.tracer.enabled();
        let mut results = Vec::with_capacity(queries.len());
        let t_all = Instant::now();
        for (i, &(p, src, _, ingress)) in queries.iter().enumerate() {
            let plane = dep.planes[p].as_ref();
            self.tracer.begin_group("query", self.tally.queries + i as u64);
            self.tracer.open("serve.query");
            let marks =
                traced.then(|| (obs::alloc::allocation_count(), obs::alloc::allocated_bytes()));
            let t = Instant::now();
            let res = match ingress {
                Ingress::Label(l) => {
                    self.tracer.span("labeled.route", || plane.route(&dep.m, src, l))
                }
                Ingress::Name(x) => {
                    self.tracer.span("nameind.route_named", || plane.route_named(&dep.m, src, x))
                }
            };
            let ns = t.elapsed().as_nanos() as u64;
            if let Some((allocs, bytes)) = marks {
                self.tally.allocs += obs::alloc::allocation_count() - allocs;
                self.tally.alloc_bytes += obs::alloc::allocated_bytes() - bytes;
            }
            if measured {
                self.tally.latencies.record(ns);
            }
            results.push(res);
            self.tracer.close();
            self.tracer.end_group();
        }
        if measured {
            self.tally.serve_ns += t_all.elapsed().as_nanos() as u64;
            self.tally.measured += queries.len() as u64;
        }
        for (&q, res) in queries.iter().zip(results) {
            self.verify(dep, q, res);
        }
    }

    fn verify(
        &mut self,
        dep: &Deployment,
        (p, src, dst, ingress): Query,
        res: Result<Route, RouteError>,
    ) {
        let id = self.tally.queries;
        self.tally.queries += 1;
        let fp = fingerprint(&res);
        if self.tally.digest_n < DIGEST_QUERIES {
            self.tally.digest = (self.tally.digest ^ fp).wrapping_mul(0x0000_0100_0000_01b3);
            self.tally.digest_n += 1;
        }
        let r = match res {
            Ok(r) => r,
            Err(e) => {
                self.failures.route_errors += 1;
                return self.fail(format!("query {id}: route error on plane {p}: {e}"));
            }
        };
        if r.src != src || r.dst != dst {
            self.failures.misdelivered += 1;
            return self.fail(format!("query {id}: {src}->{dst} delivered to {}", r.dst));
        }
        let (m, naming) = (&dep.m, &self.naming);
        if self.tally.reference.len() >= REFERENCE_CAP {
            self.tally.reference.clear();
        }
        let want = *self
            .tally
            .reference
            .entry((p, src, ingress))
            .or_insert_with(|| fingerprint(&dep.schemes[p].reference(m, naming, src, ingress)));
        if fp != want {
            self.failures.divergences += 1;
            return self.fail(format!(
                "query {id}: plane {p} diverged from the reference on {src}->{dst}"
            ));
        }
        self.tally.routes_ok += 1;
        self.tally.stretch_sum += r.cost as f64 / m.dist(src, dst) as f64;
        let mut other = r.hop_count() as u64;
        for s in &r.segments {
            if let Some(&label) = SEGMENTS.iter().find(|&&l| l == s.label) {
                *self.tally.seg_hops.entry(label).or_default() += s.hops as u64;
                other = other.saturating_sub(s.hops as u64);
            }
        }
        *self.tally.seg_hops.entry("other").or_default() += other;
        if self.tracer.enabled() {
            let plane = dep.planes[p].as_ref();
            self.tracer.begin_group("query", id);
            let hop = self.tracer.span("netsim.next_hop", || match ingress {
                Ingress::Label(l) => plane.next_hop(m, src, l),
                Ingress::Name(x) => plane.next_hop_named(m, src, x),
            });
            self.tracer.end_group();
            if hop != Ok(r.hops.get(1).copied()) {
                self.failures.next_hop_mismatches += 1;
                self.fail(format!("query {id}: next_hop {hop:?} is not the route's first hop"));
            }
        }
    }

    /// One churn batch: apply it to every scheme, recompile every plane,
    /// and epoch-check the old planes (which must be refused) and the new
    /// ones. Returns the update time in ns.
    fn batch(&mut self, dep: &mut Deployment, schedule: &mut ChurnSchedule, rng: &mut Rng) -> u64 {
        let id = self.maintain.batches;
        self.maintain.batches += 1;
        let batch = schedule.next_batch();
        let active = schedule.active();
        let pairs: Vec<_> = (0..AUDIT_PAIRS).map(|_| uniform_pair(rng, &active)).collect();
        let dir = directory(self.cfg.workload, &self.naming);
        let mut problems: Vec<String> = Vec::new();
        self.tracer.begin_group("batch", id);
        let t0 = Instant::now();
        let mut committed = Vec::with_capacity(dep.schemes.len());
        for s in dep.schemes.iter_mut() {
            let (report, audits) =
                s.apply_batch(&dep.m, &self.naming, &batch, &pairs, &mut self.tracer);
            let bad_audits = audits.iter().filter(|&&ok| !ok).count() as u64;
            if bad_audits > 0 {
                self.failures.audits_failed += bad_audits;
                problems.push(format!("{:?}: {bad_audits} spot audit(s) failed", s.kind()));
            }
            match report {
                Ok(r) => {
                    self.maintain.repairs += 1;
                    self.maintain.blast_sum += r.stats.blast_fraction();
                    self.maintain.rings_rebuilt += r.stats.rings_rebuilt;
                    self.maintain.trees_rebuilt += r.stats.trees_rebuilt;
                    self.maintain.fallbacks += r.action.is_fallback() as u64;
                    committed.push(true);
                }
                Err(e) => {
                    self.failures.batches_rejected += 1;
                    problems.push(format!("{:?}: batch rejected: {e}", s.kind()));
                    committed.push(false);
                }
            }
        }
        let fresh: Vec<_> =
            dep.schemes.iter().map(|s| s.compile(&dep.m, dir, &mut self.tracer)).collect();
        for (i, s) in dep.schemes.iter().enumerate() {
            if committed[i] {
                match s.check_plane(dep.planes[i].as_ref(), &mut self.tracer) {
                    Err(MaintainError::StalePlane { .. }) => self.maintain.stale_refused += 1,
                    other => {
                        self.failures.stale_accepted += 1;
                        problems.push(format!(
                            "{:?}: pre-batch plane not refused: {other:?}",
                            s.kind()
                        ));
                    }
                }
            }
            if let Err(e) = s.check_plane(fresh[i].as_ref(), &mut self.tracer) {
                self.failures.fresh_refused += 1;
                problems.push(format!("{:?}: fresh plane refused: {e}", s.kind()));
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.tracer.end_group();
        dep.planes = fresh;
        self.tally.reference.clear();
        if !problems.is_empty() {
            self.fail(format!("batch {id} ({batch:?}): {}", problems.join("; ")));
        }
        ns
    }
}

/// Runs one workload as `cfg` says.
pub fn run(cfg: &Config) -> Outcome {
    let n = cfg.n;
    let mut run = Run {
        cfg,
        naming: Naming::random(n, cfg.seed ^ 0xA5),
        tracer: Tracer::new(cfg.trace),
        failures: Failures::default(),
        failed_ops: 0,
        first_failure: None,
        tally: Tally::default(),
        maintain: MaintainTally::default(),
    };

    let mut setup_ns: Vec<u64> = Vec::new();
    let mut deployment = None;
    while setup_ns.len() < SETUP_MIN
        || (setup_ns.len() < SETUP_MAX && (setup_ns.iter().sum::<u64>() as f64) < SETUP_MIN_S * 1e9)
    {
        let r = setup_ns.len();
        // Free the previous deployment first: peak memory is one set-up's.
        drop(deployment.take());
        let refused = run.failures.fresh_refused;
        run.tracer.begin_group("setup", r as u64);
        let t0 = Instant::now();
        let dep = set_up(cfg, &run.naming, &mut run.tracer, &mut run.failures);
        setup_ns.push(t0.elapsed().as_nanos() as u64);
        run.tracer.end_group();
        if run.failures.fresh_refused > refused {
            run.fail(format!("set-up {r}: a fresh plane was refused"));
        }
        deployment = Some(dep);
    }
    let mut dep = deployment.expect("at least one set-up");
    let plane_bits: Vec<(Kind, u64)> =
        dep.schemes.iter().zip(&dep.planes).map(|(s, p)| (s.kind(), p.packed_bits())).collect();

    // The targeted adversary removes the highest net center.
    let nets = dep.schemes[0].nets();
    let target = (0..n as NodeId)
        .min_by_key(|&v| (std::cmp::Reverse(nets.max_level_of(v)), v))
        .expect("the grid has nodes");
    let mut schedule = ChurnSchedule::new(n, target, cfg.seed);
    let mut rng = Rng::new(cfg.seed ^ 0xB47C_0000);
    let budget_ns = cfg.seconds * 1e9;
    let mut update_ns: Vec<u64> = Vec::new();
    let planes = dep.planes.len();
    let min_batches = cfg.workload.min_batches();
    let churn_done = |batches: usize, spent: u64, budget: f64| {
        batches >= min_batches && batches.is_multiple_of(CHURN_CYCLE) && spent as f64 >= budget
    };

    match cfg.workload {
        Workload::LabeledZipf | Workload::NamedZipf => {
            let named = cfg.workload == Workload::NamedZipf;
            let mut stream = ZipfStream::new(n, cfg.seed);
            let serve_budget = budget_ns * (1.0 - ZIPF_UPDATE_SHARE);
            while (run.tally.serve_ns as f64) < serve_budget || run.tally.measured == 0 {
                let base = run.tally.queries;
                let chunk: Vec<Query> = (0..CHUNK as u64)
                    .map(|i| {
                        let (src, dst) = stream.next_pair();
                        let p = ((base + i) % planes as u64) as usize;
                        let ingress = if named {
                            Ingress::Name(run.naming.name_of(dst))
                        } else {
                            Ingress::Label(dep.schemes[p].label_of(dst))
                        };
                        (p, src, dst, ingress)
                    })
                    .collect();
                run.serve(&dep, &chunk, base >= WARMUP_QUERIES);
            }
            let update_budget = budget_ns * ZIPF_UPDATE_SHARE;
            let mut spent = 0u64;
            while !churn_done(update_ns.len(), spent, update_budget) {
                let ns = run.batch(&mut dep, &mut schedule, &mut rng);
                update_ns.push(ns);
                spent += ns;
            }
        }
        Workload::ChurnMixed => {
            let mut spent = 0u64;
            while !churn_done(update_ns.len(), spent, budget_ns) {
                let ns = run.batch(&mut dep, &mut schedule, &mut rng);
                let measured = run.tally.queries >= WARMUP_QUERIES;
                let active = schedule.active();
                let slice: Vec<Query> = (0..CHURN_SLICE)
                    .map(|i| {
                        let (src, dst) = uniform_pair(&mut rng, &active);
                        let p = i % planes;
                        let ingress = if rng.coin() {
                            Ingress::Name(run.naming.name_of(dst))
                        } else {
                            Ingress::Label(dep.schemes[p].label_of(dst))
                        };
                        (p, src, dst, ingress)
                    })
                    .collect();
                let served_before = run.tally.serve_ns;
                run.serve(&dep, &slice, measured);
                update_ns.push(ns);
                spent += ns + (run.tally.serve_ns - served_before);
            }
        }
    }

    let attempted = setup_ns.len() as u64 + run.tally.queries + run.maintain.batches;
    let metrics = if cfg.trace {
        let serve_s = run.tally.serve_ns as f64 / 1e9;
        let mut out = per_layer(&run, &plane_bits);
        out.push(metric("trace.qps", run.tally.measured as f64 / serve_s, "1/s"));
        out.push(metric("trace.setup_s", median(&setup_ns) as f64 / 1e9, "s"));
        if let Some(path) = &cfg.span_log {
            if let Err(e) = run.tracer.write_log(path) {
                eprintln!("could not write the span log {}: {e}", path.display());
            }
        }
        out
    } else {
        let t = &run.tally;
        vec![
            metric("setup_s", median(&setup_ns) as f64 / 1e9, "s"),
            metric("qps", t.measured as f64 / (t.serve_ns as f64 / 1e9), "1/s"),
            metric("latency_p50_us", t.latencies.quantile(0.5) as f64 / 1e3, "us"),
            metric("latency_p99_us", t.latencies.quantile(0.99) as f64 / 1e3, "us"),
            metric("update_p50_ms", quantile(&update_ns, 0.5) as f64 / 1e6, "ms"),
            metric("update_p90_ms", quantile(&update_ns, 0.9) as f64 / 1e6, "ms"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
            metric("plane_kib", plane_bits.iter().map(|p| p.1).sum::<u64>() as f64 / 8192.0, "KiB"),
            metric("stretch_mean", t.stretch_sum / t.routes_ok.max(1) as f64, "ratio"),
        ]
    };
    Outcome {
        attempted,
        failed: run.failed_ops,
        failures: run.failures.clone(),
        metrics,
        digest: run.tally.digest,
        digest_queries: run.tally.digest_n,
        setups: setup_ns.len(),
        latency_samples: run.tally.latencies.len() as usize,
        update_samples: update_ns.len(),
        first_failure: run.first_failure.clone(),
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// Boundaries every traced run reports calls, busy and self time for.
pub const BOUNDARIES: [&str; 14] = [
    "metric.graph",
    "metric.build",
    "labeled.build",
    "nameind.build",
    "searchtree.build",
    "labeled.compile",
    "nameind.compile",
    "netsim.check_plane",
    "labeled.route",
    "nameind.route_named",
    "netsim.next_hop",
    "labeled.repair",
    "nameind.repair",
    "conform.audit",
];

fn per_layer(run: &Run, plane_bits: &[(Kind, u64)]) -> Vec<Metric> {
    let t = &run.tracer;
    let mut out = Vec::new();
    for b in BOUNDARIES {
        let agg = t.boundary(b);
        out.push(metric(&format!("{b}.calls"), agg.calls as f64, "count"));
        out.push(metric(&format!("{b}.busy_s"), agg.busy_ns as f64 / 1e9, "s"));
        out.push(metric(&format!("{b}.self_s"), agg.self_ns as f64 / 1e9, "s"));
    }
    // Set-up layers: median over set-ups of the layer's busy time in one.
    for (name, b) in [
        ("metric.graph_s", "metric.graph"),
        ("metric.build_s", "metric.build"),
        ("labeled.build_s", "labeled.build"),
        ("nameind.build_s", "nameind.build"),
        ("searchtree.build_s", "searchtree.build"),
        ("labeled.compile_s", "labeled.compile"),
        ("nameind.compile_s", "nameind.compile"),
    ] {
        let busy: Vec<u64> = t.per_group("setup", b).iter().map(|g| g.0).collect();
        out.push(metric(name, median(&busy) as f64 / 1e9, "s"));
    }
    // Per-call medians of the per-query boundaries.
    for (name, b) in [
        ("labeled.route_ns", "labeled.route"),
        ("nameind.route_named_ns", "nameind.route_named"),
        ("netsim.next_hop_ns", "netsim.next_hop"),
    ] {
        out.push(metric(name, median(&t.boundary(b).durations) as f64, "ns"));
    }
    // Batch layers: median over batches of the layer's time in one; the
    // repairs' self time excludes their audits.
    let per_batch = |b: &'static str, own: bool| {
        let v: Vec<u64> = t
            .per_group("batch", b)
            .iter()
            .map(|&(busy, own_ns)| if own { own_ns } else { busy })
            .collect();
        median(&v) as f64 / 1e6
    };
    out.push(metric("labeled.compile.batch_ms", per_batch("labeled.compile", false), "ms"));
    out.push(metric("nameind.compile.batch_ms", per_batch("nameind.compile", false), "ms"));
    out.push(metric("labeled.repair_ms", per_batch("labeled.repair", true), "ms"));
    out.push(metric("nameind.repair_ms", per_batch("nameind.repair", true), "ms"));
    out.push(metric("conform.audit_ms", per_batch("conform.audit", false), "ms"));

    let bits = |layer: &str| {
        plane_bits.iter().filter(|(k, _)| k.layer() == layer).map(|p| p.1).sum::<u64>() as f64
    };
    out.push(metric("labeled.plane_bits", bits("labeled"), "bit"));
    out.push(metric("nameind.plane_bits", bits("nameind"), "bit"));

    let tally = &run.tally;
    let queries = tally.queries.max(1) as f64;
    out.push(metric("netsim.allocs_per_query", tally.allocs as f64 / queries, "allocs/query"));
    out.push(metric("netsim.alloc_bytes_per_query", tally.alloc_bytes as f64 / queries, "B/query"));
    let ok = tally.routes_ok.max(1) as f64;
    for label in SEGMENTS.iter().chain(&["other"]) {
        let hops = tally.seg_hops.get(label).copied().unwrap_or(0);
        out.push(metric(&format!("route.seg.{label}.hops"), hops as f64 / ok, "hops/query"));
    }

    let mt = &run.maintain;
    out.push(metric("maintain.batches", mt.batches as f64, "count"));
    out.push(metric("maintain.blast_fraction", mt.blast_sum / mt.repairs.max(1) as f64, "ratio"));
    out.push(metric("maintain.rings_rebuilt", mt.rings_rebuilt as f64, "count"));
    out.push(metric("maintain.trees_rebuilt", mt.trees_rebuilt as f64, "count"));
    out.push(metric("maintain.fallbacks", mt.fallbacks as f64, "count"));
    out.push(metric("maintain.stale_refused", mt.stale_refused as f64, "count"));
    out
}
