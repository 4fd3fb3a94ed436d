//! Route flight recorder: a fixed-capacity ring buffer of per-hop
//! forensics for the last K route queries.
//!
//! Aggregate metrics say *that* something went wrong; the flight recorder
//! says *where*. Every recorded query keeps its full hop list — each hop
//! attributed to the Figure-1/2 segment (ring walk, search, tree descent…)
//! that produced it via [`netsim::Route::hop_labels`] — plus any recovery
//! interventions made mid-delivery. When an anomaly is observed (a lost
//! packet, an under-stretch route, a conformance clause failure) the
//! record is flagged, and the owning binary dumps the whole ring with
//! [`FlightRecorder::dump_if_anomalous`], so the anomaly ships with the
//! K queries of context that preceded it.
//!
//! The ring holds the **last** [`FlightRecorder::capacity`] queries:
//! recording query `cap + 1` evicts the oldest. A recorder built with
//! [`FlightRecorder::disabled`] (capacity 0) reduces every operation to a
//! branch — the hot-path cost when forensics are off.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;

use doubling_metric::graph::NodeId;
use netsim::json::Value;
use netsim::recovery::{DeliveryOutcome, RecoveryEvent};
use netsim::route::{Route, RouteError};
use netsim::stats::is_understretch;

/// Default ring capacity used by the experiment binaries.
pub const DEFAULT_CAPACITY: usize = 64;

/// One edge traversal: the node arrived at and the segment (label, level)
/// that governed the hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopRecord {
    /// Node the hop arrived at.
    pub node: NodeId,
    /// Segment label (`"zoom"`, `"search"`, `"ring-walk"`, …; `"route"`
    /// for hops outside any recorded segment).
    pub label: &'static str,
    /// Segment level (round `k` / packing index `j`), when the segment
    /// has one.
    pub level: Option<u32>,
}

/// One recorded route query.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Monotone sequence number (total queries recorded so far).
    pub seq: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// `"delivered"`, or `"lost: <detail>"` for failures.
    pub outcome: String,
    /// Route cost, when delivered.
    pub cost: Option<u64>,
    /// Measured stretch, when known.
    pub stretch: Option<f64>,
    /// Per-hop records, in travel order.
    pub hops: Vec<HopRecord>,
    /// Recovery interventions made during this delivery, in order.
    pub recoveries: Vec<String>,
    /// Anomaly flag: `"loss"`, `"understretch"`, or
    /// `"conformance-failure"`.
    pub anomaly: Option<&'static str>,
}

impl FlightRecord {
    /// The record as a JSON object (one JSONL line in a dump).
    pub fn to_json(&self) -> Value {
        let hops: Vec<Value> = self
            .hops
            .iter()
            .map(|h| {
                Value::Object(vec![
                    ("node".into(), h.node.into()),
                    ("label".into(), h.label.into()),
                    ("level".into(), h.level.map_or(Value::Null, Value::from)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("seq".into(), self.seq.into()),
            ("src".into(), self.src.into()),
            ("dst".into(), self.dst.into()),
            ("outcome".into(), self.outcome.clone().into()),
            ("cost".into(), self.cost.map_or(Value::Null, Value::from)),
            ("stretch".into(), self.stretch.map_or(Value::Null, Value::from)),
            ("hops".into(), Value::Array(hops)),
            (
                "recoveries".into(),
                Value::Array(self.recoveries.iter().map(|r| r.clone().into()).collect()),
            ),
            ("anomaly".into(), self.anomaly.map_or(Value::Null, Value::from)),
        ])
    }
}

/// The ring buffer. See the module docs for semantics.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    cap: usize,
    next_seq: u64,
    ring: VecDeque<FlightRecord>,
    anomalies: u64,
    pending_recoveries: Vec<String>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` queries.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder { cap: capacity, ..Default::default() }
    }

    /// A capacity-0 recorder: every operation is a branch and nothing is
    /// retained.
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Whether this recorder retains anything.
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Anomalous records seen so far (counted even after eviction).
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &FlightRecord> {
        self.ring.iter()
    }

    /// Notes a recovery intervention; it attaches to the next recorded
    /// query (recovery events fire mid-delivery, before the outcome).
    pub fn note_recovery(&mut self, ev: &RecoveryEvent) {
        if self.cap == 0 {
            return;
        }
        let line = match ev {
            RecoveryEvent::Detour { at, rejoin, detour_hops } => {
                format!("detour at={at} rejoin={rejoin} hops={detour_hops}")
            }
            RecoveryEvent::Fallback { at, landmark, level } => {
                format!("fallback at={at} landmark={landmark} level={level}")
            }
            RecoveryEvent::Exhausted { at, reason } => {
                format!("exhausted at={at} reason={reason}")
            }
        };
        self.pending_recoveries.push(line);
    }

    /// Records a delivered route; flags `"understretch"` when `stretch`
    /// is one by [`is_understretch`].
    pub fn record_route(&mut self, src: NodeId, dst: NodeId, route: &Route, stretch: f64) {
        if self.cap == 0 {
            return;
        }
        let anomaly = is_understretch(stretch).then_some("understretch");
        let hops = route
            .hops
            .iter()
            .skip(1)
            .zip(route.hop_labels())
            .map(|(&node, (label, level))| HopRecord { node, label, level })
            .collect();
        self.push(FlightRecord {
            seq: 0,
            src,
            dst,
            outcome: "delivered".into(),
            cost: Some(route.cost),
            stretch: Some(stretch),
            hops,
            recoveries: Vec::new(),
            anomaly,
        });
    }

    /// Records a failed query, flagged `"loss"`.
    pub fn record_error(&mut self, src: NodeId, dst: NodeId, err: &RouteError) {
        if self.cap == 0 {
            return;
        }
        self.push(FlightRecord {
            seq: 0,
            src,
            dst,
            outcome: format!("lost: {err:?}"),
            cost: None,
            stretch: None,
            hops: Vec::new(),
            recoveries: Vec::new(),
            anomaly: Some("loss"),
        });
    }

    /// Records a resilient delivery outcome: delivered routes keep their
    /// hop list and realized stretch; losses are flagged `"loss"` with
    /// the [`netsim::recovery::LossReason`] kind.
    pub fn record_outcome(&mut self, src: NodeId, dst: NodeId, outcome: &DeliveryOutcome) {
        if self.cap == 0 {
            return;
        }
        match outcome {
            DeliveryOutcome::Delivered { stretch, route, .. } => {
                self.record_route(src, dst, route, *stretch);
            }
            DeliveryOutcome::Lost { reason, progress } => {
                self.push(FlightRecord {
                    seq: 0,
                    src,
                    dst,
                    outcome: format!(
                        "lost: {} at {} after {} hops",
                        reason.kind(),
                        progress.reached,
                        progress.hops
                    ),
                    cost: None,
                    stretch: None,
                    hops: Vec::new(),
                    recoveries: Vec::new(),
                    anomaly: Some("loss"),
                });
            }
        }
    }

    /// Flags an out-of-band anomaly (e.g. `"conformance-failure"`): the
    /// most recent record is marked if one exists, and the anomaly counts
    /// toward [`FlightRecorder::anomalies`] either way.
    pub fn note_anomaly(&mut self, kind: &'static str) {
        if self.cap == 0 {
            return;
        }
        self.anomalies += 1;
        if let Some(last) = self.ring.back_mut() {
            if last.anomaly.is_none() {
                last.anomaly = Some(kind);
            }
        }
    }

    fn push(&mut self, mut rec: FlightRecord) {
        rec.seq = self.next_seq;
        self.next_seq += 1;
        rec.recoveries = std::mem::take(&mut self.pending_recoveries);
        if rec.anomaly.is_some() {
            self.anomalies += 1;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(rec);
    }

    /// The retained records as JSONL, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in &self.ring {
            out.push_str(&rec.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// Writes the ring to `path` as JSONL when any anomaly was seen;
    /// returns whether a dump was written.
    pub fn dump_if_anomalous(&self, path: impl AsRef<Path>) -> std::io::Result<bool> {
        if self.anomalies == 0 {
            return Ok(false);
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::{gen, MetricSpace};
    use netsim::RouteRecorder;

    fn sample_route(m: &MetricSpace) -> Route {
        let mut rec = RouteRecorder::new(m, 0);
        rec.begin_segment("zoom", Some(1));
        rec.walk_shortest(15).unwrap();
        rec.begin_segment("search", Some(2));
        rec.walk_shortest(3).unwrap();
        rec.finish()
    }

    #[test]
    fn hops_carry_segment_attribution() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let route = sample_route(&m);
        let mut fr = FlightRecorder::new(8);
        fr.record_route(route.src, route.dst, &route, route.stretch(&m));
        assert_eq!(fr.len(), 1);
        let rec = fr.records().next().unwrap();
        assert_eq!(rec.hops.len(), route.hop_count());
        assert_eq!(rec.hops.last().unwrap().node, route.dst);
        assert!(rec.hops.iter().any(|h| h.label == "zoom"));
        assert!(rec.hops.iter().any(|h| h.label == "search" && h.level == Some(2)));
        assert_eq!(rec.anomaly, None);
        assert_eq!(fr.anomalies(), 0);
    }

    #[test]
    fn ring_keeps_the_last_k_and_seq_is_monotone() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let route = sample_route(&m);
        let mut fr = FlightRecorder::new(3);
        for _ in 0..5 {
            fr.record_route(route.src, route.dst, &route, 1.0);
        }
        assert_eq!(fr.len(), 3);
        let seqs: Vec<u64> = fr.records().map(|r| r.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
    }

    #[test]
    fn anomalies_are_flagged_and_counted() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let route = sample_route(&m);
        let mut fr = FlightRecorder::new(8);
        fr.record_route(route.src, route.dst, &route, 0.5);
        assert_eq!(fr.records().next().unwrap().anomaly, Some("understretch"));
        fr.record_error(0, 3, &RouteError::HopBudgetExceeded { budget: 7 });
        fr.note_anomaly("conformance-failure");
        // The loss record already carries an anomaly; note_anomaly still
        // counts the clause failure.
        assert_eq!(fr.anomalies(), 3);
        let jsonl = fr.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            Value::parse(line).expect("flight line parses");
        }
    }

    #[test]
    fn recoveries_attach_to_the_next_record() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let route = sample_route(&m);
        let mut fr = FlightRecorder::new(8);
        fr.note_recovery(&RecoveryEvent::Detour { at: 1, rejoin: 2, detour_hops: 3 });
        fr.record_route(route.src, route.dst, &route, 1.2);
        fr.record_route(route.src, route.dst, &route, 1.2);
        let recs: Vec<&FlightRecord> = fr.records().collect();
        assert_eq!(recs[0].recoveries, ["detour at=1 rejoin=2 hops=3"]);
        assert!(recs[1].recoveries.is_empty());
    }

    #[test]
    fn disabled_recorder_retains_nothing() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let route = sample_route(&m);
        let mut fr = FlightRecorder::disabled();
        fr.record_route(route.src, route.dst, &route, 0.5);
        fr.note_anomaly("loss");
        assert!(fr.is_empty());
        assert_eq!(fr.anomalies(), 0);
        assert!(!fr.enabled());
    }
}
