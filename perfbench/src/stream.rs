//! Seeded workload inputs: the Zipf pair stream with hot bursts, uniform
//! pairs over the active nodes, and single-node churn batches.
//!
//! Everything here is a pure function of the seed (and of the node count
//! and active set it is handed), so a workload's inputs repeat exactly for
//! the same `--seed`.

use std::collections::{HashMap, HashSet};

use doubling_metric::nets::ChurnBatch;
use doubling_metric::NodeId;

use crate::rng::Rng;

/// Queries in one popularity cycle of the Zipf stream.
pub const CYCLE: u64 = 20_000;

/// The phases of one cycle, in queries, with the hot-rank limit of each:
/// steady → hot-64 burst → steady → hot-256 burst (the shape of the
/// repository's `serve` experiment, 40/20/20/20).
const PHASES: [(u64, Option<u64>); 4] =
    [(8_000, None), (4_000, Some(64)), (4_000, None), (4_000, Some(256))];

/// Zipf(θ = 1) over ranks `1..=n`, sampled by rejection-inversion
/// (Hörmann & Derflinger, 1996) in constant memory: no CDF table over the
/// `n(n-1)` pair ranks is ever built.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    h_x1: f64,
    h_n: f64,
    s: f64,
}

impl Zipf {
    /// The sampler over ranks `1..=n` (`n ≥ 1`).
    pub fn new(n: u64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        // For θ = 1: h(x) = 1/x, its integral H(x) = ln x, H⁻¹(u) = eᵘ.
        Zipf {
            n: n as f64,
            h_x1: 1.5f64.ln() - 1.0,
            h_n: (n as f64 + 0.5).ln(),
            s: 2.0 - (2.5f64.ln() - 0.5).exp(),
        }
    }

    /// One rank in `1..=n`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let u = self.h_n + rng.unit() * (self.h_x1 - self.h_n);
            let x = u.exp();
            let k = (x + 0.5).floor().clamp(1.0, self.n);
            if k - x <= self.s || u >= (k + 0.5).ln() - 1.0 / k {
                return k as u64;
            }
        }
    }
}

/// The Zipf pair stream of the `*-zipf` workloads.
///
/// Pair popularity follows Zipf(θ = 1) over all ordered pairs, with
/// hot-burst phases that sample only the 64 or 256 hottest ranks. Each
/// cycle of [`CYCLE`] queries re-draws which pairs hold which rank
/// (popularity drift), so one run averages over many hot sets instead of
/// resting on the route lengths of a single seed's hottest pair. A rank is
/// bound to a pair the first time the cycle draws it, uniformly among the
/// pairs not yet bound — in distribution the same as shuffling all pairs,
/// without materialising them.
#[derive(Debug)]
pub struct ZipfStream {
    n: u64,
    rng: Rng,
    pos: u64,
    full: Zipf,
    hot: HashMap<u64, Zipf>,
    rank_pair: HashMap<u64, (NodeId, NodeId)>,
    bound: HashSet<(NodeId, NodeId)>,
}

impl ZipfStream {
    /// The stream over `n ≥ 2` nodes.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "need two nodes to route between");
        let pairs = (n * (n - 1)) as u64;
        let hot = PHASES.iter().filter_map(|p| p.1).map(|k| (k, Zipf::new(k.min(pairs)))).collect();
        ZipfStream {
            n: n as u64,
            rng: Rng::new(seed ^ 0x5A1F_0000),
            pos: 0,
            full: Zipf::new(pairs),
            hot,
            rank_pair: HashMap::new(),
            bound: HashSet::new(),
        }
    }

    /// The next `(source, destination)` pair, `source != destination`.
    pub fn next_pair(&mut self) -> (NodeId, NodeId) {
        let mut offset = self.pos % CYCLE;
        if offset == 0 {
            self.rank_pair.clear();
            self.bound.clear();
        }
        self.pos += 1;
        let mut limit = None;
        for &(len, hot) in &PHASES {
            if offset < len {
                limit = hot;
                break;
            }
            offset -= len;
        }
        let sampler = limit.map_or(&self.full, |k| &self.hot[&k]);
        let rank = sampler.sample(&mut self.rng);
        if let Some(&p) = self.rank_pair.get(&rank) {
            return p;
        }
        let p = loop {
            let u = self.rng.below(self.n) as NodeId;
            let v = self.rng.below(self.n) as NodeId;
            if u != v && self.bound.insert((u, v)) {
                break (u, v);
            }
        };
        self.rank_pair.insert(rank, p);
        p
    }
}

/// A uniform pair of distinct nodes from `active` (at least two).
pub fn uniform_pair(rng: &mut Rng, active: &[NodeId]) -> (NodeId, NodeId) {
    assert!(active.len() >= 2, "need two active nodes to route between");
    let len = active.len() as u64;
    let u = rng.below(len) as usize;
    let mut v = rng.below(len - 1) as usize;
    if v >= u {
        v += 1;
    }
    (active[u], active[v])
}

/// Batches in one churn cycle: a net-center-targeted leave/rejoin pair,
/// then two random leave/rejoin pairs. The fixed 1:2 mix keeps the update
/// quantiles off the boundary between the costlier targeted pairs and the
/// random ones, so `update_p50_ms` describes a random pair on every seed.
pub const CHURN_CYCLE: usize = 6;

/// Seeded single-node churn: each batch is one leave or one rejoin.
///
/// Batches come in leave/rejoin pairs, [`CHURN_CYCLE`] batches a cycle. A
/// targeted leave removes `target` (the net-center adversary's choice); a
/// random leave removes a uniformly random node.
/// The rejoin that follows returns it, so the full node set is active
/// after every pair.
#[derive(Debug)]
pub struct ChurnSchedule {
    rng: Rng,
    n: usize,
    target: NodeId,
    step: usize,
    away: Option<NodeId>,
}

impl ChurnSchedule {
    /// A schedule over `n ≥ 3` nodes whose targeted leaves remove
    /// `target`.
    pub fn new(n: usize, target: NodeId, seed: u64) -> Self {
        assert!(n >= 3 && (target as usize) < n, "churn needs three nodes and a target among them");
        ChurnSchedule { rng: Rng::new(seed ^ 0xC4_0000), n, target, step: 0, away: None }
    }

    /// Nodes active once the last batch handed out is committed, by id.
    pub fn active(&self) -> Vec<NodeId> {
        (0..self.n as NodeId).filter(|&v| Some(v) != self.away).collect()
    }

    /// The next batch; the schedule assumes the caller commits it.
    pub fn next_batch(&mut self) -> ChurnBatch {
        let step = self.step;
        self.step = (self.step + 1) % CHURN_CYCLE;
        if let Some(v) = self.away.take() {
            return ChurnBatch::new(vec![v], Vec::new());
        }
        let v = if step == 0 { self.target } else { self.rng.below(self.n as u64) as NodeId };
        self.away = Some(v);
        ChurnBatch::new(Vec::new(), vec![v])
    }
}
