//! Repair-vs-rebuild oracle for the name-independent schemes.
//!
//! Scripted and seeded-random churn on several families repairs both
//! schemes in place and asserts, after every batch, that each equals a
//! from-scratch [`new_over`](ScaleFreeNameIndependent::new_over) build on
//! the post-batch active set. The comparison is struct equality, so it
//! covers the trees, the `H(y, k)` links and the per-node search-bit
//! shares. The churned nodes include packing centers and net centers, and
//! the scripted runs must flip facility decisions every way (own tree to
//! link, link to own tree, link to a different ball), so a repair that
//! kept stale decisions could not pass.

use std::collections::BTreeMap;

use doubling_metric::graph::{Graph, NodeId};
use doubling_metric::nets::{ChurnBatch, NetRepairBudget};
use doubling_metric::space::MetricSpace;
use doubling_metric::{gen, Eps};
use name_independent::{FacilityView, ScaleFreeNameIndependent, SimpleNameIndependent};
use netsim::naming::Naming;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Each `(round, host)`'s decision: `Some((j, ball))` for a link to that
/// packed ball, `None` for an own tree.
type Decisions = BTreeMap<(usize, NodeId), Option<(u32, u32)>>;

fn decisions(s: &ScaleFreeNameIndependent) -> Decisions {
    let mut out = Decisions::new();
    for k in 0..s.rounds().count() {
        let hosts = s.underlying().nets().level(s.rounds().host_level(k));
        for (i, &y) in hosts.iter().enumerate() {
            let d = match s.facility_of(k, i) {
                FacilityView::Own(_) => None,
                FacilityView::Link { j, ball } => Some((j, ball)),
            };
            out.insert((k, y), d);
        }
    }
    out
}

/// Facility flips seen between consecutive rebuilds, by kind.
#[derive(Debug, Default)]
struct Flips {
    link_to_own: usize,
    own_to_link: usize,
    link_moved: usize,
}

impl Flips {
    fn record(&mut self, before: &Decisions, after: &Decisions) {
        for (key, &a) in after {
            match (before.get(key), a) {
                (Some(Some(_)), None) => self.link_to_own += 1,
                (Some(None), Some(_)) => self.own_to_link += 1,
                (Some(Some(b)), Some(a)) if *b != a => self.link_moved += 1,
                _ => {}
            }
        }
    }
}

/// Applies `script` to both schemes, starting from the full node set, and
/// checks every batch against fresh builds. Returns the facility flips the
/// fresh scale-free builds went through.
fn drive(m: &MetricSpace, eps: Eps, naming: &Naming, script: &[ChurnBatch]) -> Flips {
    let n = m.n();
    let all: Vec<NodeId> = (0..n as NodeId).collect();
    let mut sf = ScaleFreeNameIndependent::new_over(m, eps, naming.clone(), &all).unwrap();
    let mut simple = SimpleNameIndependent::new_over(m, eps, naming.clone(), &all).unwrap();
    let budget = NetRepairBudget::unbounded();
    let mut active = vec![true; n];
    let mut flips = Flips::default();
    let mut before = decisions(&sf);
    for (b, batch) in script.iter().enumerate() {
        for &v in &batch.joins {
            active[v as usize] = true;
        }
        for &v in &batch.leaves {
            active[v as usize] = false;
        }
        let ids: Vec<NodeId> = (0..n as NodeId).filter(|&v| active[v as usize]).collect();
        sf.repair(m, batch, &budget);
        let fresh = ScaleFreeNameIndependent::new_over(m, eps, naming.clone(), &ids).unwrap();
        assert_eq!(sf, fresh, "scale-free repair != rebuild after batch {b}: {batch:?}");
        simple.repair(m, batch, &budget);
        let fresh_simple = SimpleNameIndependent::new_over(m, eps, naming.clone(), &ids).unwrap();
        assert_eq!(simple, fresh_simple, "simple repair != rebuild after batch {b}: {batch:?}");
        let after = decisions(&fresh);
        flips.record(&before, &after);
        before = after;
    }
    flips
}

/// Distinct centers of the packed balls some host links to, in first-seen
/// order over (round, host).
fn linked_centers(s: &ScaleFreeNameIndependent) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    for link in decisions(s).values().flatten() {
        let c = s.underlying().packings().at(link.0).balls()[link.1 as usize].center;
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

/// A script that removes linked packing centers and net centers of the
/// two coarsest levels, brings part of them back, swaps in more leavers,
/// and finally restores everyone.
fn scripted(m: &MetricSpace, eps: Eps, naming: &Naming) -> Vec<ChurnBatch> {
    let s = ScaleFreeNameIndependent::new(m, eps, naming.clone()).unwrap();
    let nets = s.underlying().nets();
    let top = nets.num_levels() - 1;
    let mut leavers: Vec<NodeId> = Vec::new();
    let push = |v: NodeId, leavers: &mut Vec<NodeId>| {
        if !leavers.contains(&v) && leavers.len() + 4 < m.n() {
            leavers.push(v);
        }
    };
    for &v in nets.level(top).iter().chain(nets.level(top.saturating_sub(1))).take(2) {
        push(v, &mut leavers);
    }
    for v in linked_centers(&s).into_iter().step_by(2).take(8) {
        push(v, &mut leavers);
    }
    let (first, second) = leavers.split_at(leavers.len() / 2);
    vec![
        ChurnBatch::new(Vec::new(), first.to_vec()),
        ChurnBatch::new(first[..first.len() / 2].to_vec(), second.to_vec()),
        ChurnBatch::new(
            first[first.len() / 2..].iter().chain(second).copied().collect(),
            Vec::new(),
        ),
    ]
}

/// Seeded random churn: each batch leaves a few active nodes, biased
/// towards packing centers, and rejoins a few inactive ones.
fn random_script(m: &MetricSpace, eps: Eps, naming: &Naming, seed: u64) -> Vec<ChurnBatch> {
    let s = ScaleFreeNameIndependent::new(m, eps, naming.clone()).unwrap();
    let mut centers: Vec<NodeId> = (0..=m.log2_n())
        .flat_map(|j| s.underlying().packings().at(j).balls().iter().map(|b| b.center))
        .collect();
    centers.sort_unstable();
    centers.dedup();
    let n = m.n();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut active = vec![true; n];
    let mut script = Vec::new();
    for _ in 0..5 {
        let mut leaves: Vec<NodeId> = Vec::new();
        for _ in 0..rng.gen_range(1..=4usize) {
            let v = if rng.gen_bool(0.6) {
                centers[rng.gen_range(0..centers.len())]
            } else {
                rng.gen_range(0..n as NodeId)
            };
            let alive = active.iter().filter(|&&a| a).count();
            if active[v as usize] && !leaves.contains(&v) && alive - leaves.len() > 4 {
                leaves.push(v);
            }
        }
        let inactive: Vec<NodeId> = (0..n as NodeId).filter(|&v| !active[v as usize]).collect();
        let joins: Vec<NodeId> = inactive.into_iter().filter(|_| rng.gen_bool(0.5)).collect();
        for &v in &leaves {
            active[v as usize] = false;
        }
        for &v in &joins {
            active[v as usize] = true;
        }
        let batch = ChurnBatch::new(joins, leaves);
        if !batch.is_empty() {
            script.push(batch);
        }
    }
    script
}

fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("grid", gen::grid(7, 7)),
        ("exp_weight_path", gen::exp_weight_path(32)),
        ("random_geometric", gen::random_geometric(40, 300, 3)),
    ]
}

#[test]
fn scripted_churn_repairs_equal_rebuilds_and_flip_every_way() {
    let eps = Eps::one_over(8);
    let mut total = Flips::default();
    for (name, g) in families() {
        let m = MetricSpace::new(&g);
        let naming = Naming::random(m.n(), 5);
        let script = scripted(&m, eps, &naming);
        let f = drive(&m, eps, &naming, &script);
        eprintln!("{name}: {f:?}");
        total.link_to_own += f.link_to_own;
        total.own_to_link += f.own_to_link;
        total.link_moved += f.link_moved;
    }
    assert!(total.link_to_own > 0, "no link became an own tree: {total:?}");
    assert!(total.own_to_link > 0, "no own tree became a link: {total:?}");
    assert!(total.link_moved > 0, "no link moved to another ball: {total:?}");
}

#[test]
fn seeded_random_churn_repairs_equal_rebuilds() {
    let eps = Eps::one_over(8);
    for (name, g) in families() {
        let m = MetricSpace::new(&g);
        let naming = Naming::random(m.n(), 9);
        for seed in [1u64, 2] {
            let script = random_script(&m, eps, &naming, seed);
            assert!(!script.is_empty(), "{name}: empty random script");
            drive(&m, eps, &naming, &script);
        }
    }
}
