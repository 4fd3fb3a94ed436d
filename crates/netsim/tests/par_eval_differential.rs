//! Differential tests: the parallel evaluators must be *field-for-field*
//! identical to their sequential counterparts at every thread count.
//!
//! The parallel implementations merge per-chunk partials in chunk order,
//! so floating-point accumulation happens in exactly the sequential
//! order — `assert_eq!` on the whole [`EvalResult`] (which derives
//! `PartialEq`, including the `f64` stretch fields) is therefore exact,
//! not approximate.

use doubling_metric::gen;
use doubling_metric::space::MetricSpace;
use doubling_metric::Eps;
use labeled_routing::{NetLabeled, ScaleFreeLabeled};
use name_independent::{ScaleFreeNameIndependent, SimpleNameIndependent};
use netsim::naming::Naming;
use netsim::scheme::{ByLabel, ByName};
use netsim::stats::{all_pairs, eval, eval_par};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn labeled_par_eval_matches_sequential_exactly() {
    for graph in [gen::grid(6, 6), gen::random_geometric(40, 420, 9)] {
        let m = MetricSpace::new(&graph);
        let eps = Eps::one_over(8);
        let pairs = all_pairs(m.n());

        let nl = NetLabeled::new(&m, eps).expect("eps within range");
        let seq = eval(&ByLabel(&nl), &m, &pairs, |_, _, _| {});
        for t in THREAD_COUNTS {
            assert_eq!(seq, eval_par(&ByLabel(&nl), &m, &pairs, t), "net-labeled, {t} threads");
        }

        let sfl = ScaleFreeLabeled::new(&m, eps).expect("eps within range");
        let seq = eval(&ByLabel(&sfl), &m, &pairs, |_, _, _| {});
        for t in THREAD_COUNTS {
            assert_eq!(
                seq,
                eval_par(&ByLabel(&sfl), &m, &pairs, t),
                "scale-free labeled, {t} threads"
            );
        }
    }
}

#[test]
fn name_independent_par_eval_matches_sequential_exactly() {
    for graph in [gen::grid(6, 6), gen::random_geometric(40, 420, 9)] {
        let m = MetricSpace::new(&graph);
        let eps = Eps::one_over(8);
        let naming = Naming::random(m.n(), 17);
        let pairs = all_pairs(m.n());

        let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).expect("eps within range");
        let seq = eval(&ByName(&sni, &naming), &m, &pairs, |_, _, _| {});
        for t in THREAD_COUNTS {
            assert_eq!(
                seq,
                eval_par(&ByName(&sni, &naming), &m, &pairs, t),
                "simple name-independent, {t} threads"
            );
        }

        let sfni =
            ScaleFreeNameIndependent::new(&m, eps, naming.clone()).expect("eps within range");
        let seq = eval(&ByName(&sfni, &naming), &m, &pairs, |_, _, _| {});
        for t in THREAD_COUNTS {
            assert_eq!(
                seq,
                eval_par(&ByName(&sfni, &naming), &m, &pairs, t),
                "scale-free name-independent, {t} threads"
            );
        }
    }
}

/// Degenerate inputs: an empty pair list and a single pair must also agree
/// (they exercise the `threads > pairs` clamping path).
#[test]
fn par_eval_matches_on_degenerate_pair_lists() {
    let m = MetricSpace::new(&gen::grid(3, 3));
    let eps = Eps::one_over(8);
    let nl = NetLabeled::new(&m, eps).expect("eps within range");
    for pairs in [Vec::new(), vec![(0u32, 8u32)]] {
        let seq = eval(&ByLabel(&nl), &m, &pairs, |_, _, _| {});
        for t in THREAD_COUNTS {
            assert_eq!(
                seq,
                eval_par(&ByLabel(&nl), &m, &pairs, t),
                "{} pairs, {t} threads",
                pairs.len()
            );
        }
    }
}
