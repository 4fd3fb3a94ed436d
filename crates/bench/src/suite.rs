//! The four schemes the experiments compare, as one loopable set.
//!
//! Every per-scheme experiment block used to be written four times, once
//! per scheme type. [`Built`] owns any one of the four, and hands the
//! harness the scheme's [`Target`] ingress (by label or by name) and its
//! fallback hierarchy, so an experiment is one loop over
//! `0..`[`SCHEMES`] in table order: net-labeled, scale-free labeled,
//! simple name-independent, scale-free name-independent.

use doubling_metric::{Eps, MetricSpace};
use labeled_routing::{NetLabeled, ScaleFreeLabeled};
use name_independent::{ScaleFreeNameIndependent, SimpleNameIndependent};
use netsim::recovery::FallbackHierarchy;
use netsim::scheme::{ByLabel, ByName, LabeledScheme, Target};
use netsim::Naming;
use obs::Tracer;

/// How many schemes [`Built::build`] knows.
pub const SCHEMES: usize = 4;

/// One of the four schemes of the paper's Tables 1–2, built on one metric.
pub enum Built {
    /// Lemma 3.1's labeled scheme.
    NetLabeled(NetLabeled),
    /// Theorem 1.2's scale-free labeled scheme.
    ScaleFreeLabeled(ScaleFreeLabeled),
    /// Theorem 1.4's simple name-independent scheme.
    SimpleNi(SimpleNameIndependent),
    /// Theorem 1.1's scale-free name-independent scheme.
    ScaleFreeNi(ScaleFreeNameIndependent),
}

impl Built {
    /// Builds scheme `i` (table order, `i < SCHEMES`) on `m`, recording its
    /// preprocessing spans into `tracer`. The name-independent schemes
    /// are built under `naming`; the labeled ones ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is out of the schemes' range or `i >= SCHEMES`.
    pub fn build(i: usize, m: &MetricSpace, eps: Eps, naming: &Naming, tracer: &Tracer) -> Self {
        const OK: &str = "eps within range";
        match i {
            0 => Built::NetLabeled(NetLabeled::new_traced(m, eps, tracer).expect(OK)),
            1 => Built::ScaleFreeLabeled(ScaleFreeLabeled::new_traced(m, eps, tracer).expect(OK)),
            2 => Built::SimpleNi(
                SimpleNameIndependent::new_traced(m, eps, naming.clone(), tracer).expect(OK),
            ),
            3 => Built::ScaleFreeNi(
                ScaleFreeNameIndependent::new_traced(m, eps, naming.clone(), tracer).expect(OK),
            ),
            _ => panic!("scheme index {i} out of range"),
        }
    }

    /// All four schemes on `m`, in table order.
    pub fn all(m: &MetricSpace, eps: Eps, naming: &Naming) -> [Built; SCHEMES] {
        std::array::from_fn(|i| Built::build(i, m, eps, naming, &Tracer::noop()))
    }

    /// The scheme as the harness routes it: labeled schemes by label,
    /// name-independent ones by name under the naming they were built
    /// with.
    pub fn target(&self) -> Box<dyn Target + '_> {
        match self {
            Built::NetLabeled(s) => Box::new(ByLabel(s)),
            Built::ScaleFreeLabeled(s) => Box::new(ByLabel(s)),
            Built::SimpleNi(s) => Box::new(ByName(s, s.naming())),
            Built::ScaleFreeNi(s) => Box::new(ByName(s, s.naming())),
        }
    }

    /// The net hierarchy the recovery runtime climbs on fallbacks.
    pub fn hierarchy(&self) -> &dyn FallbackHierarchy {
        match self {
            Built::NetLabeled(s) => s,
            Built::ScaleFreeLabeled(s) => s,
            Built::SimpleNi(s) => s,
            Built::ScaleFreeNi(s) => s,
        }
    }

    /// The routing-label size in bits, for the labeled schemes.
    pub fn label_bits(&self) -> Option<u64> {
        match self {
            Built::NetLabeled(s) => Some(s.label_bits()),
            Built::ScaleFreeLabeled(s) => Some(s.label_bits()),
            Built::SimpleNi(_) | Built::ScaleFreeNi(_) => None,
        }
    }
}
