//! The four schemes behind one interface: build, compile a forwarding
//! plane, replay the reference route, and take churn batches through a
//! `Maintainer` — each call made through the crates' public functions and
//! wrapped in the tracer span of its layer.

use std::cell::RefCell;
use std::time::Instant;

use conform::spot_audit;
use doubling_metric::nets::{ChurnBatch, NetHierarchy};
use doubling_metric::{Eps, MetricSpace, NodeId};
use labeled_routing::{NetLabeled, NetLabeledPlane, ScaleFreeLabeled, ScaleFreeLabeledPlane};
use name_independent::{
    ScaleFreeNameIndependent, ScaleFreeNiPlane, SimpleNameIndependent, SimpleNiPlane,
};
use netsim::maintain::{BatchReport, MaintainError, Maintainer, MaintainerConfig};
use netsim::plane::ForwardingPlane;
use netsim::route::{Route, RouteError};
use netsim::scheme::{Certifiable, Label, LabeledScheme, Name, NameIndependentScheme};
use netsim::Naming;

use crate::trace::Tracer;

/// Which scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `net-labeled`: labeled routing over the net hierarchy.
    NetLabeled,
    /// `scale-free-labeled`: labeled routing, scale-free tables.
    ScaleFreeLabeled,
    /// `simple-NI`: name-independent, over `net-labeled`.
    SimpleNi,
    /// `scale-free-NI`: name-independent, over `scale-free-labeled`.
    ScaleFreeNi,
}

impl Kind {
    /// The crate the scheme lives in, as a layer name.
    pub fn layer(self) -> &'static str {
        match self {
            Kind::NetLabeled | Kind::ScaleFreeLabeled => "labeled",
            Kind::SimpleNi | Kind::ScaleFreeNi => "nameind",
        }
    }
}

/// How a query names its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ingress {
    /// By routing label ([`ForwardingPlane::route`]).
    Label(Label),
    /// By flat name ([`ForwardingPlane::route_named`]).
    Name(Name),
}

/// A built scheme under its maintainer.
pub enum Scheme {
    /// See [`Kind::NetLabeled`].
    NetLabeled(Maintainer<NetLabeled>),
    /// See [`Kind::ScaleFreeLabeled`].
    ScaleFreeLabeled(Maintainer<ScaleFreeLabeled>),
    /// See [`Kind::SimpleNi`].
    SimpleNi(Maintainer<SimpleNameIndependent>),
    /// See [`Kind::ScaleFreeNi`].
    ScaleFreeNi(Maintainer<ScaleFreeNameIndependent>),
}

/// Construction phases, as the crates' `new_traced` constructors name
/// them, that the benchmark attributes to another layer's boundary.
fn phase_boundary(phase: &str) -> Option<&'static str> {
    match phase {
        "search-tree-build" | "btree-build" => Some("searchtree.build"),
        "underlying-labeled" => Some("labeled.build"),
        _ => None,
    }
}

/// Replays the phases of an `obs` trace that map to a boundary as child
/// spans of the open span, keeping their nesting.
fn import_phases(tracer: &mut Tracer, log: &obs::TraceLog) {
    let mut mapped: Vec<Option<usize>> = Vec::with_capacity(log.spans.len());
    let mut spans: Vec<(&'static str, u64, u64, Option<usize>)> = Vec::new();
    for s in &log.spans {
        // The nearest mapped ancestor of `s`'s parent.
        let mut parent = s.parent;
        let ancestor = loop {
            match parent {
                None => break None,
                Some(p) => match mapped[p] {
                    Some(i) => break Some(i),
                    None => parent = log.spans[p].parent,
                },
            }
        };
        mapped.push(phase_boundary(s.name).map(|name| {
            spans.push((name, s.start_us * 1_000, s.dur_us * 1_000, ancestor));
            spans.len() - 1
        }));
    }
    tracer.completed_tree(&spans);
}

/// The maintainer's audit of a labeled scheme: `conform::spot_audit` over
/// `pairs` on one thread.
fn labeled_audit<S: LabeledScheme + Certifiable + Sync>(
    m: &MetricSpace,
    s: &S,
    pairs: &[(NodeId, NodeId)],
) -> bool {
    spot_audit(m, s, |u| s.table_bits(u), pairs, 1, |u, v| s.route_to_node(m, u, v)).ok()
}

/// As [`labeled_audit`], routing by name.
fn named_audit<S: NameIndependentScheme + Certifiable + Sync>(
    m: &MetricSpace,
    naming: &Naming,
    s: &S,
    pairs: &[(NodeId, NodeId)],
) -> bool {
    spot_audit(m, s, |u| s.table_bits(u), pairs, 1, |u, v| s.route(m, u, naming.name_of(v))).ok()
}

impl Scheme {
    /// Builds `kind` over `m` (name-independent schemes over `naming`) and
    /// wraps it in a default maintainer, inside a `<layer>.build` span.
    pub fn build(
        kind: Kind,
        m: &MetricSpace,
        eps: Eps,
        naming: &Naming,
        tracer: &mut Tracer,
    ) -> Scheme {
        let n = m.n();
        let config = MaintainerConfig::default();
        let nm = naming.clone();
        let name = if kind.layer() == "labeled" { "labeled.build" } else { "nameind.build" };
        tracer.open(name);
        let obs_tracer =
            if tracer.enabled() { obs::Tracer::recording() } else { obs::Tracer::noop() };
        let scheme = match kind {
            Kind::NetLabeled => Scheme::NetLabeled(Maintainer::new(
                n,
                NetLabeled::new_traced(m, eps, &obs_tracer).expect("eps within range"),
                config,
            )),
            Kind::ScaleFreeLabeled => Scheme::ScaleFreeLabeled(Maintainer::new(
                n,
                ScaleFreeLabeled::new_traced(m, eps, &obs_tracer).expect("eps within range"),
                config,
            )),
            Kind::SimpleNi => Scheme::SimpleNi(Maintainer::new(
                n,
                SimpleNameIndependent::new_traced(m, eps, nm, &obs_tracer)
                    .expect("eps within range"),
                config,
            )),
            Kind::ScaleFreeNi => Scheme::ScaleFreeNi(Maintainer::new(
                n,
                ScaleFreeNameIndependent::new_traced(m, eps, nm, &obs_tracer)
                    .expect("eps within range"),
                config,
            )),
        };
        import_phases(tracer, &obs_tracer.finish());
        tracer.close();
        scheme
    }

    /// Which scheme this is.
    pub fn kind(&self) -> Kind {
        match self {
            Scheme::NetLabeled(_) => Kind::NetLabeled,
            Scheme::ScaleFreeLabeled(_) => Kind::ScaleFreeLabeled,
            Scheme::SimpleNi(_) => Kind::SimpleNi,
            Scheme::ScaleFreeNi(_) => Kind::ScaleFreeNi,
        }
    }

    /// Compiles the forwarding plane at the maintainer's epoch, inside a
    /// `<layer>.compile` span. Labeled planes carry a name directory when
    /// `naming` is given.
    pub fn compile(
        &self,
        m: &MetricSpace,
        naming: Option<&Naming>,
        tracer: &mut Tracer,
    ) -> Box<dyn ForwardingPlane> {
        let name =
            if self.kind().layer() == "labeled" { "labeled.compile" } else { "nameind.compile" };
        tracer.span(name, || -> Box<dyn ForwardingPlane> {
            match self {
                Scheme::NetLabeled(mt) => {
                    Box::new(NetLabeledPlane::compile(m, mt.scheme(), naming, mt.epoch()))
                }
                Scheme::ScaleFreeLabeled(mt) => {
                    Box::new(ScaleFreeLabeledPlane::compile(m, mt.scheme(), naming, mt.epoch()))
                }
                Scheme::SimpleNi(mt) => {
                    Box::new(SimpleNiPlane::compile(m, mt.scheme(), mt.epoch()))
                }
                Scheme::ScaleFreeNi(mt) => {
                    Box::new(ScaleFreeNiPlane::compile(m, mt.scheme(), mt.epoch()))
                }
            }
        })
    }

    /// Epoch-checks `plane` against the maintainer, inside a
    /// `netsim.check_plane` span.
    pub fn check_plane(
        &self,
        plane: &dyn ForwardingPlane,
        tracer: &mut Tracer,
    ) -> Result<(), MaintainError> {
        tracer.span("netsim.check_plane", || match self {
            Scheme::NetLabeled(mt) => mt.check_plane(plane),
            Scheme::ScaleFreeLabeled(mt) => mt.check_plane(plane),
            Scheme::SimpleNi(mt) => mt.check_plane(plane),
            Scheme::ScaleFreeNi(mt) => mt.check_plane(plane),
        })
    }

    /// The scheme's net hierarchy (the underlying scheme's, for
    /// name-independent schemes).
    pub fn nets(&self) -> &NetHierarchy {
        match self {
            Scheme::NetLabeled(mt) => mt.scheme().nets(),
            Scheme::ScaleFreeLabeled(mt) => mt.scheme().nets(),
            Scheme::SimpleNi(mt) => mt.scheme().underlying().nets(),
            Scheme::ScaleFreeNi(mt) => mt.scheme().underlying().nets(),
        }
    }

    /// The routing label of `v` (the underlying scheme's, for
    /// name-independent schemes).
    pub fn label_of(&self, v: NodeId) -> Label {
        match self {
            Scheme::NetLabeled(mt) => mt.scheme().label_of(v),
            Scheme::ScaleFreeLabeled(mt) => mt.scheme().label_of(v),
            Scheme::SimpleNi(mt) => mt.scheme().underlying().label_of(v),
            Scheme::ScaleFreeNi(mt) => mt.scheme().underlying().label_of(v),
        }
    }

    /// The reference scheme's route for a query — what the plane must
    /// return, hop for hop. Labeled schemes resolve a name through
    /// `naming` first, as their planes' name directories do.
    pub fn reference(
        &self,
        m: &MetricSpace,
        naming: &Naming,
        src: NodeId,
        ingress: Ingress,
    ) -> Result<Route, RouteError> {
        match (self, ingress) {
            (Scheme::NetLabeled(mt), Ingress::Label(l)) => mt.scheme().route(m, src, l),
            (Scheme::NetLabeled(mt), Ingress::Name(x)) => {
                mt.scheme().route_to_node(m, src, naming.node_of(x))
            }
            (Scheme::ScaleFreeLabeled(mt), Ingress::Label(l)) => mt.scheme().route(m, src, l),
            (Scheme::ScaleFreeLabeled(mt), Ingress::Name(x)) => {
                mt.scheme().route_to_node(m, src, naming.node_of(x))
            }
            (Scheme::SimpleNi(mt), Ingress::Label(l)) => mt.scheme().underlying().route(m, src, l),
            (Scheme::SimpleNi(mt), Ingress::Name(x)) => mt.scheme().route(m, src, x),
            (Scheme::ScaleFreeNi(mt), Ingress::Label(l)) => {
                mt.scheme().underlying().route(m, src, l)
            }
            (Scheme::ScaleFreeNi(mt), Ingress::Name(x)) => mt.scheme().route(m, src, x),
        }
    }

    /// Applies `batch` through the maintainer inside a `<layer>.repair`
    /// span. The maintainer's audit is `conform::spot_audit` over `pairs`
    /// (one thread); each audit call is a `conform.audit` child span, so
    /// the repair's self time excludes it. Returns the maintainer's
    /// verdict and every audit verdict it asked for.
    pub fn apply_batch(
        &mut self,
        m: &MetricSpace,
        naming: &Naming,
        batch: &ChurnBatch,
        pairs: &[(NodeId, NodeId)],
        tracer: &mut Tracer,
    ) -> (Result<BatchReport, MaintainError>, Vec<bool>) {
        let name =
            if self.kind().layer() == "labeled" { "labeled.repair" } else { "nameind.repair" };
        // (start offset, duration, verdict) of each audit call.
        let audits: RefCell<Vec<(u64, u64, bool)>> = RefCell::new(Vec::new());
        tracer.open(name);
        let t0 = Instant::now();
        let timed = |f: &dyn Fn() -> bool| {
            let t = Instant::now();
            let ok = f();
            audits.borrow_mut().push((
                (t - t0).as_nanos() as u64,
                t.elapsed().as_nanos() as u64,
                ok,
            ));
            ok
        };
        let report = match self {
            Scheme::NetLabeled(mt) => {
                mt.apply_batch(m, batch, |s| timed(&|| labeled_audit(m, s, pairs)))
            }
            Scheme::ScaleFreeLabeled(mt) => {
                mt.apply_batch(m, batch, |s| timed(&|| labeled_audit(m, s, pairs)))
            }
            Scheme::SimpleNi(mt) => {
                mt.apply_batch(m, batch, |s| timed(&|| named_audit(m, naming, s, pairs)))
            }
            Scheme::ScaleFreeNi(mt) => {
                mt.apply_batch(m, batch, |s| timed(&|| named_audit(m, naming, s, pairs)))
            }
        };
        let audits = audits.into_inner();
        let spans: Vec<_> =
            audits.iter().map(|&(start, dur, _)| ("conform.audit", start, dur, None)).collect();
        tracer.completed_tree(&spans);
        tracer.close();
        (report, audits.iter().map(|a| a.2).collect())
    }
}
