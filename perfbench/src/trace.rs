//! The benchmark's own tracer: spans around the calls it makes into each
//! layer's public functions.
//!
//! A span has a name (the layer boundary, e.g. `labeled.route`), a start,
//! an end, its parent span, and the id of the group it belongs to — one
//! set-up, one churn batch, or one query. Per boundary the tracer keeps
//! exact aggregates over every span: calls, busy time, self time (busy
//! time minus the time of the boundary's child spans) and, per group
//! kind, the busy and self time each group spent there. The span records
//! themselves are kept in memory up to [`SPAN_LOG_CAP`] and written out at
//! the end of the run.
//!
//! A disabled tracer runs the timed closure and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Span records kept for the written log; aggregates cover every span.
pub const SPAN_LOG_CAP: usize = 200_000;

/// One recorded span, times in nanoseconds from the tracer's start.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary.
    pub name: &'static str,
    /// Index of the enclosing span in the log, if it was logged.
    pub parent: Option<u32>,
    /// Group kind and id the span belongs to.
    pub group: (&'static str, u64),
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// Exact aggregates of one boundary.
#[derive(Debug, Clone, Default)]
pub struct Boundary {
    /// Spans closed.
    pub calls: u64,
    /// Sum of span durations, ns.
    pub busy_ns: u64,
    /// Sum of span durations minus their child spans, ns.
    pub self_ns: u64,
    /// Every span's duration, ns (for per-call medians).
    pub durations: Vec<u64>,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    log_idx: Option<u32>,
}

/// The tracer; see the module docs.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    stack: Vec<Open>,
    group: (&'static str, u64),
    /// Per boundary, the current group's (busy, self) ns.
    in_group: BTreeMap<&'static str, (u64, u64)>,
    /// Per (group kind, boundary), each closed group's (busy, self) ns.
    per_group: BTreeMap<(&'static str, &'static str), Vec<(u64, u64)>>,
    groups_closed: BTreeMap<&'static str, u64>,
    boundaries: BTreeMap<&'static str, Boundary>,
    log: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A recording tracer when `enabled`, a pass-through one otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            stack: Vec::new(),
            group: ("run", 0),
            in_group: BTreeMap::new(),
            per_group: BTreeMap::new(),
            groups_closed: BTreeMap::new(),
            boundaries: BTreeMap::new(),
            log: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Opens a span; pair with [`Self::close`]. For spans whose body needs
    /// the tracer itself (nested boundaries).
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = Instant::now();
        let log_idx = if self.log.len() < SPAN_LOG_CAP {
            let parent = self.stack.last().and_then(|o| o.log_idx);
            self.log.push(Span {
                name,
                parent,
                group: self.group,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
            });
            Some((self.log.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Open { name, start, child_ns: 0, log_idx });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("close without open");
        let dur = (end - open.start).as_nanos() as u64;
        if let Some(i) = open.log_idx {
            self.log[i as usize].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        self.account(open.name, dur, open.child_ns);
    }

    /// Records spans measured by someone else — phases the crates' own
    /// `obs::Tracer` reported — as children of the innermost open span.
    /// Each entry is `(name, start_ns, dur_ns, parent)`: the start is an
    /// offset from the open span's start, and `parent` indexes an earlier
    /// entry (`None`: the open span itself).
    pub fn completed_tree(&mut self, spans: &[(&'static str, u64, u64, Option<usize>)]) {
        if !self.enabled {
            return;
        }
        let base = self.stack.last().map_or(self.epoch, |o| o.start);
        let base_ns = (base - self.epoch).as_nanos() as u64;
        let outer = self.stack.last().and_then(|o| o.log_idx);
        let mut child_ns = vec![0u64; spans.len()];
        let mut log_idx: Vec<Option<u32>> = Vec::with_capacity(spans.len());
        for &(name, start, dur, parent) in spans {
            if let Some(p) = parent {
                child_ns[p] += dur;
            }
            log_idx.push(if self.log.len() < SPAN_LOG_CAP {
                self.log.push(Span {
                    name,
                    parent: parent.map_or(outer, |p| log_idx[p]),
                    group: self.group,
                    start_ns: base_ns + start,
                    end_ns: base_ns + start + dur,
                });
                Some((self.log.len() - 1) as u32)
            } else {
                self.dropped += 1;
                None
            });
        }
        for (i, &(name, _, dur, parent)) in spans.iter().enumerate() {
            self.record(name, dur, child_ns[i]);
            if parent.is_none() {
                if let Some(open) = self.stack.last_mut() {
                    open.child_ns += dur;
                }
            }
        }
    }

    fn account(&mut self, name: &'static str, dur: u64, child_ns: u64) {
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        self.record(name, dur, child_ns);
    }

    fn record(&mut self, name: &'static str, dur: u64, child_ns: u64) {
        let self_ns = dur.saturating_sub(child_ns);
        let b = self.boundaries.entry(name).or_default();
        b.calls += 1;
        b.busy_ns += dur;
        b.self_ns += self_ns;
        b.durations.push(dur);
        let g = self.in_group.entry(name).or_default();
        g.0 += dur;
        g.1 += self_ns;
    }

    /// Starts group `id` of `kind` (a set-up, a batch, a query); spans
    /// until [`Self::end_group`] carry its id.
    pub fn begin_group(&mut self, kind: &'static str, id: u64) {
        if self.enabled {
            self.group = (kind, id);
        }
    }

    /// Closes the current group, folding its per-boundary times into the
    /// per-group series of its kind. Query groups are not folded (the
    /// per-call durations already describe them).
    pub fn end_group(&mut self) {
        if !self.enabled {
            return;
        }
        let kind = self.group.0;
        if kind != "query" {
            *self.groups_closed.entry(kind).or_default() += 1;
            for (name, t) in std::mem::take(&mut self.in_group) {
                self.per_group.entry((kind, name)).or_default().push(t);
            }
        } else {
            self.in_group.clear();
        }
        self.group = ("run", 0);
    }

    /// Aggregates of `name` (empty when it never ran).
    pub fn boundary(&self, name: &str) -> Boundary {
        self.boundaries.get(name).cloned().unwrap_or_default()
    }

    /// The (busy, self) ns `name` spent in each closed group of `kind`,
    /// with zeros for groups where it never ran.
    pub fn per_group(&self, kind: &'static str, name: &'static str) -> Vec<(u64, u64)> {
        let closed = self.groups_closed.get(kind).copied().unwrap_or(0) as usize;
        let mut v = self.per_group.get(&(kind, name)).cloned().unwrap_or_default();
        v.resize(closed.max(v.len()), (0, 0));
        v
    }

    /// Writes the span log as JSON lines (`name`, `id` = group kind and
    /// id, `parent` = line index of the parent span, `start_ns`,
    /// `end_ns`), with a final line counting spans past the cap.
    pub fn write_log(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.log {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"id\":\"{}/{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.group.0, s.group.1, s.start_ns, s.end_ns
            )?;
        }
        writeln!(
            w,
            "{{\"spans_logged\":{},\"spans_not_logged\":{}}}",
            self.log.len(),
            self.dropped
        )?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_groups_split_time() {
        let mut t = Tracer::new(true);
        for id in 0..3 {
            t.begin_group("batch", id);
            t.open("outer");
            t.span("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
            std::thread::sleep(std::time::Duration::from_millis(4));
            // A 1 ms phase nested in a 3 ms one, both imported.
            t.completed_tree(&[("phase", 0, 3_000_000, None), ("sub", 0, 1_000_000, Some(0))]);
            t.close();
            t.end_group();
        }
        let outer = t.boundary("outer");
        let inner = t.boundary("inner");
        let phase = t.boundary("phase");
        assert_eq!((outer.calls, inner.calls, phase.calls), (3, 3, 3));
        assert_eq!(outer.self_ns, outer.busy_ns - inner.busy_ns - phase.busy_ns);
        assert_eq!(phase.busy_ns, 9_000_000);
        assert_eq!(phase.self_ns, 6_000_000);
        assert_eq!(t.per_group("batch", "inner").len(), 3);
        assert_eq!(t.per_group("batch", "phase"), vec![(3_000_000, 2_000_000); 3]);
        assert_eq!(t.per_group("batch", "never"), vec![(0, 0); 3]);
        assert_eq!(t.log.len(), 12);
        assert_eq!(t.log[1].parent, Some(0));
        assert_eq!(t.log[3].parent, Some(2), "imported nesting is kept");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 5), 5);
        t.open("y");
        t.close();
        assert_eq!(t.boundary("x").calls, 0);
        assert!(t.log.is_empty());
    }
}
