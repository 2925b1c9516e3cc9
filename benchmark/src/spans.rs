//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A traced run records name, start, end and parent for every call the
//! harness makes into `snet-*`; nothing is written until the run ends.
//! A layer's self time is its span's duration minus the part of that
//! interval its children cover. An untraced run carries a disabled
//! tracer, whose methods return before touching the clock.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub trial: u32,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trial: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trial: 0,
        }
    }

    pub fn set_trial(&mut self, trial: u32) {
        self.trial = trial;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Runs `f` inside a span named `name`, a child of whichever span
    /// is open on entry.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            trial: self.trial,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval as a child of the open
    /// span. The stream loops use it for their per-window aggregates.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start_ns,
                end_ns,
                trial: self.trial,
            });
        }
    }

    /// Records a span starting at `start_ns` whose children are given
    /// by name and duration only: they are laid end to end from the
    /// start and the parent ends where the last child does. Returns
    /// that end. The stream loop reports each window's phase totals
    /// this way, since a phase's time is scattered over the window.
    pub fn record_group(
        &mut self,
        name: &'static str,
        start_ns: u64,
        children: &[(&'static str, u64)],
    ) -> u64 {
        let end_ns = start_ns + children.iter().map(|c| c.1).sum::<u64>();
        if self.enabled {
            let id = self.spans.len();
            self.record(name, start_ns, end_ns);
            let mut at = start_ns;
            for &(child, dur) in children {
                self.spans.push(Span {
                    name: child,
                    parent: Some(id),
                    start_ns: at,
                    end_ns: at + dur,
                    trial: self.trial,
                });
                at += dur;
            }
        }
        end_ns
    }

    /// Self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        self_times(&self.spans)
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let selfs = self.self_times();
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "self_time_ns",
                Json::obj(selfs.iter().map(|(k, v)| (*k, Json::Num(*v as f64)))),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            Json::obj([
                                ("id", Json::Num(id as f64)),
                                ("name", Json::str(s.name)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                ("trial", Json::Num(s.trial as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals clipped to it, summed over spans of one name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            trial: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = [
            span("setup", None, 0, 100),
            span("compile", Some(0), 10, 40),
            span("parse", Some(1), 15, 25),
            span("warmup", Some(0), 50, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["setup"], 100 - 30 - 40);
        assert_eq!(t["compile"], 30 - 10);
        assert_eq!(t["parse"], 10);
        assert_eq!(t["warmup"], 40);
        assert_eq!(
            t.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn back_to_back_and_overlapping_children() {
        let spans = [
            span("window", None, 0, 100),
            span("ingress", Some(0), 0, 30),
            span("egress", Some(0), 30, 70),
            span("drive", Some(0), 70, 100),
        ];
        assert_eq!(self_times(&spans)["window"], 0);
        // Overlap is covered once; a child reaching past its parent is
        // clipped to it.
        let spans = [
            span("p", None, 10, 50),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 40),
            span("c", Some(0), 45, 80),
        ];
        assert_eq!(self_times(&spans)["p"], 40 - 30 - 5);
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = [
            span("job", None, 0, 10),
            span("job", None, 10, 25),
            span("take", Some(1), 20, 25),
        ];
        let t = self_times(&spans);
        assert_eq!(t["job"], 10 + 10);
        assert_eq!(t["take"], 5);
    }

    #[test]
    fn scopes_nest_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.scope("outer", |t| {
            t.scope("inner", |_| ());
            let now = t.now_ns();
            t.record("aggregate", now, now + 5);
        });
        assert_eq!(t.len(), 3);
        let json = t.to_json("w");
        let spans = json.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[2].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));

        let mut off = Tracer::new(false);
        assert_eq!(off.scope("x", |_| 7), 7);
        off.record("y", 0, 1);
        assert_eq!(off.len(), 0);
    }
}
