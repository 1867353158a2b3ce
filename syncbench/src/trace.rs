//! In-memory spans recorded around the benchmark's calls into each layer,
//! plus the derivations the traced run reports: self time per span and
//! the layer time on a replayed sync's critical path.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Which party a span's work belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// The syncing client (or its replay).
    Client,
    /// The server (or its replay).
    Server,
    /// The store owner applying writes.
    Writer,
    /// The benchmark's own bookkeeping: roots and stages.
    Bench,
}

impl Lane {
    fn as_str(self) -> &'static str {
        match self {
            Lane::Client => "client",
            Lane::Server => "server",
            Lane::Writer => "writer",
            Lane::Bench => "bench",
        }
    }
}

/// Stage span names. A replayed sync is a sequence of stages; in a
/// parallel stage the client and server lanes ran concurrently in the
/// real sync, so only the slower lane is on the critical path.
pub const STAGE_SERIAL: &str = "stage.serial";
/// See [`STAGE_SERIAL`].
pub const STAGE_PARALLEL: &str = "stage.parallel";

/// One recorded span. Times are microseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or operation name, e.g. `plan` or `frame.encode`.
    pub name: &'static str,
    /// Party the work belongs to.
    pub lane: Lane,
    /// The sync (or operation) id every span of one request shares.
    pub sync: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, µs since origin.
    pub start: f64,
    /// End, µs since origin.
    pub end: f64,
}

impl Span {
    /// Duration in µs.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span; inert when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

/// A span recorder. With tracing off every call is a no-op, so the
/// untraced run executes the same code without recording.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under `parent`.
    pub fn open(&mut self, name: &'static str, lane: Lane, sync: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            lane,
            sync,
            parent: parent.0,
            start,
            end: start,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end = self.now();
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        lane: Lane,
        sync: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, lane, sync, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The root handle: no parent.
    pub fn root() -> SpanId {
        SpanId(None)
    }

    /// Append another recorder's spans (same origin), keeping parents.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_us = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(self_us) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"lane\":\"{}\",\"sync\":{},\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.name,
                s.lane.as_str(),
                s.sync,
                parent,
                s.start,
                s.end,
                own
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may nest further and may overlap each
/// other (work the benchmark ran concurrently); overlapping cover counts
/// once, and cover outside the parent's interval does not count.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                let hi = hi.min(s.end);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-layer time on the critical path of every replayed sync, keyed by
/// `(sync, layer name)`, in µs. Within a [`STAGE_PARALLEL`] stage only the
/// lane with the larger total self time counts; within a
/// [`STAGE_SERIAL`] stage every child counts.
pub fn critical_layers(spans: &[Span]) -> HashMap<(u64, &'static str), f64> {
    let own = self_times(spans);
    let mut by_stage: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            if spans[p].name == STAGE_SERIAL || spans[p].name == STAGE_PARALLEL {
                by_stage.entry(p).or_default().push(i);
            }
        }
    }
    let mut out = HashMap::new();
    for (stage, kids) in by_stage {
        let critical_lane = if spans[stage].name == STAGE_PARALLEL {
            let mut per_lane: HashMap<Lane, f64> = HashMap::new();
            for &k in &kids {
                *per_lane.entry(spans[k].lane).or_default() += own[k];
            }
            per_lane
                .into_iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(lane, _)| lane)
        } else {
            None
        };
        for k in kids {
            if critical_lane.is_none_or(|lane| lane == spans[k].lane) {
                *out.entry((spans[k].sync, spans[k].name)).or_default() += own[k];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, lane: Lane, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            lane,
            sync: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("root", Lane::Bench, None, 0.0, 100.0),
            span("a", Lane::Client, Some(0), 10.0, 40.0),
            span("a.inner", Lane::Client, Some(1), 15.0, 25.0),
            span("b", Lane::Client, Some(0), 50.0, 60.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![60.0, 20.0, 10.0, 10.0]);
        // Self times of a tree partition the root's duration.
        assert_eq!(own.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("root", Lane::Bench, None, 0.0, 100.0),
            span("x", Lane::Client, Some(0), 10.0, 50.0),
            span("y", Lane::Server, Some(0), 30.0, 70.0),
            // Fully inside x and y: adds no further cover.
            span("z", Lane::Server, Some(0), 35.0, 45.0),
            // Sticks out past the parent: only the inside part counts.
            span("w", Lane::Client, Some(0), 90.0, 130.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100.0 - 60.0 - 10.0);
        assert_eq!(&own[1..], &[40.0, 40.0, 10.0, 40.0]);
    }

    #[test]
    fn critical_path_takes_the_slower_lane_of_parallel_stages() {
        let spans = vec![
            span("replay", Lane::Bench, None, 0.0, 100.0),
            span(STAGE_PARALLEL, Lane::Bench, Some(0), 0.0, 50.0),
            span("plan", Lane::Client, Some(1), 0.0, 20.0),
            span("plan", Lane::Server, Some(1), 20.0, 45.0),
            span("bob.partition", Lane::Server, Some(1), 45.0, 50.0),
            span(STAGE_SERIAL, Lane::Bench, Some(0), 50.0, 100.0),
            span("bob.decode", Lane::Server, Some(5), 50.0, 70.0),
            span("alice.apply", Lane::Client, Some(5), 70.0, 100.0),
        ];
        let crit = critical_layers(&spans);
        assert_eq!(crit[&(1, "plan")], 25.0);
        assert_eq!(crit[&(1, "bob.partition")], 5.0);
        assert_eq!(crit[&(1, "bob.decode")], 20.0);
        assert_eq!(crit[&(1, "alice.apply")], 30.0);
    }

    #[test]
    fn tracer_off_records_nothing_and_absorb_keeps_parents() {
        let origin = Instant::now();
        let mut off = Tracer::new(false, origin);
        let id = off.open("x", Lane::Client, 1, Tracer::root());
        off.close(id);
        assert!(off.spans().is_empty());

        let mut a = Tracer::new(true, origin);
        a.time("a", Lane::Client, 1, Tracer::root(), || ());
        let mut b = Tracer::new(true, origin);
        let root = b.open("b", Lane::Server, 2, Tracer::root());
        b.time("b.child", Lane::Server, 2, root, || ());
        b.close(root);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
