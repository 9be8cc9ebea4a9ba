//! Harness-side spans: name, start, end, parent, op id. Spans wrap the
//! calls *into* the system (they are recorded in `sut.rs`) and stay in
//! memory until the run ends; spans inside the system are a later
//! change (ROADMAP item 3).

use crate::json::Json;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<SpanId>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
    /// Client thread that recorded it (Chrome-trace `tid`).
    pub client: usize,
}

/// Where a new span hangs: its parent, op and recording client.
#[derive(Clone, Copy, Debug, Default)]
struct Ctx {
    parent: Option<SpanId>,
    op: u64,
    client: usize,
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// A handle recording top-level spans for `client`; `on == false`
    /// makes every span a plain call, so the untraced measurement pays
    /// one branch per call into the system.
    pub fn handle(&self, on: bool, client: usize) -> Tr<'_> {
        Tr { tracer: self, on, ctx: Ctx { parent: None, op: 0, client } }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// A position in the span tree, passed down through every call into
/// the system.
#[derive(Clone, Copy)]
pub struct Tr<'a> {
    tracer: &'a Tracer,
    on: bool,
    ctx: Ctx,
}

impl<'a> Tr<'a> {
    /// The same position, recording (or not) on behalf of op `op`.
    pub fn for_op(self, op: u64, on: bool) -> Tr<'a> {
        Tr { on, ctx: Ctx { op, ..self.ctx }, ..self }
    }

    /// The same position, recording nothing: for calls repeated inside
    /// a probe loop, which has one span for the whole loop.
    pub fn off(self) -> Tr<'a> {
        Tr { on: false, ..self }
    }

    /// The same position, recording on client thread `client`.
    pub fn for_client(self, client: usize) -> Tr<'a> {
        Tr { ctx: Ctx { client, ..self.ctx }, ..self }
    }

    /// Run `f` inside a child span named `name`.
    pub fn span<R>(self, name: &'static str, f: impl FnOnce(Tr<'a>) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let start_us = self.tracer.now_us();
        let id = {
            let mut spans = self.tracer.spans.lock().expect("span list lock");
            spans.push(Span {
                name,
                start_us,
                end_us: start_us,
                parent: self.ctx.parent,
                op: self.ctx.op,
                client: self.ctx.client,
            });
            spans.len() - 1
        };
        let out = f(Tr { ctx: Ctx { parent: Some(id), ..self.ctx }, ..self });
        let end_us = self.tracer.now_us();
        self.tracer.spans.lock().expect("span list lock")[id].end_us = end_us;
        out
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its child spans cover (children may overlap each other or
/// stick out of the parent; both are clipped).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_us.max(spans[p].start_us), s.end_us.min(spans[p].end_us));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

/// Total self time per span name, µs, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let mut out: Vec<(&'static str, f64, usize)> = Vec::new();
    for (s, self_us) in spans.iter().zip(self_times_us(spans)) {
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(slot) => {
                slot.1 += self_us;
                slot.2 += 1;
            }
            None => out.push((s.name, self_us, 1)),
        }
    }
    out
}

/// Chrome-trace ("Trace Event Format") rendering: one complete (`X`)
/// event per span; loads in `chrome://tracing` and Perfetto.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Json {
    let selfs = self_times_us(spans);
    let events = spans
        .iter()
        .zip(selfs)
        .enumerate()
        .map(|(id, (s, self_us))| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or("span"))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.end_us - s.start_us)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.client as f64)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("op", Json::Num(s.op as f64)),
                        ("self_us", Json::Num(self_us)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("otherData", Json::obj([("workload", Json::str(workload))])),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<SpanId>) -> Span {
        Span { name, start_us, end_us, parent, op: 0, client: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("op", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            span("b", 30.0, 60.0, Some(0)),  // overlaps a by 10
            span("c", 90.0, 120.0, Some(0)), // sticks out by 20
            span("a.inner", 10.0, 20.0, Some(1)),
        ];
        let selfs = self_times_us(&spans);
        // op: 100 - ([10,60] ∪ [90,100]) = 100 - 60
        assert_eq!(selfs, vec![40.0, 20.0, 30.0, 30.0, 10.0]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("op", 40.0, 1));
    }

    #[test]
    fn spans_nest_and_off_records_nothing() {
        let t = Tracer::new();
        t.handle(true, 3).for_op(7, true).span("outer", |tr| {
            tr.span("inner", |_| ());
            tr.for_op(8, false).span("silent", |tr| tr.span("silent.child", |_| ()));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].client), ("outer", None, 3));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].op), ("inner", Some(0), 7));
        assert!(spans[0].end_us >= spans[1].end_us);
        assert!(spans[1].end_us >= spans[1].start_us);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = [span("sut.run", 5.0, 25.0, None), span("sut.check", 10.0, 15.0, Some(0))];
        let doc = chrome_trace(&spans, "wc_warm");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(20.0));
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("self_us").and_then(Json::as_f64), Some(15.0));
        assert!(Json::parse(&doc.to_string()).is_ok());
    }
}
