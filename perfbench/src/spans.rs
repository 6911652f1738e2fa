//! In-memory spans and the small JSON writer the benchmark prints with.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (the program itself carries no spans) and written out once, when the
//! traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// A JSON object built field by field, in insertion order.
#[derive(Default, Clone)]
pub struct Json(Vec<(String, String)>);

impl Json {
    pub fn num(mut self, key: &str, v: f64) -> Self {
        // JSON has no NaN or infinity; such a value is reported as null.
        let text = if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        };
        self.0.push((key.to_string(), text));
        self
    }

    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.0.push((key.to_string(), v.to_string()));
        self
    }

    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.0.push((key.to_string(), quote(v)));
        self
    }

    pub fn raw(mut self, key: &str, json: String) -> Self {
        self.0.push((key.to_string(), json));
        self
    }

    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {v}", quote(k));
        }
        out.push('}');
        out
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// One recorded span: host seconds since the recorder started.
struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
    attrs: Json,
}

/// Span recorder. Ids are indices; a span's parent is opened before it.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_s: now,
            end_s: now,
            attrs: Json::default(),
        });
        self.spans.len() - 1
    }

    /// Close span `id`, attaching `attrs`; returns its duration.
    pub fn close(&mut self, id: usize, attrs: Json) -> f64 {
        let now = self.origin.elapsed().as_secs_f64();
        let span = &mut self.spans[id];
        span.end_s = now;
        span.attrs = attrs;
        now - span.start_s
    }

    pub fn render(&self) -> String {
        array(self.spans.iter().enumerate().map(|(id, s)| {
            let mut j = Json::default().int("id", id as u64).str("name", &s.name);
            j = match s.parent {
                Some(p) => j.int("parent", p as u64),
                None => j.raw("parent", "null".into()),
            };
            j.num("start_s", s.start_s)
                .num("end_s", s.end_s)
                .raw("attrs", s.attrs.render())
                .render()
        }))
    }
}
