//! In-memory spans for the traced run. Each client thread owns a
//! [`SpanBuf`]; buffers are merged and written out when the run ends, so
//! recording costs a clock read and a `Vec` push.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call: `parent` is 0 for a root span, `req` groups the spans
/// of one request (0 when the call serves no single request).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A single thread's span buffer.
pub struct SpanBuf {
    base: Instant,
    id_prefix: u32,
    next: u32,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// A buffer timing against `base`; `buf_no` keeps span ids unique
    /// across buffers.
    pub fn new(base: Instant, buf_no: u32) -> SpanBuf {
        SpanBuf {
            base,
            id_prefix: buf_no << 24,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn fresh_id(&mut self) -> u32 {
        self.next += 1;
        self.id_prefix | self.next
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Records a finished call.
    pub fn record(
        &mut self,
        name: &'static str,
        t0: Instant,
        t1: Instant,
        parent: u32,
        req: u64,
    ) -> u32 {
        let id = self.fresh_id();
        self.spans.push(Span {
            name,
            id,
            parent,
            req,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
        });
        id
    }

    /// Starts a span whose children are recorded before it ends; finish
    /// it with [`SpanBuf::close`].
    pub fn open(&mut self, name: &'static str, t0: Instant, parent: u32, req: u64) -> u32 {
        self.record(name, t0, t0, parent, req)
    }

    /// Ends a span started with [`SpanBuf::open`] on this buffer.
    pub fn close(&mut self, id: u32, t1: Instant) {
        let end_ns = self.ns(t1);
        let i = (id & 0x00ff_ffff) as usize - 1;
        self.spans[i].end_ns = end_ns;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes spans as JSON lines: name, id, parent, req, start_ns, end_ns.
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn an_open_span_encloses_its_children() {
        let base = Instant::now();
        let mut b = SpanBuf::new(base, 1);
        let at = |us| base + Duration::from_micros(us);
        let root = b.open("root", at(0), 0, 7);
        let child = b.record("child", at(10), at(40), root, 7);
        b.close(root, at(100));
        let spans = b.into_spans();
        assert_eq!((spans[0].id, spans[0].end_ns), (root, 100_000));
        assert_eq!((spans[1].id, spans[1].parent), (child, root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
