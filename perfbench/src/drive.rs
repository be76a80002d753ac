//! The benchmark's own load driver: one thread and one TCP connection per
//! lane, open loop (timed from when each request was due) or closed loop,
//! with every reply checked against the oracle.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use pargrid_geom::Rect;
use pargrid_gridfile::GridFile;
use pargrid_net::{Client, ClientError, FrameError, MutationAck, RecordsReply, WireError};

use crate::trace::{Span, SpanBuf};
use crate::workload::{Mutation, MutationStream, Query, TRANSIENT_ID_BASE};

/// Expected answers for a query set.
pub struct Checker {
    pub queries: Vec<Query>,
    pub rects: Vec<Rect>,
    /// Sorted ids of each query's records with ids below
    /// [`TRANSIENT_ID_BASE`] (mutations never touch these).
    pub expected: Vec<Vec<u64>>,
    /// Streams whose transient records may legitimately appear in replies;
    /// empty when no mutation can be in flight.
    pub streams: Vec<MutationStream>,
}

impl Checker {
    pub fn new(
        queries: Vec<Query>,
        domain: &Rect,
        oracle: &GridFile,
        streams: Vec<MutationStream>,
    ) -> Checker {
        let rects = queries.iter().map(|q| q.rect(domain)).collect();
        let expected = queries
            .iter()
            .map(|q| {
                let mut ids: Vec<u64> = q
                    .answer(oracle)
                    .iter()
                    .map(|r| r.id)
                    .filter(|&id| id < TRANSIENT_ID_BASE)
                    .collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        Checker {
            queries,
            rects,
            expected,
            streams,
        }
    }

    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether `records` is a correct answer to query `q`: exactly the
    /// expected static records, plus only transient records that some
    /// stream wrote at that key inside the query box.
    pub fn is_correct(&self, q: usize, records: &[pargrid_gridfile::Record]) -> bool {
        let mut ids: Vec<u64> = Vec::with_capacity(records.len());
        for r in records {
            if r.id < TRANSIENT_ID_BASE {
                ids.push(r.id);
                continue;
            }
            let s = ((r.id - TRANSIENT_ID_BASE) >> 32) as usize;
            let Some(stream) = self.streams.get(s) else {
                return false;
            };
            if stream.point_of(r.id) != r.point || !self.rects[q].contains_closed(&r.point) {
                return false;
            }
        }
        if !ids.is_sorted() {
            ids.sort_unstable();
        }
        ids == self.expected[q]
    }

    /// Prints how a wrong answer to query `q` differs from the oracle.
    pub fn explain(&self, q: usize, records: &[pargrid_gridfile::Record]) {
        let got: std::collections::BTreeSet<u64> = records.iter().map(|r| r.id).collect();
        let want: std::collections::BTreeSet<u64> = self.expected[q].iter().copied().collect();
        let missing: Vec<u64> = want.difference(&got).copied().collect();
        let extra: Vec<&pargrid_gridfile::Record> = records
            .iter()
            .filter(|r| {
                !want.contains(&r.id)
                    && (r.id < TRANSIENT_ID_BASE || !self.rects[q].contains_closed(&r.point))
            })
            .collect();
        eprintln!(
            "perfbench: wrong answer to query {q} {:?}: {} records, {} expected static; missing {:?}; unexpected {:?}; duplicates {}",
            self.rects[q],
            records.len(),
            want.len(),
            missing,
            extra,
            records.len() - got.len()
        );
    }
}

/// Outcome counts of one or more lanes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub shed: u64,
    pub incomplete: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errors + self.shed + self.incomplete + self.wrong
    }

    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.shed += o.shed;
        self.incomplete += o.incomplete;
        self.wrong += o.wrong;
    }

    fn error(&mut self, e: &ClientError) {
        match e {
            ClientError::Server(WireError::Overloaded { .. }) => self.shed += 1,
            ClientError::Server(WireError::Incomplete(_)) => self.incomplete += 1,
            _ => self.errors += 1,
        }
    }
}

/// A connection that reconnects after a transport failure.
struct Conn {
    addr: SocketAddr,
    client: Option<Client>,
}

impl Conn {
    fn call<T>(
        &mut self,
        f: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        if self.client.is_none() {
            let c =
                Client::connect(self.addr).map_err(|e| ClientError::Frame(FrameError::Io(e)))?;
            self.client = Some(c);
        }
        let r = f(self.client.as_mut().expect("connected above"));
        if matches!(r, Err(ClientError::Frame(_) | ClientError::Proto(_))) {
            self.client = None;
        }
        r
    }

    fn mutate(&mut self, m: &Mutation) -> Result<MutationAck, ClientError> {
        match m {
            Mutation::Insert(r) => self.call(|c| c.insert(r.id, r.point.coords())),
            Mutation::Delete(r) => self.call(|c| c.delete(r.id, r.point.coords())),
        }
    }
}

/// Acknowledged mutations between read-your-write probes.
const RYW_EVERY: u64 = 8;

/// What a lane sends.
pub enum Traffic<'a> {
    /// The query set, cycled from `offset`.
    Queries { offset: usize },
    /// A mutation stream from op `from`; every [`RYW_EVERY`]-th mutation
    /// is followed by a read-your-write probe (counted, not timed).
    Writes {
        stream: &'a MutationStream,
        from: u64,
    },
}

#[derive(Clone, Copy)]
pub enum Stop {
    Count(u64),
    After(Duration),
}

/// One client thread and its connection.
pub struct Lane<'a> {
    /// Arrivals per second; `None` is a closed loop.
    pub rate: Option<f64>,
    pub stop: Stop,
    pub traffic: Traffic<'a>,
}

/// One request's timing. Times are seconds since the run's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub due_s: f64,
    pub done_s: f64,
    /// Due to reply (open loop) or send to reply (closed loop);
    /// `INFINITY` when the request failed.
    pub lat_us: f64,
    /// How late the request left after it was due.
    pub lag_us: f64,
    pub write: bool,
}

#[derive(Default)]
pub struct LaneOut {
    /// Every request of an open-loop lane or a writer.
    pub samples: Vec<Sample>,
    /// A closed-loop reader keeps only when each correct reply arrived
    /// (seconds since the epoch): its request count grows with the
    /// program's speed, and a few bytes each keep that out of `rss_mb`.
    pub done_s: Vec<f64>,
    pub tally: Tally,
    /// Mutations the server acknowledged as applied, in order.
    pub acked: Vec<Mutation>,
    pub spans: Vec<Span>,
}

/// Runs the lanes concurrently, each on its own thread and connection,
/// starting together once every connection is open. Sample and span times
/// count from `epoch`. With `trace_buf` set, a span is recorded around
/// every request, in buffers numbered from it.
pub fn run_lanes(
    addr: SocketAddr,
    check: &Checker,
    lanes: Vec<Lane<'_>>,
    epoch: Instant,
    trace_buf: Option<u32>,
) -> Vec<LaneOut> {
    let barrier = Barrier::new(lanes.len());
    thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .enumerate()
            .map(|(i, lane)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut conn = Conn { addr, client: None };
                    // Connect outside the timed part; a failure here
                    // surfaces as errors on the lane's requests.
                    let _ = conn.call(|c| c.ping(0));
                    let spans = trace_buf.map(|n| SpanBuf::new(epoch, n + i as u32));
                    barrier.wait();
                    let tag = u64::from(trace_buf.unwrap_or(0)) + i as u64 + 1;
                    run_lane(&mut conn, check, &lane, epoch, spans, tag)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread panicked"))
            .collect()
    })
}

fn run_lane(
    conn: &mut Conn,
    check: &Checker,
    lane: &Lane<'_>,
    epoch: Instant,
    mut spans: Option<SpanBuf>,
    tag: u64,
) -> LaneOut {
    let mut out = LaneOut::default();
    let start = Instant::now();
    let n = check.len();
    let (mut q_next, mut m_next, writer) = match lane.traffic {
        Traffic::Queries { offset } => (offset, 0, None),
        Traffic::Writes { stream, from } => (0, from, Some(stream)),
    };
    for k in 0u64.. {
        let due = match lane.rate {
            Some(r) => start + Duration::from_secs_f64(k as f64 / r),
            None => Instant::now(),
        };
        match lane.stop {
            Stop::Count(c) if k >= c => break,
            Stop::After(d) if due.duration_since(start) >= d => break,
            _ => {}
        }
        wait_until(due);
        let sent = Instant::now();
        out.tally.attempted += 1;
        let ok = match writer {
            None => {
                let q = q_next % n;
                q_next += 1;
                match conn.call(|c| check.queries[q].send(c)) {
                    Ok(reply) => answer_ok(check, q, &reply, &mut out.tally),
                    Err(e) => {
                        out.tally.error(&e);
                        false
                    }
                }
            }
            Some(stream) => {
                let m = stream.op(m_next);
                m_next += 1;
                match conn.mutate(&m) {
                    Ok(ack) if ack.applied => {
                        out.acked.push(m);
                        true
                    }
                    Ok(_) => {
                        out.tally.wrong += 1;
                        false
                    }
                    Err(e) => {
                        out.tally.error(&e);
                        false
                    }
                }
            }
        };
        let done = Instant::now();
        if let Some(s) = spans.as_mut() {
            let name = if writer.is_some() {
                "net.mutate"
            } else {
                "net.rtt"
            };
            s.record(name, sent, done, 0, (tag << 40) | k);
        }
        if lane.rate.is_none() && writer.is_none() {
            if ok {
                out.done_s.push((done - epoch).as_secs_f64());
            }
        } else {
            out.samples.push(Sample {
                due_s: (due - epoch).as_secs_f64(),
                done_s: (done - epoch).as_secs_f64(),
                lat_us: if ok {
                    (done - due).as_secs_f64() * 1e6
                } else {
                    f64::INFINITY
                },
                lag_us: (sent - due).as_secs_f64() * 1e6,
                write: writer.is_some(),
            });
        }
        if let Some(m) = out
            .acked
            .last()
            .filter(|_| ok && (m_next - 1) % RYW_EVERY == 0)
        {
            read_your_write(conn, m, &mut out.tally);
        }
    }
    out.spans = spans.map(SpanBuf::into_spans).unwrap_or_default();
    out
}

fn answer_ok(check: &Checker, q: usize, reply: &RecordsReply, tally: &mut Tally) -> bool {
    if reply.incomplete {
        tally.incomplete += 1;
        false
    } else if !check.is_correct(q, &reply.records) {
        tally.wrong += 1;
        check.explain(q, &reply.records);
        false
    } else {
        true
    }
}

/// After an acknowledged mutation, a point query at its key must (for an
/// insert) or must not (for a delete) return the record.
fn read_your_write(conn: &mut Conn, m: &Mutation, tally: &mut Tally) {
    let rec = m.record();
    let p = rec.point.coords();
    tally.attempted += 1;
    match conn.call(|c| c.range_query(p, p)) {
        Ok(reply) => {
            let seen = reply
                .records
                .iter()
                .any(|r| r.id == rec.id && r.point == rec.point);
            if seen != matches!(m, Mutation::Insert(_)) || reply.incomplete {
                tally.wrong += 1;
            }
        }
        Err(e) => tally.error(&e),
    }
}

/// Sleeps until shortly before `due`, then yields until it arrives, so
/// requests leave on time without a timer's oversleep.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            thread::sleep(left - Duration::from_micros(200));
        } else {
            thread::yield_now();
        }
    }
}

/// Runs the query set once over one connection, calling `each` with every
/// reply and its round-trip time; used by the final check and the traced
/// serial pass.
pub fn serial_pass(
    addr: SocketAddr,
    check: &Checker,
    count: usize,
    mut each: impl FnMut(usize, Result<&RecordsReply, &ClientError>, Instant, Instant),
) {
    let mut conn = Conn { addr, client: None };
    for q in 0..count.min(check.len()) {
        let t0 = Instant::now();
        let r = conn.call(|c| check.queries[q].send(c));
        let t1 = Instant::now();
        each(q, r.as_ref(), t0, t1);
    }
}

/// Fetches the server's Prometheus document over a fresh connection.
pub fn fetch_stats(addr: SocketAddr) -> Result<String, ClientError> {
    Conn { addr, client: None }.call(|c| c.stats())
}

/// Range query over a whole domain over a fresh connection.
pub fn scan_all(addr: SocketAddr, domain: &Rect) -> Result<RecordsReply, ClientError> {
    Conn { addr, client: None }.call(|c| c.range_query(domain.lo().coords(), domain.hi().coords()))
}
