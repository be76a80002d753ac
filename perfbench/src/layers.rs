//! Per-layer probes of the traced run. Each probe calls one crate's public
//! functions from here and times the call; nothing inside the program is
//! instrumented.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use pargrid_frontier::{GapProfile, LowerBound};
use pargrid_gridfile::page::{encode_page, HEADER_BYTES};
use pargrid_gridfile::{GridFile, Wal, WalOp};
use pargrid_net::Response;
use pargrid_parallel::{BlockStore, ParallelGridFile};

use crate::drive::{serial_pass, Checker};
use crate::stats::{quantile, sorted};
use crate::trace::SpanBuf;
use crate::workload::{Mutation, MutationStream, BATCH};

/// Queries the slower probes (the serial pass, the store reads) use: the
/// first this many of the query set.
pub const PROBE_QUERIES: usize = 1000;

/// The paper's virtual metrics from an in-process replay of the query
/// set: they repeat exactly for a seed.
pub struct Replay {
    pub profile: GapProfile,
    /// Replies that did not match the oracle, or came back incomplete.
    pub failed: u64,
    pub incomplete: u64,
}

/// Replays the query set through one engine session.
pub fn replay(engine: &ParallelGridFile, check: &Checker) -> Replay {
    let oracle = LowerBound::new(engine.active_workers(), check.rects[0].dim());
    let mut profile = GapProfile::default();
    let (mut failed, mut incomplete) = (0, 0);
    let mut session = engine.session();
    for (q, rect) in check.rects.iter().enumerate() {
        let out = session.query(rect);
        incomplete += out.incomplete as u64;
        failed += (out.incomplete || !check.is_correct(q, &out.records)) as u64;
        profile.responses.push(out.response_blocks);
        profile.bounds.push(oracle.per_query(out.total_blocks));
    }
    Replay {
        profile,
        failed,
        incomplete,
    }
}

/// Grid-directory planning on the oracle copy: (plan p50 µs, buckets per
/// query, records in touched buckets per record returned).
pub fn planning(gf: &GridFile, check: &Checker) -> (f64, f64, f64) {
    let (mut us, mut buckets, mut examined, mut returned) = (Vec::new(), 0usize, 0usize, 0usize);
    for q in &check.queries {
        let t0 = Instant::now();
        let plan = q.plan(gf);
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        buckets += plan.len();
        examined += plan
            .iter()
            .map(|&b| gf.bucket_records(b).len())
            .sum::<usize>();
        returned += q.answer(gf).len();
    }
    (
        quantile(&sorted(us), 0.5),
        buckets as f64 / check.len() as f64,
        examined as f64 / returned.max(1) as f64,
    )
}

/// What the traced serial pass measured, per request: the TCP round
/// trip, and in-process replays of the same request through the engine,
/// the planner and the reply codec.
pub struct Serial {
    pub rtt_us: Vec<f64>,
    pub query_us: Vec<f64>,
    pub plan_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub reply_bytes: Vec<f64>,
    pub total_blocks: u64,
    pub cache_hits: u64,
    pub incomplete: u64,
    pub failed: u64,
}

/// One connection sends the first [`PROBE_QUERIES`] queries once, closed
/// loop. After each reply the same request is replayed in process, layer
/// by layer, under a `layers` span beside the round trip's `net.rtt` span
/// (same `req`); the part of the round trip the layers do not explain is
/// `net.residual_us`.
pub fn serial(
    addr: SocketAddr,
    engine: &ParallelGridFile,
    gf: &GridFile,
    check: &Checker,
    spans: &mut SpanBuf,
) -> Serial {
    let mut s = Serial {
        rtt_us: Vec::new(),
        query_us: Vec::new(),
        plan_us: Vec::new(),
        encode_us: Vec::new(),
        decode_us: Vec::new(),
        reply_bytes: Vec::new(),
        total_blocks: 0,
        cache_hits: 0,
        incomplete: 0,
        failed: 0,
    };
    let mut session = engine.session();
    serial_pass(addr, check, PROBE_QUERIES, |q, reply, t0, t1| {
        let req = (1 << 62) | q as u64;
        spans.record("net.rtt", t0, t1, 0, req);
        s.rtt_us.push((t1 - t0).as_secs_f64() * 1e6);
        let Ok(reply) = reply else {
            s.failed += 1;
            return;
        };
        s.failed += (reply.incomplete || !check.is_correct(q, &reply.records)) as u64;

        // The same request replayed layer by layer in process, after its
        // round trip: a sibling of `net.rtt` whose children are the layers.
        let a = Instant::now();
        let layers = spans.open("layers", a, 0, req);
        let out = session.query(&check.rects[q]);
        let b = Instant::now();
        spans.record("parallel.query", a, b, layers, req);
        s.query_us.push((b - a).as_secs_f64() * 1e6);
        s.total_blocks += out.total_blocks;
        s.cache_hits += out.cache_hits;
        s.incomplete += out.incomplete as u64;

        let a = Instant::now();
        std::hint::black_box(check.queries[q].plan(gf));
        let b = Instant::now();
        spans.record("gridfile.plan", a, b, layers, req);
        s.plan_us.push((b - a).as_secs_f64() * 1e6);

        let resp = Response::Records(reply.clone());
        let a = Instant::now();
        let (ty, payload) = resp.encode();
        let b = Instant::now();
        spans.record("net.encode", a, b, layers, req);
        s.encode_us.push((b - a).as_secs_f64() * 1e6);
        s.reply_bytes.push(payload.len() as f64);

        let a = Instant::now();
        let decoded = Response::decode(ty, &payload);
        let b = Instant::now();
        spans.record("net.decode", a, b, layers, req);
        spans.close(layers, b);
        s.decode_us.push((b - a).as_secs_f64() * 1e6);
        if decoded.as_ref() != Ok(&resp) {
            s.failed += 1;
        }
    });
    s
}

/// `BlockStore::read_block` p50 (µs) on a file store holding the buckets
/// the first [`PROBE_QUERIES`] queries touch, read in the order the
/// queries touch them.
pub fn store_reads(gf: &GridFile, check: &Checker, path: &Path) -> std::io::Result<f64> {
    let cfg = gf.config();
    let queries = &check.queries[..PROBE_QUERIES.min(check.len())];
    let touched: BTreeSet<u32> = queries.iter().flat_map(|q| q.plan(gf)).collect();
    let mut store = BlockStore::file(path, HEADER_BYTES + cfg.page_bytes)?;
    let mut block_of = std::collections::HashMap::new();
    for (block, &b) in (0u32..).zip(&touched) {
        block_of.insert(b, block);
        // One block per bucket: the first page of an oversize bucket.
        let recs = gf.bucket_records(b);
        let page = &recs[..recs.len().min(cfg.bucket_capacity())];
        store.put(
            block,
            encode_page(page, gf.dim(), cfg.payload_bytes, cfg.page_bytes),
        )?;
    }
    let mut us = Vec::new();
    for q in queries {
        for b in q.plan(gf) {
            let t0 = Instant::now();
            let buf = store.read_block(block_of[&b]);
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            if buf.is_err() {
                return Err(std::io::Error::other("probe store read failed"));
            }
        }
    }
    Ok(quantile(&sorted(us), 0.5))
}

/// Timings and bucket effects of applying mutations to the oracle copy.
pub struct OracleMutations {
    pub insert_us: Vec<f64>,
    pub delete_us: Vec<f64>,
    /// Buckets split off.
    pub splits: usize,
    /// Buckets merged away.
    pub merges: usize,
}

/// Applies acknowledged mutations to the oracle copy, timing each call.
pub fn apply_to_oracle(gf: &mut GridFile, acked: &[Mutation]) -> OracleMutations {
    let mut out = OracleMutations {
        insert_us: Vec::new(),
        delete_us: Vec::new(),
        splits: 0,
        merges: 0,
    };
    for m in acked {
        let t0 = Instant::now();
        let effect = match *m {
            Mutation::Insert(r) => {
                let e = gf.insert_tracked(r);
                out.insert_us.push(t0.elapsed().as_secs_f64() * 1e6);
                e
            }
            Mutation::Delete(r) => {
                let (_, e) = gf.delete_tracked(r.id, &r.point);
                out.delete_us.push(t0.elapsed().as_secs_f64() * 1e6);
                e
            }
        };
        out.splits += effect.created.len();
        out.merges += effect.freed.len();
    }
    out
}

/// `Wal::append` + `sync` (µs each) on a scratch log, for `ops`.
pub fn wal_syncs(path: &Path, ops: &[Mutation]) -> std::io::Result<Vec<f64>> {
    let mut wal = Wal::open_append(path, 0)?;
    let mut us = Vec::with_capacity(ops.len());
    for m in ops {
        let op = match *m {
            Mutation::Insert(r) => WalOp::Insert(r),
            Mutation::Delete(r) => WalOp::Delete {
                id: r.id,
                point: r.point,
            },
        };
        let t0 = Instant::now();
        wal.append(&op)?;
        wal.sync()?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(us)
}

/// In-process `engine.insert` / `engine.delete` (WAL attached) for two
/// insert-then-delete cycles of `stream`; µs per call, or `None` if any
/// call failed or did not apply.
pub fn engine_mutations(engine: &ParallelGridFile, stream: &MutationStream) -> Option<Vec<f64>> {
    let mut us = Vec::new();
    for k in 0..4 * BATCH {
        let t0 = Instant::now();
        let applied = match stream.op(k) {
            Mutation::Insert(r) => engine.insert(r).ok()?.applied,
            Mutation::Delete(r) => engine.delete(r.id, &r.point).ok()?.applied,
        };
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        if !applied {
            return None;
        }
    }
    Some(us)
}

/// (sojourn p50 µs, admission-queue high-water mark) from the server's
/// Prometheus document. The sojourn histogram's buckets grow by 4×, so
/// the p50 is interpolated within its bucket.
pub fn queue_stats(prom: &str) -> (f64, f64) {
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    let mut hwm = f64::NAN;
    for line in prom.lines() {
        if let Some(rest) = line.strip_prefix("pargrid_net_sojourn_us_bucket{le=\"") {
            let mut it = rest.splitn(2, "\"} ");
            let le = it.next().unwrap_or("");
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::NAN)
            };
            let cum = it
                .next()
                .and_then(|c| c.trim().parse().ok())
                .unwrap_or(f64::NAN);
            buckets.push((le, cum));
        } else if let Some(v) = line.strip_prefix("pargrid_net_queue_depth_hwm ") {
            hwm = v.trim().parse().unwrap_or(f64::NAN);
        }
    }
    let total = buckets.last().map_or(0.0, |b| b.1);
    let target = total / 2.0;
    let (mut prev_le, mut prev_cum) = (0.0, 0.0);
    let mut p50 = f64::NAN;
    for &(le, cum) in &buckets {
        if cum >= target && total > 0.0 {
            p50 = if le.is_finite() && cum > prev_cum {
                prev_le + (le - prev_le) * (target - prev_cum) / (cum - prev_cum)
            } else {
                prev_le
            };
            break;
        }
        (prev_le, prev_cum) = (le, cum);
    }
    (p50, hwm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sojourn_median_is_interpolated() {
        let doc = "pargrid_net_sojourn_us_bucket{le=\"64\"} 10\n\
                   pargrid_net_sojourn_us_bucket{le=\"256\"} 30\n\
                   pargrid_net_sojourn_us_bucket{le=\"+Inf\"} 40\n\
                   pargrid_net_queue_depth_hwm 3\n";
        let (p50, hwm) = queue_stats(doc);
        assert_eq!(hwm, 3.0);
        assert!((p50 - (64.0 + 192.0 * 0.5)).abs() < 1e-9);
    }
}
