//! The three workloads: their datasets, query sets, mutation streams and
//! fixed rates. Everything here is a pure function of the seed.

use pargrid_datagen::Dataset;
use pargrid_geom::{Point, Rect};
use pargrid_gridfile::{GridFile, Record};
use pargrid_net::{Client, ClientError, RecordsReply};

/// Disks (worker threads) every workload declusters over.
pub const DISKS: usize = 8;

/// Records inserted by the benchmark get ids from here up, so a reply's
/// static records (ids below) can be checked exactly while mutations run.
pub const TRANSIENT_ID_BASE: u64 = 1 << 40;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    PointHot2d,
    ScanDsmc4d,
    MixedHot2d,
}

/// Fixed parameters of one workload.
pub struct Spec {
    /// Open-loop query arrivals per second, all query connections together.
    pub open_qps: f64,
    /// Open-loop mutation arrivals per second on the writer connection
    /// (mixed-hot2d only; 0 elsewhere).
    pub write_rate: f64,
    /// Latency limit on the open-loop query p99, microseconds.
    pub limit_p99_us: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Distinct queries in the query set (cycled).
    pub n_queries: usize,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PointHot2d, Kind::ScanDsmc4d, Kind::MixedHot2d];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::PointHot2d => "point-hot2d",
            Kind::ScanDsmc4d => "scan-dsmc4d",
            Kind::MixedHot2d => "mixed-hot2d",
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Kind::PointHot2d => Spec {
                open_qps: 1000.0,
                write_rate: 0.0,
                limit_p99_us: 5_000.0,
                setups: 31,
                n_queries: 2000,
            },
            Kind::ScanDsmc4d => Spec {
                open_qps: 100.0,
                write_rate: 0.0,
                limit_p99_us: 100_000.0,
                setups: 3,
                n_queries: 4000,
            },
            Kind::MixedHot2d => Spec {
                open_qps: 900.0,
                write_rate: 300.0,
                limit_p99_us: 5_000.0,
                setups: 31,
                n_queries: 2000,
            },
        }
    }

    /// The workload's dataset. Generation is part of the timed set-up.
    pub fn dataset(self, seed: u64) -> Dataset {
        match self {
            Kind::ScanDsmc4d => pargrid_datagen::dsmc4d(seed, 59, 600_000),
            Kind::PointHot2d | Kind::MixedHot2d => pargrid_datagen::hot2d(seed),
        }
    }
}

/// SplitMix64: tiny, seedable, and independent of the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = self.unit().max(f64::MIN_POSITIVE);
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * self.unit()).cos()
    }
}

/// One read request of a query set.
#[derive(Clone, Debug)]
pub enum Query {
    Range(Rect),
    /// `None` is a wildcard attribute.
    Partial(Vec<Option<f64>>),
}

impl Query {
    /// The rectangle the server evaluates (a partial match is a range
    /// with zero width on each specified attribute).
    pub fn rect(&self, domain: &Rect) -> Rect {
        match self {
            Query::Range(r) => *r,
            Query::Partial(keys) => {
                let d = domain.dim();
                let lo: Vec<f64> = (0..d)
                    .map(|k| keys[k].unwrap_or(domain.lo().get(k)))
                    .collect();
                let hi: Vec<f64> = (0..d)
                    .map(|k| keys[k].unwrap_or(domain.hi().get(k)))
                    .collect();
                Rect::new(Point::new(&lo), Point::new(&hi))
            }
        }
    }

    /// The grid-directory plan: buckets the query must read.
    pub fn plan(&self, gf: &GridFile) -> Vec<u32> {
        match self {
            Query::Range(r) => gf.range_query_buckets(r),
            Query::Partial(keys) => gf.partial_match_buckets(keys),
        }
    }

    /// The oracle answer from an independent grid file.
    pub fn answer(&self, gf: &GridFile) -> Vec<Record> {
        match self {
            Query::Range(r) => gf.range_query(r).1,
            Query::Partial(keys) => gf.partial_match(keys).1,
        }
    }

    /// Sends the query over the wire.
    pub fn send(&self, c: &mut Client) -> Result<RecordsReply, ClientError> {
        match self {
            Query::Range(r) => c.range_query(r.lo().coords(), r.hi().coords()),
            Query::Partial(keys) => c.partial_match(keys),
        }
    }
}

/// The workload's query set. Range queries are centred on data points, so
/// they land where the records are. `gf` holds the dataset; it sizes the
/// dsmc4d ranges.
pub fn queries(kind: Kind, ds: &Dataset, gf: &GridFile, seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed, 1);
    let n = kind.spec().n_queries;
    let dom = ds.domain;
    (0..n)
        .map(|i| match kind {
            // Squares of 0.1% of the domain's area.
            Kind::PointHot2d | Kind::MixedHot2d => {
                let half = 0.5 * dom.side(0) * 0.001f64.sqrt();
                let c = ds.points[rng.below(ds.len())];
                Query::Range(boxed(&dom, &c, &[half, half]))
            }
            // One query in twenty is a partial match on the time attribute:
            // a whole snapshot, ~10k records. The rest span three snapshots
            // and are sized to return a number of records drawn
            // log-uniformly from 100..1600, so the mix of reply sizes, and
            // with it the latency, does not depend on how the seed's
            // dataset happens to be dense.
            Kind::ScanDsmc4d => {
                let c = ds.points[rng.below(ds.len())];
                if i % 20 == 19 {
                    Query::Partial(vec![Some(c.get(0)), None, None, None])
                } else {
                    let target = 100.0 * 16f64.powf(rng.unit());
                    Query::Range(sized_box(gf, &dom, &c, target))
                }
            }
        })
        .collect()
}

/// A box around `c` spanning three snapshots whose spatial sides are
/// scaled until it holds about `target` records (within 20%, or the
/// closest of a few tries).
fn sized_box(gf: &GridFile, dom: &Rect, c: &Point, target: f64) -> Rect {
    let mut f = 0.07;
    let mut best = (f64::INFINITY, *dom);
    for _ in 0..6 {
        let half = [1.0, f * dom.side(1), f * dom.side(2), f * dom.side(3)];
        let rect = boxed(dom, c, &half);
        let count = gf.range_query(&rect).1.len() as f64;
        let miss = (count.max(1.0) / target).ln().abs();
        if miss < best.0 {
            best = (miss, rect);
        }
        if miss < 1.2f64.ln() {
            break;
        }
        // Records grow about with the cube of the spatial scale.
        f *= (target / count.max(1.0)).cbrt().clamp(0.5, 2.0);
    }
    best.1
}

/// The box `c ± half`, clipped to the domain.
fn boxed(dom: &Rect, c: &Point, half: &[f64]) -> Rect {
    let d = dom.dim();
    let lo: Vec<f64> = (0..d)
        .map(|k| (c.get(k) - half[k]).max(dom.lo().get(k)))
        .collect();
    let hi: Vec<f64> = (0..d)
        .map(|k| (c.get(k) + half[k]).min(dom.hi().get(k)))
        .collect();
    Rect::new(Point::new(&lo), Point::new(&hi))
}

/// An insert or a delete.
#[derive(Clone, Copy, Debug)]
pub enum Mutation {
    Insert(Record),
    Delete(Record),
}

impl Mutation {
    pub fn record(&self) -> Record {
        match *self {
            Mutation::Insert(r) | Mutation::Delete(r) => r,
        }
    }
}

/// Mutations per insert (or delete) batch: a stream inserts this many
/// fresh records, then deletes the same records, and repeats. Enough
/// inserts into one spot to split buckets, enough deletes to merge them.
pub const BATCH: u64 = 250;

/// An endless insert-then-delete stream of transient records; op `k` of
/// stream `stream` is a pure function of `(seed, stream, k)`, so several
/// connections can run their own streams without coordination.
#[derive(Clone)]
pub struct MutationStream {
    seed: u64,
    base: u64,
    domain: Rect,
    /// Centre of the spot the stream writes into.
    spot: Point,
    /// Leading attributes held at the spot's value (dsmc4d's time
    /// attribute, so a stream writes into one snapshot).
    pinned: usize,
    /// Standard deviation of the keys around the spot, as a share of each
    /// side of the domain: small enough that a batch overflows buckets.
    spread: f64,
}

impl MutationStream {
    /// Stream `stream` over the file `gf` was loaded into.
    pub fn new(kind: Kind, gf: &GridFile, seed: u64, stream: u64) -> MutationStream {
        // Every stream writes into the bucket that holds the domain centre:
        // on hot2d the hot spot, where buckets are smallest; on dsmc4d the
        // middle snapshot. Aiming at that bucket's middle rather than at the
        // centre, which can be a corner shared by many buckets, makes a
        // batch overflow it; a fixed spot keeps the write cost from
        // depending on the seed.
        let domain = gf.config().domain;
        let centre = domain.center();
        let mut spot = gf.bucket_rect(gf.bucket_of_point(&centre)).center();
        let (pinned, spread) = match kind {
            Kind::PointHot2d | Kind::MixedHot2d => (0, 0.015),
            Kind::ScanDsmc4d => (1, 0.003),
        };
        spot.coords_mut()[..pinned].copy_from_slice(&centre.coords()[..pinned]);
        MutationStream {
            seed,
            base: TRANSIENT_ID_BASE + (stream << 32),
            domain,
            spot,
            pinned,
            spread,
        }
    }

    /// The `k`-th mutation.
    pub fn op(&self, k: u64) -> Mutation {
        let cycle = k / (2 * BATCH);
        let pos = k % (2 * BATCH);
        let id = self.base + cycle * BATCH + pos % BATCH;
        let rec = Record::new(id, self.point_of(id));
        if pos < BATCH {
            Mutation::Insert(rec)
        } else {
            Mutation::Delete(rec)
        }
    }

    /// The key of transient record `id`: normal around the spot, clipped
    /// to the domain.
    pub fn point_of(&self, id: u64) -> Point {
        let mut rng = Rng::new(self.seed, id);
        let coords: Vec<f64> = (0..self.spot.dim())
            .map(|k| {
                if k < self.pinned {
                    return self.spot.get(k);
                }
                let v = self.spot.get(k) + rng.normal() * self.spread * self.domain.side(k);
                v.clamp(self.domain.lo().get(k), self.domain.hi().get(k))
            })
            .collect();
        Point::new(&coords)
    }
}
