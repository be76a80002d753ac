//! `perfbench`: wall-clock benchmark of pargrid's TCP serving path over
//! the file-backed (`pread`) block store.
//!
//! One run sets a workload up several times (generate → bulk load →
//! minimax declustering over 8 disks → file-backed engine with a WAL →
//! `pargrid_net::Server` on loopback, pacing off), then drives the server
//! from this process with at most two client threads, each on its own
//! connection, and checks every reply against an independent grid file.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point-hot2d --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! phases with a span around every client call, adds per-layer probes and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. See
//! `perfbench/README.md` for the workloads, rates and metric definitions.

mod drive;
mod host;
mod layers;
mod setup;
mod stats;
mod trace;
mod workload;

use std::error::Error;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pargrid_datagen::Dataset;
use pargrid_gridfile::GridFile;

use drive::{run_lanes, Checker, Lane, LaneOut, Sample, Stop, Tally, Traffic};
use host::{CpuTimes, Provenance, StealLog, StealMonitor};
use setup::{Served, SetupTimes};
use stats::{chunks, mean, median, quantile, quiet, quiet_median, sorted, window_rates, Window};
use trace::{Span, SpanBuf};
use workload::{Kind, Mutation, MutationStream, BATCH};

const USAGE: &str = "usage: perfbench --workload <point-hot2d|scan-dsmc4d|mixed-hot2d> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Seed used when `--seed` is absent; the README also names a held-out
/// seed on which any claimed gain must hold.
const DEFAULT_SEED: u64 = 1;

/// Writes in the write probe of the read workloads: twelve
/// insert-then-delete cycles, spread over the rounds. Each write waits on
/// an fsync, whose latency follows the host's disk, so the probe samples
/// it across the whole run.
const PROBE_OPS: u64 = 24 * BATCH;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err(bad("seconds (1..=600)"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir =
        root.join(".bench_run")
            .join(format!("{}-{}", args.kind.name(), std::process::id()));
    let result = run(&args, &root, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    // A run that completes exits 0 and reports wrong answers as
    // `"correct": false`; only a run that could not complete fails.
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A stretch of the run, in seconds since its epoch, and what it measured.
#[derive(Clone, Copy)]
struct Timed {
    value: f64,
    t0_s: f64,
    t1_s: f64,
}

impl Timed {
    fn window(&self, log: &StealLog) -> Window {
        Window {
            value: self.value,
            steal: log.share(self.t0_s, self.t1_s),
        }
    }
}

/// Everything the phases measured, before it is turned into metrics.
struct Run {
    /// Total time of each set-up.
    setups: Vec<Timed>,
    /// Stage times of each set-up.
    stages: Vec<SetupTimes>,
    /// Open-loop read samples, all rounds.
    reads_open: Vec<Sample>,
    /// Closed-loop capacity, one rate per 0.25 s window.
    cap_rates: Vec<Timed>,
    writes: Vec<Sample>,
    space_amp: f64,
    replay: layers::Replay,
    tally: Tally,
    acked: Vec<Mutation>,
    spans: Vec<Span>,
    /// Traced run only: capacity windows with a span around every request.
    traced_rates: Vec<Timed>,
}

/// Runs one workload and prints its result.
fn run(args: &Args, root: &Path, run_dir: &Path) -> Result<(), Box<dyn Error>> {
    let kind = args.kind;
    let prov = Provenance::collect(root);
    let cpu0 = CpuTimes::now();
    let base = Instant::now();
    let monitor = StealMonitor::start(base);

    let (mut setups, mut stages, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    let mut set_up = |i: usize| -> Result<Served, Box<dyn Error>> {
        let mut buf = args.trace.then(|| SpanBuf::new(base, 1 + i as u32));
        let t0_s = base.elapsed().as_secs_f64();
        let (served, t) = setup::set_up(
            kind,
            args.seed,
            &run_dir.join(format!("setup-{i}")),
            buf.as_mut(),
        )?;
        setups.push(Timed {
            value: t.total_s(),
            t0_s,
            t1_s: base.elapsed().as_secs_f64(),
        });
        stages.push(t);
        spans.extend(buf.map(SpanBuf::into_spans).unwrap_or_default());
        Ok(served)
    };
    let n_setups = kind.spec().setups;
    for i in 0..n_setups - 1 {
        set_up(i)?.tear_down();
    }

    // The benchmark's own copy of the data: the oracle and the expected
    // answers, built before the served set-up so that the resident set
    // measured from here on is the program's.
    let ds = kind.dataset(args.seed);
    let mut oracle = GridFile::bulk_load(ds.grid_config(), ds.records());
    // Stream 0 is written over TCP; stream 1 only in process (traced run).
    let streams: Vec<MutationStream> = (0..2)
        .map(|s| MutationStream::new(kind, &oracle, args.seed, s))
        .collect();
    let check = Checker::new(
        workload::queries(kind, &ds, &oracle, args.seed),
        &ds.domain,
        &oracle,
        streams[..1].to_vec(),
    );

    let peak_reset = host::reset_peak_rss();
    let rss_base = host::rss_mb();
    let served = set_up(n_setups - 1)?;
    let mut r = phases(args, &served, &ds, &check, &streams, base);
    // Without a reset peak (a kernel without `clear_refs`), the resident
    // set at the end of the timed phases stands in for it.
    let rss = if peak_reset {
        host::peak_rss_mb()
    } else {
        host::rss_mb()
    } - rss_base;
    let log = monitor.finish();
    r.setups = setups;
    r.stages = stages;
    r.spans.splice(0..0, spans);

    // Final check: the oracle with every acknowledged mutation applied
    // must equal what the server now returns.
    let oracle_muts = layers::apply_to_oracle(&mut oracle, &r.acked);
    final_check(&served, &ds, &oracle, &check, &mut r.tally);

    let traced = if args.trace {
        let t = traced_layers(
            &served,
            &oracle,
            &check,
            &streams[1],
            &r,
            &log,
            run_dir,
            base,
            oracle_muts,
        )?;
        r.tally.attempted += layers::PROBE_QUERIES.min(check.len()) as u64;
        r.tally.wrong += t.failed;
        Some(t)
    } else {
        None
    };

    served.tear_down();
    let steal = cpu0.steal_share_until(&CpuTimes::now());

    let mut tally = r.tally;
    tally.attempted += r.replay.profile.responses.len() as u64;
    tally.wrong += r.replay.failed - r.replay.incomplete;
    tally.incomplete += r.replay.incomplete;
    let correct = tally.failed() == 0;

    let (metrics, unbounded) = match traced {
        Some(t) => {
            print!("{}", t.table);
            r.spans.extend(t.spans);
            let path = root
                .join(".bench_run")
                .join(format!("trace-{}.jsonl", kind.name()));
            trace::write_jsonl(&r.spans, &path)?;
            println!("spans written to {}", path.display());
            (t.metrics, t.figures)
        }
        None => end_to_end(&r, rss, &log),
    };
    report(args, &prov, steal, &tally, correct, &metrics, &unbounded);
    Ok(())
}

/// Rounds per run. Each round runs an open-loop slot and a closed-loop
/// capacity slot, so every metric samples the whole run and a noisy
/// stretch of the host moves a minority of the windows a median is taken
/// over.
const ROUNDS: usize = 5;

/// Length of a capacity window.
const CAP_WINDOW_S: f64 = 0.25;

/// Latency windows per metric: four per round, so windows of consecutive
/// samples in due order never straddle two rounds.
const LAT_WINDOWS: usize = 4 * ROUNDS;

/// What the lanes of a run produced, gathered across its phases.
#[derive(Default)]
struct Gathered {
    tally: Tally,
    acked: Vec<Mutation>,
    spans: Vec<Span>,
    /// Samples of the open-loop slots and of the write probe.
    timed: Vec<Sample>,
}

impl Gathered {
    /// Takes in finished lanes (closed-loop readers have no samples).
    fn absorb(&mut self, outs: Vec<LaneOut>) {
        for mut o in outs {
            self.tally.add(&o.tally);
            self.acked.append(&mut o.acked);
            self.spans.append(&mut o.spans);
            self.timed.append(&mut o.samples);
        }
    }
}

/// The timed phases: warm-up, then rounds of open loop at the workload's
/// fixed rate, closed-loop capacity and (on the read workloads) a slice of
/// the write probe, then the in-process replay.
fn phases(
    args: &Args,
    served: &Served,
    ds: &Dataset,
    check: &Checker,
    streams: &[MutationStream],
    epoch: Instant,
) -> Run {
    let kind = args.kind;
    let spec = kind.spec();
    let s = args.seconds;
    let addr = served.addr;
    let half = check.len() / 2;
    let trace = |buf: u32| args.trace.then_some(buf);
    // Two read connections, starting half the query set apart.
    let reads = |rate: Option<f64>, stop: Stop, offset: usize| -> Vec<Lane<'_>> {
        [offset, offset + half]
            .map(|offset| Lane {
                rate,
                stop,
                traffic: Traffic::Queries { offset },
            })
            .into()
    };
    // Closed-loop capacity slot: correct answers per second in each
    // 0.25 s window. Slot `k` starts its lanes `k` steps further into
    // their halves of the query set, so a run's slots together cover the
    // whole set even when each gets through only a part of it.
    let cap_step = half / (2 * ROUNDS);
    let capacity_slot = |g: &mut Gathered, k: usize, slot_s: f64, buf: Option<u32>| -> Vec<Timed> {
        let t0 = epoch.elapsed().as_secs_f64();
        let outs = run_lanes(
            addr,
            check,
            reads(None, Stop::After(secs(slot_s)), k * cap_step),
            epoch,
            buf,
        );
        let done: Vec<f64> = outs
            .iter()
            .flat_map(|o| &o.done_s)
            .map(|t| t - t0)
            .collect();
        g.absorb(outs);
        window_rates(&done, slot_s, CAP_WINDOW_S)
            .into_iter()
            .enumerate()
            .map(|(w, value)| Timed {
                value,
                t0_s: t0 + w as f64 * CAP_WINDOW_S,
                t1_s: t0 + (w + 1) as f64 * CAP_WINDOW_S,
            })
            .collect()
    };
    let mut g = Gathered::default();

    // Warm-up: fill the OS page cache and the engine's buffer pools.
    let warm_s = (0.05 * s).max(0.25);
    g.absorb(run_lanes(
        addr,
        check,
        reads(None, Stop::After(secs(warm_s)), 0),
        epoch,
        None,
    ));

    let open_slot = 0.5 * s / ROUNDS as f64;
    let cap_slot = 0.4 * s / ROUNDS as f64;
    let (mut cap_rates, mut traced_rates) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        // Open loop at the fixed rate; on mixed-hot2d the second
        // connection writes at its own fixed rate instead of reading.
        let lanes = if kind == Kind::MixedHot2d {
            let nq = (spec.open_qps * open_slot) as u64;
            let nw = (spec.write_rate * open_slot) as u64;
            vec![
                Lane {
                    rate: Some(spec.open_qps),
                    stop: Stop::Count(nq),
                    traffic: Traffic::Queries {
                        offset: round * nq as usize,
                    },
                },
                Lane {
                    rate: Some(spec.write_rate),
                    stop: Stop::Count(nw),
                    traffic: Traffic::Writes {
                        stream: &streams[0],
                        from: round as u64 * nw,
                    },
                },
            ]
        } else {
            let per_lane = spec.open_qps / 2.0;
            let n = (per_lane * open_slot) as u64;
            reads(Some(per_lane), Stop::Count(n), round * n as usize)
        };
        g.absorb(run_lanes(
            addr,
            check,
            lanes,
            epoch,
            trace(100 + 2 * round as u32),
        ));

        // The traced run splits each capacity slot into an untraced and a
        // traced half, for the tracing overhead.
        if args.trace {
            cap_rates.extend(capacity_slot(&mut g, 2 * round, cap_slot / 2.0, None));
            traced_rates.extend(capacity_slot(
                &mut g,
                2 * round + 1,
                cap_slot / 2.0,
                trace(200 + 2 * round as u32),
            ));
        } else {
            cap_rates.extend(capacity_slot(&mut g, 2 * round, cap_slot, None));
        }

        // Write probe of the read workloads: one connection, closed loop,
        // with read-your-write checks.
        if kind != Kind::MixedHot2d {
            let per = PROBE_OPS / ROUNDS as u64;
            let lane = Lane {
                rate: None,
                stop: Stop::Count(per),
                traffic: Traffic::Writes {
                    stream: &streams[0],
                    from: round as u64 * per,
                },
            };
            g.absorb(run_lanes(
                addr,
                check,
                vec![lane],
                epoch,
                trace(300 + round as u32),
            ));
        }
    }
    let Gathered {
        tally,
        acked,
        spans,
        timed,
    } = g;
    let (writes, reads_open): (Vec<Sample>, Vec<Sample>) = timed.into_iter().partition(|x| x.write);

    // The paper's virtual metrics, replayed in process after the run's
    // fixed number of mutations.
    let replay = layers::replay(&served.engine, check);
    let record_bytes = ds.grid_config().record_bytes() as f64;
    let space_amp = served.disk_bytes() as f64 / (served.engine.len() as f64 * record_bytes);

    Run {
        setups: Vec::new(),
        stages: Vec::new(),
        reads_open,
        cap_rates,
        writes,
        space_amp,
        replay,
        tally,
        acked,
        spans,
        traced_rates,
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Re-sends part of the query set (and, on the 2-D workloads, a scan of
/// the whole domain) and compares every reply with the mutated oracle.
fn final_check(
    served: &Served,
    ds: &Dataset,
    oracle: &GridFile,
    check: &Checker,
    tally: &mut Tally,
) {
    let ids = |recs: &[pargrid_gridfile::Record]| {
        let mut v: Vec<u64> = recs.iter().map(|r| r.id).collect();
        v.sort_unstable();
        v
    };
    let mut failed = 0u64;
    drive::serial_pass(served.addr, check, 200, |q, reply, _, _| {
        tally.attempted += 1;
        match reply {
            Ok(r) if !r.incomplete && ids(&r.records) == ids(&check.queries[q].answer(oracle)) => {}
            _ => failed += 1,
        }
    });
    if ds.dim() == 2 {
        let domain = ds.domain;
        tally.attempted += 1;
        match drive::scan_all(served.addr, &domain) {
            Ok(r) if !r.incomplete && ids(&r.records) == ids(&oracle.range_query(&domain).1) => {}
            _ => failed += 1,
        }
    }
    tally.wrong += failed;
}

/// The bounded end-to-end metrics, and beside them the figures the
/// result row prints without a bound: tail latencies and the declustering
/// gap, whose run-to-run spread on a shared 2-core host exceeds any usable
/// bound (see `perfbench/README.md`). Every wall-clock metric is a median
/// over the windows measured on a quiet host ([`stats::quiet`]).
fn end_to_end(r: &Run, rss_mb: f64, log: &StealLog) -> (Vec<Metric>, Vec<Metric>) {
    let (reads, writes) = (in_due_order(&r.reads_open), in_due_order(&r.writes));
    let bounded = vec![
        m("setup_s", quiet_timed(&r.setups, log), "s"),
        m("capacity_qps", quiet_timed(&r.cap_rates, log), "1/s"),
        m("query_p50_us", typical_p50(&reads, log), "us"),
        m("write_p50_us", typical_p50(&writes, log), "us"),
        m("rss_mb", rss_mb, "MB"),
        m("space_amp", r.space_amp, "ratio"),
        m(
            "response_blocks_mean",
            r.replay.profile.mean_response(),
            "blocks",
        ),
    ];
    let lat = |v: &[Sample]| v.iter().map(|x| x.lat_us).collect::<Vec<_>>();
    let unbounded = vec![
        m("query_p99_us", p99(&lat(&reads)), "us"),
        m("write_p99_us", p99(&lat(&writes)), "us"),
        m("gap_blocks_mean", r.replay.profile.mean_gap(), "blocks"),
        m(
            "quiet_window_share",
            quiet_share(&r.cap_rates, log),
            "ratio",
        ),
    ];
    (bounded, unbounded)
}

/// The median over the quiet stretches among `timed`.
fn quiet_timed(timed: &[Timed], log: &StealLog) -> f64 {
    quiet_median(&timed.iter().map(|t| t.window(log)).collect::<Vec<_>>())
}

/// Share of `timed` that [`stats::quiet`] kept.
fn quiet_share(timed: &[Timed], log: &StealLog) -> f64 {
    let w: Vec<Window> = timed.iter().map(|t| t.window(log)).collect();
    quiet(&w).len() as f64 / w.len().max(1) as f64
}

/// The typical latency of a run: the median latency of each of
/// [`LAT_WINDOWS`] windows of consecutive samples, then the median over
/// the quiet windows. Timed from due time, so a request that waited
/// behind another counts its wait.
fn typical_p50(samples: &[Sample], log: &StealLog) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let windows: Vec<Window> = chunks(samples, LAT_WINDOWS)
        .map(|c| Window {
            value: median(&c.iter().map(|x| x.lat_us).collect::<Vec<_>>()),
            steal: log.share(c[0].due_s, c.iter().map(|x| x.done_s).fold(0.0, f64::max)),
        })
        .collect();
    quiet_median(&windows)
}

/// p99 over all samples (at least 1000 in every workload, so ten lie
/// beyond it).
fn p99(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.99)
}

/// Samples in order of due time.
fn in_due_order(samples: &[Sample]) -> Vec<Sample> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    s
}

/// What the traced run's layer probes produced.
struct Traced {
    metrics: Vec<Metric>,
    /// Figures printed beside the metrics: counts that are 0 on a healthy
    /// run, so they are no metrics.
    figures: Vec<Metric>,
    /// The self-time table of the serial pass.
    table: String,
    spans: Vec<Span>,
    /// Wrong replies in the serial pass.
    failed: u64,
}

/// The traced run's per-layer metrics and its self-time table.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    served: &Served,
    oracle: &GridFile,
    check: &Checker,
    probe_stream: &MutationStream,
    r: &Run,
    log: &StealLog,
    run_dir: &Path,
    base: Instant,
    muts: layers::OracleMutations,
) -> Result<Traced, Box<dyn Error>> {
    let med = |f: fn(&SetupTimes) -> f64| median(&r.stages.iter().map(f).collect::<Vec<_>>());
    let p = |v: &[f64], q: f64| quantile(&sorted(v.to_vec()), q);

    let (plan_us, buckets_per_query, examined_per_returned) = layers::planning(oracle, check);
    let mut buf = SpanBuf::new(base, 400);
    let serial = layers::serial(served.addr, &served.engine, oracle, check, &mut buf);
    let serial_spans = buf.into_spans();
    let prom = drive::fetch_stats(served.addr)?;
    let (sojourn_p50, queue_hwm) = layers::queue_stats(&prom);
    let store_read_us =
        layers::store_reads(oracle, check, &run_dir.join("probe").join("store.blocks"))?;
    let wal_ops: Vec<Mutation> = r.acked.iter().take(4 * BATCH as usize).copied().collect();
    let wal_us = layers::wal_syncs(&run_dir.join("probe").join("wal.log"), &wal_ops)?;
    let mutate_us = layers::engine_mutations(&served.engine, probe_stream)
        .ok_or("in-process engine mutation failed")?;
    let lag: Vec<f64> = r.reads_open.iter().map(|x| x.lag_us).collect();
    let lat = |v: &[Sample]| v.iter().map(|x| x.lat_us).collect::<Vec<_>>();
    let kops = (muts.insert_us.len() + muts.delete_us.len()).max(1) as f64 / 1000.0;

    let rtt50 = p(&serial.rtt_us, 0.5);
    let q50 = p(&serial.query_us, 0.5);
    let enc50 = p(&serial.encode_us, 0.5);
    let dec50 = p(&serial.decode_us, 0.5);
    let residual = rtt50 - (q50 + enc50 + dec50);

    let mut table = String::from("per-layer attribution of the serial TCP round trip (p50, us):\n");
    let plan50 = p(&serial.plan_us, 0.5);
    for (layer, us) in [
        ("gridfile.plan", plan50),
        ("parallel.query (excl. plan)", q50 - plan50),
        ("net.encode", enc50),
        ("net.decode", dec50),
        ("net.residual", residual),
    ] {
        table.push_str(&format!("  {layer:<30} {us:>10.2}\n"));
    }
    table.push_str(&format!("  {:<30} {rtt50:>10.2}\n", "= net.rtt"));

    let metrics = vec![
        m("datagen.gen_s", med(|t| t.gen_s), "s"),
        m("gridfile.bulk_load_s", med(|t| t.bulk_load_s), "s"),
        m("gridfile.plan_us", plan_us, "us"),
        m("gridfile.buckets_per_query", buckets_per_query, "buckets"),
        m(
            "gridfile.examined_per_returned",
            examined_per_returned,
            "ratio",
        ),
        m("gridfile.insert_us", p(&muts.insert_us, 0.5), "us"),
        m("gridfile.delete_us", p(&muts.delete_us, 0.5), "us"),
        m(
            "gridfile.splits_per_kop",
            muts.splits as f64 / kops,
            "count",
        ),
        m(
            "gridfile.merges_per_kop",
            muts.merges as f64 / kops,
            "count",
        ),
        m("gridfile.wal_sync_us", p(&wal_us, 0.5), "us"),
        m("core.assign_s", med(|t| t.assign_s), "s"),
        m("core.data_balance", served.data_balance, "ratio"),
        m("parallel.build_s", med(|t| t.build_s), "s"),
        m("parallel.query_p50_us", q50, "us"),
        m("parallel.query_p99_us", p(&serial.query_us, 0.99), "us"),
        m(
            "parallel.total_blocks_per_query",
            serial.total_blocks as f64 / serial.query_us.len() as f64,
            "blocks",
        ),
        m(
            "parallel.cache_hit_ratio",
            serial.cache_hits as f64 / serial.total_blocks.max(1) as f64,
            "ratio",
        ),
        m("parallel.store_read_us", store_read_us, "us"),
        m("parallel.mutate_p50_us", p(&mutate_us, 0.5), "us"),
        m("parallel.mutate_p99_us", p(&mutate_us, 0.99), "us"),
        m("net.encode_us", enc50, "us"),
        m("net.decode_us", dec50, "us"),
        m("net.reply_bytes", mean(&serial.reply_bytes), "bytes"),
        m("net.residual_us", residual, "us"),
        m("net.queue_sojourn_p50_us", sojourn_p50, "us"),
        m("net.queue_depth_hwm", queue_hwm, "count"),
        m(
            "frontier.optimal_frac",
            r.replay.profile.optimal_fraction(),
            "ratio",
        ),
        m(
            "frontier.gap_blocks_mean",
            r.replay.profile.mean_gap(),
            "blocks",
        ),
        m(
            "obs.trace_slowdown",
            quiet_timed(&r.cap_rates, log) / quiet_timed(&r.traced_rates, log),
            "ratio",
        ),
        m("loadgen.query_p99_us", p99(&lat(&r.reads_open)), "us"),
        m("loadgen.write_p99_us", p99(&lat(&r.writes)), "us"),
        m("loadgen.lag_p99_us", p(&lag, 0.99), "us"),
        m("loadgen.attempted", r.tally.attempted as f64, "count"),
    ];
    let figures = vec![
        m(
            "parallel.retries",
            served.engine.stats().retries as f64,
            "count",
        ),
        m(
            "parallel.incomplete",
            (serial.incomplete + r.tally.incomplete) as f64,
            "count",
        ),
    ];
    Ok(Traced {
        metrics,
        figures,
        table,
        spans: serial_spans,
        failed: serial.failed,
    })
}

fn report(
    args: &Args,
    prov: &Provenance,
    steal: f64,
    tally: &Tally,
    correct: bool,
    metrics: &[Metric],
    unbounded: &[Metric],
) {
    let kind = args.kind;
    let spec = kind.spec();
    println!(
        "perfbench {} seed={} seconds={} trace={} | open loop {} q/s{} | p99 limit {} us | file-backed, 8 disks, minimax, WAL fsync per mutation",
        kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        spec.open_qps,
        if spec.write_rate > 0.0 { format!(" + {} writes/s", spec.write_rate) } else { String::new() },
        spec.limit_p99_us,
    );
    for x in metrics {
        println!("  {:<34} {:>14.4} {}", x.name, x.value, x.unit);
    }
    for x in unbounded {
        let note = if x.name == "query_p99_us" {
            let met = x.value <= spec.limit_p99_us;
            format!(
                "  (no bound; limit {} us {})",
                spec.limit_p99_us,
                if met { "met" } else { "missed" }
            )
        } else {
            "  (no bound)".to_string()
        };
        println!("  {:<34} {:>14.4} {}{note}", x.name, x.value, x.unit);
    }
    let error_rate = tally.failed() as f64 / tally.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>14.6} ratio  ({} errors, {} shed, {} incomplete, {} wrong of {} attempted)",
        "error_rate",
        error_rate,
        tally.errors,
        tally.shed,
        tally.incomplete,
        tally.wrong,
        tally.attempted
    );
    println!("provenance {}", prov.json(kind.name(), args.seed, steal));
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() {
                format!("{}", x.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct && metrics.iter().all(|x| x.value.is_finite()),
        tally.attempted,
        tally.failed(),
        body.join(", ")
    );
}
