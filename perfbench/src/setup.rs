//! The timed set-up: generate → bulk load → decluster → engine build →
//! server listening, and its teardown.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
use pargrid_gridfile::{GridFile, Wal};
use pargrid_net::{Server, ServerConfig};
use pargrid_parallel::{EngineConfig, ParallelGridFile};

use crate::trace::SpanBuf;
use crate::workload::{Kind, DISKS};

/// Seconds spent in each set-up stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub bulk_load_s: f64,
    pub assign_s: f64,
    pub build_s: f64,
    pub listen_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.gen_s + self.bulk_load_s + self.assign_s + self.build_s + self.listen_s
    }
}

/// A served workload: the engine behind a listening server, plus what the
/// benchmark keeps beside it.
pub struct Served {
    pub engine: Arc<ParallelGridFile>,
    pub server: Server,
    pub addr: SocketAddr,
    /// The paper's degree of data balance of the declustering.
    pub data_balance: f64,
    /// This set-up's own directory (spill files and WAL).
    pub dir: PathBuf,
}

impl Served {
    /// Bytes the store holds on disk: every worker's spill file plus the
    /// WAL.
    pub fn disk_bytes(&self) -> u64 {
        dir_bytes(&self.dir)
    }

    /// Stops the server and the engine's workers (joining every thread)
    /// and deletes the set-up's files.
    pub fn tear_down(self) {
        let Served {
            engine,
            server,
            dir,
            ..
        } = self;
        server.shutdown();
        engine.shutdown();
        drop(engine);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Builds and starts one workload in `dir`, timing each stage. With a
/// span buffer each stage is also recorded as a span, under a `setup`
/// span.
pub fn set_up(
    kind: Kind,
    seed: u64,
    dir: &Path,
    mut spans: Option<&mut SpanBuf>,
) -> io::Result<(Served, SetupTimes)> {
    std::fs::create_dir_all(dir)?;
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let root = spans.as_mut().map_or(0, |s| s.open("setup", t, 0, 0));
    let stage =
        |name: &'static str, slot: &mut f64, spans: &mut Option<&mut SpanBuf>, t0: Instant| {
            let t1 = Instant::now();
            *slot = (t1 - t0).as_secs_f64();
            if let Some(s) = spans.as_mut() {
                s.record(name, t0, t1, root, 0);
            }
            t1
        };

    let dataset = kind.dataset(seed);
    let t = stage("datagen.gen", &mut times.gen_s, &mut spans, t);
    let grid = Arc::new(GridFile::bulk_load(
        dataset.grid_config(),
        dataset.records(),
    ));
    let t = stage("gridfile.bulk_load", &mut times.bulk_load_s, &mut spans, t);
    let input = DeclusterInput::from_grid_file(&grid);
    let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, DISKS, seed);
    let t = stage("core.assign", &mut times.assign_s, &mut spans, t);
    let engine = ParallelGridFile::build(
        Arc::clone(&grid),
        &assignment,
        EngineConfig::file_backed(dir.join("spill")),
    );
    // The `serve --wal` flush policy: every mutation is appended and
    // fsynced before it is applied.
    engine.attach_wal(Wal::open_append(dir.join("wal.log"), 0)?);
    let engine = Arc::new(engine);
    let t = stage("parallel.build", &mut times.build_s, &mut spans, t);
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())?;
    let t = stage("net.listen", &mut times.listen_s, &mut spans, t);
    if let Some(s) = spans {
        s.close(root, t);
    }

    let addr = server.local_addr();
    Ok((
        Served {
            engine,
            server,
            addr,
            data_balance: assignment.data_balance_degree(),
            dir: dir.to_path_buf(),
        },
        times,
    ))
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}
