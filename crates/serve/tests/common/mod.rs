//! Fixtures shared by the serving integration tests.

#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use ds_core::builder::SketchBuilder;
use ds_core::sketch::DeepSketch;
use ds_core::store::SketchStore;
use ds_query::workloads::imdb_predicate_columns;
use ds_serve::Connection;
use ds_storage::catalog::Database;
use ds_storage::gen::{imdb_database, ImdbConfig};

/// A sketch small enough to train in a fraction of a second.
pub fn tiny_sketch(db: &Database, seed: u64) -> DeepSketch {
    SketchBuilder::new(db, imdb_predicate_columns(db))
        .training_queries(120)
        .epochs(2)
        .sample_size(8)
        .hidden_units(8)
        .seed(seed)
        .build()
        .expect("tiny sketch")
}

/// The tiny IMDb database plus a store serving one tiny sketch as `imdb`.
pub fn fixture() -> (Arc<Database>, Arc<SketchStore>) {
    let db = Arc::new(imdb_database(&ImdbConfig::tiny(42)));
    let store = Arc::new(SketchStore::new());
    store.insert("imdb", tiny_sketch(&db, 7)).unwrap();
    (db, store)
}

/// The value of one `STATS` sample.
pub fn stat(c: &mut Connection, name: &str) -> f64 {
    c.stats()
        .unwrap()
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.value)
        .unwrap_or_else(|| panic!("missing sample {name}"))
}

/// One spawned server process (`ds_shard` or `ds_fleetmon`); killed on
/// drop so a failing test never leaks servers.
pub struct Proc {
    pub child: Child,
    pub addr: SocketAddr,
}

impl Proc {
    /// Spawns `bin` with `args` and reads the `ADDR` banner it prints
    /// once listening.
    pub fn spawn(bin: &str, args: &[String]) -> Proc {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn server process");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read ADDR line");
        let addr = line
            .trim()
            .strip_prefix("ADDR ")
            .unwrap_or_else(|| panic!("bad banner {line:?}"))
            .parse()
            .expect("parse server addr");
        Proc { child, addr }
    }

    /// SIGKILL — the real thing, no graceful shutdown.
    pub fn kill(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}
