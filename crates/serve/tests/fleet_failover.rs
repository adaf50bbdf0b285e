//! In-process fleet integration tests: real TCP shards, wire-shipped
//! replication, failover, healing, and corrupt-transfer quarantine.
//!
//! * Deploying a sketch ships a snapshot whose wire bytes are
//!   **bit-identical** to the durable `DSNP` file the store writes — one
//!   format, disk and wire.
//! * Killing a replica mid-traffic fails estimates over to the survivor
//!   with bit-identical answers; restart + heal restores R-way replication
//!   at the same generation.
//! * A corrupt `SYNC` transfer is rejected with a typed decode error and
//!   quarantined on disk — never adopted.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_core::snapshot::encode_snapshot;
use ds_core::store::SketchStore;
use ds_query::parser::parse_query;
use ds_serve::fleet::FleetConfig;
use ds_serve::{Connection, Fleet, ServeConfig, Server, SyncAck};
use ds_storage::gen::{imdb_database, ImdbConfig};

mod common;

use common::tiny_sketch;

const SQL: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";

fn fleet_config(shards: usize, replication: usize) -> FleetConfig {
    FleetConfig {
        shards,
        replication,
        server: ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
        timeout: Duration::from_secs(30),
    }
}

/// Deploy ships the primary's snapshot to every replica over the wire, and
/// the shipped bytes match the durable `DSNP` file bit for bit.
#[test]
fn deploy_ships_bit_identical_snapshots_to_all_replicas() {
    let db = Arc::new(imdb_database(&ImdbConfig::tiny(42)));
    let sketch = tiny_sketch(&db, 7);
    let expected = sketch.estimate_one(&parse_query(&db, SQL).unwrap());
    let mut fleet = Fleet::start(Arc::clone(&db), fleet_config(3, 2)).unwrap();
    let replicas = fleet.deploy("imdb", sketch).unwrap();
    assert_eq!(replicas.len(), 2, "R=2 must place two copies");

    // Every replica holds the same generation and answers with the same
    // bits, straight over its own wire.
    let mut blobs = Vec::new();
    for &shard in &replicas {
        let store = fleet.store(shard);
        assert_eq!(store.generation("imdb"), Some(1), "shard {shard}");
        let mut conn = fleet.client_connection(shard).unwrap();
        let (generation, bytes) = conn.fetch_snapshot("imdb").unwrap();
        assert_eq!(generation, 1);
        blobs.push(bytes);
    }
    assert_eq!(blobs[0], blobs[1], "replicas must hold identical blobs");

    // Wire blob == durable snapshot file, byte for byte.
    let dir = std::env::temp_dir().join(format!("ds_fleet_ship_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = fleet
        .store(replicas[0])
        .save_snapshot(&dir, "imdb", None)
        .unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(
        blobs[0], on_disk,
        "the shipped snapshot and the durable file are the same format"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Non-replica shards must NOT hold the sketch.
    for shard in 0..3 {
        if !replicas.contains(&shard) {
            assert_eq!(fleet.store(shard).generation("imdb"), None);
        }
    }

    // The routing client answers bit-identically.
    let mut client = fleet.client();
    let (v, degraded) = client.estimate("imdb", SQL).unwrap();
    assert!(!degraded);
    assert_eq!(v.to_bits(), expected.to_bits());
    fleet.shutdown();
}

/// Killing a replica fails traffic over to the survivor; restart + heal
/// restores R-way replication at the original generation.
#[test]
fn replica_death_fails_over_then_heal_restores_replication() {
    let db = Arc::new(imdb_database(&ImdbConfig::tiny(42)));
    let sketch = tiny_sketch(&db, 7);
    let expected = sketch.estimate_one(&parse_query(&db, SQL).unwrap());
    let mut fleet = Fleet::start(Arc::clone(&db), fleet_config(3, 2)).unwrap();
    let replicas = fleet.deploy("imdb", sketch).unwrap();
    let mut client = fleet.client();

    // Pin affinity to the shard we are about to kill.
    let (v, _) = client.estimate("imdb", SQL).unwrap();
    assert_eq!(v.to_bits(), expected.to_bits());

    // Kill the primary: its store is gone (machine loss, not reboot).
    let victim = replicas[0];
    fleet.kill(victim);
    assert!(!fleet.is_alive(victim));

    // Traffic keeps succeeding, bit-identically: the client's affinity
    // still points at the corpse, so the first request visibly fails over
    // to the survivor.
    let deadline = Instant::now() + Duration::from_secs(30);
    for _ in 0..5 {
        let (v, degraded) = client
            .estimate_with_deadline("imdb", SQL, deadline)
            .unwrap();
        assert!(!degraded);
        assert_eq!(v.to_bits(), expected.to_bits());
    }
    assert!(
        client.counters().failovers.get() >= 1,
        "at least one request must have failed over"
    );

    // Gossip sees the corpse and steers the client away from it, so later
    // requests skip the doomed first attempt entirely.
    let health = fleet.gossip();
    assert!(!health[victim].alive);
    assert!(health[victim].degraded());
    fleet.steer(&mut client);
    let (v, _) = client.estimate("imdb", SQL).unwrap();
    assert_eq!(v.to_bits(), expected.to_bits());

    // Restart empty, heal: the survivor re-ships the snapshot and the
    // original generation is preserved — nothing was lost.
    fleet.restart(victim).unwrap();
    assert_eq!(fleet.store(victim).generation("imdb"), None);
    let restored = fleet.heal().unwrap();
    assert!(restored >= 1, "heal must re-replicate the lost copy");
    assert_eq!(fleet.store(victim).generation("imdb"), Some(1));
    for &shard in &replicas {
        let (v2, _) = fleet.store(shard).get_with_generation("imdb").unwrap();
        let got = v2.estimate_one(&parse_query(&db, SQL).unwrap());
        assert_eq!(got.to_bits(), expected.to_bits(), "shard {shard}");
    }
    // A healed fleet needs no further resyncs.
    assert_eq!(fleet.heal().unwrap(), 0, "second heal must be a no-op");
    fleet.shutdown();
}

/// A corrupt `SYNC` transfer must be rejected with a typed decode error
/// and quarantined on disk, never adopted; the intact bytes then adopt,
/// and a replay of the same generation acks `stale`.
#[test]
fn corrupt_sync_is_quarantined_not_adopted() {
    let db = Arc::new(imdb_database(&ImdbConfig::tiny(42)));
    let sketch = tiny_sketch(&db, 7);
    let good = encode_snapshot("imdb", 1, &sketch, None);

    let dir = std::env::temp_dir().join(format!("ds_fleet_quar_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = Arc::new(SketchStore::new());
    let server = Server::start(
        Arc::clone(&db),
        Arc::clone(&store),
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .snapshot_dir(Some(dir.clone()))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut conn =
        Connection::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

    // Flip one byte in the middle of the payload: the checksum trailer
    // catches it server-side.
    let mut corrupt = good.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    let err = conn.sync_snapshot("imdb", 1, &corrupt).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(store.generation("imdb"), None, "corrupt bytes never adopt");

    // The rejected bytes land in quarantine for forensics.
    let quarantine = dir.join("quarantine");
    let rejects: Vec<_> = std::fs::read_dir(&quarantine)
        .expect("quarantine dir must exist")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(rejects.len(), 1, "{rejects:?}");
    assert_eq!(std::fs::read(&rejects[0]).unwrap(), corrupt);

    // The intact transfer adopts; replaying the same generation is stale.
    assert_eq!(
        conn.sync_snapshot("imdb", 1, &good).unwrap(),
        SyncAck::Adopted(1)
    );
    assert_eq!(store.generation("imdb"), Some(1));
    assert_eq!(
        conn.sync_snapshot("imdb", 1, &good).unwrap(),
        SyncAck::Stale(1)
    );

    conn.quit().unwrap();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
