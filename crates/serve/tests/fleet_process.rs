//! Multi-process fleet smoke test: three real `ds_shard` processes, R=2
//! replication seeded over the wire, one shard killed with a real signal,
//! traffic surviving via failover, and the respawned shard re-seeded from
//! the survivor at the original generation.
//!
//! This is the genuinely-separate-address-space counterpart of the
//! in-process `fleet_failover` suite; the CI fleet-smoke job runs exactly
//! this test under a watchdog `timeout`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_core::snapshot::encode_snapshot;
use ds_query::parser::parse_query;
use ds_serve::{Connection, FleetClient, FleetTopology, SyncAck};
use ds_storage::gen::{imdb_database, ImdbConfig};

mod common;

use common::{tiny_sketch, Proc};

const SQL: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";

fn connect(addr: SocketAddr) -> Connection {
    Connection::connect_timeout(addr, Duration::from_secs(30)).expect("connect to shard")
}

#[test]
fn fleet_of_processes_survives_sigkill_and_reseeds_the_replacement() {
    // The shards generate the same tiny catalog from the default seed, so
    // the sketch we train here parses and answers identically over there.
    let db = Arc::new(imdb_database(&ImdbConfig::tiny(42)));
    let sketch = tiny_sketch(&db, 7);
    let expected = sketch.estimate_one(&parse_query(&db, SQL).unwrap());
    let blob = encode_snapshot("imdb", 1, &sketch, None);

    let spawn = |args: &[String]| Proc::spawn(env!("CARGO_BIN_EXE_ds_shard"), args);
    let mut shards: Vec<Proc> = (0..3).map(|_| spawn(&[])).collect();
    let topology = FleetTopology::new(shards.iter().map(|s| s.addr).collect(), 2);
    let replicas = topology.replicas("imdb");
    assert_eq!(replicas.len(), 2);

    // Handshake: every shard speaks protocol v3 and advertises `fleet`
    // plus `trace` (cross-process trace propagation).
    for shard in &shards {
        let mut conn = connect(shard.addr);
        let hs = conn.hello().expect("HELLO");
        assert_eq!(hs.version, 3);
        assert!(hs.has_feature("fleet"), "{:?}", hs.features);
        assert!(hs.has_feature("trace"), "{:?}", hs.features);
    }

    // Seed both replicas over the wire, exactly as a deployer would.
    for &r in &replicas {
        let mut conn = connect(shards[r].addr);
        assert_eq!(
            conn.sync_snapshot("imdb", 1, &blob).expect("SYNC"),
            SyncAck::Adopted(1)
        );
    }

    let mut client = FleetClient::new(topology.clone());
    let (v, degraded) = client.estimate("imdb", SQL).expect("routed estimate");
    assert!(!degraded);
    assert_eq!(v.to_bits(), expected.to_bits());

    // SIGKILL one replica. Traffic must keep succeeding via the survivor —
    // the zero-failed-forever contract, across real process boundaries.
    let victim = replicas[0];
    shards[victim].kill();
    let deadline = Instant::now() + Duration::from_secs(60);
    for _ in 0..5 {
        let (v, _) = client
            .estimate_with_deadline("imdb", SQL, deadline)
            .expect("failover estimate");
        assert_eq!(v.to_bits(), expected.to_bits());
    }
    assert!(client.counters().failovers.get() >= 1);

    // Respawn on the same address (the topology is fixed), then re-seed it
    // from the survivor: fetch the snapshot over one wire, sync it over
    // the other. Bind retry loop — the OS may lag releasing the port.
    let addr = shards[victim].addr;
    let respawned = {
        let mut attempt = 0;
        loop {
            attempt += 1;
            let mut proc = spawn(&["--addr".to_string(), addr.to_string()]);
            match proc.child.try_wait() {
                Ok(None) => break proc,
                _ if attempt < 50 => std::thread::sleep(Duration::from_millis(100)),
                _ => panic!("could not rebind shard on {addr}"),
            }
        }
    };
    shards[victim] = respawned;

    let survivor = replicas[1];
    let (generation, shipped) = connect(shards[survivor].addr)
        .fetch_snapshot("imdb")
        .expect("fetch from survivor");
    assert_eq!(generation, 1, "no generation lost to the kill");
    assert_eq!(shipped, blob, "survivor ships the original bytes");
    assert_eq!(
        connect(shards[victim].addr)
            .sync_snapshot("imdb", generation, &shipped)
            .expect("re-seed replacement"),
        SyncAck::Adopted(1)
    );

    // The replacement answers bit-identically on its own wire: R restored.
    let mut conn = connect(shards[victim].addr);
    let resp = conn
        .roundtrip(
            &ds_serve::Request::Estimate {
                sketch: "imdb".to_string(),
                sql: SQL.to_string(),
                trace: None,
            },
            true,
        )
        .expect("estimate on replacement");
    match resp {
        ds_serve::Response::Estimate(v) => assert_eq!(v.to_bits(), expected.to_bits()),
        other => panic!("unexpected response {other:?}"),
    }
    conn.quit().ok();
}
