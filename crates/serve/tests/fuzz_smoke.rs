//! Deterministic structure-aware fuzz smoke (ISSUE satellite b): a seeded
//! in-repo mutator — no external fuzzing deps — hammers the two
//! untrusted-input decoders with mutated corpus entries:
//!
//! * [`ds_serve::protocol`]'s `parse_request` / `parse_response`, which
//!   face raw socket lines;
//! * [`ds_core::snapshot::decode_snapshot`], which faces whatever bytes a
//!   crash left on disk.
//!
//! Neither may ever panic, and anything they *accept* must re-serialize
//! canonically (parse → format → parse is a fixed point). The corpus under
//! `tests/corpus/` is committed; mutation is xorshift-seeded so every run
//! (local and CI) explores the identical input set. `FUZZ_ITERS` scales
//! the budget.

use std::path::PathBuf;

use ds_core::snapshot::{decode_snapshot, encode_snapshot};
use ds_serve::protocol::{
    format_request, format_response, parse_request, parse_response, Response,
};

fn fuzz_iters(default: usize) -> usize {
    std::env::var("FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn corpus_dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(sub)
}

/// Deterministic xorshift64* (same constants as the serve fault injector).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Values a length-prefixed format is most likely to mishandle.
const INTERESTING_U64: [u64; 8] = [
    0,
    1,
    7,
    8,
    u32::MAX as u64,
    u64::MAX,
    1 << 62,
    (1 << 31) + 1,
];

/// One structure-aware mutation round: pick a seed, apply 1–4 mutations
/// drawn from byte flips, truncations, insertions, slice duplication,
/// cross-seed splicing, and interesting-integer overwrites.
fn mutate(rng: &mut Rng, seeds: &[Vec<u8>]) -> Vec<u8> {
    let mut out = seeds[rng.below(seeds.len())].clone();
    for _ in 0..1 + rng.below(4) {
        match rng.below(7) {
            0 if !out.is_empty() => {
                let i = rng.below(out.len());
                out[i] ^= 1 << rng.below(8);
            }
            1 if !out.is_empty() => out.truncate(rng.below(out.len() + 1)),
            2 => {
                let at = rng.below(out.len() + 1);
                for _ in 0..1 + rng.below(8) {
                    out.insert(at, (rng.next() & 0xff) as u8);
                }
            }
            3 if out.len() >= 2 => {
                let start = rng.below(out.len());
                let end = start + 1 + rng.below(out.len() - start);
                let slice = out[start..end].to_vec();
                let at = rng.below(out.len() + 1);
                out.splice(at..at, slice);
            }
            4 => {
                let other = &seeds[rng.below(seeds.len())];
                let cut_a = rng.below(out.len() + 1);
                let cut_b = rng.below(other.len() + 1);
                out.truncate(cut_a);
                out.extend_from_slice(&other[cut_b..]);
            }
            5 if out.len() >= 8 => {
                let at = rng.below(out.len() - 7);
                let v = INTERESTING_U64[rng.below(INTERESTING_U64.len())];
                out[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
            _ if !out.is_empty() => {
                // ASCII mangling: case flips and digit swaps keep text
                // inputs roughly token-shaped so mutants reach deeper
                // branches than raw byte noise would.
                let i = rng.below(out.len());
                let b = out[i];
                out[i] = match b {
                    b'a'..=b'z' | b'A'..=b'Z' => b ^ 0x20,
                    b'0'..=b'9' => b'0' + ((b - b'0' + 1 + rng.below(9) as u8) % 10),
                    _ => b' ',
                };
            }
            _ => {}
        }
    }
    out
}

fn load_lines(file: &str) -> Vec<Vec<u8>> {
    let path = corpus_dir("protocol").join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed corpus missing at {}: {e}", path.display()));
    text.lines().map(|l| l.as_bytes().to_vec()).collect()
}

fn load_bins() -> Vec<Vec<u8>> {
    let dir = corpus_dir("snapshot");
    let mut seeds: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("committed corpus missing at {}: {e}", dir.display()))
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "bin"))
        .map(|e| (e.path(), std::fs::read(e.path()).expect("corpus seed")))
        .collect();
    seeds.sort_by(|a, b| a.0.cmp(&b.0)); // deterministic seed order
    seeds.into_iter().map(|(_, b)| b).collect()
}

/// NaN-tolerant response equality: values must match bit-for-bit except
/// that any NaN matches any NaN (`-nan` loses its sign through `{:?}`).
fn responses_equivalent(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (Response::Estimate(x), Response::Estimate(y))
        | (Response::Degraded(x), Response::Degraded(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        _ => a == b,
    }
}

/// Wire lines arrive through `read_line`, so a mutant is fed only up to
/// its first line break.
fn as_wire_line(bytes: &[u8]) -> String {
    let text = String::from_utf8_lossy(bytes);
    text.split(['\n', '\r']).next().unwrap_or("").to_string()
}

/// End-to-end half of the protocol property: every corpus request line —
/// including the `IN`/`LIKE` entries with malformed lists, unterminated
/// string literals, and `%`-pattern edge cases — plus a budget of seeded
/// mutants goes through a **live server**. Every line must be answered
/// with a typed protocol line (`OK`/`ERR <code>`/`BUSY`/`BYE`); the server
/// must never panic and must keep serving afterwards.
#[test]
fn fuzz_live_server_answers_every_corpus_line_with_a_typed_response() {
    use std::sync::Arc;
    use std::time::Duration;

    use ds_serve::{Connection, ServeConfig, Server};

    let db = Arc::new(ds_storage::gen::imdb_database(
        &ds_storage::gen::ImdbConfig::tiny(42),
    ));
    let sketch =
        ds_core::builder::SketchBuilder::new(&db, ds_query::workloads::imdb_predicate_columns(&db))
            .training_queries(120)
            .epochs(2)
            .sample_size(8)
            .hidden_units(8)
            .seed(7)
            .build()
            .expect("tiny sketch");
    let store = Arc::new(ds_core::store::SketchStore::new());
    store.insert("imdb", sketch).unwrap();
    let server = Server::start(
        Arc::clone(&db),
        store,
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    )
    .unwrap();
    let connect =
        || Connection::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
    let mut client = connect();

    let seeds = load_lines("requests.txt");
    let mut rng = Rng(0x0011_ab5e_4ded_5eed);
    let mutants: Vec<String> = (0..fuzz_iters(400))
        .map(|_| as_wire_line(&mutate(&mut rng, &seeds)))
        .collect();
    let lines = seeds
        .iter()
        .map(|s| as_wire_line(s))
        .chain(mutants)
        .filter(|l| !l.trim().is_empty());

    for line in lines {
        let reply = match client.send_raw(&line) {
            Ok(reply) => reply,
            // QUIT/EXIT mutants close the connection mid-conversation;
            // reconnect and keep going — the *server* must survive.
            Err(_) => {
                client = connect();
                continue;
            }
        };
        let typed = reply.starts_with("OK ")
            || reply == "OK"
            || reply.starts_with("BUSY")
            || reply == "BYE"
            || reply
                .strip_prefix("ERR ")
                .is_some_and(|rest| !rest.split_whitespace().next().unwrap_or("").is_empty());
        assert!(typed, "untyped reply '{reply}' to line '{line}'");
        if reply == "BYE" {
            client = connect();
        }
    }

    // The server is still healthy: a well-formed extended-operator line
    // round-trips after the whole barrage.
    let ok = client
        .send_raw(
            "ESTIMATE imdb SELECT COUNT(*) FROM title \
             WHERE title.kind_id IN (1, 2) AND title.production_year LIKE '19%'",
        )
        .unwrap();
    assert!(ok.starts_with("OK "), "server unhealthy after fuzz: {ok}");
    server.shutdown();
}

#[test]
fn fuzz_protocol_parsers_never_panic_and_accepted_lines_are_canonical() {
    let mut seeds = load_lines("requests.txt");
    seeds.extend(load_lines("responses.txt"));
    assert!(seeds.len() >= 20, "protocol corpus unexpectedly small");
    let mut rng = Rng(0x0000_ddc0_ffee_5eed);
    let (mut req_ok, mut resp_ok) = (0usize, 0usize);
    for _ in 0..fuzz_iters(4000) {
        let line = as_wire_line(&mutate(&mut rng, &seeds));

        if let Ok(req) = parse_request(&line) {
            req_ok += 1;
            let wire = format_request(&req);
            assert_eq!(
                parse_request(&wire).expect("canonical request must reparse"),
                req,
                "request round-trip diverged for mutant '{line}'"
            );
        }
        for estimate in [true, false] {
            if let Ok(resp) = parse_response(&line, estimate) {
                resp_ok += 1;
                let wire = format_response(&resp);
                let reparsed = parse_response(&wire, estimate)
                    .unwrap_or_else(|e| panic!("canonical response must reparse: {e}"));
                assert!(
                    responses_equivalent(&resp, &reparsed),
                    "response round-trip diverged for mutant '{line}': \
                     {resp:?} vs {reparsed:?}"
                );
            }
        }
    }
    // The mutator must keep producing *valid* inputs too, or the round-trip
    // half of the property never executes.
    assert!(req_ok > 0, "no mutant parsed as a request");
    assert!(resp_ok > 0, "no mutant parsed as a response");
}

#[test]
fn fuzz_snapshot_decoder_never_panics_and_accepts_only_canonical_bytes() {
    let mut seeds = load_bins();
    assert!(seeds.len() >= 4, "snapshot corpus unexpectedly small");
    // One fully-valid seed built at runtime (a real trained sketch would
    // bloat the committed corpus): without it no mutant could ever reach
    // the accept path, and the canonical-bytes half of the property would
    // be vacuous.
    let db = ds_storage::gen::imdb_database(&ds_storage::gen::ImdbConfig::tiny(42));
    let sketch =
        ds_core::builder::SketchBuilder::new(&db, ds_query::workloads::imdb_predicate_columns(&db))
            .training_queries(120)
            .epochs(2)
            .sample_size(8)
            .hidden_units(8)
            .seed(7)
            .build()
            .expect("tiny sketch");
    let valid = encode_snapshot("imdb", 1, &sketch, None);
    assert!(
        decode_snapshot(&valid).is_ok(),
        "runtime seed must be valid"
    );
    seeds.push(valid);

    let mut rng = Rng(0x005a_a9d5_4b17_c0de);
    let mut accepted = 0usize;
    for _ in 0..fuzz_iters(2500) {
        let mut bytes = mutate(&mut rng, &seeds);
        // Structure-aware half: a quarter of the mutants get their FNV
        // trailer recomputed, so corruption *behind* a valid checksum
        // stresses the structural validation and the sketch decoder
        // instead of stopping at the cheap checksum gate.
        if bytes.len() >= 16 && rng.below(4) == 0 {
            let body_len = bytes.len() - 8;
            let sum = ds_core::snapshot::checksum(&bytes[..body_len]);
            bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        }
        // Must return, never panic; accepted bytes must be the canonical
        // encoding of what they decode to.
        if let Ok(snap) = decode_snapshot(&bytes) {
            accepted += 1;
            let re = encode_snapshot(
                &snap.name,
                snap.generation,
                &snap.sketch,
                snap.monitor.as_ref(),
            );
            assert_eq!(re, bytes, "decoder accepted non-canonical bytes");
        }
    }
    assert!(
        accepted > 0,
        "no mutant ever decoded — the accept path went unexercised"
    );
}

/// The harvested-set decoder (`DSHV`) faces whatever bytes a crash left
/// next to the snapshots, so it gets the same treatment: mutants must
/// never panic, and accepted bytes must be canonical — decode → encode is
/// the identity, so a warm restart re-persists exactly what it read.
#[test]
fn fuzz_harvest_decoder_never_panics_and_accepts_only_canonical_bytes() {
    use ds_core::lifecycle::HarvestSet;

    const CAPACITY: usize = 1024;
    // Runtime-built seeds: a populated set (varied key/SQL/actual shapes,
    // including the dedup-refresh path bumping sequence numbers) and the
    // valid-but-empty edge.
    let mut set = HarvestSet::new(CAPACITY);
    for i in 0..24u64 {
        set.observe(
            &format!("tmpl-{}#{}", i % 5, i),
            &format!("SELECT COUNT(*) FROM title WHERE title.kind_id = {i}"),
            i * 31 + 1,
        );
    }
    set.observe("tmpl-0#0", "SELECT COUNT(*) FROM title", u64::MAX);
    let mut seeds = vec![set.encode(), HarvestSet::new(CAPACITY).encode()];
    for seed in &seeds {
        assert!(
            HarvestSet::decode(seed, CAPACITY).is_ok(),
            "runtime harvest seed must be valid"
        );
    }
    // Plus raw garbage so the magic/version gates see non-DSHV noise.
    seeds.push(b"DSHV".to_vec());
    seeds.push(vec![0xff; 64]);

    let mut rng = Rng(0x00d5_11f3_c1e5_eed5);
    let mut accepted = 0usize;
    for _ in 0..fuzz_iters(2500) {
        let mut bytes = mutate(&mut rng, &seeds);
        // Structure-aware half: recompute the FNV trailer on a quarter of
        // the mutants so corruption behind a valid checksum stresses the
        // length-field bounds checks and the per-entry validation instead
        // of stopping at the cheap checksum gate.
        if bytes.len() >= 24 && rng.below(4) == 0 {
            let body_len = bytes.len() - 8;
            let sum = ds_core::snapshot::checksum(&bytes[..body_len]);
            bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        }
        if let Ok(decoded) = HarvestSet::decode(&bytes, CAPACITY) {
            accepted += 1;
            assert_eq!(
                decoded.encode(),
                bytes,
                "harvest decoder accepted non-canonical bytes"
            );
        }
    }
    assert!(
        accepted > 0,
        "no mutant ever decoded — the harvest accept path went unexercised"
    );
}
