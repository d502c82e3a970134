//! Tier-1 serve contract: cache correctness under concurrency and across
//! process "restarts".
//!
//! Three rounds against the same request bytes:
//!
//! 1. two concurrent identical point requests join one in-flight suite —
//!    exactly 12 scenario tasks run in total, both responses answer with
//!    byte-identical `done` lines;
//! 2. a cold "process" (memo reset + fresh [`Server`]) serves the same
//!    request from the store — zero scenario tasks, 12 journal replays,
//!    and the `done` line is still byte-identical. `scenario_tasks == 0`
//!    is the no-worker-pool proof: the pool thread-local is only ever
//!    touched by the task path that increments that counter;
//! 3. a torn cache entry (chaos hook tears `bfs.json` mid-byte and skips
//!    its journal append) makes the restarted server recompute exactly
//!    the damaged scenario — 1 task, 11 replays — and still converge to
//!    the same response bytes.
//!
//! A second test drives hostile clients: an over-long request line gets
//! one `degraded` answer and closes that session, and the server keeps
//! serving other clients.
//!
//! The suite memo, preload registry, and journal sink are process-wide,
//! so the tests take [`serial`] before touching a [`Server`].

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use vs_bench::chaos::{clear_chaos_plan, install_chaos_plan, ChaosPlan};
use vs_bench::serve::{serve_lines, serve_tcp, ServeOptions, Server, MAX_REQUEST_LINE};
use vs_bench::space::ConfigPoint;
use vs_bench::{shard, RunSettings};

/// Small enough for debug-mode CI: one suite, 12 scenarios.
fn micro() -> RunSettings {
    RunSettings {
        workload_scale: 0.02,
        max_cycles: 8_000,
        seed: 42,
    }
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vs-bench-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Serializes the tests of this file: they share process-wide state.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const POINT_REQ: &str = r#"{"id":"r","kind":"point","point":"area=0.2"}"#;
const EXP_REQ: &str = r#"{"id":"e","kind":"experiment","experiment":"table1"}"#;

/// Handles one request, asserting the session stays open, and returns the
/// response lines.
fn handle(server: &Server, line: &str) -> Vec<String> {
    let mut buf = Vec::new();
    assert!(server.handle_line(line, &mut buf).expect("response write"));
    String::from_utf8(buf)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

fn done_line(lines: &[String]) -> String {
    assert!(
        !lines.iter().any(|l| l.contains("\"name\":\"degraded\"")),
        "unexpected degraded event in {lines:#?}"
    );
    lines
        .iter()
        .find(|l| l.contains("\"name\":\"done\""))
        .unwrap_or_else(|| panic!("no done event in {lines:#?}"))
        .clone()
}

fn has_stage(lines: &[String], stage: &str) -> bool {
    lines.iter().any(|l| l.contains(&format!("\"name\":\"{stage}\"")))
}

#[test]
fn concurrent_requests_join_and_cold_restarts_serve_from_store() {
    let _serial = serial();
    let store = tmp("store");
    let opts = ServeOptions { store: store.clone(), settings: micro() };
    let key = "area=0.2".parse::<ConfigPoint>().unwrap().suite_key(&micro());

    // Round 1 — two concurrent identical requests, one computation.
    clear_chaos_plan();
    shard::reset_suite_memo_for_tests();
    let server = Arc::new(Server::open(&opts).expect("open store"));
    assert_eq!(server.store_report.verified_scenarios, 0);
    assert!(!shard::suite_is_warm(&key), "fresh store must be cold");
    let (lines_a, lines_b) = std::thread::scope(|s| {
        let sa = Arc::clone(&server);
        let sb = Arc::clone(&server);
        let a = s.spawn(move || handle(&sa, POINT_REQ));
        let b = s.spawn(move || handle(&sb, POINT_REQ));
        (a.join().expect("request a"), b.join().expect("request b"))
    });
    let stats = shard::shard_stats();
    assert_eq!(stats.scenario_tasks, 12, "duplicates must join one suite: {stats:?}");
    assert_eq!(stats.replayed, 0, "{stats:?}");
    let done = done_line(&lines_a);
    assert_eq!(done, done_line(&lines_b), "joined responses must agree byte-for-byte");
    assert!(shard::suite_is_warm(&key), "completed suite must report warm");
    let exp_done = done_line(&handle(&server, EXP_REQ));
    assert!(exp_done.contains("\"checksum\""), "{exp_done}");

    // Round 2 — cold process: replay from the store, no worker pool.
    shard::reset_suite_memo_for_tests();
    let server2 = Server::open(&opts).expect("reopen store");
    assert_eq!(server2.store_report.verified_scenarios, 12, "{:?}", server2.store_report);
    assert_eq!(server2.store_report.verified_experiments, 1, "{:?}", server2.store_report);
    assert_eq!(server2.store_report.damaged, 0, "{:?}", server2.store_report);
    assert!(shard::suite_is_warm(&key), "full preload must report warm");
    // A fresh thread has a fresh pool thread-local: if the request ran any
    // co-simulation at all it would bump scenario_tasks.
    let server2 = Arc::new(server2);
    let s2 = Arc::clone(&server2);
    let lines = std::thread::spawn(move || handle(&s2, POINT_REQ))
        .join()
        .expect("cold request");
    let stats = shard::shard_stats();
    assert_eq!(stats.scenario_tasks, 0, "store hit must run zero co-simulation: {stats:?}");
    assert_eq!(stats.replayed, 12, "{stats:?}");
    assert!(has_stage(&lines, "cached"), "store hit must announce cached: {lines:#?}");
    assert_eq!(done_line(&lines), done, "replayed response must be byte-identical");
    let exp_lines = handle(&server2, EXP_REQ);
    assert!(has_stage(&exp_lines, "cached"), "{exp_lines:#?}");
    assert_eq!(done_line(&exp_lines), exp_done, "experiment hit must be byte-identical");

    // Round 3 — torn cache entry: recompute exactly the damaged scenario.
    let store = tmp("torn");
    let opts = ServeOptions { store, settings: micro() };
    shard::reset_suite_memo_for_tests();
    let server3 = Server::open(&opts).expect("open torn store");
    install_chaos_plan(ChaosPlan {
        seed: 1,
        tasks: vec![],
        torn_writes: vec!["bfs.json".to_string()],
    });
    let done3 = done_line(&handle(&server3, POINT_REQ));
    clear_chaos_plan();
    assert_eq!(done3, done, "same point, same settings, same response");

    shard::reset_suite_memo_for_tests();
    let server4 = Server::open(&opts).expect("reopen torn store");
    // The torn write lands before the journal append, so the entry is an
    // orphaned file, not a journaled damage record.
    assert_eq!(server4.store_report.verified_scenarios, 11, "{:?}", server4.store_report);
    assert!(!shard::suite_is_warm(&key), "a partial preload must not report warm");
    let lines = handle(&server4, POINT_REQ);
    let stats = shard::shard_stats();
    assert_eq!(stats.scenario_tasks, 1, "exactly the torn scenario recomputes: {stats:?}");
    assert_eq!(stats.replayed, 11, "{stats:?}");
    assert!(has_stage(&lines, "running"), "{lines:#?}");
    assert_eq!(done_line(&lines), done, "healed response must be byte-identical");

    // Hostile requests answer degraded instead of killing the session.
    for bad in [
        "not json",
        r#"{"id":"x","kind":"warp_drive"}"#,
        r#"{"id":"x","kind":"point","point":"area=inf"}"#,
        r#"{"id":"x","kind":"diff_baseline","baseline":"/nonexistent","candidate":"/nonexistent"}"#,
        r#"{"id":"x","kind":"experiment","experiment":"fig99"}"#,
    ] {
        let mut buf = Vec::new();
        assert!(server4.handle_line(bad, &mut buf).unwrap(), "{bad}");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"name\":\"degraded\""), "{bad} -> {text}");
    }
    // Shutdown closes the session.
    let mut buf = Vec::new();
    assert!(!server4.handle_line(r#"{"id":"z","kind":"shutdown"}"#, &mut buf).unwrap());
}

const SHUTDOWN_REQ: &str = r#"{"id":"s","kind":"shutdown"}"#;

#[test]
fn over_long_lines_are_refused_and_other_clients_still_served() {
    let _serial = serial();
    let opts = ServeOptions { store: tmp("hostile"), settings: micro() };
    shard::reset_suite_memo_for_tests();
    let server = Arc::new(Server::open(&opts).expect("open store"));

    // A line of exactly the cap is still a request (padding trims away).
    let mut input = br#"{"id":"p","kind":"warp_drive"}"#.to_vec();
    input.resize(MAX_REQUEST_LINE, b' ');
    input.push(b'\n');
    input.extend_from_slice(SHUTDOWN_REQ.as_bytes());
    input.push(b'\n');
    let mut out = Vec::new();
    serve_lines(&server, &input[..], &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("unknown request kind"), "{text}");
    assert!(text.contains(r#""req":"s""#), "the request after it must be read: {text}");

    // One byte more, and 1 MiB with no newline at all: one degraded line
    // ends the session, and nothing behind it is read.
    for len in [MAX_REQUEST_LINE + 1, 1 << 20] {
        let mut input = vec![b'x'; len];
        input.push(b'\n');
        input.extend_from_slice(SHUTDOWN_REQ.as_bytes());
        input.push(b'\n');
        let mut out = Vec::new();
        serve_lines(&server, &input[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "{len} bytes: {text}");
        assert!(text.contains(r#""name":"degraded""#), "{len} bytes: {text}");
        assert!(text.contains("exceeds 65536 bytes"), "{len} bytes: {text}");
    }

    // Over TCP: a client floods 1 MiB without a newline, gets one degraded
    // line, and is disconnected; a second client is then served normally.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || serve_tcp(&server, listener))
    };
    let hostile = TcpStream::connect(addr).expect("connect hostile client");
    hostile.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut flood_side = hostile.try_clone().unwrap();
    // The server stops parsing at the cap and only drains the rest before
    // closing, so whether this write completes does not matter.
    let flood = std::thread::spawn(move || {
        let _ = flood_side.write_all(&vec![b'x'; 1 << 20]);
    });
    let mut reader = BufReader::new(&hostile);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("degraded reply");
    assert!(reply.contains(r#""name":"degraded""#), "{reply}");
    let mut rest = Vec::new();
    let closed = match reader.read_to_end(&mut rest) {
        Ok(_) => rest.is_empty(),
        Err(_) => true, // reset: the server closed with unread input
    };
    assert!(closed, "hostile session must be closed, got {rest:?}");
    flood.join().unwrap();

    let mut client = TcpStream::connect(addr).expect("connect second client");
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    writeln!(client, "{SHUTDOWN_REQ}").unwrap();
    let mut text = String::new();
    client.read_to_string(&mut text).expect("second client response");
    assert!(text.contains(r#""name":"accepted""#), "{text}");
    assert!(text.contains(r#""name":"done""#), "{text}");
    accept.join().unwrap().expect("accept loop ends cleanly on shutdown");
}
