//! Admission-control behaviour under pressure: an in-flight bound of Q
//! with more than Q callers must answer `Overloaded` — never panic, never
//! block forever — and shutdown must drain cleanly.
//!
//! Determinism on any machine (including single-core CI) comes from the
//! `call_delay` fault-injection knob: every admitted call pauses before it
//! executes, so it holds its in-flight slot for as long as the test needs.

use ssj_serve::{Request, Response, Server, ServerConfig};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn slow_config(queue_capacity: usize, delay_ms: u64) -> ServerConfig {
    ServerConfig {
        shards: 2,
        queue_capacity,
        call_delay: Duration::from_millis(delay_ms),
        ..ServerConfig::default()
    }
}

fn fan_out(server: &Server, clients: usize) -> Vec<Response> {
    let barrier = Arc::new(Barrier::new(clients));
    let threads: Vec<_> = (0..clients)
        .map(|i| {
            let handle = server.handle();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let base = i as u32 * 100;
                handle.call(Request::Insert {
                    elems: (base..base + 5).collect(),
                })
            })
        })
        .collect();
    threads
        .into_iter()
        .map(|t| t.join().expect("client thread must not panic"))
        .collect()
}

#[test]
fn full_queue_rejects_with_overloaded() {
    const CAPACITY: usize = 2;
    const CLIENTS: usize = 8;
    let server = Server::start(slow_config(CAPACITY, 30)).expect("valid config");
    let responses = fan_out(&server, CLIENTS);

    let inserted = responses
        .iter()
        .filter(|r| matches!(r, Response::Inserted { .. }))
        .count();
    let overloaded = responses
        .iter()
        .filter(|r| matches!(r, Response::Overloaded))
        .count();
    assert_eq!(
        inserted + overloaded,
        CLIENTS,
        "every request gets exactly one definite answer: {responses:?}"
    );
    // Each admitted call holds its slot for 30ms, so at most CAPACITY calls
    // of a simultaneous burst of 8 are in flight at once; the rest must
    // be turned away at the door.
    assert!(
        overloaded >= 1,
        "in-flight bound {CAPACITY} with {CLIENTS} in flight must overload: {responses:?}"
    );
    assert!(inserted >= 1, "the in-flight request must succeed");

    let stats = server.stats();
    assert_eq!(stats.overloaded, overloaded as u64);
    assert_eq!(stats.accepted, inserted as u64);
    assert_eq!(stats.live_sets.iter().sum::<u64>(), inserted as u64);
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_work_and_rejects_later_calls() {
    let server = Server::start(slow_config(64, 10)).expect("valid config");
    let handle = server.handle();

    // Admit a burst, then immediately shut down: every admitted request
    // must still be answered, not dropped.
    let responses = fan_out(&server, 4);
    assert!(
        responses
            .iter()
            .all(|r| matches!(r, Response::Inserted { .. })),
        "{responses:?}"
    );
    server.shutdown();

    assert!(handle.is_draining());
    assert_eq!(handle.call(Request::Stats), Response::ShuttingDown);
    assert_eq!(
        handle.call(Request::Insert { elems: vec![1, 2] }),
        Response::ShuttingDown
    );
}

#[test]
fn drain_races_with_inflight_clients_without_hanging() {
    // Clients submitting while another thread shuts the server down must
    // each receive a definite response — Inserted if admitted before the
    // drain, ShuttingDown otherwise — and the whole dance must terminate.
    let server = Server::start(slow_config(8, 5)).expect("valid config");
    let clients: Vec<_> = (0..6)
        .map(|i| {
            let handle = server.handle();
            std::thread::spawn(move || {
                handle.call(Request::Insert {
                    elems: vec![i as u32, i as u32 + 1],
                })
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(10));
    server.shutdown();
    for c in clients {
        let resp = c.join().expect("client thread");
        assert!(
            matches!(
                resp,
                Response::Inserted { .. } | Response::ShuttingDown | Response::Overloaded
            ),
            "unexpected {resp:?}"
        );
    }
}
