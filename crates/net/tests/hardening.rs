//! Server-hardening regressions: the QS must survive clients that stall,
//! flood, or vanish — each previously a way to pin a connection thread
//! (or all of them) forever.

use std::io::Write;
use std::time::{Duration, Instant};

use authdb_core::adversary::sharded_system;
use authdb_crypto::signer::SchemeKind;
use authdb_net::{QsClient, QsServer, QsServerOptions};

/// A small single-shard deployment, served with the given options.
fn serve(opts: QsServerOptions) -> QsServer {
    let (_, sqs, _, _) = sharded_system(SchemeKind::Mock, 1, 8);
    QsServer::spawn(sqs, opts).expect("bind loopback")
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn slow_loris_connection_is_dropped_by_read_deadline() {
    let server = serve(QsServerOptions {
        read_timeout: Duration::from_millis(200),
        ..QsServerOptions::default()
    });

    // The slow loris: connect, send half a frame header, go silent.
    let mut loris = std::net::TcpStream::connect(server.addr()).expect("connect");
    loris.write_all(&[0u8, 0]).expect("half a header");
    assert!(
        wait_until(Duration::from_secs(1), || server.active_connections() >= 1),
        "the stalled connection should register as active"
    );

    // The read deadline fires and frees the thread — without it, this
    // connection held its thread until the client felt like leaving.
    assert!(
        wait_until(Duration::from_secs(2), || server.active_connections() == 0),
        "the stalled connection must be dropped at the read deadline"
    );

    // And the server is unharmed.
    let mut client = QsClient::connect(server.addr()).expect("connect");
    client.ping().expect("server still alive after the loris");
}

#[test]
fn connection_cap_sheds_load_without_wedging() {
    let server = serve(QsServerOptions {
        max_connections: 2,
        read_timeout: Duration::from_secs(5),
        ..QsServerOptions::default()
    });

    // Two idle connections occupy both slots.
    let hog_a = std::net::TcpStream::connect(server.addr()).expect("connect");
    let hog_b = std::net::TcpStream::connect(server.addr()).expect("connect");
    assert!(
        wait_until(Duration::from_secs(1), || server.active_connections() == 2),
        "both hogs admitted"
    );

    // A third connection is shed at accept: the socket may connect (the
    // OS accepts), but the server closes it without serving — a ping
    // never gets an answer.
    let refused = QsClient::connect(server.addr())
        .and_then(|mut c| c.ping())
        .is_err();
    assert!(refused, "over-cap connection must not be served");

    // Freeing a slot restores service.
    drop(hog_a);
    drop(hog_b);
    assert!(
        wait_until(Duration::from_secs(2), || server.active_connections() == 0),
        "slots are reclaimed when hogs leave"
    );
    let mut client = QsClient::connect(server.addr()).expect("connect");
    client.ping().expect("service restored under the cap");
}

#[test]
fn shutdown_drains_and_returns_promptly() {
    let server = serve(QsServerOptions {
        drain_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_millis(300),
        ..QsServerOptions::default()
    });

    // An in-flight client finishes its exchange; an idle one is abandoned
    // to its read deadline.
    let mut client = QsClient::connect(server.addr()).expect("connect");
    client.ping().expect("ping");
    let _idle = std::net::TcpStream::connect(server.addr()).expect("connect");

    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "shutdown must return within the drain window (took {elapsed:?})"
    );
}
