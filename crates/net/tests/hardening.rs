//! Server-hardening regressions: the QS must survive clients that stall,
//! flood, or vanish — each previously a way to pin a connection thread
//! (or all of them) forever.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use authdb_core::da::DaConfig;
use authdb_core::wire::Request;
use authdb_net::{QsClient, QsServer, QsServerOptions};
use authdb_testkit::deploy::{serve, Deployment};
use authdb_wire::frame;

/// A small single-shard deployment, served with the given options.
fn serve_small(opts: QsServerOptions) -> QsServer {
    let (_, server, ..) = serve(Deployment::catalog(DaConfig::small(), 1, 8), opts);
    server
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
    let server = serve_small(QsServerOptions {
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
    let server = serve_small(QsServerOptions {
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
    let server = serve_small(QsServerOptions {
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

#[test]
fn a_stalled_reader_stalls_only_itself() {
    // Two shards over keys 0..=990, so `(0, 990)` answers with the whole
    // relation: 3.8 KB per 22-byte request.
    let (sa, server, v, view) = serve(
        Deployment::catalog(DaConfig::small(), 2, 100),
        QsServerOptions {
            write_timeout: Duration::from_millis(300),
            ..QsServerOptions::default()
        },
    );

    let mut a = TcpStream::connect(server.addr()).expect("connect");
    let mut b = QsClient::connect(server.addr()).expect("connect");
    b.ping().expect("b is served");
    assert!(
        wait_until(Duration::from_secs(1), || server.active_connections() == 2),
        "both admitted"
    );

    // A pipelines 1 MiB of whole-relation selects — tens of MB of answers,
    // more than both socket buffers can ever hold — and never reads. Its
    // thread ends up blocked in `write`; the flood is written off-thread
    // because the server stops reading A then, and A's own writes block.
    let select_all = frame(&Request::Select { lo: 0, hi: 990 });
    let flood = select_all.repeat((1 << 20) / select_all.len());
    let flooder = std::thread::spawn(move || {
        let _ = a.write_all(&flood);
        a // kept open: the server, not the peer, must end this connection
    });

    // B is answered all the while — verified, and many times over — until
    // A is dropped at the write deadline. A server whose stalled write held
    // up anyone else would leave B waiting out that deadline instead.
    let mut rng = StdRng::seed_from_u64(3);
    let answer = b
        .select_range(120, 480)
        .expect("b's selection beside the flood");
    v.verify_sharded_selection(120, 480, &answer, &view, sa.now(), true, &mut rng)
        .expect("b's answer verifies");
    let mut served_beside_the_stall = 0;
    let end = Instant::now() + Duration::from_secs(10);
    while server.active_connections() == 2 && Instant::now() < end {
        b.ping().expect("b's ping beside the flood");
        served_beside_the_stall += 1;
    }
    assert_eq!(
        server.active_connections(),
        1,
        "the stalled reader must be dropped at the write deadline"
    );
    assert!(
        served_beside_the_stall >= 10,
        "b got {served_beside_the_stall} answers while a was stalled"
    );
    b.ping().expect("b outlives a");
    drop(flooder.join().expect("flooder"));
}

#[test]
fn every_way_a_connection_ends_frees_its_slot() {
    let server = serve_small(QsServerOptions {
        max_connections: 1,
        ..QsServerOptions::default()
    });
    let ways: [(&str, &[u8], bool); 3] = [
        // A header promising 16 bytes, 3 of them sent, then the peer is gone.
        ("peer gone mid-frame", &[0, 0, 0, 16, 1, 2, 3], true),
        // A complete frame that is not a request (no such format version).
        ("malformed frame", &[0, 0, 0, 3, 0xff, 0xff, 0xff], false),
        // A length prefix beyond `max_request_len`.
        ("oversized length prefix", &[0xff, 0xff, 0xff, 0xff], false),
    ];
    for (way, bytes, peer_leaves) in ways {
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        assert!(
            wait_until(Duration::from_secs(1), || server.active_connections() == 1),
            "{way}: admitted"
        );
        raw.write_all(bytes).expect("write");
        let held = (!peer_leaves).then_some(raw);
        assert!(
            wait_until(Duration::from_secs(2), || server.active_connections() == 0),
            "{way}: the connection's slot must be freed"
        );
        // The cap is one: being served at all means the slot came back.
        let mut client = QsClient::connect(server.addr()).expect("connect");
        client
            .ping()
            .unwrap_or_else(|e| panic!("{way}: slot not reusable: {e}"));
        drop((client, held));
        assert!(
            wait_until(Duration::from_secs(2), || server.active_connections() == 0),
            "{way}: the honest client's slot is freed too"
        );
    }
}
