//! A connected-but-quiet server costs no CPU: every connection's thread is
//! blocked in `read`, the acceptor in `accept`, and nothing polls. Its own
//! binary, one test, so no other test's threads share the process clock.
#![cfg(target_os = "linux")]

use std::time::Duration;

use authdb_core::da::DaConfig;
use authdb_net::{QsClient, QsServerOptions};
use authdb_testkit::deploy::{serve, Deployment};

/// Process CPU so far, user + system, in clock ticks (`/proc/self/stat`
/// fields 14 and 15; the command name in field 2 may hold spaces, so
/// count from its closing parenthesis).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut tick = || -> u64 { fields.next().expect("field").parse().expect("ticks") };
    tick() + tick()
}

#[test]
fn sixty_four_quiet_connections_cost_no_cpu() {
    let deployment = Deployment::catalog(DaConfig::small(), 1, 8);
    let (_, server, ..) = serve(deployment, QsServerOptions::default());
    let mut clients: Vec<QsClient> = (0..64)
        .map(|_| QsClient::connect(server.addr()).expect("connect"))
        .collect();
    for c in &mut clients {
        c.ping().expect("first ping");
    }
    assert_eq!(server.active_connections(), 64);

    let before = cpu_ticks();
    std::thread::sleep(Duration::from_secs(1));
    let spent = cpu_ticks() - before;
    assert!(
        spent <= 2,
        "64 quiet connections burned {spent} CPU ticks in a second: something polls"
    );

    for c in &mut clients {
        c.ping().expect("still served after the quiet second");
    }
    assert_eq!(server.active_connections(), 64);
}
