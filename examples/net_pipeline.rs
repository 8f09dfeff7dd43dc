//! The network tier on one page: an `LdpServer` on loopback TCP absorbs
//! epoch-tagged reports from several concurrent client sessions, seals
//! epochs over the wire, answers sliding-window queries mid-ingest, and
//! drains gracefully — and because every mechanism's state is an exact
//! integer sufficient statistic, the socket adds *transport, not
//! semantics*: the final state is bit-identical to in-process
//! submission.
//!
//! ```text
//! cargo run --release --example net_pipeline
//! ```

use std::sync::Arc;

use ldp_range_queries::prelude::*;
use ldp_range_queries::ranges::HaarHrrReport;
use ldp_range_queries::service::net::{Hello, NetConfig, Query, QueryOp};
use ldp_range_queries::service::{generate_drifting_epochs, LdpClient, LdpServer, LdpService};

fn main() {
    let domain = 256usize;
    let epochs = 6usize;
    let window = 2usize;
    let users_per_epoch = 20_000u64;
    let sessions = 4usize;

    let config = HaarConfig::new(domain, Epsilon::from_exp(3.0)).expect("valid config");
    let client = HaarHrrClient::new(config.clone()).expect("client");
    let prototype = HaarHrrServer::new(config).expect("server");

    // A drifting population: early epochs report from the low quarter of
    // the domain, late epochs from the high quarter.
    let mut low = vec![0u64; domain];
    let mut high = vec![0u64; domain];
    for z in 0..domain / 4 {
        low[z] = 1;
        high[domain - 1 - z] = 1;
    }
    let streams = generate_drifting_epochs(
        &Dataset::from_counts(low),
        &Dataset::from_counts(high),
        epochs,
        users_per_epoch,
        11,
        |value, rng| client.report(value, rng).expect("in-domain value"),
    );

    // The server: a 4-shard windowed service behind a loopback socket.
    let service = Arc::new(LdpService::windowed(&prototype, 4, window).expect("valid window"));
    let server =
        LdpServer::bind_windowed("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
            .expect("bind loopback");
    let addr = server.local_addr();
    println!("# net_pipeline: LdpServer on {addr}, {sessions} reporting sessions");
    println!(
        "{:>6}  {:>10}  {:>14}  {:>15}",
        "epoch", "acked", "window median", "epochs covered"
    );

    // One control session drives seals and queries; per epoch, the
    // reports fan out over several concurrent client sessions.
    let mut control =
        LdpClient::connect(addr, Hello::windowed::<HaarHrrReport>()).expect("connect");
    for (e, stream) in streams.iter().enumerate() {
        let acked: u64 = std::thread::scope(|scope| {
            (0..sessions)
                .map(|s| {
                    let stream = &stream;
                    scope.spawn(move || {
                        let mut session =
                            LdpClient::connect(addr, Hello::windowed::<HaarHrrReport>())
                                .expect("connect");
                        // Each session ships an interleaved slice of the
                        // epoch's frames in batched REPORT messages.
                        let mut batch = ldp_range_queries::service::EncodedStream::new();
                        for i in (s..stream.len()).step_by(sessions) {
                            batch.push_raw(stream.frame(i));
                        }
                        let acked = session.send_stream(&batch, 512).expect("clean stream");
                        session.bye().expect("clean close");
                        acked
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("session thread"))
                .sum()
        });
        let sealed = control.seal_epoch().expect("seal over the wire");
        assert_eq!(sealed, e as u64);
        let reply = control
            .query(Query {
                op: QueryOp::Quantile { phi: 0.5 },
                window: Some(window.min(e + 1) as u64),
            })
            .expect("windowed quantile");
        let (first, last) = reply.window.expect("windowed reply carries bounds");
        println!(
            "{e:>6}  {acked:>10}  {:>14}  [{first}, {last}]",
            reply.index().expect("a quantile reply")
        );
    }

    // Graceful shutdown: drain, seal the open epoch, join every thread.
    let stats = server.shutdown();
    println!(
        "\n# drained: {} sessions, {} frames absorbed, {} rejected, num_reports {}",
        stats.sessions, stats.frames_absorbed, stats.frames_rejected, stats.num_reports
    );
    assert_eq!(
        stats.frames_absorbed,
        epochs as u64 * users_per_epoch,
        "drain must account for every acked frame"
    );
    let median = stats.final_snapshot.quantile(0.5);
    println!(
        "# final trailing-window snapshot: version {}, median {median} \
         (population drifted to the high quarter: ≥ {})",
        stats.final_snapshot.version(),
        3 * domain / 4
    );
    assert!(median >= domain / 2, "window should track the drift");
}
