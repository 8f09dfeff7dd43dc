//! The plain-HTTP ops endpoint ([`crate::net::NetConfig::ops_addr`]) —
//! the one surface on which telemetry leaves the process.
//!
//! A deliberately minimal, dependency-free HTTP/1.1 listener on its own
//! thread, serving two GET routes straight from the shared registry:
//!
//! - `GET /metrics` — the Prometheus text exposition
//!   ([`RegistrySnapshot::render_prom`]) of a fresh registry snapshot;
//!   differencing two scrapes gives the exact per-interval delta, so the
//!   listener keeps no history,
//! - `GET /health` — the derived component-health report as JSON
//!   ([`crate::obs::HealthReport::render_json`]); the status code is
//!   `200` for a `Healthy`/`Degraded` node and `503` for `Unhealthy`,
//!   so a load balancer needs nothing but the code.
//!
//! The parser is total in the same sense as the session protocol's:
//! arbitrary bytes produce a typed status code (400/404/405), never a
//! panic, and the request head is capped before buffering. Connections
//! are served sequentially — the ops plane is a scrape target polled a
//! few times a minute, not a data path — and every response closes the
//! connection, so the handler holds no per-client state.
//!
//! [`RegistrySnapshot::render_prom`]: crate::obs::RegistrySnapshot::render_prom

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::obs::health::evaluate;
use crate::obs::instruments::OpsInstruments;
use crate::obs::{HealthState, HealthThresholds, MetricsRegistry};

/// How often the accept loop re-checks the shutdown flag while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(10);
/// Request-head cap: a scrape request line plus a handful of headers.
/// Anything longer is hostile and answered with 400.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Per-connection socket timeout — a stalled scraper cannot hold the
/// (single-threaded) listener hostage for longer than this.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// Everything a request handler reads from. One `Arc` bundle so the
/// listener thread's closure captures a single value.
struct OpsShared {
    registry: Arc<MetricsRegistry>,
    thresholds: HealthThresholds,
    obs: OpsInstruments,
}

/// The running ops listener: a bound address and a joinable accept
/// thread. Dropping stops and joins the thread.
pub(crate) struct OpsListener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl OpsListener {
    /// Binds the ops endpoint at `addr` and starts the accept thread,
    /// which judges health against `thresholds`.
    pub(crate) fn start(
        addr: &str,
        registry: Arc<MetricsRegistry>,
        thresholds: &HealthThresholds,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let shared = OpsShared {
            obs: OpsInstruments::register(&registry),
            registry,
            thresholds: thresholds.clone(),
        };
        let handle = std::thread::Builder::new()
            .name("ldp-ops-http".into())
            .spawn(move || accept_loop(&listener, &flag, &shared))?;
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (port 0 resolves to a real port here).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the listener thread.
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for OpsListener {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool, shared: &OpsShared) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = serve(stream, shared);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // WouldBlock (idle) and hard failures (EMFILE) alike: sleep a
            // tick and re-check the flag — the scrape plane never spins.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Serves one connection: read a bounded request head, route, answer,
/// close. I/O failures are swallowed by the caller — a scraper that
/// hangs up mid-response costs nothing.
fn serve(mut stream: TcpStream, shared: &OpsShared) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = read_head(&mut stream)?;
    shared.obs.http_requests.incr();
    let (status, content_type, body) = respond(&head, shared);
    if status != 200 {
        shared.obs.http_errors.incr();
    }
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Reads until the end of the request head (`\r\n\r\n`) or the cap.
/// A peer that sends more than [`MAX_REQUEST_BYTES`] before finishing
/// its head gets whatever was buffered — the parser will answer 400.
fn read_head(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST_BYTES {
            return Ok(head);
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(head),
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Routes one parsed request to its body. Never panics: every failure
/// mode is a `(status, type, body)` triple.
fn respond(head: &[u8], shared: &OpsShared) -> (u16, &'static str, String) {
    let path = match parse_http_request(head) {
        Ok(path) => path,
        Err(status) => return (status, "text/plain; charset=utf-8", format!("{status}\n")),
    };
    // Strip any query string: scrape tooling appends cache-busters.
    let route = path.split('?').next().unwrap_or(path);
    match route {
        "/metrics" => (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            shared.registry.snapshot().render_prom(),
        ),
        "/health" => {
            let report = evaluate(&shared.registry.snapshot(), &shared.thresholds);
            let status = if report.verdict() == HealthState::Unhealthy {
                503
            } else {
                200
            };
            (status, "application/json", report.render_json())
        }
        _ => (404, "text/plain; charset=utf-8", "404\n".to_string()),
    }
}

/// Parses the request line of an HTTP/1.x head. Total: arbitrary bytes
/// yield the status code to answer with (400 for anything that is not a
/// well-formed `METHOD SP PATH SP HTTP/1.x` line, 405 for a well-formed
/// non-GET), never a panic.
pub(crate) fn parse_http_request(head: &[u8]) -> Result<&str, u16> {
    let line_end = head.windows(2).position(|w| w == b"\r\n").ok_or(400u16)?;
    let line = std::str::from_utf8(&head[..line_end]).map_err(|_| 400u16)?;
    let mut parts = line.split(' ');
    let method = parts.next().ok_or(400u16)?;
    let path = parts.next().ok_or(400u16)?;
    let version = parts.next().ok_or(400u16)?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") || path.is_empty() {
        return Err(400);
    }
    if !path.starts_with('/') {
        return Err(400);
    }
    if method != "GET" {
        return Err(405);
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse_or_fail_with_typed_statuses() {
        assert_eq!(
            parse_http_request(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Ok("/metrics")
        );
        assert_eq!(
            parse_http_request(b"GET /metrics?x=1 HTTP/1.0\r\n\r\n"),
            Ok("/metrics?x=1")
        );
        assert_eq!(
            parse_http_request(b"POST /metrics HTTP/1.1\r\n\r\n"),
            Err(405)
        );
        assert_eq!(parse_http_request(b"PUT / HTTP/1.1\r\n\r\n"), Err(405));
        // No CRLF, bad UTF-8, missing parts, extra parts, bad version,
        // relative path: all 400.
        assert_eq!(parse_http_request(b"GET /metrics HTTP/1.1"), Err(400));
        assert_eq!(parse_http_request(&[0xFF, 0xFE, b'\r', b'\n']), Err(400));
        assert_eq!(parse_http_request(b"GET\r\n\r\n"), Err(400));
        assert_eq!(parse_http_request(b"GET /a b HTTP/1.1\r\n\r\n"), Err(400));
        assert_eq!(parse_http_request(b"GET /metrics SPDY/3\r\n\r\n"), Err(400));
        assert_eq!(
            parse_http_request(b"GET metrics HTTP/1.1\r\n\r\n"),
            Err(400)
        );
        assert_eq!(parse_http_request(b"GET  HTTP/1.1\r\n\r\n"), Err(400));
        assert_eq!(parse_http_request(b""), Err(400));
    }

    #[test]
    fn routes_answer_from_live_telemetry() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("t.hits").add(3);
        let shared = OpsShared {
            registry: Arc::clone(&registry),
            thresholds: HealthThresholds::default(),
            obs: OpsInstruments::register(&registry),
        };
        let (status, ct, body) = respond(b"GET /metrics HTTP/1.1\r\n\r\n", &shared);
        assert_eq!(status, 200);
        assert!(ct.starts_with("text/plain"));
        assert!(body.contains("t_hits 3"));
        let (status, ct, body) = respond(b"GET /health HTTP/1.1\r\n\r\n", &shared);
        assert_eq!(status, 200);
        assert_eq!(ct, "application/json");
        assert!(body.contains("\"verdict\""));
        let (status, _, _) = respond(b"GET /nope HTTP/1.1\r\n\r\n", &shared);
        assert_eq!(status, 404);
        let (status, _, _) = respond(b"DELETE /metrics HTTP/1.1\r\n\r\n", &shared);
        assert_eq!(status, 405);
    }

    #[test]
    fn unhealthy_verdicts_flip_the_health_status_code() {
        let registry = Arc::new(MetricsRegistry::new());
        // A wedged storage tier is Unhealthy by definition.
        registry
            .gauge(crate::obs::instruments::names::STORAGE_WEDGED)
            .set(1);
        let shared = OpsShared {
            registry: Arc::clone(&registry),
            thresholds: HealthThresholds::default(),
            obs: OpsInstruments::register(&registry),
        };
        let (status, _, body) = respond(b"GET /health HTTP/1.1\r\n\r\n", &shared);
        assert_eq!(status, 503);
        assert!(body.contains("\"verdict\": \"Unhealthy\""));
    }

    mod parser_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary byte soup never panics the request parser:
            /// every outcome is a path or a typed status code, and
            /// prepending a well-formed request line always parses.
            #[test]
            fn arbitrary_bytes_never_panic_the_http_parser(
                bytes in proptest::collection::vec(0u64..256, 0..512),
            ) {
                let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
                match parse_http_request(&bytes) {
                    Ok(path) => prop_assert!(path.starts_with('/')),
                    Err(status) => prop_assert!(status == 400 || status == 405),
                }
                let mut framed = b"GET /metrics HTTP/1.1\r\n".to_vec();
                framed.extend_from_slice(&bytes);
                prop_assert_eq!(parse_http_request(&framed), Ok("/metrics"));
            }
        }
    }
}
