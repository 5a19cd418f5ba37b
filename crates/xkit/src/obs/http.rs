//! A zero-dependency HTTP/1.1 observability endpoint.
//!
//! Just enough HTTP to scrape a live run: a blocking accept loop on one
//! dedicated thread, connections served sequentially (concurrency is
//! bounded at 1 by construction — an observability plane, not a web
//! server), per-socket read/write timeouts so a stalled client can
//! never wedge the exporter. This module is the only place in the
//! workspace allowed to touch sockets; the `socket-fence` lint rule
//! (`repro lint`) fences `TcpListener`/`TcpStream`/`UdpSocket`
//! everywhere else.
//!
//! Endpoints (all `GET`):
//!
//! | path        | body                                                  |
//! |-------------|-------------------------------------------------------|
//! | `/metrics`  | Prometheus text exposition of the hub snapshot        |
//! | `/snapshot` | canonical metrics JSON ([`Metrics::to_json`])         |
//! | `/spans`    | Chrome trace-event JSON (`SpanLog::to_chrome_trace`)  |
//! | `/events`   | flight-recorder dump (`FlightRecorder::to_json`)      |
//! | `/healthz`  | `ok`                                                  |
//!
//! A server started with [`serve_tenants`] additionally routes the
//! daemon's tenant plane (DESIGN.md §15):
//!
//! | path                      | body                                    |
//! |---------------------------|-----------------------------------------|
//! | `/tenants`                | id-ordered `{"tenants": [{id, state}]}` |
//! | `/tenants/<id>/snapshot`  | that tenant's metrics JSON              |
//! | `/tenants/<id>/metrics`   | that tenant's Prometheus exposition     |
//!
//! and `/metrics` + `/snapshot` switch to the registry's id-ordered
//! aggregate fold, so the global view is deterministic for any worker
//! count once the tenants settle.
//!
//! [`Metrics::to_json`]: crate::obs::Metrics::to_json

use super::hub::ObsHub;
use super::tenants::HubRegistry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-socket read/write timeout: a scraper that stalls longer than
/// this is dropped so the accept loop keeps serving.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Largest request head we accept before answering 400.
const MAX_REQUEST_BYTES: usize = 8192;

/// A running observability server; dropping it (or calling
/// [`shutdown`](ObsServer::shutdown)) stops the accept loop and joins
/// the serving thread.
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// The bound address (useful with `127.0.0.1:0` ephemeral binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, unblock the accept loop, and join the thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.handle.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); poke it with a throwaway
        // connection so it observes the stop flag.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` (e.g. `127.0.0.1:9090`, or port `0` for ephemeral) and
/// serve the hub's current state until the returned server is dropped.
/// `namespace` prefixes every Prometheus metric name.
pub fn serve(addr: &str, namespace: &str, hub: ObsHub) -> io::Result<ObsServer> {
    serve_inner(addr, namespace, hub, None)
}

/// Like [`serve`], with the tenant plane attached: `/tenants` routes
/// resolve against `tenants`, and the global `/metrics` + `/snapshot`
/// serve the registry's id-ordered aggregate. The root `hub` keeps
/// `/spans` and `/events` (daemon-level traces and lifecycle events).
pub fn serve_tenants(
    addr: &str,
    namespace: &str,
    hub: ObsHub,
    tenants: HubRegistry,
) -> io::Result<ObsServer> {
    serve_inner(addr, namespace, hub, Some(tenants))
}

fn serve_inner(
    addr: &str,
    namespace: &str,
    hub: ObsHub,
    tenants: Option<HubRegistry>,
) -> io::Result<ObsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let namespace = namespace.to_string();
    let handle = std::thread::Builder::new()
        .name("obs-http".into())
        .spawn(move || accept_loop(listener, &thread_stop, &namespace, &hub, tenants.as_ref()))?;
    Ok(ObsServer { addr, stop, handle: Some(handle) })
}

fn accept_loop(
    listener: TcpListener,
    stop: &AtomicBool,
    namespace: &str,
    hub: &ObsHub,
    tenants: Option<&HubRegistry>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // One connection at a time; a broken client costs at most the
        // I/O timeout, never the exporter.
        let _ = serve_one(stream, namespace, hub, tenants);
    }
}

/// Read one request, write one response, close.
fn serve_one(
    mut stream: TcpStream,
    namespace: &str,
    hub: &ObsHub,
    tenants: Option<&HubRegistry>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let (head, complete) = read_head(&mut stream)?;
    let (status, content_type, body) = if !complete {
        // EOF or the 8 KiB cap before the blank line: never route a
        // truncated head, even when its first line happens to parse.
        (400, "text/plain; charset=utf-8", "request head too large or truncated\n".to_string())
    } else {
        match parse_request_line(&head) {
            None => (400, "text/plain; charset=utf-8", "bad request\n".to_string()),
            Some((method, _)) if method != "GET" => {
                (405, "text/plain; charset=utf-8", "method not allowed\n".to_string())
            }
            Some((_, path)) => route(path, namespace, hub, tenants),
        }
    };
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    // Head and body go out as two writes rather than one copied
    // response; without Nagle's delay the body follows at once.
    stream.set_nodelay(true)?;
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Dispatch a path to its body. Query strings are ignored.
fn route(
    path: &str,
    namespace: &str,
    hub: &ObsHub,
    tenants: Option<&HubRegistry>,
) -> (u16, &'static str, String) {
    const JSON: &str = "application/json";
    const TEXT: &str = "text/plain; charset=utf-8";
    const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
    let path = path.split('?').next().unwrap_or(path);
    if let Some(reg) = tenants {
        if path == "/tenants" {
            return (200, JSON, reg.to_json());
        }
        if let Some(rest) = path.strip_prefix("/tenants/") {
            return match rest.split_once('/') {
                Some((id, "snapshot")) => match reg.hub(id) {
                    Some(hub) => (200, JSON, hub.metrics().to_json()),
                    None => (404, TEXT, format!("no such tenant: {id}\n")),
                },
                Some((id, "metrics")) => match reg.hub(id) {
                    Some(hub) => (200, PROM, hub.metrics().to_prometheus(namespace)),
                    None => (404, TEXT, format!("no such tenant: {id}\n")),
                },
                _ => (404, TEXT, "not found\n".to_string()),
            };
        }
        // The global views fold the registry, not the root hub: the
        // id-ordered merge is deterministic for any worker count.
        match path {
            "/metrics" => return (200, PROM, reg.aggregate().to_prometheus(namespace)),
            "/snapshot" => return (200, JSON, reg.aggregate().to_json()),
            _ => {}
        }
    }
    match path {
        "/metrics" => (200, PROM, hub.metrics().to_prometheus(namespace)),
        "/snapshot" => (200, JSON, hub.metrics().to_json()),
        "/spans" => (200, JSON, hub.spans_json()),
        "/events" => (200, JSON, hub.flight().to_json()),
        "/healthz" => (200, TEXT, "ok\n".to_string()),
        _ => (404, TEXT, "not found\n".to_string()),
    }
}

/// Read until the blank line ending the request head, reassembling
/// heads split across TCP segments. Returns the text plus a
/// completeness flag: `false` when EOF or the 8 KiB cap arrived before
/// the `\r\n\r\n` terminator (the caller answers 400, never routes).
///
/// An oversize head is drained (discarded) up to a hard bound before
/// returning, so the rejection response isn't clobbered by a TCP reset
/// over the unread remainder.
fn read_head(stream: &mut TcpStream) -> io::Result<(String, bool)> {
    // Past the stored cap, keep discarding this much before giving up
    // on delivering a clean 400.
    const DRAIN_BYTES: usize = 256 * 1024;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    let mut complete = false;
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            break;
        }
        // Only the tail can complete the terminator: scan the new
        // bytes plus up to 3 carried over, not the whole buffer again.
        let scan_from = buf.len().saturating_sub(3);
        buf.extend_from_slice(&chunk[..n]);
        let found = buf[scan_from..].windows(4).any(|w| w == b"\r\n\r\n");
        if buf.len() <= MAX_REQUEST_BYTES {
            if found {
                complete = true;
                break;
            }
        } else if found || buf.len() >= DRAIN_BYTES {
            // Oversize: the head is already rejected; we only kept
            // reading to consume the client's send so the socket
            // closes cleanly.
            break;
        }
    }
    buf.truncate(MAX_REQUEST_BYTES);
    Ok((String::from_utf8_lossy(&buf).into_owned(), complete))
}

/// `GET /path HTTP/1.1` → `("GET", "/path")`, borrowed from `head`.
fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if !path.starts_with('/') {
        return None;
    }
    Some((method, path))
}

/// Minimal blocking GET against a served endpoint: returns the status
/// code and body. This is the self-scrape client `repro --serve-check`
/// and `repro obs-check --url` use, so validation traffic stays inside
/// this module's socket fence.
///
/// Reads incrementally and stops as soon as the response is provably
/// complete (headers plus `Content-Length` bytes of body) — a
/// slow-but-complete response succeeds instead of surfacing the old
/// `read_to_end` timeout that discarded every byte already read.
/// Incomplete responses fail distinctly: `UnexpectedEof` when the
/// server closes mid-body, `TimedOut` naming how many bytes arrived
/// when the socket stalls past [`IO_TIMEOUT`].
pub fn get(addr: &str, path: &str) -> io::Result<(u16, String)> {
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;

    let mut raw: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut body_start: Option<usize> = None;
    let mut content_length: Option<usize> = None;
    let mut eof = false;
    loop {
        if body_start.is_none() {
            if let Some(idx) = find_subslice(&raw, b"\r\n\r\n") {
                body_start = Some(idx + 4);
                content_length = parse_content_length(&raw[..idx]);
            }
        }
        if let (Some(start), Some(len)) = (body_start, content_length) {
            if raw.len() >= start + len {
                // Complete by construction: don't wait for EOF (or a
                // timeout) from a server that holds the socket open.
                raw.truncate(start + len);
                break;
            }
        }
        if eof {
            match (body_start, content_length) {
                (Some(start), Some(len)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("partial body: got {} of {len} bytes", raw.len() - start),
                    ));
                }
                // No Content-Length: EOF delimits the body (HTTP/1.0
                // style); a missing head falls through to the status
                // parse below, which reports the malformed response.
                _ => break,
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => eof = true,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::WouldBlock =>
            {
                return Err(match (body_start, content_length) {
                    (Some(start), Some(len)) => io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("partial body: got {} of {len} bytes before timeout", raw.len() - start),
                    ),
                    (Some(_), None) => io::Error::new(
                        io::ErrorKind::TimedOut,
                        "partial body: timed out on a length-undelimited body",
                    ),
                    _ => io::Error::new(
                        io::ErrorKind::TimedOut,
                        "timed out before the response headers completed",
                    ),
                });
            }
            Err(e) => return Err(e),
        }
    }

    let head_end = body_start.unwrap_or(raw.len());
    let head_text = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let status = head_text
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let body = match body_start {
        Some(start) => String::from_utf8_lossy(&raw[start..]).into_owned(),
        None => String::new(),
    };
    Ok((status, body))
}

/// First occurrence of `needle` in `haystack`.
fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Case-insensitive `Content-Length` from a response head (the bytes
/// before the blank line).
fn parse_content_length(head: &[u8]) -> Option<usize> {
    let text = String::from_utf8_lossy(head);
    for line in text.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                return value.trim().parse().ok();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Metrics;

    fn test_hub() -> ObsHub {
        let hub = ObsHub::new(8);
        let mut m = Metrics::new();
        m.add("zeek.frames_seen", 42);
        m.gauge_max("stream.live_flows", 7.0);
        hub.publish_metrics(m);
        hub.publish_spans(
            "[{\"name\":\"stage.zeek\",\"ph\":\"X\",\"ts\":0,\"dur\":1.5,\"pid\":1,\"tid\":1}]"
                .into(),
        );
        hub.flight().record("epoch.release", "epoch 0", 3.0);
        hub
    }

    #[test]
    fn all_endpoints_respond() {
        let mut server = serve("127.0.0.1:0", "dnsctx", test_hub()).expect("bind");
        let addr = server.addr().to_string();

        let (status, body) = get(&addr, "/healthz").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = get(&addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE dnsctx_zeek_frames_seen counter"));
        assert!(body.contains("dnsctx_zeek_frames_seen 42"));

        let (status, body) = get(&addr, "/snapshot").unwrap();
        assert_eq!(status, 200);
        let v = crate::obs::json::parse(&body).expect("snapshot is valid JSON");
        assert_eq!(v.get("zeek.frames_seen").and_then(|x| x.as_f64()), Some(42.0));

        let (status, body) = get(&addr, "/spans").unwrap();
        assert_eq!(status, 200);
        let v = crate::obs::json::parse(&body).expect("spans are valid JSON");
        let spans = v.as_arr().expect("trace-event array");
        assert_eq!(spans[0].get("ph").and_then(|x| x.as_str()), Some("X"));

        let (status, body) = get(&addr, "/events").unwrap();
        assert_eq!(status, 200);
        let v = crate::obs::json::parse(&body).expect("events are valid JSON");
        assert_eq!(v.get("recorded").and_then(|x| x.as_f64()), Some(1.0));

        server.shutdown();
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let mut server = serve("127.0.0.1:0", "ns", ObsHub::new(1)).expect("bind");
        let addr = server.addr().to_string();
        let (status, _) = get(&addr, "/nope").unwrap();
        assert_eq!(status, 404);

        // Hand-rolled POST: the tiny client only speaks GET.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 405"), "got: {text}");

        server.shutdown();
    }

    #[test]
    fn serves_updates_published_after_start() {
        let hub = ObsHub::new(1);
        let mut server = serve("127.0.0.1:0", "ns", hub.clone()).expect("bind");
        let addr = server.addr().to_string();
        let (_, body) = get(&addr, "/snapshot").unwrap();
        assert_eq!(body, "{\n}");
        let mut m = Metrics::new();
        m.add("late", 1);
        hub.publish_metrics(m);
        let (_, body) = get(&addr, "/snapshot").unwrap();
        assert!(body.contains("\"late\": 1"));
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut server = serve("127.0.0.1:0", "ns", ObsHub::new(1)).expect("bind");
        server.shutdown();
        server.shutdown();
        drop(server); // second path through Drop::drop
    }

    #[test]
    fn split_write_heads_are_reassembled() {
        // Regression: a request head split across TCP segments must be
        // reassembled until the blank line, not truncated at the first
        // read and misrouted.
        let mut server = serve("127.0.0.1:0", "ns", test_hub()).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        for segment in ["GET /hea", "lthz HTT", "P/1.1\r\nHost: x\r\n", "Connection: close\r\n\r\n"]
        {
            stream.write_all(segment.as_bytes()).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 200"), "got: {text}");
        assert!(text.ends_with("ok\n"), "got: {text}");
        server.shutdown();
    }

    #[test]
    fn oversized_heads_are_rejected_not_routed() {
        // Regression: a head that blows the 8 KiB cap used to be routed
        // off its (valid) first line; it must answer 400.
        let mut server = serve("127.0.0.1:0", "ns", test_hub()).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let padding = "x".repeat(MAX_REQUEST_BYTES);
        let request = format!("GET /healthz HTTP/1.1\r\nX-Pad: {padding}\r\n\r\n");
        stream.write_all(request.as_bytes()).unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "got: {text}");
        server.shutdown();
    }

    /// One-shot test server: accepts a single connection, swallows the
    /// request head, runs `respond` on the socket.
    fn one_shot_server(
        respond: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut sink = [0u8; 1024];
            let _ = stream.read(&mut sink);
            respond(&mut stream);
        });
        (addr, handle)
    }

    #[test]
    fn get_returns_a_slow_but_complete_response() {
        // Regression: the old read_to_end under the socket timeout
        // surfaced TimedOut and discarded a complete response when the
        // server dribbled the body or held the connection open. With
        // Content-Length satisfied, get() must return promptly.
        let (addr, handle) = one_shot_server(|stream| {
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello")
                .unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(150));
            stream.write_all(b" body").unwrap();
            stream.flush().unwrap();
            // Hold the socket open past IO_TIMEOUT: a read_to_end
            // client blocks into its timeout here and loses the body;
            // the Content-Length-aware client returned long ago.
            std::thread::sleep(IO_TIMEOUT + Duration::from_millis(500));
        });
        let (status, body) = get(&addr.to_string(), "/x").expect("slow but complete");
        assert_eq!((status, body.as_str()), (200, "hello body"));
        handle.join().unwrap();
    }

    #[test]
    fn get_reports_partial_bodies_distinctly() {
        // Server promises 100 bytes, delivers 10, closes: a distinct
        // partial-body error, not a silent truncation or a bare EOF.
        let (addr, handle) = one_shot_server(|stream| {
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n0123456789")
                .unwrap();
            stream.flush().unwrap();
        });
        let err = get(&addr.to_string(), "/x").expect_err("partial body must error");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let msg = err.to_string();
        assert!(msg.contains("partial body"), "got: {msg}");
        assert!(msg.contains("10 of 100"), "got: {msg}");
        handle.join().unwrap();
    }

    #[test]
    fn get_still_reads_length_undelimited_bodies_to_eof() {
        let (addr, handle) = one_shot_server(|stream| {
            stream.write_all(b"HTTP/1.1 200 OK\r\n\r\nold style").unwrap();
            stream.flush().unwrap();
        });
        let (status, body) = get(&addr.to_string(), "/x").expect("eof-delimited");
        assert_eq!((status, body.as_str()), (200, "old style"));
        handle.join().unwrap();
    }

    #[test]
    fn tenant_routes_resolve_and_aggregate() {
        use crate::obs::HubRegistry;
        let reg = HubRegistry::new();
        let t0 = ObsHub::new(1);
        let mut m = Metrics::new();
        m.add("zeek.frames_seen", 5);
        t0.publish_metrics(m);
        let t1 = ObsHub::new(1);
        let mut m = Metrics::new();
        m.add("zeek.frames_seen", 11);
        t1.publish_metrics(m);
        reg.add("t0", t0).expect("t0");
        reg.add("t1", t1).expect("t1");
        reg.set_state("t1", crate::obs::TenantState::Running);

        let mut server =
            serve_tenants("127.0.0.1:0", "dnsctx", test_hub(), reg.clone()).expect("bind");
        let addr = server.addr().to_string();

        let (status, body) = get(&addr, "/tenants").unwrap();
        assert_eq!(status, 200);
        let v = crate::obs::json::parse(&body).expect("tenants JSON");
        let arr = v.get("tenants").and_then(|t| t.as_arr()).expect("array").to_vec();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("state").and_then(|x| x.as_str()), Some("running"));

        let (status, body) = get(&addr, "/tenants/t0/snapshot").unwrap();
        assert_eq!(status, 200);
        let v = crate::obs::json::parse(&body).expect("tenant snapshot JSON");
        assert_eq!(v.get("zeek.frames_seen").and_then(|x| x.as_f64()), Some(5.0));

        let (status, body) = get(&addr, "/tenants/t1/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("dnsctx_zeek_frames_seen 11"), "got: {body}");

        // The global views fold the registry (5 + 11), not the root
        // hub (whose test_hub counter is 42).
        let (status, body) = get(&addr, "/snapshot").unwrap();
        assert_eq!(status, 200);
        let v = crate::obs::json::parse(&body).expect("aggregate JSON");
        assert_eq!(v.get("zeek.frames_seen").and_then(|x| x.as_f64()), Some(16.0));
        let (_, body) = get(&addr, "/metrics").unwrap();
        assert!(body.contains("dnsctx_zeek_frames_seen 16"), "got: {body}");

        // Root-hub planes and 404s still work under the tenant router.
        let (status, _) = get(&addr, "/events").unwrap();
        assert_eq!(status, 200);
        let (status, body) = get(&addr, "/tenants/ghost/snapshot").unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("no such tenant"), "got: {body}");
        let (status, _) = get(&addr, "/tenants/t0/nope").unwrap();
        assert_eq!(status, 404);

        // Removal takes the tenant out of both routing and the fold.
        assert!(reg.remove("t1"));
        let (status, _) = get(&addr, "/tenants/t1/snapshot").unwrap();
        assert_eq!(status, 404);
        let (_, body) = get(&addr, "/snapshot").unwrap();
        let v = crate::obs::json::parse(&body).expect("aggregate JSON");
        assert_eq!(v.get("zeek.frames_seen").and_then(|x| x.as_f64()), Some(5.0));

        server.shutdown();
    }
}
