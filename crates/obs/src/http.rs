//! The observability router: the read-only telemetry endpoints a host
//! daemon mounts next to its own API.
//!
//! The file exporters of [`crate::snapshot`]/[`crate::trace`] only escape
//! the process at end-of-batch, so an operator watching a live workload
//! needs a runtime window. [`route`] answers these paths on the host's
//! listener (the serving daemon's `midas_serve::api::route` falls through
//! to it), so one address serves the API and every obs endpoint:
//!
//! | Endpoint    | Content                                                  |
//! |-------------|----------------------------------------------------------|
//! | `/metrics`  | Prometheus text exposition ([`crate::prom::render`])     |
//! | `/flight`   | Flight-recorder dump ([`crate::flight::dump_json`])      |
//! | `/slow`     | Tail-latency exemplars ([`crate::exemplar::render_json`])|
//!
//! The user-facing SLIs of [`crate::sli`] have no endpoint of their own:
//! they are the `midas_sli_*` families of `/metrics`.
//!
//! `/healthz` belongs to the host, which renders it with [`healthz`]: its
//! own members plus drift state and the last batch. All
//! data served is read-only over the global registry and flight
//! recorder, so a slow scraper never blocks a maintenance batch.

use crate::httpd::{Request, Response};
use crate::snapshot::MetricsSnapshot;
use crate::{flight, prom};
use std::time::Duration;

/// Answers `req` when its (normalized) path is one of the endpoints in
/// the module table: the payload for `GET`, and — RFC 9110 — `405` with
/// an `Allow: GET` header for any other method. `None` for every other
/// path, which the host routes itself.
pub fn route(req: &Request) -> Option<Response> {
    let payload: fn() -> Response = match req.path.as_str() {
        "/metrics" => || Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8".into(),
            body: prom::render_live(&MetricsSnapshot::capture()),
            extra_headers: Vec::new(),
        },
        "/flight" => || Response::json(200, flight::dump_json()),
        "/slow" => || Response::json(200, crate::exemplar::render_json()),
        _ => return None,
    };
    Some(if req.method == "GET" {
        payload()
    } else {
        Response::text(405, "method not allowed\n").with_header("Allow: GET")
    })
}

/// The health document: `status`, `uptime_s`, the host's own `members`
/// (rendered `"key": value` pairs, comma-separated), then drift and the
/// last batch outcome. `status` is always `"ok"`: answering at all is the
/// liveness signal.
pub fn healthz(uptime: Duration, members: &str) -> Response {
    let drift = crate::registry::registry().gauge("monitor.drift").get();
    let last_json = match flight::last_batch() {
        Some(b) => format!(
            "{{\"seq\": {}, \"kind\": {}, \"distance\": {}, \"pmt_us\": {}, \"swaps\": {}, \"unix_ms\": {}}}",
            b.seq,
            crate::json::quote(b.kind),
            crate::json::number(b.distance),
            b.pmt_us,
            b.swaps,
            b.unix_ms
        ),
        None => "null".to_owned(),
    };
    Response::json(
        200,
        format!(
            "{{\"status\": \"ok\", \"uptime_s\": {}, {members}, \"telemetry_enabled\": {}, \"drift\": {}, \"batches\": {}, \"last_batch\": {}}}\n",
            uptime.as_secs(),
            crate::enabled(),
            crate::json::number(drift),
            flight::total_batches(),
            last_json
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::httpd::tests::roundtrip;
    use crate::httpd::HttpServer;
    use crate::json;
    use std::net::SocketAddr;
    use std::sync::Arc;
    use std::time::Instant;

    /// A minimal host, mounted the way the serving daemon mounts the
    /// router: its own `/healthz`, everything else through [`route`].
    fn serve() -> HttpServer {
        let started = Instant::now();
        let handler: crate::httpd::Handler = Arc::new(move |req: &Request| {
            if req.method == "GET" && req.path == "/healthz" {
                return healthz(started.elapsed(), "\"host\": \"test\"");
            }
            route(req).unwrap_or_else(Response::not_found)
        });
        HttpServer::start("127.0.0.1:0", "obs-test", 4, handler).expect("bind")
    }

    /// Minimal test client: one GET, returns (status line, body).
    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let raw = roundtrip(addr, &format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n"));
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        let status = head.lines().next().unwrap_or("").to_owned();
        (status, body.to_owned())
    }

    #[test]
    fn serves_all_endpoints_and_404() {
        let _g = crate::tests::exclusive();
        crate::flight::clear();
        crate::set_enabled(true);
        crate::counter_add!("test.http.requests", 3);
        {
            let _s = crate::span!("test.http.span");
        }
        crate::set_enabled(false);
        crate::flight::record_batch(crate::flight::BatchSummary {
            seq: 1,
            kind: "minor",
            distance: 0.02,
            pmt_us: 1200,
            pgt_us: 0,
            inserted: 4,
            deleted: 0,
            candidates: 0,
            swaps: 0,
            unix_ms: crate::flight::unix_ms(),
        });

        let server = serve();
        let addr = server.addr();

        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("midas_test_http_requests 3"), "{body}");
        assert!(body.contains("quantile=\"0.99\""), "{body}");

        let (status, body) = get(addr, "/healthz");
        assert!(status.contains("200"));
        json::validate(&body).expect("healthz JSON");
        assert!(body.contains("\"status\": \"ok\""));
        assert!(body.contains("\"batches\": 1"));
        assert!(body.contains("\"seq\": 1"));

        let (status, body) = get(addr, "/flight");
        assert!(status.contains("200"));
        json::validate(&body).expect("flight JSON");
        assert!(body.contains("\"total_batches\": 1"));

        let (status, body) = get(addr, "/slow");
        assert!(status.contains("200"));
        json::validate(&body).expect("slow JSON");
        assert!(body.contains("\"reservoir_k\""));

        for gone in ["/nope", "/alerts", "/profile", "/sli"] {
            let (status, _) = get(addr, gone);
            assert!(status.contains("404"), "{gone}: {status}");
        }

        // Query strings are tolerated.
        let (status, _) = get(addr, "/healthz?verbose=1");
        assert!(status.contains("200"));

        server.shutdown();
        crate::flight::clear();
    }

    #[test]
    fn healthz_stays_ok_through_a_slow_phase() {
        let _g = crate::tests::exclusive();
        crate::flight::clear();
        let h = crate::registry::registry().span("batch.index");
        h.reset();
        // Slow phase spans: the health document reports the batch and
        // nothing else; slowness is read off `/slow`.
        for _ in 0..8 {
            h.record(1_000_000);
        }
        crate::flight::record_batch(crate::flight::BatchSummary {
            seq: 1,
            kind: "major",
            distance: 0.5,
            pmt_us: 8_000_000,
            pgt_us: 0,
            inserted: 4,
            deleted: 0,
            candidates: 0,
            swaps: 0,
            unix_ms: crate::flight::unix_ms(),
        });
        let server = serve();
        let (status, body) = get(server.addr(), "/healthz");
        assert!(status.contains("200"));
        json::validate(&body).expect("healthz JSON");
        assert!(body.contains("\"status\": \"ok\""), "{body}");
        assert!(body.contains("\"pmt_us\": 8000000"), "{body}");
        assert!(!body.contains("alerts_firing"), "{body}");
        server.shutdown();
        h.reset();
        crate::flight::clear();
    }

    #[test]
    fn concurrent_scrapes_all_answer() {
        let _g = crate::tests::exclusive();
        let server = serve();
        let addr = server.addr();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(move || {
                    let (status, body) = get(addr, "/healthz");
                    assert!(status.contains("200"));
                    json::validate(&body).expect("healthz JSON");
                });
            }
        });
        server.shutdown();
    }

    #[test]
    fn non_get_is_rejected() {
        let _g = crate::tests::exclusive();
        let server = serve();
        let raw = roundtrip(server.addr(), "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        assert!(
            raw.contains("\r\nAllow: GET\r\n"),
            "405 names the verb: {raw}"
        );

        // Non-GET on an *unknown* path is a plain 404, no Allow header.
        let raw = roundtrip(server.addr(), "POST /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 404"), "{raw}");
        assert!(!raw.contains("Allow:"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn trailing_slashes_and_queries_route_to_endpoints() {
        // Regression: `GET /metrics?job=x` and `GET /healthz/` used to 404
        // (only the query string was stripped, never trailing slashes).
        let _g = crate::tests::exclusive();
        let server = serve();
        let addr = server.addr();
        for path in [
            "/healthz/",
            "/metrics/",
            "/metrics?job=midas",
            "/flight///",
            "/slow/?pretty=1",
            "/healthz#state",
        ] {
            let (status, _) = get(addr, path);
            assert!(status.contains("200"), "{path}: {status}");
        }
        for path in ["/", "/metricsx", "/metrics/extra", "/snapshot"] {
            let (status, _) = get(addr, path);
            assert!(status.contains("404"), "{path}: {status}");
        }
        server.shutdown();
    }
}
