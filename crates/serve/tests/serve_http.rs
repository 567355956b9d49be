//! End-to-end tests driving `rppm serve` over a real TCP socket: trace
//! upload, the two-speed predict path, JSON twins that match the offline
//! pipeline byte-for-byte, hostile bodies mapping to 4xx, concurrent
//! clients, and cache churn held at the configured budget.

use rppm::docs::prediction_doc;
use rppm::trace::{read_program_stream, DesignPoint};
use rppm::{CacheBudget, Session};
use rppm_serve::{Client, ServeConfig, Server};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn mini_rpt() -> Vec<u8> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/traces/mini.rpt"
    );
    std::fs::read(path).expect("examples/traces/mini.rpt exists")
}

fn field<'a>(doc: &'a Value, name: &str) -> &'a Value {
    doc.as_object()
        .and_then(|o| Value::get(o, name))
        .unwrap_or_else(|| panic!("field `{name}` in {doc:?}"))
}

/// Polls `/jobs/<id>` until it reports done (panics on failed/timeout).
fn await_job(client: &mut Client, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = client.get(&format!("/jobs/{id}")).expect("poll job");
        assert_eq!(resp.status, 200, "{}", resp.text());
        let doc: Value = serde_json::from_str(&resp.text()).expect("job doc");
        match field(&doc, "state").as_str() {
            Some("done") => return,
            Some("failed") => panic!("job {id} failed: {}", resp.text()),
            _ => {}
        }
        assert!(Instant::now() < deadline, "job {id} did not finish in 60s");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn upload_then_predict_and_sweep_match_offline_pipeline() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let mut client = Client::new(server.local_addr());

    // Health first: the service is up before any state exists.
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), "{\"ok\":true}");

    // Upload the example RPT1 trace; profiling starts as a job.
    let rpt = mini_rpt();
    let accepted = client.post("/traces", &rpt).expect("upload");
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    let doc: Value = serde_json::from_str(&accepted.text()).expect("upload doc");
    let job = field(&doc, "job").as_u64().expect("job id");
    let trace = field(&doc, "trace")
        .as_str()
        .expect("fingerprint")
        .to_string();
    await_job(&mut client, job);

    // Once resident, predictions are synchronous 200s...
    let predict = client
        .get(&format!("/predict?trace={trace}&design=base"))
        .expect("predict");
    assert_eq!(predict.status, 200, "{}", predict.text());

    // ...and byte-identical to the offline pipeline on the same trace.
    let program = read_program_stream(&rpt[..]).expect("offline parse");
    let session = Session::builder().build();
    let offline = session
        .program(program)
        .expect("offline workload")
        .profile()
        .predict(&DesignPoint::Base.config());
    let offline_body = serde_json::to_string(&prediction_doc(&offline)).expect("offline doc");
    assert_eq!(predict.text(), offline_body, "serve/offline twin drift");

    // The sweep twin covers every design point and stays synchronous.
    let sweep = client.get(&format!("/sweep?trace={trace}")).expect("sweep");
    assert_eq!(sweep.status, 200, "{}", sweep.text());
    let sweep_doc: Value = serde_json::from_str(&sweep.text()).expect("sweep doc");
    let rows = field(&sweep_doc, "sweep").as_array().expect("sweep rows");
    assert_eq!(rows.len(), DesignPoint::ALL.len());

    // Stats reflect the work done.
    let stats = client.get("/stats").expect("stats");
    assert_eq!(stats.status, 200);
    let stats: Value = serde_json::from_str(&stats.text()).expect("stats doc");
    assert_eq!(field(field(&stats, "jobs"), "done").as_u64(), Some(1));
    assert_eq!(field(&stats, "uploads").as_u64(), Some(1));
    assert!(field(field(&stats, "cache"), "resident").as_u64() >= Some(1));

    let bye = client.post("/shutdown", b"").expect("shutdown");
    assert_eq!(bye.status, 200);
    server.wait();
}

#[test]
fn hostile_requests_get_4xx_not_a_dead_worker() {
    let server = Server::bind(ServeConfig {
        max_body_bytes: 4 * 1024,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = Client::new(server.local_addr());

    // Garbage body: parsed, rejected, 400 — and the connection survives.
    let garbage = client
        .post("/traces", b"these bytes are no trace")
        .expect("garbage");
    assert_eq!(garbage.status, 400, "{}", garbage.text());
    assert!(garbage.text().contains("trace rejected"));

    // A well-formed trace of a program with no threads: refused at upload,
    // not accepted as a job that then fails.
    let threadless = client
        .post(
            "/traces",
            br#"{"format":"rppm-trace","version":1,"program":{"name":"empty","threads":[]}}"#,
        )
        .expect("threadless");
    assert_eq!(threadless.status, 400, "{}", threadless.text());
    assert!(threadless.text().contains("no threads"));

    // A block whose fields its expansion cannot use (no branch sites) is
    // refused at upload too, not profiled into a failed job.
    let mini = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/traces/mini.json"
    ))
    .expect("examples/traces/mini.json exists");
    let siteless = mini.replacen("\"n_sites\": 1", "\"n_sites\": 0", 1);
    assert_ne!(siteless, mini);
    let siteless = client
        .post("/traces", siteless.as_bytes())
        .expect("siteless");
    assert_eq!(siteless.status, 400, "{}", siteless.text());
    assert!(
        siteless.text().contains("branch site"),
        "{}",
        siteless.text()
    );

    // Empty upload: 411 (a Content-Length body is required).
    let empty = client.post("/traces", b"").expect("empty");
    assert_eq!(empty.status, 411, "{}", empty.text());

    // Missing/unknown parameters: 400/404 with one-line JSON errors. A key
    // the endpoint never reads (misspelt, foreign to it, or repeated) is a
    // 400, as is rescaling an uploaded trace, even before the 404 lookup.
    for (path, status) in [
        ("/predict", 400),
        ("/predict?workload=no-such-workload", 404),
        ("/predict?workload=hotspot&scale=banana", 400),
        ("/predict?workload=hotspot&trace=1234", 400),
        ("/predict?trace=zz", 400),
        ("/predict?trace=00000000deadbeef", 404),
        ("/predict?trace=00000000deadbeef&scale=7", 400),
        ("/predict?trace=00000000deadbeef&seed=3", 400),
        ("/predict?workload=nn&scale=0.02&seed=1&desgin=big", 400),
        (
            "/predict?workload=nn&scale=0.02&seed=1&design=big&design=small",
            400,
        ),
        ("/sweep?workload=nn&scale=0.02&seed=1&design=big", 400),
        (
            "/dse?workload=nn&scale=0.02&seed=1&tiny=1&best_only=1&design=biggest",
            400,
        ),
        ("/dse?workload=hotspot&bound=1.5", 400),
        ("/stats?verbose=1", 400),
        ("/healthz?probe=1", 400),
        ("/jobs/1?verbose=1", 400),
        ("/jobs/not-a-number", 400),
        ("/jobs/999999", 404),
        ("/no-such-endpoint", 404),
    ] {
        let resp = client.get(path).expect(path);
        assert_eq!(resp.status, status, "GET {path} -> {}", resp.text());
        assert!(
            resp.text().contains("\"error\""),
            "GET {path}: {}",
            resp.text()
        );
    }
    let unread = client
        .get("/predict?workload=nn&scale=0.02&seed=1&desgin=big")
        .expect("misspelt key");
    assert!(
        unread.text().contains("/predict") && unread.text().contains("`desgin`"),
        "the refusal names the endpoint and the key: {}",
        unread.text()
    );
    // None of those queries submitted a profiling job.
    let stats: Value =
        serde_json::from_str(&client.get("/stats").expect("stats").text()).expect("stats doc");
    for state in ["queued", "running", "done", "failed"] {
        assert_eq!(
            field(field(&stats, "jobs"), state).as_u64(),
            Some(0),
            "{state}"
        );
    }
    // A POST refuses query keys too, before reading its body.
    let posted = client
        .post("/machines?name=x", b"rppm-machine v1\n")
        .expect("post with query");
    assert_eq!(posted.status, 400, "{}", posted.text());

    // Oversized declared body: rejected up front with 413. Send only the
    // head so the refusal is readable before any body bytes move.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(b"POST /traces HTTP/1.1\r\nHost: t\r\nContent-Length: 1048576\r\n\r\n")
        .expect("send oversized head");
    let mut response = String::new();
    raw.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    raw.read_to_string(&mut response).expect("read 413");
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");

    // Truncated body: Content-Length promises more than arrives; the
    // parser hits EOF and the server answers 400 instead of hanging.
    let rpt = mini_rpt();
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    write!(
        raw,
        "POST /traces HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        rpt.len()
    )
    .expect("send head");
    raw.write_all(&rpt[..rpt.len() / 2])
        .expect("send half the body");
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut response = String::new();
    raw.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    raw.read_to_string(&mut response).expect("read 400");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");

    // A wholly malformed request line is a 400, not a crash.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(b"NOT-HTTP\r\n\r\n").expect("send junk");
    let mut response = String::new();
    raw.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    raw.read_to_string(&mut response).expect("read 400");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");

    // Unsupported method: 405.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(b"DELETE /traces HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
        .expect("send delete");
    let mut response = String::new();
    raw.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    raw.read_to_string(&mut response).expect("read 405");
    assert!(response.starts_with("HTTP/1.1 405"), "{response}");

    // After all that hostility the service still answers.
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);

    server.shutdown();
    server.wait();
}

#[test]
fn concurrent_clients_share_one_profile() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut client = Client::new(addr);

    // Warm one catalog key through the job queue.
    let path = "/predict?workload=hotspot&scale=0.02&seed=1";
    let first = client.get(path).expect("first predict");
    assert_eq!(first.status, 202, "{}", first.text());
    let doc: Value = serde_json::from_str(&first.text()).expect("202 doc");
    await_job(&mut client, field(&doc, "job").as_u64().expect("job id"));

    let expected = client.get(path).expect("warm predict");
    assert_eq!(expected.status, 200, "{}", expected.text());
    let expected_body = expected.text();

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let expected = expected_body.clone();
            std::thread::spawn(move || {
                let mut c = Client::new(addr);
                for _ in 0..25 {
                    let resp = c.get(path).expect("concurrent predict");
                    assert_eq!(resp.status, 200, "{}", resp.text());
                    assert_eq!(resp.text(), expected, "concurrent responses diverge");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // One workload, many requests, exactly one profiling run.
    let stats = client.get("/stats").expect("stats");
    let stats: Value = serde_json::from_str(&stats.text()).expect("stats doc");
    assert_eq!(
        field(field(&stats, "cache"), "profiles_collected").as_u64(),
        Some(1)
    );

    server.shutdown();
    server.wait();
}

#[test]
fn churn_beyond_budget_holds_cache_at_bound_with_correct_answers() {
    let server = Server::bind(ServeConfig {
        budget: CacheBudget::unbounded().with_entries(2),
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = Client::new(server.local_addr());

    // Offline reference session (unbounded — correctness baseline).
    let session = Session::builder().build();
    let config = DesignPoint::Base.config();

    // Churn through 3× more workload keys than the cache may hold.
    for seed in 1..=6u64 {
        let path = format!("/predict?workload=hotspot&scale=0.02&seed={seed}&design=base");
        let mut resp = client.get(&path).expect("predict");
        if resp.status == 202 {
            let doc: Value = serde_json::from_str(&resp.text()).expect("202 doc");
            await_job(&mut client, field(&doc, "job").as_u64().expect("job id"));
            resp = client.get(&path).expect("predict retry");
        }
        assert_eq!(resp.status, 200, "seed {seed}: {}", resp.text());

        let offline = session
            .workload("hotspot")
            .expect("catalog workload")
            .scale(0.02)
            .seed(seed)
            .profile()
            .predict(&config);
        let offline_body = serde_json::to_string(&prediction_doc(&offline)).expect("doc");
        assert_eq!(
            resp.text(),
            offline_body,
            "seed {seed}: eviction changed the answer"
        );
    }

    let stats = client.get("/stats").expect("stats");
    let stats: Value = serde_json::from_str(&stats.text()).expect("stats doc");
    let cache = field(&stats, "cache");
    assert!(
        field(cache, "resident").as_u64() <= Some(2),
        "resident above budget: {}",
        stats_text(&stats)
    );
    assert!(
        field(cache, "evictions").as_u64() >= Some(4),
        "expected ≥4 evictions: {}",
        stats_text(&stats)
    );
    assert_eq!(field(cache, "max_entries").as_u64(), Some(2));

    server.shutdown();
    server.wait();
}

fn stats_text(stats: &Value) -> String {
    serde_json::to_string(stats).unwrap_or_default()
}

/// The machine registry round-trip: the five presets are pre-seeded
/// (`machine=base` answers exactly like `design=base`), `POST /machines`
/// registers a `.machine` upload under its own name, predictions against
/// it match the offline pipeline on the same parsed config, and the
/// `machine=` sweep/error paths behave.
#[test]
fn machine_upload_round_trip_and_registry_errors() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let mut client = Client::new(server.local_addr());

    // Warm one catalog profile through the job queue.
    let query = "workload=hotspot&scale=0.02&seed=1";
    let first = client.get(&format!("/predict?{query}")).expect("warm");
    if first.status == 202 {
        let doc: Value = serde_json::from_str(&first.text()).expect("202 doc");
        await_job(&mut client, field(&doc, "job").as_u64().expect("job id"));
    }

    // Seeded preset: `machine=base` is byte-identical to `design=base`.
    let by_design = client
        .get(&format!("/predict?{query}&design=base"))
        .expect("design=base");
    let by_machine = client
        .get(&format!("/predict?{query}&machine=base"))
        .expect("machine=base");
    assert_eq!(by_design.status, 200, "{}", by_design.text());
    assert_eq!(by_machine.status, 200, "{}", by_machine.text());
    assert_eq!(by_design.text(), by_machine.text(), "preset seeding drift");

    // Upload a custom machine description.
    let custom = rppm::trace::MachineConfig::builder("wide-box")
        .dispatch_width(6)
        .cores(8)
        .build()
        .expect("valid custom machine");
    let text = rppm::trace::format_machine(&custom);
    let posted = client
        .post("/machines", text.as_bytes())
        .expect("post machine");
    assert_eq!(posted.status, 200, "{}", posted.text());
    let doc: Value = serde_json::from_str(&posted.text()).expect("machine doc");
    assert_eq!(field(&doc, "machine").as_str(), Some("wide-box"));

    // Predictions against it match the offline pipeline on the same config.
    let online = client
        .get(&format!("/predict?{query}&machine=wide-box"))
        .expect("predict wide-box");
    assert_eq!(online.status, 200, "{}", online.text());
    let session = Session::builder().build();
    let offline = session
        .workload("hotspot")
        .expect("catalog workload")
        .scale(0.02)
        .seed(1)
        .profile()
        .predict(&custom);
    let offline_body = serde_json::to_string(&prediction_doc(&offline)).expect("doc");
    assert_eq!(online.text(), offline_body, "serve/offline machine drift");

    // `machine=` sweeps over named registry entries, labelled by name.
    let sweep = client
        .get(&format!("/sweep?{query}&machine=base,wide-box"))
        .expect("machine sweep");
    assert_eq!(sweep.status, 200, "{}", sweep.text());
    let sweep: Value = serde_json::from_str(&sweep.text()).expect("sweep doc");
    let rows = field(&sweep, "sweep").as_array().expect("sweep rows");
    assert_eq!(rows.len(), 2);
    assert_eq!(field(&rows[1], "design").as_str(), Some("wide-box"));

    // Registry misses are 404s, ambiguity and bad uploads are 400s.
    let missing = client
        .get(&format!("/predict?{query}&machine=absent"))
        .expect("missing machine");
    assert_eq!(missing.status, 404, "{}", missing.text());
    let both = client
        .get(&format!("/predict?{query}&design=base&machine=base"))
        .expect("both params");
    assert_eq!(both.status, 400, "{}", both.text());
    let garbage = client
        .post("/machines", b"not a machine file")
        .expect("garbage machine");
    assert_eq!(garbage.status, 400, "{}", garbage.text());
    assert!(garbage.text().contains("machine rejected"));

    // Preset names are reserved: an upload named `base` is refused, so
    // `machine=base` still means the same machine as `design=base`.
    let lean_base = DesignPoint::Base
        .config()
        .to_builder()
        .mshrs(4)
        .build()
        .expect("a 4-MSHR base design is valid");
    let preset = client
        .post(
            "/machines",
            rppm::trace::format_machine(&lean_base).as_bytes(),
        )
        .expect("preset-named machine");
    assert_eq!(preset.status, 400, "{}", preset.text());
    assert!(preset.text().contains("names a Table IV preset"));
    let by_machine = client
        .get(&format!("/predict?{query}&machine=base"))
        .expect("machine=base after the refused upload");
    assert_eq!(by_machine.status, 200, "{}", by_machine.text());
    assert_eq!(by_design.text(), by_machine.text(), "preset replaced");

    // The registry count shows 5 presets + 1 upload.
    let stats = client.get("/stats").expect("stats");
    let stats: Value = serde_json::from_str(&stats.text()).expect("stats doc");
    assert_eq!(field(&stats, "machines").as_u64(), Some(6));

    server.shutdown();
    server.wait();
}

/// A one-MSHR machine is valid; predicting on it answers like the offline
/// pipeline instead of failing the request.
#[test]
fn one_mshr_machine_predicts_like_the_offline_pipeline() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let mut client = Client::new(server.local_addr());
    let one_mshr = DesignPoint::Base
        .config()
        .to_builder()
        .name("one-mshr")
        .mshrs(1)
        .build()
        .expect("a 1-MSHR base design is valid");
    let posted = client
        .post(
            "/machines",
            rppm::trace::format_machine(&one_mshr).as_bytes(),
        )
        .expect("post machine");
    assert_eq!(posted.status, 200, "{}", posted.text());

    let query = "workload=hotspot&scale=0.02&seed=1&machine=one-mshr";
    let mut online = client.get(&format!("/predict?{query}")).expect("predict");
    if online.status == 202 {
        let doc: Value = serde_json::from_str(&online.text()).expect("202 doc");
        await_job(&mut client, field(&doc, "job").as_u64().expect("job id"));
        online = client.get(&format!("/predict?{query}")).expect("predict");
    }
    assert_eq!(online.status, 200, "{}", online.text());
    let offline = Session::builder()
        .build()
        .workload("hotspot")
        .expect("catalog workload")
        .scale(0.02)
        .seed(1)
        .profile()
        .predict(&one_mshr);
    let offline_body = serde_json::to_string(&prediction_doc(&offline)).expect("doc");
    assert_eq!(online.text(), offline_body, "serve/offline one-MSHR drift");

    server.shutdown();
    server.wait();
}

/// Uploads above the spool threshold are copied to disk and read back by
/// the same sniffing reader. The answers must not change — a spooled
/// version-3 op-stream container and its spooled JSON twin profile and
/// predict exactly like the same program in-memory — and the 413 cap plus
/// the corrupt-body 400 still hold on the spooled path.
#[test]
fn oversized_uploads_spool_through_the_streaming_reader() {
    let server = Server::bind(ServeConfig {
        spool_bytes: 1024, // force every realistic trace through the spool
        max_body_bytes: 4 * 1024 * 1024,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = Client::new(server.local_addr());

    // A version-3 container with a recorded op stream, well above the
    // spool threshold.
    let program = rppm::workloads::by_name("hotspot")
        .expect("catalog workload")
        .build(&rppm::workloads::Params {
            scale: 0.02,
            seed: 7,
        });
    let body = rppm::trace::export_program_ops(&program).expect("record op stream");
    let json_twin = rppm::trace::export_program(&program).expect("JSON twin");
    for upload in [body.len(), json_twin.len()] {
        assert!(
            upload > 1024,
            "test needs bodies above the spool threshold, got {upload} bytes"
        );
    }

    let accepted = client.post("/traces", &body).expect("spooled upload");
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    let doc: Value = serde_json::from_str(&accepted.text()).expect("upload doc");
    await_job(&mut client, field(&doc, "job").as_u64().expect("job id"));
    let trace = field(&doc, "trace").as_str().expect("fingerprint");

    // Byte-identical to the offline pipeline on the same program.
    let online = client
        .get(&format!("/predict?trace={trace}&design=base"))
        .expect("predict spooled trace");
    assert_eq!(online.status, 200, "{}", online.text());
    let session = Session::builder().build();
    let offline_pred = session
        .program(program)
        .expect("offline workload")
        .profile()
        .predict(&DesignPoint::Base.config());
    let offline_body = serde_json::to_string(&prediction_doc(&offline_pred)).expect("doc");
    assert_eq!(
        online.text(),
        offline_body,
        "spooled upload changed answers"
    );

    // The JSON twin of the same program, also spooled, is the same trace
    // and predicts byte-identically.
    let accepted = client
        .post("/traces", json_twin.as_bytes())
        .expect("spooled JSON upload");
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    let doc: Value = serde_json::from_str(&accepted.text()).expect("upload doc");
    await_job(&mut client, field(&doc, "job").as_u64().expect("job id"));
    assert_eq!(field(&doc, "trace").as_str(), Some(trace));
    let twin = client
        .get(&format!("/predict?trace={trace}&design=base"))
        .expect("predict spooled JSON trace");
    assert_eq!(twin.status, 200, "{}", twin.text());
    assert_eq!(twin.text(), online.text(), "JSON twin changed answers");

    // Corrupt oversized body: spooled, rejected with 400, worker survives.
    let mut corrupt = body.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    corrupt.truncate(mid + 1);
    let rejected = client.post("/traces", &corrupt).expect("corrupt spooled");
    assert_eq!(rejected.status, 400, "{}", rejected.text());
    assert!(rejected.text().contains("trace rejected"));

    // The 413 cap still fronts the spool path.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(b"POST /traces HTTP/1.1\r\nHost: t\r\nContent-Length: 8388608\r\n\r\n")
        .expect("send oversized head");
    let mut response = String::new();
    raw.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    raw.read_to_string(&mut response).expect("read 413");
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");

    // Still healthy afterwards.
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);

    server.shutdown();
    server.wait();
}

/// The CLI parks in `Server::wait()` from startup; an HTTP-initiated
/// shutdown must unpark it without any further organic connections
/// (regression: the accept loop used to stay blocked in `accept()`).
#[test]
fn http_shutdown_unparks_a_server_already_waiting() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let waiter = std::thread::spawn(move || server.wait());

    let mut client = Client::new(addr);
    let bye = client.post("/shutdown", b"").expect("shutdown");
    assert_eq!(bye.status, 200);

    let deadline = Instant::now() + Duration::from_secs(60);
    while !waiter.is_finished() {
        assert!(
            Instant::now() < deadline,
            "server.wait() did not return after POST /shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    waiter.join().expect("waiter thread");
}

/// Stopping must not wait out a client that holds a kept-alive connection
/// open between requests: the worker waiting for its next request is
/// released at once, whether the stop comes from [`Server::shutdown`] or
/// from `POST /shutdown` on another connection.
#[test]
fn shutdown_releases_an_idle_keep_alive_connection() {
    for over_http in [false, true] {
        let server = Server::bind(ServeConfig::default()).expect("bind");
        let addr = server.local_addr();
        let mut idle = Client::new(addr);
        assert_eq!(idle.get("/healthz").expect("healthz").status, 200);
        // `idle` keeps its connection open and sends nothing more.
        let start = Instant::now();
        if over_http {
            let mut other = Client::new(addr);
            assert_eq!(other.post("/shutdown", b"").expect("shutdown").status, 200);
        } else {
            server.shutdown();
        }
        let waiter = std::thread::spawn(move || server.wait());
        while !waiter.is_finished() {
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "server.wait() still blocked on an idle keep-alive client (over HTTP: {over_http})"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        waiter.join().expect("waiter thread");
        drop(idle);
    }
}
