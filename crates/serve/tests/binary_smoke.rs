//! The real `q-serve` binary, end to end: spawned on an ephemeral port,
//! discovered through `--port-file`, driven over HTTP and shut down with
//! `POST /shutdown`. Everything else in the suite runs [`q_serve::QServe`]
//! in-process; only here do flag parsing, the boot paths and the process
//! lifecycle run as shipped.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use q_serve::json::{parse, Json};
use q_serve::HttpClient;

const QUERY: &str = r#"{"v":1,"keywords":["kinase activity"],"cache":"bypass"}"#;
const CACHED: &str = r#"{"v":1,"keywords":["normalized_value","symbol"]}"#;
const FEEDBACK: &str =
    r#"{"v":1,"keywords":["normalized_value","symbol"],"feedback":{"type":"invalid","answer":0}}"#;
const INGEST: &str = r#"{"v":1,"source":{"name":"ci_notes","relations":[{"name":"ci_note","attributes":["acc","note"],"rows":[["P1","smoke"]]}],"foreign_keys":[]}}"#;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("q-serve-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// One running `q-serve` child and a keep-alive connection to it.
struct Served {
    child: Child,
    client: HttpClient,
}

impl Served {
    /// Spawn `q-serve` on `127.0.0.1:0` with 12-row GBCO tables plus
    /// `flags`, and connect once it has written its port file into `dir`.
    fn boot(dir: &Path, flags: &[&str]) -> Served {
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let mut child = Command::new(env!("CARGO_BIN_EXE_q-serve"))
            .args(["--addr", "127.0.0.1:0", "--gbco-rows", "12", "--port-file"])
            .arg(&port_file)
            .args(flags)
            .stdout(Stdio::null())
            .spawn()
            .expect("q-serve spawns");
        let deadline = Instant::now() + Duration::from_secs(60);
        let addr = loop {
            let written = std::fs::read_to_string(&port_file).unwrap_or_default();
            if let Ok(addr) = written.parse() {
                break addr;
            }
            let exited = child.try_wait().expect("child can be polled");
            assert!(exited.is_none(), "q-serve exited before listening");
            assert!(Instant::now() < deadline, "q-serve never wrote its port");
            std::thread::sleep(Duration::from_millis(20));
        };
        let client = HttpClient::connect(addr, Duration::from_secs(60)).expect("q-serve accepts");
        Served { child, client }
    }

    /// One request that must answer 200; returns the body.
    fn ok(&mut self, method: &str, path: &str, body: Option<&str>) -> String {
        let response = self
            .client
            .request(method, path, body)
            .unwrap_or_else(|err| panic!("{method} {path}: {err}"));
        assert_eq!(response.status, 200, "{method} {path}: {}", response.body);
        response.body
    }

    /// `POST /shutdown`, then wait for a clean exit.
    fn stop(mut self) {
        self.ok("POST", "/shutdown", None);
        let status = self.child.wait().expect("q-serve can be waited on");
        assert!(status.success(), "q-serve exited with {status}");
    }
}

impl Drop for Served {
    /// A failed assertion must not leak the child.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Every `name[{labels}] value` line of a Prometheus scrape.
fn scrape(body: &str) -> Vec<(&str, f64)> {
    body.lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (series, value) = line.rsplit_once(' ').expect("series and value");
            (series, value.parse().expect("numeric sample"))
        })
        .collect()
}

fn sample(scrape: &[(&str, f64)], series: &str) -> f64 {
    scrape
        .iter()
        .find(|(name, _)| *name == series)
        .unwrap_or_else(|| panic!("/metrics lacks {series}"))
        .1
}

fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    json.get(key)
        .unwrap_or_else(|| panic!("no `{key}` in {}", json.encode()))
}

#[test]
fn metrics_count_a_query_an_ingest_and_a_publish() {
    let dir = scratch_dir("metrics");
    let mut served = Served::boot(&dir, &["--initial-sources", "10"]);
    served.ok("GET", "/healthz", None);
    served.ok("POST", "/query", Some(QUERY));
    let first = served.ok("GET", "/metrics", None);
    served.ok("POST", "/ingest", Some(INGEST));
    served.ok("POST", "/query", Some(QUERY));
    let second = served.ok("GET", "/metrics", None);
    served.stop();

    let (first, second) = (scrape(&first), scrape(&second));
    for &(series, before) in &first {
        let name = series.split('{').next().expect("series has a name");
        if ["_total", "_sum", "_count"]
            .iter()
            .any(|s| name.ends_with(s))
        {
            let after = sample(&second, series);
            assert!(
                after >= before,
                "{series} went backwards: {before} -> {after}"
            );
        }
    }
    let grew = |series| sample(&second, series) - sample(&first, series);
    assert!(grew("q_queries_total") >= 1.0, "the query was not counted");
    assert_eq!(grew("q_ingests_total"), 1.0, "exactly one ingest counted");
    assert!(
        grew("q_snapshot_id") > 0.0,
        "the ingest published no snapshot"
    );
    assert_eq!(sample(&second, "q_errors_total"), 0.0);
    assert!(sample(&second, "q_snapshot_bytes") > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_feedback_publish_counts_its_cache_verdicts() {
    let dir = scratch_dir("feedback");
    let mut served = Served::boot(&dir, &["--initial-sources", "10"]);
    // Exactly one cached entry when the feedback publishes.
    served.ok("POST", "/query", Some(CACHED));
    let before = served.ok("GET", "/metrics", None);
    served.ok("POST", "/feedback", Some(FEEDBACK));
    let after = served.ok("GET", "/metrics", None);
    served.stop();

    let (before, after) = (scrape(&before), scrape(&after));
    let judged = |scrape: &[(&str, f64)]| {
        sample(scrape, "q_cache_kept_total") + sample(scrape, "q_cache_dropped_total")
    };
    assert_eq!(sample(&after, "q_feedback_total"), 1.0);
    assert_eq!(
        judged(&after) - judged(&before),
        1.0,
        "the feedback publish's verdict on the one cached entry is counted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_boot_restores_the_snapshot_and_answers_identically() {
    let dir = scratch_dir("boot");
    let snapshots = dir.join("snapshots");
    let flags = [
        "--snapshot-dir",
        snapshots.to_str().expect("utf-8 temp dir"),
    ];
    // (boot mode, snapshot id, `"result"` bytes) of one boot over `snapshots`;
    // shutting down flushes the persistence lane before the process exits.
    let observe = || {
        let mut served = Served::boot(&dir, &flags);
        let health = parse(served.ok("GET", "/healthz", None).as_bytes()).expect("healthz is JSON");
        let answer = parse(served.ok("POST", "/query", Some(QUERY)).as_bytes()).expect("JSON");
        served.stop();
        (
            field(&health, "boot_mode").clone(),
            field(&answer, "snapshot").clone(),
            field(&answer, "result").encode(),
        )
    };
    let (first_mode, first_snapshot, first_result) = observe();
    let (second_mode, second_snapshot, second_result) = observe();
    assert_eq!(first_mode, Json::Str("rebuild".into()));
    assert_eq!(second_mode, Json::Str("snapshot".into()));
    assert_eq!(first_snapshot, second_snapshot, "snapshot id changed");
    assert_eq!(first_result, second_result, "restored answer diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    let output = Command::new(env!("CARGO_BIN_EXE_q-serve"))
        .arg("--help")
        .output()
        .expect("q-serve spawns");
    assert!(output.status.success(), "--help exited {}", output.status);
    assert!(String::from_utf8_lossy(&output.stdout).starts_with("usage: q-serve"));
    assert!(output.stderr.is_empty());
}
