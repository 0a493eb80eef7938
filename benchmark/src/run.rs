//! The untraced run: one process hosts `QServe` and drives it over
//! loopback, so every figure is HTTP request in → response bytes out.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use q_integration::serve::{wire, HttpClient};
use q_integration::{GraphSnapshot, QConfig, QServe};

use crate::gen;
use crate::report::Outcome;
use crate::setup::{self, ms, timed, SnapshotFile, SERVER_THREADS};
use crate::stats::{self, Timed};
use crate::workload::{self, Inputs, Workload, WriteOp, Writes};

/// Passes of the repeatable part of set-up (corpus, assembly, save, load);
/// `setup_s` takes their median.
const SETUP_PASSES: usize = 3;

/// A wedged server fails the run instead of hanging it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The envelope fields of a `/query` response, sliced out of the body
/// without parsing it: the clients share two cores with the server, and
/// the `"result"` bytes are compared exactly as sent.
struct Envelope<'a> {
    snapshot: u64,
    hit: bool,
    result: &'a str,
}

fn envelope(body: &str) -> Option<Envelope<'_>> {
    let after = |marker: &str| body.find(marker).map(|at| &body[at + marker.len()..]);
    let snapshot = after("\"snapshot\":")?;
    let digits = snapshot.find(|c: char| !c.is_ascii_digit())?;
    let cache = after("\"cache\":\"")?;
    let result = after("\"result\":")?;
    Some(Envelope {
        snapshot: snapshot[..digits].parse().ok()?,
        hit: cache.starts_with("hit") || cache.starts_with("revalidated"),
        result: result.strip_suffix('}')?,
    })
}

/// What one reader client saw.
#[derive(Default)]
struct ReaderLog {
    /// Send → last body byte of every answered read, in ms.
    latencies_ms: Vec<f64>,
    hits: usize,
    failed: usize,
    nonempty: usize,
    /// First `"result"` bytes kept per (snapshot, query); later responses
    /// naming the same pair must carry the same bytes.
    kept: HashMap<(u64, u32), String>,
}

impl ReaderLog {
    /// Keep the first `"result"` bytes seen for a (snapshot, query) pair; a
    /// later response naming the pair with other bytes is a failed read.
    fn keep(&mut self, key: (u64, u32), result: &str) {
        match self.kept.get(&key) {
            Some(seen) if seen != result => self.failed += 1,
            Some(_) => {}
            None => {
                self.kept.insert(key, result.to_string());
            }
        }
    }

    fn merge(&mut self, other: ReaderLog) {
        self.latencies_ms.extend(other.latencies_ms);
        self.hits += other.hits;
        self.failed += other.failed;
        self.nonempty += other.nonempty;
        for (key, result) in other.kept {
            self.keep(key, &result);
        }
    }
}

/// Closed-loop reader: take the next read off the shared cursor, send it,
/// wait for the reply. Stops at read number `end` or at `deadline`.
fn reader(
    addr: SocketAddr,
    inputs: &Inputs,
    cursor: &AtomicUsize,
    end: usize,
    deadline: Option<Instant>,
    replay_every: usize,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut client = HttpClient::connect(addr, CLIENT_TIMEOUT).expect("reader connects");
    while deadline.is_none_or(|d| Instant::now() < d) {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= end {
            break;
        }
        let query = inputs.read(i);
        let start = Instant::now();
        let response = client.request("POST", "/query", Some(&inputs.request_bodies[query]));
        let latency = start.elapsed();
        let Ok(response) = response else {
            log.failed += 1;
            client = HttpClient::connect(addr, CLIENT_TIMEOUT).expect("reader reconnects");
            continue;
        };
        let Some(envelope) = (response.status == 200)
            .then(|| envelope(&response.body))
            .flatten()
        else {
            log.failed += 1;
            continue;
        };
        log.latencies_ms.push(ms(latency));
        log.hits += usize::from(envelope.hit);
        log.nonempty += usize::from(!envelope.result.contains("\"answers\":[]"));
        if i.is_multiple_of(replay_every) {
            log.keep((envelope.snapshot, query as u32), envelope.result);
        }
    }
    log
}

fn read_phase(
    addr: SocketAddr,
    workload: &Workload,
    inputs: &Inputs,
    cursor: &AtomicUsize,
    end: usize,
    deadline: Option<Instant>,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..workload.readers)
            .map(|_| {
                scope.spawn(|| reader(addr, inputs, cursor, end, deadline, workload.replay_every))
            })
            .collect();
        for handle in readers {
            log.merge(handle.join().expect("reader thread panicked"));
        }
    });
    log
}

#[derive(Default)]
struct WriterLog {
    ingest_ms: Vec<f64>,
    feedback_ms: Vec<f64>,
    failed: usize,
    worst_lateness_ms: f64,
}

impl WriterLog {
    fn merge(&mut self, other: WriterLog) {
        self.ingest_ms.extend(other.ingest_ms);
        self.feedback_ms.extend(other.feedback_ms);
        self.failed += other.failed;
        self.worst_lateness_ms = self.worst_lateness_ms.max(other.worst_lateness_ms);
    }
}

/// The writer client. It is the server's only publisher, so what it sees
/// when it prepares a write still holds when it sends it.
struct Writer<'a> {
    client: HttpClient,
    inputs: &'a Inputs,
    next_trial: usize,
    log: WriterLog,
}

impl<'a> Writer<'a> {
    fn connect(addr: SocketAddr, inputs: &'a Inputs) -> Self {
        Writer {
            client: HttpClient::connect(addr, CLIENT_TIMEOUT).expect("writer connects"),
            inputs,
            next_trial: 0,
            log: WriterLog::default(),
        }
    }

    /// The request a write sends, settled before the write is due. For a
    /// feedback that means looking at the trials' views in turn, as a user
    /// would, and taking the first that shows an answer; `None` when none
    /// does.
    fn prepare(&mut self, op: &WriteOp) -> Option<(&'static str, &'a str)> {
        let inputs = self.inputs;
        match op {
            WriteOp::Ingest(i) => Some(("/ingest", &inputs.source_bodies[*i])),
            WriteOp::Feedback => {
                let client = &mut self.client;
                let trial = workload::visible_trial(&inputs.trials, self.next_trial, |trial| {
                    client
                        .request("POST", "/query", Some(&trial.look_body))
                        .is_ok_and(|r| r.status == 200 && !r.body.contains("\"answers\":[]"))
                })?;
                self.next_trial = trial + 1;
                Some(("/feedback", &inputs.trials[trial].feedback_body))
            }
        }
    }

    /// Send a prepared write; `true` on a 200.
    fn send(&mut self, request: Option<(&str, &str)>) -> bool {
        request.is_some_and(|(path, body)| {
            self.client
                .request("POST", path, Some(body))
                .is_ok_and(|response| response.status == 200)
        })
    }

    fn record(&mut self, op: &WriteOp, ok: bool, latency: Duration) {
        match (ok, op) {
            (false, _) => self.log.failed += 1,
            (true, WriteOp::Ingest(_)) => self.log.ingest_ms.push(ms(latency)),
            (true, WriteOp::Feedback) => self.log.feedback_ms.push(ms(latency)),
        }
    }
}

/// Touch `bytes` of memory and free it again. The reference machine is a VM
/// whose host takes back every page the guest has left free for two seconds
/// (virtio-balloon free page reporting) and charges 15 µs — on a bad day
/// 1 ms — to hand one out again, so an operation that grows the process
/// is timed by the host's mood (README, Noise). After this the growth is
/// served from pages the guest still holds.
fn prefault(bytes: usize) {
    let mut ballast = vec![0u8; bytes];
    for page in ballast.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&ballast);
}

/// Writes one at a time, each timed send → 200: first the ingests, each
/// into a settled server — the re-validation lane has caught up, so the
/// cache is as warm as the reads left it and the publish has every entry to
/// judge — then the feedbacks (a feedback publish drops what it re-prices,
/// so after the first the cache is no longer the window's). A publish
/// builds a new snapshot beside the one it replaces; twice the snapshot's
/// accounted bytes are pre-faulted before each ingest (a publish at 1818
/// sources grows the process by 1.8× them). The server is settled again when
/// this returns.
fn writes_in_turn(
    qserve: &QServe,
    inputs: &Inputs,
    ingests: std::ops::Range<usize>,
    feedbacks: usize,
) -> WriterLog {
    let mut writer = Writer::connect(qserve.addr(), inputs);
    let ops = ingests
        .map(WriteOp::Ingest)
        .chain((0..feedbacks).map(|_| WriteOp::Feedback));
    for op in ops {
        qserve.engine().flush_revalidation();
        if matches!(op, WriteOp::Ingest(_)) {
            prefault(2 * qserve.engine().snapshot().snapshot_bytes() as usize);
        }
        let request = writer.prepare(&op);
        let (ok, latency) = timed(|| writer.send(request));
        writer.record(&op, ok, latency);
    }
    qserve.engine().flush_revalidation();
    writer.log
}

/// The fixed write schedule of a window: `(due, period, op)` by due time.
fn write_schedule(writes: &Writes, window: Duration) -> Vec<(Duration, Duration, WriteOp)> {
    let Writes::Beside {
        ingest_period,
        feedback_period,
        feedback_offset,
    } = *writes
    else {
        return Vec::new();
    };
    let ingests = stats::schedule(Duration::ZERO, ingest_period, window)
        .into_iter()
        .enumerate()
        .map(|(i, due)| (due, ingest_period, WriteOp::Ingest(i)));
    let feedbacks = stats::schedule(feedback_offset, feedback_period, window)
        .into_iter()
        .map(|due| (due, feedback_period, WriteOp::Feedback));
    let mut ops: Vec<_> = ingests.chain(feedbacks).collect();
    ops.sort_by_key(|(due, _, _)| *due);
    ops
}

/// Writes beside the reads: open loop, each op timed from its due time; an
/// op sent more than one period late counts as failed.
fn writes_beside(
    addr: SocketAddr,
    inputs: &Inputs,
    start: Instant,
    ops: &[(Duration, Duration, WriteOp)],
) -> WriterLog {
    let mut writer = Writer::connect(addr, inputs);
    for (due, period, op) in ops {
        let request = writer.prepare(op);
        let (ok, Timed { latency, lateness }) =
            stats::run_at(start + *due, || writer.send(request));
        writer.log.worst_lateness_ms = writer.log.worst_lateness_ms.max(ms(lateness));
        writer.record(op, ok && lateness <= *period, latency);
    }
    writer.log
}

/// Replay every kept response against the snapshot it names.
fn replay(qserve: &QServe, inputs: &Inputs, kept: &HashMap<(u64, u32), String>) -> usize {
    let config = QConfig::default();
    let snapshots: HashMap<u64, _> = qserve
        .snapshots()
        .into_iter()
        .map(|snapshot| (snapshot.id(), snapshot))
        .collect();
    kept.iter()
        .filter(|((snapshot, query), result)| {
            let replayed = snapshots.get(snapshot).and_then(|snapshot| {
                snapshot
                    .answer(&config, &inputs.requests[*query as usize])
                    .ok()
            });
            replayed.map(|view| wire::encode_result(&view)).as_ref() != Some(*result)
        })
        .count()
}

fn median(name: &str, samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or_else(|| panic!("no successful {name} to report"))
}

/// Times of one pass of the repeatable part of set-up, in ms.
struct SetupPass {
    whole: f64,
    save: f64,
    load: f64,
}

/// Generate the corpus, assemble its snapshot, save it and load it back; the
/// server serves the loaded one.
fn setup_pass(workload: &Workload, seed: u64, file: &SnapshotFile) -> (GraphSnapshot, SetupPass) {
    let start = Instant::now();
    let (catalog, graph) = gen::corpus(&workload.tier, seed);
    let built = GraphSnapshot::assemble(catalog, graph, QConfig::default().shards);
    let (_, save) = timed(|| built.save(&file.0).expect("snapshot saves"));
    // Free the built snapshot before loading: the peak stays that of one.
    drop(built);
    let (loaded, load) = timed(|| file.load());
    let pass = SetupPass {
        whole: ms(start.elapsed()),
        save: ms(save),
        load: ms(load),
    };
    (loaded, pass)
}

pub fn run(workload: &Workload, seed: u64, window: Duration) -> Outcome {
    let file = SnapshotFile::new(workload.name);
    let mut passes = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_PASSES {
        // Free the previous pass's snapshot first, as above.
        drop(loaded.take());
        let (snapshot, pass) = setup_pass(workload, seed, &file);
        loaded = Some(snapshot);
        passes.push(pass);
    }
    let loaded = loaded.expect("at least one set-up pass");
    let pass_ms = |field: fn(&SetupPass) -> f64| -> Vec<f64> { passes.iter().map(field).collect() };

    // The rest of set-up runs once: inputs, server start, warm-up.
    let rest = Instant::now();
    let inputs = Inputs::generate(workload, &loaded, seed, window);
    let qserve = setup::serve(setup::engine(loaded, workload), SERVER_THREADS);
    let addr = qserve.addr();
    let cursor = AtomicUsize::new(0);
    let warmup = read_phase(
        addr,
        workload,
        &inputs,
        &cursor,
        workload.warmup_reads,
        None,
    );
    let setup_s = median("set-up pass", &pass_ms(|p| p.whole)) / 1e3 + rest.elapsed().as_secs_f64();

    // The measured window, in parts when writes go between them.
    let (parts, feedbacks) = match workload.writes {
        Writes::Between { ingests, feedbacks } => (ingests.max(1), feedbacks),
        Writes::Beside { .. } => (1, 0),
    };
    let mut reads = ReaderLog::default();
    let mut writes = WriterLog::default();
    let mut read_time = Duration::ZERO;
    for part in 0..parts {
        let schedule = write_schedule(&workload.writes, window);
        let start = Instant::now();
        let deadline = Some(start + window / parts as u32);
        std::thread::scope(|scope| {
            let writer = (!schedule.is_empty())
                .then(|| scope.spawn(|| writes_beside(addr, &inputs, start, &schedule)));
            reads.merge(read_phase(
                addr,
                workload,
                &inputs,
                &cursor,
                usize::MAX,
                deadline,
            ));
            if let Some(writer) = writer {
                writes.merge(writer.join().expect("writer thread panicked"));
            }
        });
        read_time += start.elapsed();
        if let Writes::Between { ingests, .. } = workload.writes {
            let ingest = part..(part + 1).min(ingests);
            let feedbacks = if part + 1 == parts { feedbacks } else { 0 };
            writes.merge(writes_in_turn(&qserve, &inputs, ingest, feedbacks));
        }
    }

    // Correctness: replay what was kept, then stop the server.
    let mismatched = replay(&qserve, &inputs, &reads.kept);
    let replayed = reads.kept.len();
    let published = qserve.snapshots().len();
    setup::stop(qserve);

    let read_count = reads.latencies_ms.len();
    let write_count = writes.ingest_ms.len() + writes.feedback_ms.len();
    let failed = warmup.failed + reads.failed + writes.failed + mismatched;
    let attempted = read_count + write_count + reads.failed + writes.failed + warmup.failed;
    let latencies = stats::sorted(reads.latencies_ms);

    let mut outcome = Outcome::new(attempted, failed);
    outcome.metric("setup_s", setup_s);
    outcome.metric(
        "query_p50_ms",
        stats::quantile(&latencies, 0.5).expect("reads succeeded"),
    );
    outcome.metric(
        "query_p95_ms",
        stats::quantile(&latencies, 0.95).expect("reads succeeded"),
    );
    outcome.metric("query_qps", read_count as f64 / read_time.as_secs_f64());
    outcome.metric("ingest_p50_ms", median("ingest", &writes.ingest_ms));
    outcome.metric("peak_rss_mb", setup::peak_rss_mb());
    if stats::tail_percentile(&latencies, 0.95).is_none() {
        outcome.undersampled.push("query_p95_ms");
    }
    outcome.note(format!("workload_hash {:016x}", inputs.hash));
    outcome.note(format!(
        "samples reads={read_count} ingests={} feedbacks={} setup_passes={SETUP_PASSES} replayed={replayed} snapshots_published={published}",
        writes.ingest_ms.len(),
        writes.feedback_ms.len(),
    ));
    outcome.note(format!(
        "snapshot_save_ms {:.4} snapshot_load_ms {:.4} (median of {SETUP_PASSES})",
        median("save", &pass_ms(|p| p.save)),
        median("load", &pass_ms(|p| p.load)),
    ));
    outcome.note(format!("ingest_ms as sent {:.1?}", writes.ingest_ms));
    if !writes.feedback_ms.is_empty() {
        outcome.note(format!(
            "feedback_p50_ms {:.4}",
            median("feedback", &writes.feedback_ms)
        ));
    }
    outcome.note(format!(
        "hit_ratio {:.4} nonempty_share {:.4} writer_worst_lateness_ms {:.3}",
        reads.hits as f64 / read_count as f64,
        reads.nonempty as f64 / read_count as f64,
        writes.worst_lateness_ms,
    ));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_slices_the_result_bytes() {
        let body = r#"{"v":1,"snapshot":42,"weight_epoch":42,"cache":"hit","wall_time_us":0,"result":{"keywords":["a \"result\":"],"answers":[]}}"#;
        let e = envelope(body).expect("well-formed body");
        assert_eq!(e.snapshot, 42);
        assert!(e.hit);
        assert_eq!(e.result, r#"{"keywords":["a \"result\":"],"answers":[]}"#);
        assert!(envelope(r#"{"v":1,"error":{"code":"bad_json"}}"#).is_none());
        let miss = body.replace("\"hit\"", "\"bypassed\"");
        assert!(!envelope(&miss).unwrap().hit);
    }

    #[test]
    fn write_schedule_merges_by_due_time() {
        let writes = Writes::Beside {
            ingest_period: Duration::from_millis(750),
            feedback_period: Duration::from_millis(1000),
            feedback_offset: Duration::from_millis(375),
        };
        let ops = write_schedule(&writes, Duration::from_secs(2));
        let due: Vec<u128> = ops.iter().map(|(due, _, _)| due.as_millis()).collect();
        assert_eq!(due, [0, 375, 750, 1375, 1500]);
        assert!(write_schedule(
            &Writes::Between {
                ingests: 1,
                feedbacks: 1
            },
            Duration::from_secs(2)
        )
        .is_empty());
    }
}
