//! Set-up shared by the untraced and the traced run: snapshot files, the
//! serving engine, the machine line.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use q_integration::matchers::MetadataMatcher;
use q_integration::{GraphSnapshot, LiveServer, QConfig, QServe, ServeOptions};

use crate::workload::Workload;

/// Worker threads of the server under test (= cores of the reference
/// machine; each keep-alive client pins one for its session).
pub const SERVER_THREADS: usize = 2;

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// `benchmark/out/`, the only directory the benchmark writes.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out is writable");
    dir
}

/// A snapshot file private to this process, deleted on drop.
pub struct SnapshotFile(pub PathBuf);

impl SnapshotFile {
    pub fn new(label: &str) -> Self {
        SnapshotFile(out_dir().join(format!("{label}-{}.qsnap", std::process::id())))
    }

    pub fn load(&self) -> GraphSnapshot {
        GraphSnapshot::load(&self.0)
            .expect("saved snapshot loads")
            .0
    }
}

impl Drop for SnapshotFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The engine every workload serves: default configuration, the metadata
/// matcher, the workload's cache capacity.
pub fn engine(snapshot: GraphSnapshot, workload: &Workload) -> LiveServer {
    let mut server = LiveServer::from_snapshot(snapshot, QConfig::default());
    server.add_matcher(Box::new(MetadataMatcher::new()));
    if let Some(capacity) = workload.cache_capacity {
        server.set_cache_capacity(capacity);
    }
    server
}

pub fn serve(engine: LiveServer, threads: usize) -> QServe {
    QServe::start(
        engine,
        "127.0.0.1:0",
        ServeOptions {
            threads,
            // The writer's connection idles while the harness pre-faults
            // memory, seconds on a bad day; it must not be closed under it.
            keep_alive_timeout: Duration::from_secs(60),
            ..ServeOptions::default()
        },
    )
    .expect("loopback port binds")
}

/// Stop the server and wait for its threads.
pub fn stop(qserve: QServe) {
    qserve.shutdown();
    qserve.join();
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What the numbers were measured on; printed with every result.
pub fn machine_line() -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let governor = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map_or_else(|_| "unreadable".to_string(), |g| g.trim().to_string());
    format!(
        "machine: available_parallelism={cores} governor={governor} rustc=\"{}\" server_threads={SERVER_THREADS}",
        env!("QBENCH_RUSTC_VERSION"),
    )
}
