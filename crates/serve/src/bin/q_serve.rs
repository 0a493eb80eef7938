//! `q-serve`: boot a [`LiveServer`] over the GBCO dataset and serve the
//! versioned JSON wire API over HTTP.
//!
//! ```text
//! q-serve [--addr 127.0.0.1:8080] [--threads 8] [--gbco-rows 40]
//!         [--gbco-seed 7] [--initial-sources N] [--port-file PATH]
//!         [--snapshot-dir DIR] [--snapshot-keep N]
//! ```
//!
//! `--initial-sources N` loads only the first N GBCO sources at boot; the
//! rest can stream in later over `POST /ingest` (`tests/binary_smoke.rs`
//! uses this to exercise live ingestion). `--port-file` writes the bound
//! `host:port` to a file once listening — the reliable way for a harness
//! to discover an ephemeral (`:0`) port.
//!
//! `--snapshot-dir DIR` turns on the persistent snapshot store: at boot
//! the newest `snap-<id>.qsnap` in DIR is loaded and served directly
//! (skipping graph construction entirely); if the directory is empty or
//! the file fails validation, the server logs why and falls back to a
//! full rebuild — a corrupt snapshot never takes the server down. Every
//! published snapshot is then written back to DIR by a background lane,
//! keeping the newest `--snapshot-keep` files (default 2).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use q_core::{latest_snapshot_path, GraphSnapshot, LiveServer, QConfig};
use q_datasets::{gbco_source_specs_with_fks, GbcoConfig};
use q_matchers::MetadataMatcher;
use q_serve::{BootMode, BootStats, QServe, ServeOptions};

const USAGE: &str = "usage: q-serve [--addr HOST:PORT] [--threads N] [--gbco-rows N] \
                     [--gbco-seed N] [--initial-sources N] [--port-file PATH] \
                     [--snapshot-dir DIR] [--snapshot-keep N]";

struct Args {
    addr: String,
    threads: usize,
    gbco: GbcoConfig,
    initial_sources: Option<usize>,
    port_file: Option<String>,
    snapshot_dir: Option<PathBuf>,
    snapshot_keep: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:8080".to_string(),
        threads: 8,
        gbco: GbcoConfig::default(),
        initial_sources: None,
        port_file: None,
        snapshot_dir: None,
        snapshot_keep: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be a positive integer".to_string())?
            }
            "--gbco-rows" => {
                args.gbco.rows_per_table = value("--gbco-rows")?
                    .parse()
                    .map_err(|_| "--gbco-rows must be a positive integer".to_string())?
            }
            "--gbco-seed" => {
                args.gbco.seed = value("--gbco-seed")?
                    .parse()
                    .map_err(|_| "--gbco-seed must be an integer".to_string())?
            }
            "--initial-sources" => {
                args.initial_sources = Some(
                    value("--initial-sources")?
                        .parse()
                        .map_err(|_| "--initial-sources must be a positive integer".to_string())?,
                )
            }
            "--port-file" => args.port_file = Some(value("--port-file")?),
            "--snapshot-dir" => args.snapshot_dir = Some(PathBuf::from(value("--snapshot-dir")?)),
            "--snapshot-keep" => {
                args.snapshot_keep = value("--snapshot-keep")?
                    .parse()
                    .map_err(|_| "--snapshot-keep must be a positive integer".to_string())?
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Try the snapshot boot path: newest file in `dir`, validated load,
/// serve-as-is. Any failure is reported and answered with `None` — the
/// caller rebuilds; a missing or corrupt snapshot must never take the
/// server down.
fn boot_from_snapshot(dir: &std::path::Path) -> Option<LiveServer> {
    let path = latest_snapshot_path(dir)?;
    match GraphSnapshot::load(&path) {
        Ok((snapshot, info)) => {
            println!(
                "q-serve booting from snapshot {} ({} bytes, id {})",
                path.display(),
                info.file_bytes,
                snapshot.id(),
            );
            Some(LiveServer::from_snapshot(snapshot, QConfig::default()))
        }
        Err(err) => {
            eprintln!(
                "snapshot {} failed validation ({err}); falling back to a full rebuild",
                path.display()
            );
            None
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let boot_start = Instant::now();
    // The GBCO specs are generated on the rebuild path only: a snapshot boot
    // loads none of them and must not bill the generator to `boot_ms`.
    let (mut engine, boot_mode, booted) =
        match args.snapshot_dir.as_deref().and_then(boot_from_snapshot) {
            Some(engine) => (engine, BootMode::Snapshot, "snapshot boot".to_string()),
            None => {
                let specs = gbco_source_specs_with_fks(&args.gbco);
                let initial = args
                    .initial_sources
                    .unwrap_or(specs.len())
                    .clamp(1, specs.len());
                let catalog = match q_storage::loader::load_catalog(&specs[..initial]) {
                    Ok(catalog) => catalog,
                    Err(err) => {
                        eprintln!("failed to load the GBCO catalog: {err}");
                        return ExitCode::FAILURE;
                    }
                };
                (
                    LiveServer::new(catalog, QConfig::default()),
                    BootMode::Rebuild,
                    format!("{initial} of {} GBCO sources loaded", specs.len()),
                )
            }
        };
    engine.add_matcher(Box::new(MetadataMatcher::new()));
    if let Some(dir) = &args.snapshot_dir {
        if let Err(err) = engine.enable_persistence(dir.clone(), args.snapshot_keep) {
            eprintln!(
                "failed to enable snapshot persistence in {}: {err}",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
    }
    let boot = BootStats {
        mode: boot_mode,
        wall: boot_start.elapsed(),
    };

    let server = match QServe::start(
        engine,
        &args.addr,
        ServeOptions {
            threads: args.threads,
            boot,
            ..ServeOptions::default()
        },
    ) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("failed to bind {}: {err}", args.addr);
            return ExitCode::FAILURE;
        }
    };

    println!(
        "q-serve listening on {} ({booted} in {} ms, snapshot {})",
        server.addr(),
        boot.wall.as_millis(),
        server.engine().snapshot().id(),
    );
    if let Some(path) = &args.port_file {
        if let Err(err) = std::fs::write(path, server.addr().to_string()) {
            eprintln!("failed to write port file {path}: {err}");
            server.shutdown();
            server.join();
            return ExitCode::FAILURE;
        }
    }

    // Serve until a graceful POST /shutdown. Dropping the engine afterwards
    // flushes any still-deposited snapshot to disk before the process exits.
    server.join();
    println!("q-serve stopped");
    ExitCode::SUCCESS
}
