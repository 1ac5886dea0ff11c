//! `ged-served` — the GED-as-a-service daemon.
//!
//! Serves the line-delimited JSON protocol (see `ged_server::protocol`)
//! over stdin/stdout, and over a Unix domain socket when `--socket` is
//! given. One request object per line in, one response object per line
//! out. The process exits 0 after a `shutdown` request has drained, or
//! when stdin reaches EOF with no socket being served.
//!
//! ```text
//! ged-served [--socket PATH] [--method NAME] [--threads N]
//!            [--beam-width N] [--pivots N] [--cache N]
//!            [--verify-budget N] [--max-inflight N]
//!            [--seed KIND:N] [--store PATH]
//! ```
//!
//! `--seed KIND:N` pre-populates the store with `N` deterministic
//! synthetic graphs named `g0..g{N-1}`; `KIND` is `sparse` (connected
//! labeled), `ego` (ego-net), or `powerlaw` (Barabási–Albert).
//!
//! `--store PATH` names the default snapshot file for the `snapshot` and
//! `load` ops; when the file already exists the store is restored from
//! it before serving (and `--seed` graphs are inserted on top).

use ged_core::method::MethodKind;
use ged_server::{Server, ServerConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::{BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: ged-served [--socket PATH] [--method NAME] [--threads N] \
[--beam-width N] [--pivots N] [--cache N] [--verify-budget N] [--max-inflight N] \
[--seed KIND:N] [--store PATH]";

struct Args {
    socket: Option<PathBuf>,
    config: ServerConfig,
    seed: Option<(String, usize)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        socket: None,
        config: ServerConfig::default(),
        seed: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--socket" => args.socket = Some(PathBuf::from(value("--socket")?)),
            "--method" => {
                args.config.method = value("--method")?
                    .parse::<MethodKind>()
                    .map_err(|e| e.to_string())?;
            }
            "--threads" => args.config.threads = Some(usize_value(&value("--threads")?)?),
            "--beam-width" => args.config.beam_width = Some(usize_value(&value("--beam-width")?)?),
            "--pivots" => args.config.pivots = Some(usize_value(&value("--pivots")?)?),
            "--cache" => args.config.prediction_cache = Some(usize_value(&value("--cache")?)?),
            "--verify-budget" => {
                args.config.verify_budget = Some(usize_value(&value("--verify-budget")?)?);
            }
            "--max-inflight" => args.config.max_inflight = usize_value(&value("--max-inflight")?)?,
            "--store" => args.config.store_path = Some(PathBuf::from(value("--store")?)),
            "--seed" => {
                let spec = value("--seed")?;
                let (kind, n) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("--seed expects KIND:N, got {spec:?}"))?;
                args.seed = Some((kind.to_string(), usize_value(n)?));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn usize_value(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("expected a non-negative integer, got {s:?}"))
}

/// Deterministic store seeding: `N` graphs of 6–15 nodes, generator
/// chosen by `kind`, fixed RNG seed so every run serves the same data.
fn seed_store(server: &Server, kind: &str, n: usize) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    use rand::Rng;
    for i in 0..n {
        let nodes = 6 + (i % 10);
        let graph = match kind {
            "sparse" => {
                ged_graph::generate::random_connected(nodes, nodes / 2, &[4.0, 2.0, 1.0], &mut rng)
            }
            "ego" => ged_graph::generate::ego_net(nodes, 2, &mut rng),
            "powerlaw" => {
                ged_graph::generate::barabasi_albert(nodes, 1 + rng.gen_range(0..2), &mut rng)
            }
            other => return Err(format!("unknown seed kind {other:?} (sparse|ego|powerlaw)")),
        };
        server.insert_local(graph);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::new(&args.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("ged-served: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.config.store_path {
        if path.exists() {
            match server.load_local(path) {
                Ok(n) => eprintln!("ged-served: restored {n} graphs from {}", path.display()),
                Err(msg) => {
                    eprintln!("ged-served: {msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some((kind, n)) = &args.seed {
        if let Err(msg) = seed_store(&server, kind, *n) {
            eprintln!("ged-served: {msg}");
            return ExitCode::FAILURE;
        }
    }

    let listener_thread = match &args.socket {
        Some(path) => {
            // A stale socket file from a previous run would make bind fail.
            let _ = std::fs::remove_file(path);
            let listener = match UnixListener::bind(path) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("ged-served: cannot bind {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            let server = server.clone();
            Some(std::thread::spawn(move || server.serve_listener(&listener)))
        }
        None => None,
    };

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    server.serve_connection(BufReader::new(stdin.lock()), stdout.lock());
    let _ = stdout.lock().flush();

    if let Some(handle) = listener_thread {
        // Stdin closed without a shutdown request: keep serving the
        // socket until some connection sends one.
        if !server.is_shutting_down() {
            server.wait_for_shutdown();
        }
        let _ = handle.join();
    }
    if let Some(path) = &args.socket {
        let _ = std::fs::remove_file(path);
    }
    ExitCode::SUCCESS
}
