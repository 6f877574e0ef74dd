//! The inference server binary. It serves on the epoll event front, so it
//! runs on Linux only.
//!
//! ```sh
//! # Serve the built-in demo model on an ephemeral port:
//! cargo run --release --bin wp_serve -p wp_server -- --demo --port 0
//!
//! # Serve bundles from disk, two models, fixed port (JSON or binary
//! # WPB bundles — the format is sniffed from the file's magic bytes):
//! cargo run --release --bin wp_serve -p wp_server -- \
//!     --model mnist=/path/mnist.wpb --model kws=/path/kws.json --port 8080
//! ```
//!
//! Flags:
//!
//! * `--port N` / `--addr HOST:PORT` — bind address (default
//!   `127.0.0.1:8080`; port 0 picks an ephemeral port).
//! * `--model NAME=PATH` — deploy a `DeployBundle` file, JSON or `.wpb`
//!   (repeatable; `POST /v1/models/NAME/reload` re-reads it).
//! * `--demo` — deploy the fabricated scatter-heavy demo model as `demo`.
//! * `--demo-stem` — deploy the fabricated stem-heavy demo model as
//!   `demo-stem` (direct/depthwise/dense dominated; no pooled convs).
//! * `--backend KIND` — kernel tier for every deployed model: `auto`
//!   (default; runtime CPU detection, `WP_BACKEND` env override),
//!   `scalar`, `swar`, or `avx2`. The resolved tier is printed per model
//!   and reported in `/v1/models` and `/metrics`.
//! * `--max-batch N`, `--max-wait-us N` — micro-batcher flush thresholds.
//! * `--threads N` — engine worker threads per batch.
//! * `--event-threads N` — epoll event-loop threads; together they own
//!   every connection.
//! * `--trace-events N` — give every model an N-event trace ring;
//!   `GET /v1/models/NAME/trace` exports it as Chrome `trace_event` JSON
//!   (the always-on per-layer profile at `GET /v1/models/NAME/profile`
//!   needs no flag).
//! * `--port-file PATH` — write the bound port there (for scripts driving
//!   an ephemeral-port server).
//! * `--allow-shutdown` — honor `POST /v1/shutdown`.

use std::sync::Arc;
use std::time::Duration;
use wp_engine::{BackendKind, EngineOptions};
use wp_server::batcher::BatcherConfig;
use wp_server::demo::{demo_deployment, DemoSize};
use wp_server::metrics::Metrics;
use wp_server::registry::ModelRegistry;
use wp_server::server::{serve, ServerConfig};

struct Args {
    addr: String,
    models: Vec<(String, String)>,
    demo: bool,
    demo_stem: bool,
    backend: BackendKind,
    batcher: BatcherConfig,
    event_threads: usize,
    trace_events: usize,
    port_file: Option<String>,
    allow_shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:8080".into(),
        models: Vec::new(),
        demo: false,
        demo_stem: false,
        backend: BackendKind::Auto,
        batcher: BatcherConfig::default(),
        event_threads: ServerConfig::default().event_threads,
        trace_events: 0,
        port_file: None,
        allow_shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--port" => {
                let port: u16 = value("--port")?.parse().map_err(|e| format!("bad --port: {e}"))?;
                args.addr = format!("127.0.0.1:{port}");
            }
            "--model" => {
                let spec = value("--model")?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--model expects NAME=PATH, got {spec:?}"))?;
                args.models.push((name.to_string(), path.to_string()));
            }
            "--demo" => args.demo = true,
            "--demo-stem" => args.demo_stem = true,
            "--backend" => {
                args.backend =
                    value("--backend")?.parse().map_err(|e| format!("bad --backend: {e}"))?;
            }
            "--max-batch" => {
                args.batcher.max_batch =
                    value("--max-batch")?.parse().map_err(|e| format!("bad --max-batch: {e}"))?;
            }
            "--max-wait-us" => {
                let us: u64 = value("--max-wait-us")?
                    .parse()
                    .map_err(|e| format!("bad --max-wait-us: {e}"))?;
                args.batcher.max_wait = Duration::from_micros(us);
            }
            "--threads" => {
                args.batcher.threads =
                    value("--threads")?.parse().map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--event-threads" => {
                args.event_threads = value("--event-threads")?
                    .parse()
                    .map_err(|e| format!("bad --event-threads: {e}"))?;
                if args.event_threads == 0 {
                    return Err("--event-threads must be at least 1".into());
                }
            }
            "--trace-events" => {
                args.trace_events = value("--trace-events")?
                    .parse()
                    .map_err(|e| format!("bad --trace-events: {e}"))?;
            }
            "--port-file" => args.port_file = Some(value("--port-file")?),
            "--allow-shutdown" => args.allow_shutdown = true,
            "--help" | "-h" => {
                println!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (see --help)")),
        }
    }
    if args.models.is_empty() && !args.demo && !args.demo_stem {
        return Err("nothing to serve: pass --demo, --demo-stem or --model NAME=PATH".into());
    }
    Ok(args)
}

const HELP: &str = "wp_serve — weight-pool inference server
    --addr HOST:PORT     bind address (default 127.0.0.1:8080)
    --port N             shorthand for --addr 127.0.0.1:N (0 = ephemeral)
    --model NAME=PATH    deploy a DeployBundle file, JSON or .wpb (repeatable)
    --demo               deploy the fabricated scatter-heavy demo model as 'demo'
    --demo-stem          deploy the fabricated stem-heavy demo model as 'demo-stem'
    --backend KIND       kernel tier: auto|scalar|swar|avx2 (default auto;
                         auto honors WP_BACKEND, then CPU detection)
    --max-batch N        micro-batch flush size (default 32)
    --max-wait-us N      micro-batch flush deadline (default 2000)
    --threads N          engine worker threads per batch
    --event-threads N    epoll event-loop threads (default 2; Linux only)
    --trace-events N     per-model trace ring of N events, exported at
                         GET /v1/models/NAME/trace as Chrome trace JSON
                         (default 0 = event tracing off; the per-layer
                         profile endpoint is always on)
    --port-file PATH     write the bound port to PATH once listening
    --allow-shutdown     honor POST /v1/shutdown";

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wp_serve: {e}");
            std::process::exit(2);
        }
    };

    let registry = Arc::new(
        ModelRegistry::new(args.batcher, Arc::new(Metrics::new()))
            .with_trace_capacity(args.trace_events),
    );
    let resolved = args.backend.resolve();
    if args.trace_events > 0 {
        println!(
            "event tracing on: {} events per model (GET /v1/models/NAME/trace)",
            args.trace_events
        );
    }
    if args.demo {
        let (bundle, opts) = demo_deployment(DemoSize::Serve, 1);
        registry.insert_bundle("demo", &bundle, opts.with_backend(args.backend));
        println!("deployed demo model 'demo' (input 8x6x6, 10 classes, backend {resolved})");
    }
    if args.demo_stem {
        let (bundle, opts) = demo_deployment(DemoSize::Stem, 1);
        registry.insert_bundle("demo-stem", &bundle, opts.with_backend(args.backend));
        println!("deployed demo model 'demo-stem' (input 8x10x10, 10 classes, backend {resolved})");
    }
    for (name, path) in &args.models {
        let opts = EngineOptions::new().with_backend(args.backend);
        if let Err(e) = registry.insert_file(name, std::path::Path::new(path), opts) {
            eprintln!("wp_serve: deploying {name:?}: {e}");
            std::process::exit(1);
        }
        println!("deployed model {name:?} from {path} (backend {resolved})");
    }

    let config = ServerConfig {
        addr: args.addr,
        event_threads: args.event_threads,
        allow_remote_shutdown: args.allow_shutdown,
        ..ServerConfig::default()
    };
    let mut handle = match serve(config, Arc::clone(&registry)) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("wp_serve: cannot serve: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.port_file {
        if let Err(e) = std::fs::write(path, handle.addr().port().to_string()) {
            eprintln!("wp_serve: writing port file {path}: {e}");
        }
    }
    println!(
        "wp_serve listening on http://{} (event front, {} loop threads; batch<={}, wait<={:?})",
        handle.addr(),
        args.event_threads,
        args.batcher.max_batch,
        args.batcher.max_wait
    );

    // Serve until a remote shutdown (if enabled) flips the flag.
    while !handle.is_shutting_down() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("wp_serve: shutdown requested, draining");
    handle.shutdown();
    println!("wp_serve: bye");
}
