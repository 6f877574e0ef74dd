//! Command-line entry point; see the library docs for what it measures.

use perfbench::host::{peak_rss_mb, Fingerprint};
use perfbench::report::Metrics;
use perfbench::runner::{deploy, phase, Phase};
use perfbench::stats::{median, quiet_median, Tally};
use perfbench::traced;
use perfbench::workload::{Fabricated, Workload};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Unrecorded load before the measured window.
const WARMUP: Duration = Duration::from_secs(1);

/// Where bundle files and traces go, relative to the working directory.
const WORK_DIR: &str = ".perfbench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required (pooled-a8, stem-a2, tiny-mixed)")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// The end-to-end metrics of one untraced run, plus its outcome tally
/// and first output mismatch.
fn end_to_end(
    fab: &Fabricated,
    window: Duration,
) -> Result<(Metrics, Tally, Option<String>), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        // Shut the previous server down before timing the next set-up.
        drop(server.take());
        let (handle, took) = deploy(fab, 0)?;
        setups.push(took.as_secs_f64());
        server = Some(handle);
    }
    let mut server = server.expect("at least one set-up");
    let Phase { load, reloads_ms, tally, mismatch } =
        phase(fab, server.addr(), WARMUP, window, false);
    server.shutdown();

    let latencies = load.latencies_ms(None);
    let tail = load.tail_latency_ms();
    let mut m = Metrics::default();
    m.push("throughput_ips", load.throughput_ips(), "images/s");
    m.push("latency_p50_ms", load.latency_p50_ms(), "ms");
    m.push("latency_tail_ms", tail.value_ms, "ms");
    m.push("setup_s", median(&setups), "s");
    m.push("peak_rss_mb", peak_rss_mb(), "MiB");
    m.push("model_bytes", fab.served.wpb.len() as f64, "bytes");
    println!(
        "latency_tail_ms is the median of {} windows' p{} (about {} requests each, of {} in all); \
         error_rate = {:.6} ({} of {} attempted: {} failed, {} refused, {} timed out)",
        tail.windows,
        tail.percentile,
        tail.per_window,
        latencies.len(),
        tally.error_rate(),
        tally.errors(),
        tally.attempted,
        tally.failed,
        tally.refused,
        tally.timed_out
    );
    if !reloads_ms.is_empty() {
        println!(
            "reload_ms (under load, median of the faster half of {} reloads) = {:.6} ms",
            reloads_ms.len(),
            quiet_median(&reloads_ms)
        );
    }
    Ok((m, tally, mismatch))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = Path::new(WORK_DIR);
    let fab = match Fabricated::new(args.workload, args.seed, dir) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let window = Duration::from_secs(args.seconds);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} (2 closed-loop keep-alive connections)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", Fingerprint::probe(fab.served.oracle.backend_kind().name()).line());

    let result = if args.trace {
        let path = dir.join(format!("trace-{}.json", args.workload.name()));
        traced::run(&fab, window, &path).map(|t| (t.metrics, t.tally, t.mismatch))
    } else {
        end_to_end(&fab, window)
    };
    let (metrics, tally, mismatch) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", metrics.human());
    if let Some(m) = &mismatch {
        eprintln!("perfbench: OUTPUT MISMATCH: {m}");
    }
    println!("{}", metrics.result_json(mismatch.is_none(), tally.attempted, tally.errors()));
    if mismatch.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
