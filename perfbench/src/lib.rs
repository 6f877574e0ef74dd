//! The serving stack's benchmark: fabricated demo bundles deployed from
//! WPB bytes into `wp_server` and driven over real HTTP by two
//! closed-loop keep-alive connections (one client thread each), every
//! response checked against the engine run directly on the in-memory
//! bundle.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pooled-a8 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (`BENCHMARK.json` lists
//! them with their bounds); `--trace 1` runs the traced measurement
//! instead and prints the per-layer metrics, writing a Chrome trace
//! under `.perfbench_work/` that joins client request spans with the
//! server's queue-wait and layer spans. Every result is printed with a
//! host fingerprint. The last stdout line is one JSON object,
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`;
//! an output mismatch prints `"correct": false` and exits with code 1.
//!
//! On a two-vCPU guest that shares its host, other guests' load slowed
//! whole seconds of a run by up to half, and whole runs by a quarter.
//! Every timing is therefore a median over the whole measured window:
//! throughput is the median rate of 21 completion slices
//! ([`stats::slice_rates`]), median latency is over every request, and
//! the tail is the median over windows of 200 requests of each window's
//! p95. Keeping only a run's fastest slices would not steady it: they
//! spread about twice as much between runs as its median slice does.
//! Reload time is the median of the faster half of the reloads; set-up
//! time is the median of nine set-ups.

pub mod client;
pub mod host;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod work;
pub mod workload;
