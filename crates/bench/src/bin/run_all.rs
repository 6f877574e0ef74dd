//! Runs every experiment and writes the combined report to
//! `experiments_output.md` in the current directory. Pass `--fast` for a
//! quick smoke run, or `--only NAME` to print a single experiment's report
//! (no file is written); an unknown name exits nonzero and lists the valid
//! ones.

use wp_bench::experiments::{run_all, EXPERIMENTS};

fn main() {
    let effort = wp_bench::Effort::from_env();
    let args: Vec<String> = std::env::args().collect();
    if let Some(at) = args.iter().position(|a| a == "--only") {
        let name = args.get(at + 1).map_or("", String::as_str);
        let Some((_, _, run_fn)) = EXPERIMENTS.iter().find(|(n, _, _)| *n == name) else {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _, _)| *n).collect();
            eprintln!("unknown experiment {name:?}; valid names: {}", names.join(", "));
            std::process::exit(2);
        };
        println!("{}", run_fn(effort));
        return;
    }
    let report = run_all(effort);
    println!("{report}");
    let path = "experiments_output.md";
    if let Err(e) = std::fs::write(path, &report) {
        eprintln!("could not write {path}: {e}");
    } else {
        eprintln!("[run_all] report written to {path}");
    }
}
