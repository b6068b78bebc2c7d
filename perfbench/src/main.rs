//! Serving benchmark for the CODIC replay stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mixed_replay|bitwise_compute|fleet_pair> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it serves the
//! workload through the real `ReplayServer` for `--seconds` and prints
//! the end-to-end metrics; with `--trace 1` it measures the tracing
//! overhead and the per-layer waterfall instead. Every served stream is
//! verified against the in-process reference. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`; the line before it carries the run's context (seed,
//! threads, commit, spreads). See `perfbench/README.md`.

mod alloc;
mod measure;
mod serve;
mod spans;
mod stats;
mod waterfall;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use codic_server::proto::Fnv64;

use crate::measure::Outcome;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where sockets, span logs and nothing else go (ignored by git).
const OUT_DIR: &str = "perfbench/out";
/// A run that has not finished by then is stuck: give up loudly rather
/// than overrun the caller's time limit.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the Rust sources and manifests the benchmark builds,
/// identifying the code even where no `.git` is present.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path
                    .file_name()
                    .is_some_and(|n| n != "target" && n != "out")
                {
                    walk(&path, files);
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["crates", "vendor", "perfbench"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut hash = Fnv64::new();
    for file in &files {
        if let Ok(bytes) = std::fs::read(file) {
            hash.update(file.to_string_lossy().as_bytes());
            hash.update(&bytes);
        }
    }
    format!("{:016x}", hash.value())
}

fn print_outcome(args: &Args, outcome: &Outcome) -> bool {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut report = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("threads_available", threads.to_string()),
        (
            "commit",
            commit().map_or("null".to_string(), |c| json_str(&c)),
        ),
        ("source_fingerprint", json_str(&source_fingerprint())),
    ];
    report.extend(outcome.report.iter().map(|(k, v)| (*k, v.clone())));
    let mut errors = outcome.errors.clone();
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            errors.push(format!("metric {} is not finite", m.name));
        }
    }
    let errors: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
    report.push(("errors", format!("[{}]", errors.join(","))));
    let fields: Vec<String> = report
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!("{{\"report\":{{{}}}}}", fields.join(","));

    let correct = errors.is_empty() && outcome.failed == 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    correct
}

fn main() -> ExitCode {
    spans::now_ns();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workload::build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {:?})",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    // The watchdog only sleeps and exits; it is never joined.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let socket = Path::new(OUT_DIR).join(format!("{}-{}.sock", workload.name, std::process::id()));
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        let log = Path::new(OUT_DIR).join(format!("spans-{}.jsonl", workload.name));
        waterfall::traced(&workload, budget, &socket, &log)
    } else {
        measure::end_to_end(&workload, budget, &socket)
    };
    if print_outcome(&args, &outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
