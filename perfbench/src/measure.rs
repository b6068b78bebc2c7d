//! The end-to-end run (tracing off) and the checks every served round
//! passes, traced or not.

use std::path::Path;
use std::time::{Duration, Instant};

use codic_dram::TimingParams;
use codic_server::client::verify_against_reference;

use crate::serve::{round, Round};
use crate::stats::{median, quartiles, tail};
use crate::workload::Workload;

/// Fewest measured rounds a run reports medians over, however short its
/// time budget.
pub const MIN_ROUNDS: usize = 5;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations submitted.
    pub attempted: u64,
    /// Operations that failed: typed `Failed` events, plus every op of
    /// a session that a rejected batch or a refused `Hello` ended.
    pub failed: u64,
    /// Correctness violations; any one makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra report fields, as `(key, JSON value)`.
    pub report: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, key: &'static str, value: String) {
        self.report.push((key, value));
    }
}

/// The exact, deterministic facts of one served session: any two
/// servings of the same operations must agree on all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exact {
    pub checksum: u64,
    pub ops: u64,
    pub wire_bytes: u64,
    pub max_finish_cycle: u64,
    pub energy_bits: u64,
}

/// Checks every session of every round: the first serving of each
/// session is verified against the in-process reference replay, and
/// every later serving must reproduce its exact facts bit for bit.
#[derive(Debug)]
pub struct Checker {
    reference: Vec<Option<Exact>>,
}

impl Checker {
    pub fn new(workload: &Workload) -> Self {
        Checker {
            reference: vec![None; workload.sessions.len()],
        }
    }

    /// The verified exact facts of each session, once a round passed.
    pub fn reference(&self) -> Vec<Exact> {
        self.reference.iter().flatten().copied().collect()
    }

    pub fn check(&mut self, workload: &Workload, round: &Round, out: &mut Outcome) {
        for (i, (run, session)) in round.sessions.iter().zip(&workload.sessions).enumerate() {
            out.attempted += run.ops;
            let report = match &run.result {
                Ok(report) => report,
                Err(e) => {
                    out.failed += run.ops;
                    out.errors.push(format!("session {i} failed: {e}"));
                    continue;
                }
            };
            out.failed += report.failures.len() as u64;
            let exact = Exact {
                checksum: report.checksum,
                ops: report.summary.ops,
                wire_bytes: run.wire_bytes,
                max_finish_cycle: report.summary.max_finish_cycle,
                energy_bits: report.summary.total_energy_nj.to_bits(),
            };
            match self.reference[i] {
                None => {
                    if let Err(e) = verify_against_reference(report, &session.ops, session.batch) {
                        out.errors.push(format!("session {i}: {e}"));
                    }
                    self.reference[i] = Some(exact);
                }
                Some(want) if want != exact => out.errors.push(format!(
                    "session {i} served differently on a repeat: {exact:?} != {want:?}"
                )),
                Some(_) => {}
            }
        }
    }
}

/// The simulated and wire costs per row, from the verified sessions.
pub fn exact_metrics(reference: &[Exact], out: &mut Outcome) {
    let timing = TimingParams::ddr3_1600_11();
    let rows: u64 = reference.iter().map(|e| e.ops).sum();
    let rows = rows.max(1) as f64;
    let dram_ns: f64 = reference
        .iter()
        .map(|e| timing.ns(e.max_finish_cycle))
        .sum();
    let energy: f64 = reference
        .iter()
        .map(|e| f64::from_bits(e.energy_bits))
        .sum();
    let wire: u64 = reference.iter().map(|e| e.wire_bytes).sum();
    out.metric("dram_ns_per_row", dram_ns / rows, "sim_ns");
    out.metric("energy_nj_per_row", energy / rows, "nJ");
    out.metric("wire_bytes_per_row", wire as f64 / rows, "bytes");
}

/// Host-time figures gathered over the measured rounds.
#[derive(Debug, Default)]
pub struct Serving {
    /// Per round: rows/s summed over the round's sessions.
    pub rows_per_s: Vec<f64>,
    /// Per round: the slowest session's rows/s.
    pub tenant_min: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Every batch round trip of every measured session, in seconds.
    pub batch_s: Vec<f64>,
}

impl Serving {
    pub fn add(&mut self, round: &Round) {
        let ok = round.sessions.iter().all(|s| s.result.is_ok());
        if !ok {
            return;
        }
        let rates = round.sessions.iter().map(|s| s.rows_per_s);
        self.rows_per_s.push(rates.clone().sum());
        self.tenant_min.push(rates.fold(f64::INFINITY, f64::min));
        self.setup_s.extend(round.setup_s);
        for s in &round.sessions {
            self.batch_s.extend(&s.batch_s);
        }
    }
}

/// `{"median": .., "q1": .., "q3": .., "n": ..}` for the report.
pub fn spread_json(values: &[f64]) -> String {
    if values.is_empty() {
        return "null".to_string();
    }
    let [q1, _, q3] = quartiles(values);
    format!(
        "{{\"median\":{},\"q1\":{q1},\"q3\":{q3},\"n\":{}}}",
        median(values),
        values.len()
    )
}

/// Reads this process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The end-to-end run: one verified warm-up round, then rounds until
/// `budget` has elapsed (at least [`MIN_ROUNDS`]), tracing off.
pub fn end_to_end(workload: &Workload, budget: Duration, socket: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut checker = Checker::new(workload);
    let mut serving = Serving::default();
    // Memory is read after a fixed amount of work, the inputs and one
    // served round, and before the reference replay the check runs.
    // Later rounds only add allocator fragmentation that varies with
    // thread-to-arena luck and with how many rounds fit in the budget.
    let mut peak_rss = None;
    match round(workload, socket, false) {
        Ok(warm) => {
            peak_rss = peak_rss_mib();
            checker.check(workload, &warm, &mut out);
        }
        Err(e) => out.errors.push(format!("warm-up round: {e}")),
    }
    let started = Instant::now();
    let mut rounds = 0;
    while out.errors.is_empty() && (rounds < MIN_ROUNDS || started.elapsed() < budget) {
        match round(workload, socket, false) {
            Ok(r) => {
                checker.check(workload, &r, &mut out);
                serving.add(&r);
            }
            Err(e) => out.errors.push(format!("round {rounds}: {e}")),
        }
        rounds += 1;
    }
    if !out.errors.is_empty() {
        return out;
    }
    let Some(p99) = tail(&serving.batch_s, 99.0) else {
        out.errors
            .push("too few batches for a tail percentile".to_string());
        return out;
    };
    out.metric("rows_per_s", median(&serving.rows_per_s), "rows/s");
    out.metric("batch_p50_ms", median(&serving.batch_s) * 1e3, "ms");
    out.metric(
        "tenant_rows_per_s_min",
        median(&serving.tenant_min),
        "rows/s",
    );
    out.metric("setup_s", median(&serving.setup_s), "s");
    exact_metrics(&checker.reference(), &mut out);
    match peak_rss {
        Some(mib) => out.metric("peak_rss_mib", mib, "MiB"),
        None => out.errors.push("cannot read the peak RSS".to_string()),
    }
    if let Some(mib) = peak_rss_mib() {
        out.note("peak_rss_end_mib", mib.to_string());
    }
    out.note("rounds", rounds.to_string());
    out.note("rows_per_s", spread_json(&serving.rows_per_s));
    out.note("setup_s", spread_json(&serving.setup_s));
    out.note("batch_p99_ms", (p99.value * 1e3).to_string());
    out.note(
        "batch_p99",
        format!(
            "{{\"percentile\":{},\"beyond\":{},\"samples\":{}}}",
            p99.percentile,
            p99.beyond,
            serving.batch_s.len()
        ),
    );
    let profile: Vec<String> = [50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9]
        .iter()
        .filter_map(|&p| tail(&serving.batch_s, p))
        .map(|t| format!("\"p{}\":{}", t.percentile, t.value * 1e3))
        .collect();
    out.note("batch_ms", format!("{{{}}}", profile.join(",")));
    out
}
