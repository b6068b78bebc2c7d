//! `replay-client`: plays a trace file against a replay server and
//! verifies the completion stream.
//!
//! ```text
//! replay-client --trace FILE [--socket PATH | --tcp ADDR | --self-serve]
//!               [--batch N] [--verify]
//!               [--retries N] [--retry-base-ms MS]
//!               [--expect-rows N] [--expect-checksum HEX]
//!               [--expect-failed N]
//!               [--shards N] [--module-mib M] [--max-outstanding K]
//!               [--target-rows-per-sec R] [--compute-rows C]
//!               [--resume-attempts N]
//!               [--chaos-seed S] [--chaos-cut-bytes B]
//!               [--chaos-corrupt-per-64k P] [--chaos-short-io N]
//!               [--chaos-stall-per-64k P]
//! replay-client --generate OPS --out FILE [--rows R] [--seed S]
//! replay-client --generate-bitwise ROUNDS --out FILE [--module-mib M]
//!               [--compute-rows C] [--bits B] [--seed S]
//! ```
//!
//! The chaos flags wrap every connection in the deterministic seeded
//! chaos transport (`codic_server::chaos`): `--chaos-cut-bytes` kills
//! the connection mid-frame after that many transferred bytes,
//! `--chaos-corrupt-per-64k` flips wire bytes at seeded offsets,
//! `--chaos-short-io`/`--chaos-stall-per-64k` fragment and stall I/O.
//! Any chaos flag (or `--resume-attempts`) switches the client to the
//! resumable path: cuts and CRC-detected corruption reconnect and
//! `Resume` the same session, and the final checksum is bit-identical
//! to an uninterrupted run — which is exactly what the CI
//! kill-and-resume smoke pins.
//!
//! `--tcp ADDR` replays over a TCP connection instead of the Unix
//! socket — same protocol, same checksums; it composes with the chaos
//! and resume flags (cuts and corruption are injected into the TCP
//! stream).
//!
//! `--self-serve` spins an in-process server on a temporary socket —
//! the zero-setup smoke mode CI uses; it honors the `replay-server`
//! fault flags (`--fault-seed`, `--misfire-per-64k`,
//! `--stuck-shard`/`--stuck-at`, `--retry-attempts`), which is how the
//! chaos smoke pins the faulted stream, `--workers` (pipelined
//! shard workers on the in-process server), and `--fleet-slots`
//! (shared-fleet serving; it composes with `--workers`). With
//! `--self-serve --tcp 127.0.0.1:0` the
//! in-process server also binds an ephemeral TCP port and the replay
//! runs over it. `--verify` replays the identical
//! batching discipline in process and demands the socket stream be
//! bit-identical (cycles, energy bits, completion order).
//! `--retries`/`--retry-base-ms` retry the initial connect with capped
//! exponential backoff, for clients racing a server still binding.
//! `--expect-rows` / `--expect-checksum` pin the row-operation count
//! and the session checksum, failing the process on a mismatch;
//! `--expect-failed` pins the typed-failure count a fault-armed server
//! must report (chaos smoke mode).
//! `--generate` writes a deterministic mixed trace instead of replaying;
//! `--generate-bitwise` writes the deterministic bulk-bitwise compute
//! workload (planned vector AND/OR/XOR/ADD inside the compute region at
//! the top of the module — replay it with the same `--compute-rows`).
//! `--compute-rows C` asks the session for a C-row compute region; with
//! `--self-serve` it also configures the in-process server, so a shared
//! fleet (whose substrate is fixed at bind) serves the region too.
//!
//! `--shards`, `--module-mib`, `--max-outstanding` and `--compute-rows`
//! fill `Hello` fields of 16 or 32 bits; a value that does not fit is an
//! error exit, never a wrapped cast (0 would silently ask for the
//! server default).
//!
//! On success prints a one-object JSON report to stdout.

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use std::time::Duration;

use codic_server::chaos::{self, ChaosPlan};
use codic_server::cli::{
    arg, arg_u64, deadline_args, fault_plan_args, has_flag, retry_args, wire_arg,
};
use codic_server::client::{
    connect_tcp_with_retry, connect_with_retry, replay_resumable_with, replay_stream,
    replay_with_retry, verify_against_reference, ResumePolicy,
};
use codic_server::proto::{SessionParams, MAX_BATCH_OPS};
use codic_server::server::{ReplayServer, ServerConfig};
use codic_server::trace::{format_trace, generate_bulk_bitwise, generate_mixed, parse_trace};

fn fail(message: &str) -> ExitCode {
    eprintln!("replay-client: {message}");
    ExitCode::FAILURE
}

/// The session parameters the `Hello` proposes, from the command line;
/// a value its wire field cannot hold is an error, not a wrapped cast.
fn hello_args() -> Result<SessionParams, String> {
    Ok(SessionParams {
        shards: wire_arg("--shards")?,
        module_mib: wire_arg("--module-mib")?,
        max_outstanding: wire_arg("--max-outstanding")?,
        target_rows_per_s: wire_arg("--target-rows-per-sec")?,
        compute_rows: wire_arg("--compute-rows")?,
        ..SessionParams::defaults()
    })
}

fn main() -> ExitCode {
    // Trace generation mode.
    if let Some(ops) = arg_u64("--generate") {
        let Some(out) = arg("--out") else {
            return fail("--generate needs --out FILE");
        };
        let rows = arg_u64("--rows").unwrap_or(8192);
        let seed = arg_u64("--seed").unwrap_or(1);
        let trace = format_trace(&generate_mixed(ops as usize, rows, seed));
        let header = format!(
            "# mixed secdealloc/coldboot replay trace: {ops} ops over {rows} rows, seed {seed}\n\
             # generated by: replay-client --generate {ops} --rows {rows} --seed {seed}\n",
        );
        if let Err(e) = std::fs::write(&out, header + &trace) {
            return fail(&format!("cannot write {out}: {e}"));
        }
        eprintln!("replay-client: wrote {ops} ops to {out}");
        return ExitCode::SUCCESS;
    }

    // Bulk-bitwise trace generation mode: the workload lives in the
    // compute region at the top of the module, so the same
    // --module-mib/--compute-rows pair must be passed when replaying it.
    if let Some(rounds) = arg_u64("--generate-bitwise") {
        let Some(out) = arg("--out") else {
            return fail("--generate-bitwise needs --out FILE");
        };
        let module_mib = arg_u64("--module-mib").unwrap_or(64);
        let compute_rows = arg_u64("--compute-rows").unwrap_or(64);
        let bits = arg_u64("--bits").unwrap_or(8) as u32;
        let seed = arg_u64("--seed").unwrap_or(1);
        let total_rows = codic_dram::DramGeometry::module_mib(module_mib).total_rows();
        if compute_rows > total_rows {
            return fail("--compute-rows exceeds the module");
        }
        let base = (total_rows - compute_rows) * codic_dram::DramGeometry::ROW_BYTES;
        let layout_rows = codic_core::simd::SimdLayout::new(base, bits).rows_needed();
        if layout_rows > compute_rows {
            return fail(&format!(
                "{bits}-bit lanes need {layout_rows} rows, region has {compute_rows}"
            ));
        }
        let ops = generate_bulk_bitwise(rounds as usize, base, bits, seed);
        let header = format!(
            "# bulk-bitwise compute trace: {rounds} round(s) of vector and/or/xor/add, \
             {bits}-bit lanes, seed {seed}\n\
             # compute region: top {compute_rows} rows of a {module_mib} MiB module\n\
             # generated by: replay-client --generate-bitwise {rounds} --module-mib \
             {module_mib} --compute-rows {compute_rows} --bits {bits} --seed {seed}\n",
        );
        if let Err(e) = std::fs::write(&out, header + &format_trace(&ops)) {
            return fail(&format!("cannot write {out}: {e}"));
        }
        eprintln!("replay-client: wrote {} compute ops to {out}", ops.len());
        return ExitCode::SUCCESS;
    }

    let Some(trace_path) = arg("--trace") else {
        return fail("--trace FILE is required (or use --generate)");
    };
    let text = match std::fs::read_to_string(&trace_path) {
        Ok(text) => text,
        Err(e) => return fail(&format!("cannot read {trace_path}: {e}")),
    };
    let ops = match parse_trace(&text) {
        Ok(ops) => ops,
        Err(e) => return fail(&e.to_string()),
    };
    let batch = (arg_u64("--batch").unwrap_or(1024).max(1) as usize).min(MAX_BATCH_OPS);
    let hello = match hello_args() {
        Ok(hello) => hello,
        Err(e) => return fail(&e),
    };

    // Chaos / resume mode: any chaos flag (or an explicit
    // --resume-attempts) runs the resumable client over the seeded
    // chaos transport.
    let chaos_plan = {
        let armed = ["--chaos-cut-bytes", "--chaos-corrupt-per-64k"]
            .iter()
            .any(|f| arg_u64(f).is_some());
        armed.then(|| {
            let mut plan = ChaosPlan::new(arg_u64("--chaos-seed").unwrap_or(1));
            if let Some(bytes) = arg_u64("--chaos-cut-bytes") {
                plan = plan.with_cut_after(bytes);
            }
            if let Some(rate) = arg_u64("--chaos-corrupt-per-64k") {
                plan = plan.with_corruption(rate.min(65_536) as u32);
            }
            if let Some(chunk) = arg_u64("--chaos-short-io") {
                plan = plan.with_short_io(chunk as usize);
            }
            if let Some(rate) = arg_u64("--chaos-stall-per-64k") {
                plan = plan.with_stalls(rate.min(65_536) as u32);
            }
            plan
        })
    };
    let resumable = chaos_plan.is_some() || arg_u64("--resume-attempts").is_some();

    // Transport target: a Unix socket path by default, or a TCP address
    // with --tcp. Self-serve spins an in-process server on a private
    // socket (and, with --tcp, an ephemeral TCP port) with the fault
    // flags (if any) armed on its pool. It serves until the replay is
    // done — a resumable session may reconnect several times.
    let mut tcp = arg("--tcp");
    let (socket, serving) = if has_flag("--self-serve") {
        let defaults = ServerConfig::default();
        let mut config = ServerConfig {
            fault: fault_plan_args(),
            retry: retry_args(defaults.retry),
            workers: has_flag("--workers"),
            fleet_slots: arg_u64("--fleet-slots").unwrap_or(0) as usize,
            compute_rows: arg_u64("--compute-rows").unwrap_or(0),
            ..defaults
        };
        deadline_args(&mut config);
        let path = std::env::temp_dir().join(format!("codic-replay-{}.sock", std::process::id()));
        let mut server = match ReplayServer::bind(&path, config) {
            Ok(server) => server,
            Err(e) => return fail(&format!("self-serve bind failed: {e}")),
        };
        if let Some(addr) = &tcp {
            server = match server.with_tcp(addr.as_str()) {
                Ok(server) => server,
                Err(e) => return fail(&format!("self-serve tcp bind failed: {e}")),
            };
            // Rewrite the target so `--tcp 127.0.0.1:0` lands on the
            // ephemeral port the kernel actually assigned.
            tcp = server.tcp_addr().map(|a| a.to_string());
        }
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || {
            let _ = server.serve_forever();
        });
        (path, Some((handle, shutdown)))
    } else if tcp.is_some() {
        (PathBuf::new(), None)
    } else {
        let Some(path) = arg("--socket") else {
            return fail("--socket PATH is required (or use --tcp / --self-serve)");
        };
        (PathBuf::from(path), None)
    };

    let retries = arg_u64("--retries").unwrap_or(0) as u32;
    let retry_base = Duration::from_millis(arg_u64("--retry-base-ms").unwrap_or(50));
    let replayed = if resumable {
        let policy = ResumePolicy {
            max_resumes: arg_u64("--resume-attempts").unwrap_or(8) as u32,
            ..ResumePolicy::default()
        };
        replay_resumable_with(&hello, &ops, batch, policy, |attempt| {
            if let Some(addr) = &tcp {
                let stream = connect_tcp_with_retry(addr.as_str(), retries.max(2), retry_base)?;
                return match chaos_plan {
                    Some(plan) => {
                        let (r, w) = chaos::wrap_tcp(stream, plan.for_attempt(attempt))?;
                        Ok((
                            Box::new(BufReader::new(r)) as Box<dyn Read>,
                            Box::new(BufWriter::new(w)) as Box<dyn Write>,
                        ))
                    }
                    None => Ok((
                        Box::new(BufReader::new(stream.try_clone()?)) as Box<dyn Read>,
                        Box::new(BufWriter::new(stream)) as Box<dyn Write>,
                    )),
                };
            }
            let stream = connect_with_retry(&socket, retries.max(2), retry_base)?;
            match chaos_plan {
                Some(plan) => {
                    let (r, w) = chaos::wrap_unix(stream, plan.for_attempt(attempt))?;
                    Ok((
                        Box::new(BufReader::new(r)) as Box<dyn Read>,
                        Box::new(BufWriter::new(w)) as Box<dyn Write>,
                    ))
                }
                None => Ok((
                    Box::new(BufReader::new(stream.try_clone()?)) as Box<dyn Read>,
                    Box::new(BufWriter::new(stream)) as Box<dyn Write>,
                )),
            }
        })
    } else if let Some(addr) = &tcp {
        match connect_tcp_with_retry(addr.as_str(), retries, retry_base) {
            Ok(stream) => match stream.try_clone() {
                Ok(read_half) => replay_stream(
                    &mut BufReader::new(read_half),
                    &mut BufWriter::new(stream),
                    &hello,
                    &ops,
                    batch,
                ),
                Err(e) => Err(e.into()),
            },
            Err(e) => Err(e.into()),
        }
    } else {
        replay_with_retry(&socket, &hello, &ops, batch, retries, retry_base)
    };
    let report = match replayed {
        Ok(report) => report,
        Err(e) => return fail(&e.to_string()),
    };
    if let Some((handle, shutdown)) = serving {
        shutdown.shutdown();
        let _ = handle.join();
    }

    let verified = if has_flag("--verify") {
        if let Err(e) = verify_against_reference(&report, &ops, batch) {
            return fail(&e.to_string());
        }
        true
    } else {
        false
    };
    if let Some(expect) = arg_u64("--expect-rows") {
        if report.summary.row_ops != expect {
            return fail(&format!(
                "expected {expect} row ops, observed {}",
                report.summary.row_ops
            ));
        }
    }
    if let Some(expect) = arg("--expect-checksum") {
        let expect = expect.trim_start_matches("0x").trim_start_matches("0X");
        match u64::from_str_radix(expect, 16) {
            Ok(expect) if expect == report.checksum => {}
            Ok(expect) => {
                return fail(&format!(
                    "expected checksum {expect:#018x}, observed {:#018x}",
                    report.checksum
                ))
            }
            Err(_) => return fail("--expect-checksum wants a hex u64"),
        }
    }
    if let Some(expect) = arg_u64("--expect-failed") {
        if report.summary.failed != expect {
            return fail(&format!(
                "expected {expect} typed failures, observed {}",
                report.summary.failed
            ));
        }
    }

    let s = &report.summary;
    println!("{{");
    println!("  \"trace\": \"{trace_path}\",");
    println!("  \"ops\": {},", s.ops);
    println!("  \"row_ops\": {},", s.row_ops);
    println!("  \"failed\": {},", s.failed);
    println!("  \"batch\": {batch},");
    println!("  \"shards\": {},", report.params.shards);
    println!("  \"max_outstanding\": {},", report.params.max_outstanding);
    println!("  \"max_finish_cycle\": {},", s.max_finish_cycle);
    println!("  \"energy_mj\": {:.4},", s.total_energy_nj * 1e-6);
    println!("  \"checksum\": \"{:#018x}\",", report.checksum);
    println!("  \"host_s\": {:.4},", report.host_seconds);
    println!("  \"rows_per_s\": {:.0},", report.rows_per_s());
    println!("  \"connections\": {},", report.connections);
    println!("  \"verified\": {verified}");
    println!("}}");
    ExitCode::SUCCESS
}
