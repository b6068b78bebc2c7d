//! The traced run: tracing overhead on the real server, then the
//! per-layer waterfall — the same ops and batch discipline pushed
//! through cumulative entry points of each layer, each call wrapped in a
//! span from this file.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use codic_core::device::{CodicDevice, DeviceConfig};
use codic_core::executor::block_on;
use codic_core::fault::{HealthPolicy, RetryPolicy};
use codic_core::fleet::{FleetConfig, FleetHandle, TenantId};
use codic_core::ops::CodicOp;
use codic_core::pool::DevicePool;
use codic_core::DataPlane;
use codic_dram::{MemRequest, MemStats, MemoryController, ReqKind};
use codic_power::accounting::row_op_busy_cycles;
use codic_server::client::replay_stream;
use codic_server::proto::{
    completion_payload, read_frame_crc, write_frame_in, Fnv64, Frame, SessionParams,
};
use codic_server::server::{
    serve_session, ReplayCompletion, ReplayEngine, ServerConfig, SessionEnd,
};

use crate::alloc::allocations;
use crate::measure::{spread_json, Checker, Outcome, Serving, MIN_ROUNDS};
use crate::serve::round;
use crate::spans::{now_ns, Span, Spans};
use crate::stats::{median, tail};
use crate::workload::{Session, Workload};

/// Share of the time budget spent on the tracing-overhead rounds; the
/// rest goes to the waterfall.
const OVERHEAD_SHARE: f64 = 0.4;
/// Fewest waterfall passes a run reports medians over.
const MIN_PASSES: usize = 3;

/// The waterfall's stages, in pass order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Controller,
    Device,
    Data,
    Pool,
    EngineInline,
    EngineWorkers,
    EngineFleet,
    FleetSolo,
    FleetPair,
    Session,
    Client,
    ProtoDecode,
    ProtoEncode,
    Socket,
}

const STAGES: [Stage; 14] = [
    Stage::Controller,
    Stage::Device,
    Stage::Data,
    Stage::Pool,
    Stage::EngineInline,
    Stage::EngineWorkers,
    Stage::EngineFleet,
    Stage::FleetSolo,
    Stage::FleetPair,
    Stage::Session,
    Stage::Client,
    Stage::ProtoDecode,
    Stage::ProtoEncode,
    Stage::Socket,
];

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Controller => "stage.dram.controller",
            Stage::Device => "stage.core.device",
            Stage::Data => "stage.core.data",
            Stage::Pool => "stage.core.pool",
            Stage::EngineInline => "stage.server.engine.inline",
            Stage::EngineWorkers => "stage.server.engine.workers",
            Stage::EngineFleet => "stage.server.engine.fleet",
            Stage::FleetSolo => "stage.core.fleet.solo",
            Stage::FleetPair => "stage.core.fleet.pair",
            Stage::Session => "stage.server.session",
            Stage::Client => "stage.server.client",
            Stage::ProtoDecode => "stage.server.proto.decode",
            Stage::ProtoEncode => "stage.server.proto.encode",
            Stage::Socket => "stage.server.transport",
        }
    }
}

/// One pass of one stage: the host time of the layer calls it measures
/// and the allocations made meanwhile.
#[derive(Debug, Clone, Copy, Default)]
struct Pass {
    ns: u64,
    allocs: u64,
}

/// Everything the stages share: the session under test, its negotiated
/// parameters, and the recorded wire bytes.
struct Ctx<'a> {
    workload: &'a Workload,
    session: &'a Session,
    /// The co-tenant of the two-tenant fleet stage.
    twin: &'a Session,
    params: SessionParams,
    device: DeviceConfig,
    shards: usize,
    bound: usize,
    /// Routes ops exactly as the serving pool does.
    router: DevicePool,
    /// The verified session checksum every stage must reproduce.
    checksum: u64,
    /// `Hello`, every `Batch`, `Bye`: what the client sends.
    request: Vec<u8>,
    /// What the server answered to `request`, recorded by the first
    /// session-stage pass.
    response: Vec<u8>,
    /// Decoded `response`, kept from the last decode pass.
    frames: Vec<Frame>,
    /// Exact counters of the served controller timeline.
    mem: MemStats,
    /// `DevicePool::step` calls made for backpressure, per pass.
    pool_steps: u64,
}

/// Times one call into a layer and records its span.
fn call<R>(
    spans: &mut Spans,
    name: &'static str,
    parent: usize,
    batch: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    let start = now_ns();
    let r = f();
    spans.push(Span {
        name,
        start,
        end: now_ns(),
        parent: Some(parent),
        batch,
    });
    r
}

/// The session checksum over completions in emission order — the value
/// the server's `Summary` carries.
fn checksum_of(completions: &[ReplayCompletion]) -> u64 {
    let mut hash = Fnv64::new();
    let mut payload = Vec::with_capacity(64);
    for c in completions {
        payload.clear();
        completion_payload(&c.to_wire(), &mut payload);
        hash.update(&payload);
    }
    hash.value()
}

/// The controller request `op` lowers to, as the device lowers it.
fn lower(op: CodicOp, ctx: &Ctx) -> MemRequest {
    let kind = match op {
        CodicOp::Read { .. } => ReqKind::Read,
        CodicOp::Write { .. } => ReqKind::Write,
        _ => {
            let kind = op.row_op_kind().expect("non-data ops are row ops");
            ReqKind::RowOp {
                op: kind,
                busy_cycles: row_op_busy_cycles(kind, &ctx.device.timing),
            }
        }
    };
    MemRequest::new(op.row_addr(), kind)
}

fn drained(mc: &mut MemoryController) -> usize {
    let mut n = 0;
    mc.drain_completions(|_| n += 1);
    n
}

/// Raw controllers, one per shard: push, step while over the window,
/// run to idle.
fn controller(ctx: &Ctx, spans: &mut Spans, root: usize) -> Result<(), String> {
    let mut mcs: Vec<MemoryController> = (0..ctx.shards)
        .map(|_| {
            let mut mc = MemoryController::new(ctx.device.geometry, ctx.device.timing);
            mc.set_refresh_enabled(ctx.device.refresh_enabled);
            mc
        })
        .collect();
    let mut outstanding = 0usize;
    for (k, chunk) in ctx.session.ops.chunks(ctx.session.batch).enumerate() {
        call(spans, "dram.controller.batch", root, Some(k as u64), || {
            for &op in chunk {
                let mc = &mut mcs[ctx.router.shard_of(op)];
                let request = lower(op, ctx);
                while mc.push(request).is_err() {
                    mc.step_event();
                    outstanding -= drained(mc);
                }
                outstanding += 1;
            }
            while outstanding > ctx.bound {
                let mut progressed = false;
                for mc in &mut mcs {
                    progressed |= !mc.is_idle() && mc.step_event();
                    outstanding -= drained(mc);
                }
                if !progressed {
                    break;
                }
            }
        });
    }
    call(spans, "dram.controller.drain", root, None, || {
        for mc in &mut mcs {
            mc.run_to_idle();
            outstanding -= drained(mc);
        }
    });
    match outstanding {
        0 => Ok(()),
        n => Err(format!("controller stage left {n} requests unfinished")),
    }
}

/// One `CodicDevice` per shard: `submit_async`, step while over the
/// window, take what resolved; at the end run to idle and `block_on`
/// every remaining future.
fn device(ctx: &Ctx, spans: &mut Spans, root: usize) -> Result<(), String> {
    let mut devices: Vec<CodicDevice> = (0..ctx.shards)
        .map(|_| CodicDevice::new(ctx.device.clone()))
        .collect();
    let mut pending = Vec::with_capacity(2 * ctx.bound);
    for (k, chunk) in ctx.session.ops.chunks(ctx.session.batch).enumerate() {
        call(spans, "core.device.batch", root, Some(k as u64), || {
            for &op in chunk {
                let shard = ctx.router.shard_of(op);
                pending.push(devices[shard].submit_async(op).map_err(|e| e.to_string())?);
            }
            while devices.iter().map(CodicDevice::outstanding).sum::<usize>() > ctx.bound {
                let mut progressed = false;
                for d in &mut devices {
                    progressed |= d.step();
                }
                if !progressed {
                    break;
                }
            }
            pending.retain_mut(|f| f.try_take().map(black_box).is_none());
            Ok::<(), String>(())
        })?;
    }
    call(spans, "core.device.drain", root, None, || {
        for d in &mut devices {
            d.run_to_idle();
        }
        for future in pending {
            black_box(block_on(future));
        }
    });
    Ok(())
}

/// `DataPlane::apply` on the session's compute ops.
fn data(ctx: &Ctx, spans: &mut Spans, root: usize) {
    let mut plane = DataPlane::new(ctx.device.compute_range());
    call(spans, "core.data.apply", root, None, || {
        for &op in ctx.session.ops.iter().filter(|op| op.is_compute()) {
            black_box(plane.apply(op));
        }
    });
}

/// The pool's serving discipline: routed async submit, step while over
/// the window, health check, drain what resolved; drive at the end.
fn pool(ctx: &mut Ctx, spans: &mut Spans, root: usize) -> Result<(), String> {
    let mut pool = DevicePool::new(ctx.shards, &ctx.device);
    pool.set_health_policy(HealthPolicy::default());
    let mut pending = Vec::with_capacity(2 * ctx.bound);
    let mut steps = 0u64;
    let mut resolved = 0usize;
    for (k, chunk) in ctx.session.ops.chunks(ctx.session.batch).enumerate() {
        call(spans, "core.pool.batch", root, Some(k as u64), || {
            pending.extend(
                pool.submit_all_async_routed(chunk)
                    .map_err(|e| e.to_string())?,
            );
            while pool.outstanding() > ctx.bound {
                steps += 1;
                if !pool.step() {
                    break;
                }
            }
            pool.check_health();
            pending.retain_mut(|(_, f): &mut (usize, _)| {
                let taken = f.try_take().map(black_box).is_some();
                resolved += usize::from(taken);
                !taken
            });
            Ok::<(), String>(())
        })?;
    }
    call(spans, "core.pool.drain", root, None, || {
        pool.drive();
        pool.check_health();
        for (_, mut f) in pending.drain(..) {
            resolved += usize::from(f.try_take().is_some());
        }
    });
    if resolved != ctx.session.ops.len() {
        return Err(format!(
            "pool stage resolved {resolved} of {} ops",
            ctx.session.ops.len()
        ));
    }
    let mut mem = MemStats::default();
    for shard in 0..pool.shards() {
        mem.merge(pool.device(shard).stats());
    }
    ctx.mem = mem;
    ctx.pool_steps = steps;
    Ok(())
}

/// `ReplayEngine::submit_batch` per batch and `flush`, checked against
/// the verified session checksum.
fn engine(ctx: &Ctx, spans: &mut Spans, root: usize, stage: Stage) -> Result<(), String> {
    let (batch_name, flush_name) = match stage {
        Stage::EngineInline => (
            "server.engine.inline.submit_batch",
            "server.engine.inline.flush",
        ),
        Stage::EngineWorkers => (
            "server.engine.workers.submit_batch",
            "server.engine.workers.flush",
        ),
        _ => (
            "server.engine.fleet.submit_batch",
            "server.engine.fleet.flush",
        ),
    };
    let fleet = (stage == Stage::EngineFleet).then(|| {
        FleetHandle::new(
            FleetConfig::new(1, ctx.shards, ctx.device.clone())
                .with_quota(ctx.bound)
                .with_health(HealthPolicy::default()),
        )
    });
    let mut engine = match &fleet {
        Some(fleet) => ReplayEngine::for_fleet(&ctx.params, fleet)
            .ok_or("the one-slot fleet refused its only tenant")?,
        None => ReplayEngine::with_options(
            &ctx.params,
            None,
            RetryPolicy::default(),
            HealthPolicy::default(),
            stage == Stage::EngineWorkers,
        ),
    };
    let mut completions = Vec::with_capacity(ctx.session.ops.len());
    for (k, chunk) in ctx.session.ops.chunks(ctx.session.batch).enumerate() {
        let drained = call(spans, batch_name, root, Some(k as u64), || {
            engine.submit_batch(chunk)
        })
        .map_err(|e| e.to_string())?;
        completions.extend(drained);
    }
    completions.extend(call(spans, flush_name, root, None, || engine.flush()));
    drop(engine);
    if checksum_of(&completions) != ctx.checksum {
        return Err(format!("{} diverged from the served stream", stage.name()));
    }
    Ok(())
}

/// One tenant's batches through `FleetHandle::submit`; returns the
/// tenant's spans (roots are the submit calls).
fn fleet_tenant(
    fleet: &FleetHandle,
    id: TenantId,
    session: &Session,
    start: &Barrier,
) -> Result<Spans, String> {
    let mut spans = Spans::default();
    start.wait();
    let mut events = 0usize;
    for (k, chunk) in session.ops.chunks(session.batch).enumerate() {
        let started = now_ns();
        let (_, drained) = fleet.submit(id, chunk).map_err(|e| e.to_string())?;
        spans.push(Span {
            name: "core.fleet.submit",
            start: started,
            end: now_ns(),
            parent: None,
            batch: Some(k as u64),
        });
        events += drained.len();
    }
    let (_, tail) = fleet.flush(id);
    fleet.release(id);
    if events + tail.len() != session.ops.len() {
        return Err("a fleet tenant lost or duplicated events".to_string());
    }
    Ok(spans)
}

/// Two-slot fleet, one tenant thread (`pair = false`) or two.
fn fleet(ctx: &Ctx, spans: &mut Spans, root: usize, pair: bool) -> Result<(), String> {
    let fleet = FleetHandle::new(
        FleetConfig::new(2, ctx.shards, ctx.device.clone())
            .with_quota(ctx.bound)
            .with_health(HealthPolicy::default()),
    );
    let tenants: Vec<&Session> = if pair {
        vec![ctx.session, ctx.twin]
    } else {
        vec![ctx.session]
    };
    let ids = tenants
        .iter()
        .map(|_| fleet.acquire_with(1, ctx.bound))
        .collect::<Option<Vec<TenantId>>>()
        .ok_or("no free fleet slot for a tenant")?;
    let start = Barrier::new(tenants.len());
    let logs = std::thread::scope(|scope| {
        let threads: Vec<_> = tenants
            .iter()
            .zip(ids)
            .map(|(session, id)| {
                let (fleet, start) = (&fleet, &start);
                scope.spawn(move || fleet_tenant(fleet, id, session, start))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("fleet tenant thread panicked"))
            .collect::<Vec<_>>()
    });
    for log in logs {
        spans.adopt(log?, Some(root));
    }
    Ok(())
}

/// `serve_session` over the in-memory request bytes into a `Vec`.
fn session(ctx: &mut Ctx, spans: &mut Spans, root: usize) -> Result<(), String> {
    let mut sink = Vec::with_capacity(ctx.response.len().max(1 << 20));
    let end = call(spans, "server.session.serve", root, None, || {
        serve_session(&mut ctx.request.as_slice(), &mut sink, &ctx.workload.config)
    })
    .map_err(|e| e.to_string())?;
    if !matches!(end, SessionEnd::Bye) {
        return Err(format!("in-memory session ended with {end:?}"));
    }
    if ctx.response.is_empty() {
        ctx.response = sink;
    } else if ctx.response != sink {
        return Err("in-memory session answered differently on a repeat".to_string());
    }
    Ok(())
}

/// `replay_stream` over the recorded server bytes, writing to a sink.
fn client(ctx: &Ctx, spans: &mut Spans, root: usize) -> Result<(), String> {
    let report = call(spans, "server.client.replay_stream", root, None, || {
        replay_stream(
            &mut ctx.response.as_slice(),
            &mut io::sink(),
            &ctx.session.hello,
            &ctx.session.ops,
            ctx.session.batch,
        )
    })
    .map_err(|e| e.to_string())?;
    if report.checksum != ctx.checksum {
        return Err("client absorb of the recorded stream diverged".to_string());
    }
    Ok(())
}

fn decode(ctx: &mut Ctx, spans: &mut Spans, root: usize) -> Result<(), String> {
    let frames = call(spans, "server.proto.decode", root, None, || {
        let mut bytes = ctx.response.as_slice();
        let mut frames = Vec::new();
        while !bytes.is_empty() {
            frames.push(read_frame_crc(&mut bytes)?);
        }
        Ok::<_, codic_server::proto::ProtoError>(frames)
    })
    .map_err(|e| e.to_string())?;
    ctx.frames = frames;
    Ok(())
}

fn encode(ctx: &Ctx, spans: &mut Spans, root: usize) -> Result<(), String> {
    let mut out = Vec::with_capacity(ctx.response.len());
    call(spans, "server.proto.encode", root, None, || {
        for frame in &ctx.frames {
            write_frame_in(&mut out, frame, true)?;
        }
        Ok::<(), io::Error>(())
    })
    .map_err(|e| e.to_string())?;
    if out != ctx.response {
        return Err("re-encoded frames differ from the served bytes".to_string());
    }
    Ok(())
}

/// One session over the workload's transport against a private-pool
/// server, the client call timed whole; its spans go under the stage.
fn socket(ctx: &Ctx, spans: &mut Spans, root: usize, socket: &Path) -> Result<u64, String> {
    let single = Workload {
        config: ServerConfig {
            fleet_slots: 0,
            ..ctx.workload.config.clone()
        },
        sessions: vec![ctx.session.clone()],
        ..ctx.workload.clone()
    };
    let mut served = round(&single, socket, true).map_err(|e| e.to_string())?;
    let run = served.sessions.pop().expect("one session per round");
    let report = run.result.map_err(|e| e.to_string())?;
    if report.checksum != ctx.checksum {
        return Err("socket session diverged from the verified stream".to_string());
    }
    spans.adopt(run.spans, Some(root));
    Ok((run.host_s * 1e9) as u64)
}

fn frame_events(frames: &[Frame]) -> usize {
    frames
        .iter()
        .map(|f| match f {
            Frame::Events(events) => events.len(),
            _ => 0,
        })
        .sum()
}

/// Builds the framed request stream a client sends for `session`.
fn request_bytes(session: &Session) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    write_frame_in(&mut out, &Frame::Hello(session.hello), true)?;
    for chunk in session.ops.chunks(session.batch) {
        write_frame_in(&mut out, &Frame::Batch(chunk.to_vec()), true)?;
    }
    write_frame_in(&mut out, &Frame::Bye, true)?;
    Ok(out)
}

fn run_stage(
    stage: Stage,
    ctx: &mut Ctx,
    spans: &mut Spans,
    socket_path: &Path,
) -> Result<Pass, String> {
    let allocs = allocations();
    let start = now_ns();
    let root = spans.push(Span {
        name: stage.name(),
        start,
        end: start,
        parent: None,
        batch: None,
    });
    let mut socket_ns = None;
    match stage {
        Stage::Controller => controller(ctx, spans, root)?,
        Stage::Device => device(ctx, spans, root)?,
        Stage::Data => data(ctx, spans, root),
        Stage::Pool => pool(ctx, spans, root)?,
        Stage::EngineInline | Stage::EngineWorkers | Stage::EngineFleet => {
            engine(ctx, spans, root, stage)?;
        }
        Stage::FleetSolo => fleet(ctx, spans, root, false)?,
        Stage::FleetPair => fleet(ctx, spans, root, true)?,
        Stage::Session => session(ctx, spans, root)?,
        Stage::Client => client(ctx, spans, root)?,
        Stage::ProtoDecode => decode(ctx, spans, root)?,
        Stage::ProtoEncode => encode(ctx, spans, root)?,
        Stage::Socket => socket_ns = Some(socket(ctx, spans, root, socket_path)?),
    }
    let end = now_ns();
    spans.close(root, end);
    let allocs = allocations() - allocs;
    let ns = match stage {
        // Only the submit calls: flush, slot churn and thread start-up
        // are not what the solo/pair difference is about.
        Stage::FleetSolo | Stage::FleetPair => spans.child_ns(root, "core.fleet.submit"),
        Stage::Socket => socket_ns.unwrap_or(0),
        _ => end - start,
    };
    Ok(Pass { ns, allocs })
}

/// Medians of the passes of one stage.
fn med(passes: &[Pass]) -> (f64, f64) {
    let ns: Vec<f64> = passes.iter().map(|p| p.ns as f64).collect();
    let allocs: Vec<f64> = passes.iter().map(|p| p.allocs as f64).collect();
    (median(&ns), median(&allocs))
}

/// The traced run: overhead rounds, then waterfall passes until the
/// budget is spent. Spans are written to `log` at the end.
pub fn traced(workload: &Workload, budget: Duration, socket_path: &Path, log: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::default();
    let mut checker = Checker::new(workload);

    // Tracing overhead: untraced and traced rounds, alternating.
    let started = Instant::now();
    match round(workload, socket_path, false) {
        Ok(warm) => checker.check(workload, &warm, &mut out),
        Err(e) => out.errors.push(format!("warm-up round: {e}")),
    }
    let overhead_budget = budget.mul_f64(OVERHEAD_SHARE);
    let (mut plain, mut traced) = (Serving::default(), Serving::default());
    let mut rounds = 0;
    while out.errors.is_empty() && (rounds < MIN_ROUNDS || started.elapsed() < overhead_budget) {
        for tracing in [false, true] {
            match round(workload, socket_path, tracing) {
                Ok(mut r) => {
                    checker.check(workload, &r, &mut out);
                    if tracing {
                        traced.add(&r);
                        for s in &mut r.sessions {
                            spans.adopt(std::mem::take(&mut s.spans), None);
                        }
                    } else {
                        plain.add(&r);
                    }
                }
                Err(e) => out.errors.push(format!("overhead round: {e}")),
            }
        }
        rounds += 1;
    }
    if !out.errors.is_empty() {
        return out;
    }
    let ratio = median(&traced.rows_per_s) / median(&plain.rows_per_s);
    let Some(p99) = tail(&plain.batch_s, 99.0) else {
        out.errors
            .push("too few batches for a tail percentile".to_string());
        return out;
    };

    // The waterfall, over the first session (tenant 0 on fleet_pair).
    let session = &workload.sessions[0];
    let params = workload.config.negotiate(&session.hello);
    let device = ServerConfig::device_config(&params);
    let shards = usize::from(params.shards).max(1);
    let request = match request_bytes(session) {
        Ok(bytes) => bytes,
        Err(e) => {
            out.errors.push(format!("cannot frame the request: {e}"));
            return out;
        }
    };
    let mut ctx = Ctx {
        workload,
        session,
        twin: workload.sessions.get(1).unwrap_or(&workload.twin),
        params,
        router: DevicePool::new(shards, &device),
        device,
        shards,
        bound: (params.max_outstanding as usize).max(1),
        checksum: checker.reference()[0].checksum,
        request,
        response: Vec::new(),
        frames: Vec::new(),
        mem: MemStats::default(),
        pool_steps: 0,
    };
    let waterfall_started = Instant::now();
    let waterfall_budget = budget.saturating_sub(started.elapsed());
    let mut passes: Vec<Vec<Pass>> = vec![Vec::new(); STAGES.len()];
    let mut count = 0;
    'passes: while count < MIN_PASSES || waterfall_started.elapsed() < waterfall_budget {
        for (i, &stage) in STAGES.iter().enumerate() {
            match run_stage(stage, &mut ctx, &mut spans, socket_path) {
                Ok(pass) => passes[i].push(pass),
                Err(e) => {
                    out.errors.push(e);
                    break 'passes;
                }
            }
        }
        count += 1;
    }
    if let Err(e) = spans.write_jsonl(log) {
        out.errors
            .push(format!("cannot write {}: {e}", log.display()));
    }
    if !out.errors.is_empty() {
        return out;
    }

    let ops = session.ops.len() as f64;
    let batches = session.ops.len().div_ceil(session.batch) as f64;
    let stage = |s: Stage| med(&passes[STAGES.iter().position(|&x| x == s).expect("listed")]);
    let us = |ns: f64| ns / ops / 1e3;
    let (ctl, ctl_a) = stage(Stage::Controller);
    let (dev, dev_a) = stage(Stage::Device);
    let (data, _) = stage(Stage::Data);
    let (pool, pool_a) = stage(Stage::Pool);
    let (inline, inline_a) = stage(Stage::EngineInline);
    let (workers, _) = stage(Stage::EngineWorkers);
    let (fleet, _) = stage(Stage::EngineFleet);
    let (solo, _) = stage(Stage::FleetSolo);
    let (pair, _) = stage(Stage::FleetPair);
    let (sess, sess_a) = stage(Stage::Session);
    let (client, client_a) = stage(Stage::Client);
    let (decode, _) = stage(Stage::ProtoDecode);
    let (encode, _) = stage(Stage::ProtoEncode);
    let (sock, _) = stage(Stage::Socket);
    let has_compute = session.ops.iter().any(|op| op.is_compute());
    let events = frame_events(&ctx.frames) as f64;
    let pair_ops = ops + ctx.twin.ops.len() as f64;
    let commands = ctx.mem.total_commands() as f64;
    let accesses = (ctx.mem.row_hits + ctx.mem.row_misses).max(1) as f64;

    out.metric("dram.controller.us_per_op", us(ctl), "us");
    out.metric("dram.controller.commands_per_op", commands / ops, "count");
    out.metric(
        "dram.controller.row_hit_rate",
        ctx.mem.row_hits as f64 / accesses,
        "ratio",
    );
    out.metric("core.device.us_per_op", us(dev - ctl), "us");
    out.metric(
        "core.data.us_per_op",
        if has_compute { us(data) } else { 0.0 },
        "us",
    );
    out.metric("core.pool.us_per_op", us(pool - dev), "us");
    out.metric(
        "core.pool.steps_per_batch",
        ctx.pool_steps as f64 / batches,
        "count",
    );
    out.metric("server.engine.inline_us_per_op", us(inline), "us");
    out.metric("server.engine.workers_us_per_op", us(workers), "us");
    out.metric("server.engine.fleet_us_per_op", us(fleet), "us");
    out.metric("core.fleet.submit_us_per_op_solo", us(solo), "us");
    out.metric(
        "core.fleet.submit_us_per_op_pair",
        pair / pair_ops / 1e3,
        "us",
    );
    out.metric("server.session.us_per_op", us(sess - inline), "us");
    out.metric(
        "server.proto.encode_us_per_event",
        encode / events / 1e3,
        "us",
    );
    out.metric(
        "server.proto.decode_us_per_event",
        decode / events / 1e3,
        "us",
    );
    out.metric(
        "server.proto.bytes_per_op",
        (ctx.request.len() + ctx.response.len()) as f64 / ops,
        "bytes",
    );
    out.metric("server.transport.us_per_op", us(sock - sess - client), "us");
    out.metric("server.client.us_per_op", us(client), "us");
    out.metric("core.device.allocs_per_op", (dev_a - ctl_a) / ops, "count");
    out.metric("core.pool.allocs_per_op", (pool_a - dev_a) / ops, "count");
    out.metric(
        "server.session.allocs_per_op",
        (sess_a - inline_a) / ops,
        "count",
    );
    out.metric("server.client.allocs_per_op", client_a / ops, "count");
    out.metric("trace.overhead_ratio", ratio, "ratio");
    out.metric("batch_p99_ms", p99.value * 1e3, "ms");
    out.metric(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.note("overhead_rounds", rounds.to_string());
    out.note("untraced_rows_per_s", spread_json(&plain.rows_per_s));
    out.note("traced_rows_per_s", spread_json(&traced.rows_per_s));
    out.note("waterfall_passes", count.to_string());
    out.note(
        "batch_p99",
        format!(
            "{{\"percentile\":{},\"beyond\":{},\"samples\":{}}}",
            p99.percentile,
            p99.beyond,
            plain.batch_s.len()
        ),
    );
    out.note("spans", format!("\"{}\"", log.display()));
    out
}
