//! Property tests pinning the pipelined [`ShardWorkers`] path to the
//! inline [`DevicePool`] path, bit for bit.
//!
//! The worker refactor's contract is that spreading the shards across
//! threads changes *throughput only*: the same submission sequence,
//! batched the same way under the same backpressure window, emits the
//! identical completion stream — sequence numbers, shards, finish
//! cycles, busy cycles, energy bits, outcomes, attempts, fingerprints —
//! once both sides merge shards by the `(finish_cycle, seq)` total
//! order. This holds under deterministic misfire injection with retry,
//! because per-shard the engines see identical op sequences and
//! identical lockstep step rounds (the documented exception is a clock
//! wedged mid-batch, whose barrier-time re-route is pinned separately
//! by the server's chaos tests).

use codic_core::device::{DeviceConfig, OpCompletion};
use codic_core::executor::OpFuture;
use codic_core::fault::{FaultPlan, RetryPolicy};
use codic_core::ops::{CodicOp, VariantId};
use codic_core::pool::DevicePool;
use codic_core::worker::ShardWorkers;
use codic_dram::geometry::DramGeometry;
use codic_dram::timing::TimingParams;
use proptest::prelude::*;

/// Deterministically picks a typed op (rows kept in-module for a 64 MB
/// device) — row operations of every kind plus plain read/write traffic.
fn arbitrary_op(selector: u8, variant_idx: u8, row: u64) -> CodicOp {
    let row_addr = (row % 4096) * DramGeometry::ROW_BYTES;
    match selector % 6 {
        0 => CodicOp::command(
            VariantId::ALL[usize::from(variant_idx) % VariantId::ALL.len()],
            row_addr,
        ),
        1 => CodicOp::RowCloneZero { row_addr },
        2 => CodicOp::LisaCloneZero { row_addr },
        3 => CodicOp::read(row_addr + 64),
        4 => CodicOp::write(row_addr + 128),
        _ => CodicOp::command(VariantId::DetZero, row_addr),
    }
}

fn config(fault: Option<FaultPlan>, retry: RetryPolicy) -> DeviceConfig {
    let mut config = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
        .with_retry(retry);
    if let Some(plan) = fault {
        config = config.with_faults(plan);
    }
    config
}

/// Everything observable about one emitted completion.
type Emitted = (u64, u16, u64, CodicOp, u32, u64, bool, u8, u64);

fn key(seq: u64, shard: u16, c: &OpCompletion) -> Emitted {
    (
        seq,
        shard,
        c.finish_cycle,
        c.op,
        c.cost.busy_cycles,
        c.cost.energy_nj.to_bits(),
        c.outcome.is_ok(),
        c.attempts,
        c.fingerprint,
    )
}

/// The serving layer's inline engine loop, reduced to its core calls:
/// routed async submission, a step-at-a-time backpressure window, a
/// health check at every batch boundary, and a `(finish_cycle, seq)`
/// merge of whatever drained.
fn inline_run(
    shards: usize,
    config: &DeviceConfig,
    ops: &[CodicOp],
    batch: usize,
    window: usize,
) -> Vec<Emitted> {
    let mut pool = DevicePool::new(shards, config);
    let mut pending: Vec<(u64, u16, OpFuture)> = Vec::new();
    let mut next_seq = 0u64;
    let mut emitted = Vec::with_capacity(ops.len());
    let drain = |pending: &mut Vec<(u64, u16, OpFuture)>| {
        let mut ready = Vec::new();
        pending.retain_mut(|(seq, shard, future)| match future.try_take() {
            Some(completion) => {
                ready.push((*seq, *shard, completion));
                false
            }
            None => true,
        });
        ready.sort_by_key(|(seq, _, c)| (c.finish_cycle, *seq));
        ready
    };
    for chunk in ops.chunks(batch) {
        let routed = pool.submit_all_async_routed(chunk).expect("in range");
        for (shard, future) in routed {
            pending.push((next_seq, shard as u16, future));
            next_seq += 1;
        }
        while pool.outstanding() > window {
            if !pool.step() {
                break;
            }
        }
        pool.check_health();
        emitted.extend(
            drain(&mut pending)
                .iter()
                .map(|(seq, shard, c)| key(*seq, *shard, c)),
        );
    }
    pool.drive();
    pool.check_health();
    emitted.extend(
        drain(&mut pending)
            .iter()
            .map(|(seq, shard, c)| key(*seq, *shard, c)),
    );
    emitted
}

/// The serving layer's worker-mode loop: ring submission, a barrier
/// drain on each side of the lockstep backpressure window, and the same
/// `(finish_cycle, seq)` merge.
fn worker_run(
    shards: usize,
    config: &DeviceConfig,
    ops: &[CodicOp],
    batch: usize,
    window: usize,
) -> Vec<Emitted> {
    let mut workers = ShardWorkers::launch(shards, config);
    let mut next_seq = 0u64;
    let mut emitted = Vec::with_capacity(ops.len());
    let merge = |mut drained: Vec<codic_core::pool::ServedOp>| {
        drained.sort_by_key(|d| (d.completion.finish_cycle, d.seq));
        drained
            .into_iter()
            .map(|d| key(d.seq, d.shard, &d.completion))
            .collect::<Vec<_>>()
    };
    for chunk in ops.chunks(batch) {
        workers.submit_batch(next_seq, chunk).expect("in range");
        next_seq += chunk.len() as u64;
        let mut drained = workers.drain_ready();
        while workers.outstanding() > window {
            if !workers.step_all() {
                break;
            }
        }
        workers.check_health();
        drained.extend(workers.drain_ready());
        emitted.extend(merge(drained));
    }
    let mut drained = workers.flush();
    workers.check_health();
    drained.extend(workers.drain_ready());
    emitted.extend(merge(drained));
    emitted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fault-free: random op sequences under random batch splits and
    /// backpressure windows emit bit-identical streams from the worker
    /// pool and the inline pool.
    #[test]
    fn worker_pool_is_bit_identical_to_inline_pool(
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u64>()), 1..160),
        shards in 1usize..5,
        batch in 1usize..48,
        window in 1usize..96,
    ) {
        let ops: Vec<CodicOp> =
            raw.iter().map(|&(s, v, r)| arbitrary_op(s, v, r)).collect();
        let config = config(None, RetryPolicy::default());
        let inline = inline_run(shards, &config, &ops, batch, window);
        let worker = worker_run(shards, &config, &ops, batch, window);
        prop_assert_eq!(inline.len(), ops.len());
        prop_assert_eq!(inline, worker);
    }

    /// Misfire injection with retry enabled: the derived per-shard fault
    /// plans, attempt counts, and recovered completions replicate
    /// exactly across the thread boundary.
    #[test]
    fn worker_pool_matches_inline_under_misfires_and_retry(
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u64>()), 1..120),
        shards in 1usize..4,
        batch in 1usize..40,
        window in 1usize..64,
        seed in any::<u64>(),
        per_64k in 1u32..16_000,
        attempts in 1u8..4,
    ) {
        let ops: Vec<CodicOp> =
            raw.iter().map(|&(s, v, r)| arbitrary_op(s, v, r)).collect();
        let plan = FaultPlan::new(seed).with_misfires(per_64k);
        let retry = RetryPolicy::attempts(attempts).with_backoff(16, 256);
        let config = config(Some(plan), retry);
        let inline = inline_run(shards, &config, &ops, batch, window);
        let worker = worker_run(shards, &config, &ops, batch, window);
        prop_assert_eq!(inline.len(), ops.len());
        prop_assert_eq!(inline, worker);
    }
}
