//! Pipelined shard workers: the [`DevicePool`](crate::pool::DevicePool)
//! serving path spread across threads, bit-identical to the inline run.
//!
//! [`ShardWorkers`] owns one OS thread per shard. Each thread owns its
//! shard's [`CodicDevice`] outright and is fed through a bounded
//! [`std::sync::mpsc::sync_channel`]; replies come back over a second
//! channel. The coordinator (the tenant's thread) keeps only what
//! routing needs — the block map, the healthy set, and a policy
//! controller for the all-or-nothing pre-flight — so decode, submission,
//! engine stepping, and completion encoding overlap across cores instead
//! of serializing in one thread. A fleet slot built with
//! [`FleetConfig::workers`](crate::fleet::FleetConfig::workers) drives
//! its shards through one of these.
//!
//! # Determinism
//!
//! Worker-driven completions are bit-identical (cycles, energy bits,
//! shard, outcome, attempts, fingerprint) to the same submission
//! sequence run inline through `DevicePool`, because nothing about the
//! engine is actually concurrent per shard:
//!
//! - device state is strictly per-shard, and each worker applies its
//!   work items in FIFO order, so every shard sees exactly the op
//!   sequence the inline pool would have given it;
//! - [`ShardWorkers::step_all`] advances every busy shard by one engine
//!   event in lockstep — the same global round a
//!   [`DevicePool::step`](crate::pool::DevicePool::step) call makes —
//!   so backpressure loops replicate cycle-for-cycle;
//! - workers drain completed futures in per-shard seq order at barrier
//!   points only; when a serving layer merges shards and sorts by
//!   `(finish_cycle, seq)` — a total order, seq is unique — the emitted
//!   stream is independent of which thread resolved what first.
//!
//! The one documented divergence: a shard whose injected clock wedges
//! with a full queue *mid-batch* re-routes its stranded submissions to
//! survivors at the next barrier (the inline path re-routes at the
//! exact op), so re-routed operations may land later and finish at
//! different cycles. Fault-free and misfire/retry schedules — where
//! the clock always advances — are bit-identical, which the worker
//! determinism proptests pin.

use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use crate::device::{CodicDevice, DeviceConfig, OpCompletion};
use crate::error::CodicError;
use crate::executor::OpFuture;
use crate::fault::{FaultCause, FaultStats, HealthPolicy};
use crate::interface::CodicController;
use crate::ops::CodicOp;
use crate::pool::{shard_device, ServedOp, ShardHealth, ShardLease};

/// Work items travelling coordinator → worker.
enum WorkItem {
    /// Submit one pre-flighted operation (policy already checked).
    Submit { seq: u64, op: CodicOp },
    /// Drain newly-completed futures and report status.
    Barrier,
    /// Advance the engine by one event (a lockstep round of the global
    /// backpressure loop); reports status, drains nothing.
    StepOne,
    /// Run the engine to idle, then drain and report.
    RunToIdle,
    /// Drain the shard if its clock still advances, fail what cannot
    /// finish, and report the resulting failures.
    Quarantine {
        /// Why the shard is being condemned.
        cause: FaultCause,
    },
}

/// One worker's state snapshot, refreshed on every reply.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerStatus {
    outstanding: usize,
    stalled: bool,
    stats: FaultStats,
    now: u64,
}

/// Reply to a synchronizing work item (everything but `Submit`
/// produces exactly one).
struct Reply {
    /// Newly-completed operations, in per-shard seq order.
    ready: Vec<(u64, OpCompletion)>,
    /// Operations the device refused because its clock wedged with a
    /// full queue; the coordinator re-routes them to survivors.
    deferred: Vec<(u64, CodicOp)>,
    status: WorkerStatus,
    /// Whether a `StepOne` advanced the engine.
    advanced: bool,
}

struct WorkerLink {
    tx: SyncSender<WorkItem>,
    rx: Receiver<Reply>,
    thread: JoinHandle<()>,
}

impl WorkerLink {
    fn send(&self, item: WorkItem) {
        assert!(
            self.tx.send(item).is_ok(),
            "shard worker thread exited early"
        );
    }

    fn recv(&self) -> Reply {
        self.rx.recv().expect("shard worker thread exited early")
    }
}

/// The pipelined twin of [`DevicePool`](crate::pool::DevicePool): one
/// thread per shard, fed by bounded channels, drained at explicit
/// barriers.
///
/// See the [module docs](self) for the determinism contract.
pub struct ShardWorkers {
    workers: Vec<WorkerLink>,
    /// Last-known per-worker status, refreshed on every reply.
    status: Vec<WorkerStatus>,
    /// Completions gathered outside a drain (an earlier barrier, a run
    /// to idle, quarantine fallout), delivered with the next
    /// [`ShardWorkers::drain_ready`].
    stash: Vec<ServedOp>,
    /// Routing and health state: the pool's own lease machinery, so the
    /// block map, the quarantine re-route and the health rule are the
    /// inline pool's, not a copy of them.
    routes: ShardLease,
    /// Session-side policy twin for the all-or-nothing pre-flight —
    /// every shard runs the identical config, so one controller answers
    /// for all of them.
    policy: CodicController,
}

impl ShardWorkers {
    /// Launches `shards` worker threads, each owning one
    /// [`CodicDevice`] built exactly as
    /// [`DevicePool::new`](crate::pool::DevicePool::new) would build it
    /// (per-shard derived fault plans included).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or a worker thread cannot spawn.
    #[must_use]
    pub fn launch(shards: usize, config: &DeviceConfig) -> Self {
        assert!(shards > 0, "a worker pool needs at least one shard");
        let workers = (0..shards)
            .map(|shard| {
                let device = shard_device(config, shard);
                let (tx, work_rx) = sync_channel::<WorkItem>(1024);
                let (reply_tx, rx) = sync_channel::<Reply>(4);
                let thread = std::thread::Builder::new()
                    .name(format!("codic-shard-{shard}"))
                    .spawn(move || worker_loop(device, &work_rx, &reply_tx))
                    .expect("spawn shard worker");
                WorkerLink { tx, rx, thread }
            })
            .collect();
        ShardWorkers {
            workers,
            status: vec![WorkerStatus::default(); shards],
            stash: Vec::new(),
            routes: ShardLease::new(shards, config),
            policy: CodicController::new(config.safe_range.clone())
                .with_compute_range(config.compute_range()),
        }
    }

    /// Per-shard health states, indexed by shard.
    #[must_use]
    pub fn health(&self) -> &[ShardHealth] {
        self.routes.health()
    }

    /// Replaces the self-quarantine policy (defaults to
    /// [`HealthPolicy::default`]).
    pub fn set_health_policy(&mut self, policy: HealthPolicy) {
        self.routes.set_health_policy(policy);
    }

    /// The shard that owns `op` — the same block-interleaved map, with
    /// the same deterministic quarantine re-route, as
    /// [`DevicePool::shard_of`](crate::pool::DevicePool::shard_of).
    #[must_use]
    pub fn shard_of(&self, op: CodicOp) -> usize {
        self.routes.shard_of(op)
    }

    /// Routes and enqueues a batch, all-or-nothing: every operation is
    /// policy-checked *before* anything is sent to any worker. Ops are
    /// numbered `seq_base..seq_base + ops.len()` in input order; the
    /// shard each landed on is returned per op. Returns immediately
    /// after enqueuing — completions surface at the next barrier.
    ///
    /// # Errors
    ///
    /// Returns the first policy error without enqueuing anything, or
    /// [`CodicError::NoHealthyShards`] when every shard is quarantined.
    pub fn submit_batch(&mut self, seq_base: u64, ops: &[CodicOp]) -> Result<Vec<u16>, CodicError> {
        if self.routes.all_quarantined() && !ops.is_empty() {
            return Err(CodicError::NoHealthyShards);
        }
        for &op in ops {
            self.policy.check_safe_range(op)?;
        }
        let mut shards = Vec::with_capacity(ops.len());
        for (index, &op) in ops.iter().enumerate() {
            let shard = self.shard_of(op);
            self.workers[shard].send(WorkItem::Submit {
                seq: seq_base + index as u64,
                op,
            });
            shards.push(shard as u16);
        }
        Ok(shards)
    }

    /// Barrier: synchronizes with every worker, refreshes the statuses
    /// [`ShardWorkers::outstanding`] reads, and stashes everything newly
    /// completed for the next [`ShardWorkers::drain_ready`]. Drains never
    /// advance a device, so a barrier moves no clock.
    pub fn sync(&mut self) {
        let replies = self.sync_all(|| WorkItem::Barrier);
        self.absorb(replies);
    }

    /// Barrier, then returns everything completed since the last drain
    /// (stashed completions and quarantine fallout included), unsorted —
    /// callers merge shards by sorting on `(finish_cycle, seq)`.
    pub fn drain_ready(&mut self) -> Vec<ServedOp> {
        self.sync();
        std::mem::take(&mut self.stash)
    }

    /// Advances every busy shard by one engine event, in lockstep — one
    /// global round of
    /// [`DevicePool::step`](crate::pool::DevicePool::step). Returns
    /// `false` when no shard could advance.
    pub fn step_all(&mut self) -> bool {
        let replies = self.sync_all(|| WorkItem::StepOne);
        replies.iter().any(|reply| reply.advanced)
    }

    /// Runs every shard to idle, stashing what completed for the next
    /// [`ShardWorkers::drain_ready`].
    pub fn run_to_idle(&mut self) {
        let replies = self.sync_all(|| WorkItem::RunToIdle);
        self.absorb(replies);
    }

    /// Runs every shard to idle and drains — the worker-mode flush.
    /// Returns completions unsorted, like
    /// [`ShardWorkers::drain_ready`].
    pub fn flush(&mut self) -> Vec<ServedOp> {
        self.run_to_idle();
        std::mem::take(&mut self.stash)
    }

    /// Applies the health policy to the statuses gathered at the last
    /// barrier/step — the same rules, at the same loop points, as
    /// [`DevicePool::check_health`](crate::pool::DevicePool::check_health).
    /// Quarantine fallout (typed failures) lands in the stash for the
    /// next drain. Returns the number of shards newly quarantined.
    pub fn check_health(&mut self) -> usize {
        let mut condemned = 0;
        for shard in 0..self.workers.len() {
            let status = self.status[shard];
            if let Some(cause) = self.routes.verdict(shard, status.stalled, status.stats) {
                self.quarantine(shard, cause);
                condemned += 1;
            }
        }
        condemned
    }

    /// Quarantines `shard` exactly as the inline pool would: the worker
    /// drains what its clock can still finish, fails the rest with
    /// `cause`, and the shard leaves the routing table. The resulting
    /// failures surface with the next drain. Quarantining an
    /// already-quarantined shard is a no-op returning 0.
    pub fn quarantine(&mut self, shard: usize, cause: FaultCause) -> usize {
        if !self.routes.health()[shard].is_healthy() {
            return 0;
        }
        self.workers[shard].send(WorkItem::Quarantine { cause });
        let reply = self.workers[shard].recv();
        self.status[shard] = reply.status;
        let failed = reply.ready.len();
        self.stash.extend(tag(shard, reply.ready));
        self.routes.mark_quarantined(shard, cause);
        self.reroute_deferred(reply.deferred);
        failed
    }

    /// Total operations in flight across all shards, as of the last
    /// barrier or step — the backpressure signal. Every backpressure
    /// loop round refreshes it, so it is exact at the points it gates.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.status.iter().map(|s| s.outstanding).sum()
    }

    /// The most advanced shard clock, as of the last barrier or step.
    #[must_use]
    pub fn now_max(&self) -> u64 {
        self.status.iter().map(|s| s.now).max().unwrap_or(0)
    }

    /// Sends `item()` to every worker first, then collects every reply
    /// — all shards work concurrently instead of round-robin blocking.
    fn sync_all(&mut self, item: impl Fn() -> WorkItem) -> Vec<Reply> {
        for worker in &self.workers {
            worker.send(item());
        }
        let replies: Vec<Reply> = self.workers.iter().map(WorkerLink::recv).collect();
        for (shard, reply) in replies.iter().enumerate() {
            self.status[shard] = reply.status;
        }
        replies
    }

    /// Stashes a round of replies and re-routes what they deferred.
    fn absorb(&mut self, replies: Vec<Reply>) {
        let mut deferred = Vec::new();
        for (shard, reply) in replies.into_iter().enumerate() {
            self.stash.extend(tag(shard, reply.ready));
            deferred.extend(reply.deferred);
        }
        self.reroute_deferred(deferred);
    }

    /// Re-routes operations a wedged shard could not accept. The shard
    /// that deferred them is condemned (it reported `DeviceStalled`),
    /// then each op re-routes through the updated healthy set — the
    /// barrier-time twin of the inline pool's at-the-op re-route. With
    /// no survivors left the ops are dropped, matching the inline
    /// path's dropped futures when a whole batch loses its pool.
    fn reroute_deferred(&mut self, deferred: Vec<(u64, CodicOp)>) {
        if deferred.is_empty() {
            return;
        }
        for shard in 0..self.workers.len() {
            if self.status[shard].stalled {
                self.quarantine(shard, FaultCause::ClockStuck);
            }
        }
        if self.routes.all_quarantined() {
            return;
        }
        for (seq, op) in deferred {
            let shard = self.shard_of(op);
            self.workers[shard].send(WorkItem::Submit { seq, op });
        }
    }

    /// The worker threads' ids, in shard order.
    #[cfg(test)]
    pub(crate) fn thread_ids(&self) -> Vec<std::thread::ThreadId> {
        self.workers
            .iter()
            .map(|w| w.thread.thread().id())
            .collect()
    }
}

/// Every worker thread a drop has joined, so tests can check that a
/// rebuilt fleet slot's old threads are gone.
#[cfg(test)]
pub(crate) static JOINED: std::sync::Mutex<Vec<std::thread::ThreadId>> =
    std::sync::Mutex::new(Vec::new());

impl Drop for ShardWorkers {
    /// Closes every channel, which ends each worker loop once it has
    /// applied what was already queued, then joins the threads. A
    /// worker that panicked has already surfaced as the coordinator's
    /// "exited early" panic, so its join result is not re-raised here.
    fn drop(&mut self) {
        let threads: Vec<JoinHandle<()>> = self.workers.drain(..).map(|w| w.thread).collect();
        for thread in threads {
            #[cfg(test)]
            let id = thread.thread().id();
            let _ = thread.join();
            #[cfg(test)]
            JOINED.lock().expect("joined ids").push(id);
        }
    }
}

/// Tags a worker's drained `(seq, completion)` pairs with its shard.
fn tag(shard: usize, ready: Vec<(u64, OpCompletion)>) -> impl Iterator<Item = ServedOp> {
    ready.into_iter().map(move |(seq, completion)| ServedOp {
        seq,
        shard: shard as u16,
        completion,
    })
}

/// The worker thread: applies work items in FIFO order against its own
/// device; never touches the device between items, so the engine
/// advances only when the coordinator says so (the determinism rule).
/// Returns once either channel is closed.
fn worker_loop(mut device: CodicDevice, rx: &Receiver<WorkItem>, tx: &SyncSender<Reply>) {
    // In-flight futures in submission (= seq) order; drains scan from
    // the front so `ready` is always in per-shard seq order.
    let mut pending: VecDeque<(u64, OpFuture)> = VecDeque::new();
    // Ops refused by a wedged device, handed back at the next reply.
    let mut deferred: Vec<(u64, CodicOp)> = Vec::new();
    let status = |device: &CodicDevice| WorkerStatus {
        outstanding: device.outstanding(),
        stalled: device.is_stalled(),
        stats: device.fault_stats(),
        now: device.now(),
    };
    let drain = |pending: &mut VecDeque<(u64, OpFuture)>| {
        let mut ready = Vec::new();
        pending.retain_mut(|(seq, future)| match future.try_take() {
            Some(completion) => {
                ready.push((*seq, completion));
                false
            }
            None => true,
        });
        ready
    };
    while let Ok(item) = rx.recv() {
        let reply = match item {
            WorkItem::Submit { seq, op } => {
                // A wedged device (stuck clock, full queue) defers this
                // and everything after it; the coordinator re-routes.
                if deferred.is_empty() {
                    match device.submit_async_prechecked(op) {
                        Ok(future) => pending.push_back((seq, future)),
                        Err(_) => deferred.push((seq, op)),
                    }
                } else {
                    deferred.push((seq, op));
                }
                continue;
            }
            WorkItem::Barrier => Reply {
                ready: drain(&mut pending),
                deferred: std::mem::take(&mut deferred),
                status: status(&device),
                advanced: false,
            },
            WorkItem::StepOne => {
                let advanced = device.next_event_cycle() != u64::MAX && device.step();
                Reply {
                    ready: Vec::new(),
                    deferred: Vec::new(),
                    status: status(&device),
                    advanced,
                }
            }
            WorkItem::RunToIdle => {
                if device.next_event_cycle() != u64::MAX {
                    device.run_to_idle();
                }
                Reply {
                    ready: drain(&mut pending),
                    deferred: std::mem::take(&mut deferred),
                    status: status(&device),
                    advanced: false,
                }
            }
            WorkItem::Quarantine { cause } => {
                if !device.is_stalled() {
                    device.run_to_idle();
                }
                device.fail_all_pending(cause);
                Reply {
                    ready: drain(&mut pending),
                    deferred: std::mem::take(&mut deferred),
                    status: status(&device),
                    advanced: false,
                }
            }
        };
        if tx.send(reply).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codic_dram::geometry::DramGeometry;
    use codic_dram::timing::TimingParams;

    use crate::fault::{FaultPlan, RetryPolicy};
    use crate::ops::VariantId;
    use crate::pool::DevicePool;

    fn config() -> DeviceConfig {
        DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_refresh(false)
    }

    fn mixed_ops(n: u64) -> Vec<CodicOp> {
        (0..n)
            .map(|i| {
                let addr = (i % 4096) * DramGeometry::ROW_BYTES;
                match i % 4 {
                    0 => CodicOp::command(VariantId::DetZero, addr),
                    1 => CodicOp::read(addr),
                    2 => CodicOp::command(VariantId::Sig, addr),
                    _ => CodicOp::write(addr),
                }
            })
            .collect()
    }

    /// The inline reference: same batches through `DevicePool`, futures
    /// tracked per seq, drained at the end.
    fn inline_reference(shards: usize, config: &DeviceConfig, ops: &[CodicOp]) -> Vec<ServedOp> {
        let mut pool = DevicePool::new(shards, config);
        let mut pending = Vec::new();
        for (chunk_index, chunk) in ops.chunks(64).enumerate() {
            let routed = pool.submit_all_async_routed(chunk).expect("submit");
            for (offset, (shard, future)) in routed.into_iter().enumerate() {
                pending.push(((chunk_index * 64 + offset) as u64, shard as u16, future));
            }
        }
        pool.drive();
        pending
            .into_iter()
            .map(|(seq, shard, mut future)| ServedOp {
                seq,
                shard,
                completion: future.try_take().expect("driven to idle"),
            })
            .collect()
    }

    fn worker_run(shards: usize, config: &DeviceConfig, ops: &[CodicOp]) -> Vec<ServedOp> {
        let mut workers = ShardWorkers::launch(shards, config);
        let mut seq = 0u64;
        let mut out = Vec::new();
        for chunk in ops.chunks(64) {
            workers.submit_batch(seq, chunk).expect("submit");
            seq += chunk.len() as u64;
            out.extend(workers.drain_ready());
        }
        out.extend(workers.flush());
        out
    }

    fn sorted(mut ops: Vec<ServedOp>) -> Vec<ServedOp> {
        ops.sort_by_key(|d| d.seq);
        ops
    }

    #[test]
    fn worker_completions_match_the_inline_pool_bit_for_bit() {
        let config = config();
        let ops = mixed_ops(512);
        let inline = sorted(inline_reference(4, &config, &ops));
        let workers = sorted(worker_run(4, &config, &ops));
        assert_eq!(inline.len(), workers.len());
        for (a, b) in inline.iter().zip(&workers) {
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.shard, b.shard, "seq {}", a.seq);
            assert_eq!(a.completion, b.completion, "seq {}", a.seq);
        }
    }

    #[test]
    fn worker_completions_match_inline_under_misfire_faults() {
        let config = config()
            .with_faults(FaultPlan::new(7).with_misfires(600))
            .with_retry(RetryPolicy {
                max_attempts: 3,
                backoff_cycles: 64,
                backoff_cap_cycles: 4096,
            });
        let ops = mixed_ops(384);
        let inline = sorted(inline_reference(2, &config, &ops));
        let workers = sorted(worker_run(2, &config, &ops));
        assert_eq!(inline.len(), workers.len());
        for (a, b) in inline.iter().zip(&workers) {
            assert_eq!(a.shard, b.shard, "seq {}", a.seq);
            assert_eq!(a.completion, b.completion, "seq {}", a.seq);
        }
    }

    #[test]
    fn worker_drains_preserve_per_shard_seq_order() {
        let mut workers = ShardWorkers::launch(4, &config());
        let ops = mixed_ops(256);
        workers.submit_batch(0, &ops).expect("submit");
        let drained = workers.flush();
        let mut last_per_shard = std::collections::HashMap::new();
        for d in &drained {
            if let Some(&last) = last_per_shard.get(&d.shard) {
                assert!(d.seq > last, "shard {} drained out of seq order", d.shard);
            }
            last_per_shard.insert(d.shard, d.seq);
        }
        assert_eq!(drained.len(), ops.len());
    }

    #[test]
    fn explicit_quarantine_fails_pending_and_reroutes_traffic() {
        let mut workers = ShardWorkers::launch(2, &config());
        let ops = mixed_ops(64);
        workers.submit_batch(0, &ops).expect("submit");
        workers.quarantine(1, FaultCause::Quarantined);
        let drained = workers.flush();
        assert_eq!(drained.len(), ops.len());
        assert!(!workers.health()[1].is_healthy());
        // Everything routed after the quarantine lands on shard 0.
        let shards = workers.submit_batch(64, &ops).expect("submit");
        assert!(shards.iter().all(|&s| s == 0));
        assert_eq!(workers.flush().len(), ops.len());
    }
}
