//! A shared device fleet multiplexing many tenants over disjoint slots
//! of devices.
//!
//! [`FleetHandle`] is the substrate every session is served from:
//! fixed-size *slots*, each owning its own shards, with each tenant
//! holding an exclusive lease over its slot. A private session is the
//! only tenant of a one-slot fleet. Two properties define the design:
//!
//! - **Isolation by construction.** A tenant's slot routes, quarantines,
//!   and drives clocks with the *same* [`ShardLease`](crate::pool::ShardLease)
//!   machinery a private [`DevicePool`] uses over its own shards,
//!   against devices built fresh for the tenancy with lease-local fault
//!   seeding. A tenant's event stream — sequence numbers, lease-local
//!   shard indices, finish cycles, energy bits, fingerprints, typed
//!   failures — is therefore bit-identical to a solo run on an
//!   equivalent private pool, regardless of what other tenants do. The
//!   test battery in `tests/fleet_isolation.rs` pins this, not just
//!   claims it.
//! - **Quota backpressure.** After every submission the tenant's *own*
//!   shards are stepped until its outstanding count is back under its
//!   quota. Quotas shape host-side work only; they never touch another
//!   tenant's clocks.
//!
//! A slot drives its shards in one of two ways, picked for the whole
//! fleet by [`FleetConfig::workers`]: *inline*, stepping a [`DevicePool`]
//! on the calling tenant's thread, or *threaded*, through one
//! [`ShardWorkers`] thread per shard. The tenant discipline — routed
//! all-or-nothing submission, quota stepping, a health check at the
//! batch boundary, a `(finish_cycle, seq)` drain — is written once over
//! either driver, and both emit the same stream bit for bit.
//!
//! Admission is direct: [`FleetHandle::submit`] runs the batch through
//! the tenant's slot and returns the events that drained. There is no
//! cross-tenant scheduler. Each slot keeps its driver and its tenancy
//! behind a lock of its own, so serving calls lock only the caller's
//! slot and tenants on different slots run in parallel. Only acquiring
//! and releasing a slot touch the fleet's small registry of who holds
//! which slot.
//!
//! # Example
//!
//! Two tenants on one fleet; each stream demuxes independently:
//!
//! ```
//! use codic_core::device::DeviceConfig;
//! use codic_core::fleet::{FleetConfig, FleetHandle};
//! use codic_core::ops::CodicOp;
//! use codic_dram::{DramGeometry, TimingParams};
//!
//! let device = DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
//!     .with_refresh(false);
//! let fleet = FleetHandle::new(FleetConfig::new(2, 2, device));
//!
//! let a = fleet.acquire_with(1, 64).unwrap();
//! let b = fleet.acquire_with(1, 64).unwrap();
//! let ops: Vec<CodicOp> = (0..32).map(|i| CodicOp::read(i * 8192)).collect();
//!
//! let (receipt, _) = fleet.submit(a, &ops).unwrap();
//! assert_eq!(receipt.seq_base, 0);
//! let (_, events_a) = fleet.flush(a);
//! let (_, events_b) = {
//!     fleet.submit(b, &ops).unwrap();
//!     fleet.flush(b)
//! };
//! // Same ops, same quota, disjoint slots: bit-identical streams.
//! assert_eq!(events_a.len(), 32);
//! assert_eq!(events_a, events_b);
//! fleet.release(a);
//! fleet.release(b);
//! ```

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::device::DeviceConfig;
use crate::error::CodicError;
use crate::executor::OpFuture;
use crate::fault::HealthPolicy;
use crate::ops::CodicOp;
use crate::pool::{DevicePool, ServedOp, ShardHealth};
use crate::worker::ShardWorkers;

/// Static shape of a fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of tenant slots. Each holds at most one tenant.
    pub slots: usize,
    /// Shards owned by each slot.
    pub shards_per_slot: usize,
    /// Device configuration for every shard. A
    /// [`FaultPlan`](crate::fault::FaultPlan) here is the *base* plan:
    /// each tenant's shards derive per-shard schedules from it by
    /// **lease-local** index, so every tenant sees the schedule a
    /// private pool built from the same config would see.
    pub device: DeviceConfig,
    /// Default per-tenant outstanding-op quota
    /// (see [`FleetHandle::acquire_with`] to override per tenant).
    pub quota: usize,
    /// Self-quarantine policy applied to every tenant's lease.
    pub health: HealthPolicy,
    /// Drive each slot's shards through [`ShardWorkers`] — one thread
    /// per shard, so a fleet holds `slots × shards_per_slot` of them —
    /// instead of inline on the tenant's thread. The streams are
    /// bit-identical either way.
    pub workers: bool,
}

impl FleetConfig {
    /// A fleet of `slots` tenant slots, `shards_per_slot` shards each,
    /// driven inline, with the default quota (1024 ops) and health
    /// policy.
    #[must_use]
    pub fn new(slots: usize, shards_per_slot: usize, device: DeviceConfig) -> Self {
        FleetConfig {
            slots,
            shards_per_slot,
            device,
            quota: 1024,
            health: HealthPolicy::default(),
            workers: false,
        }
    }

    /// Replaces the default per-tenant outstanding-op quota.
    #[must_use]
    pub fn with_quota(mut self, quota: usize) -> Self {
        self.quota = quota.max(1);
        self
    }

    /// Replaces the self-quarantine policy.
    #[must_use]
    pub fn with_health(mut self, health: HealthPolicy) -> Self {
        self.health = health;
        self
    }

    /// Picks the slot driver: `true` drives every slot through
    /// [`ShardWorkers`] threads (see [`FleetConfig::workers`]).
    #[must_use]
    pub fn with_workers(mut self, workers: bool) -> Self {
        self.workers = workers;
        self
    }
}

/// Handle to a live tenant: which slot, and an epoch stamp so a handle
/// that outlives its tenancy is caught instead of touching the slot's
/// next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId {
    slot: usize,
    epoch: u64,
}

impl TenantId {
    /// The slot this tenancy occupies.
    #[must_use]
    pub fn slot(self) -> usize {
        self.slot
    }
}

/// What the fleet admitted for one submitted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitReceipt {
    /// First sequence number assigned to the batch.
    pub seq_base: u64,
    /// Operations admitted (the whole batch — admission is
    /// all-or-nothing, like a private pool's submission).
    pub accepted: u32,
}

/// How a slot drives its shards. Either driver owns the slot's devices
/// and the lease routing over them, built the way a private pool of
/// `shards_per_slot` shards builds them (the base fault plan, if any,
/// derived by **lease-local** shard index), and rebuilt whenever a
/// previous tenant has used them.
enum Driver {
    /// Stepped on the calling tenant's thread, with the admitted, not
    /// yet completed futures as `(seq, lease-local shard, future)`.
    Inline(DevicePool, Vec<(u64, u16, OpFuture)>),
    /// One worker thread per shard.
    Threaded(ShardWorkers),
}

impl Driver {
    fn build(config: &FleetConfig) -> Self {
        let (shards, device) = (config.shards_per_slot, &config.device);
        if config.workers {
            let mut workers = ShardWorkers::launch(shards, device);
            workers.set_health_policy(config.health);
            Driver::Threaded(workers)
        } else {
            let mut pool = DevicePool::new(shards, device);
            pool.set_health_policy(config.health);
            Driver::Inline(pool, Vec::new())
        }
    }

    /// Routes and enqueues a batch all-or-nothing, numbering its ops
    /// from `seq_base`.
    fn submit(&mut self, seq_base: u64, ops: &[CodicOp]) -> Result<(), CodicError> {
        match self {
            Driver::Inline(pool, inflight) => {
                let routed = pool.submit_all_async_routed(ops)?;
                let numbered = (seq_base..).zip(routed);
                inflight.extend(numbered.map(|(seq, (shard, future))| (seq, shard as u16, future)));
            }
            Driver::Threaded(workers) => {
                workers.submit_batch(seq_base, ops)?;
                // A barrier, so the outstanding count the quota loop
                // reads includes this batch.
                workers.sync();
            }
        }
        Ok(())
    }

    fn outstanding(&self) -> usize {
        match self {
            Driver::Inline(pool, _) => pool.outstanding(),
            Driver::Threaded(workers) => workers.outstanding(),
        }
    }

    /// Advances every busy shard by one engine event; `false` when none
    /// could advance.
    fn step(&mut self) -> bool {
        match self {
            Driver::Inline(pool, _) => pool.step(),
            Driver::Threaded(workers) => workers.step_all(),
        }
    }

    fn check_health(&mut self) {
        match self {
            Driver::Inline(pool, _) => pool.check_health(),
            Driver::Threaded(workers) => workers.check_health(),
        };
    }

    fn run_to_idle(&mut self) {
        match self {
            Driver::Inline(pool, _) => {
                pool.run_to_idle();
            }
            Driver::Threaded(workers) => workers.run_to_idle(),
        }
    }

    /// The slowest shard's cycle.
    fn now_max(&self) -> u64 {
        match self {
            Driver::Inline(pool, _) => pool.now_max(),
            Driver::Threaded(workers) => workers.now_max(),
        }
    }

    fn health(&self) -> &[ShardHealth] {
        match self {
            Driver::Inline(pool, _) => pool.health(),
            Driver::Threaded(workers) => workers.health(),
        }
    }

    /// Takes everything completed since the last drain, ordered by
    /// `(finish_cycle, seq)`: ascending finish cycle, ties broken by
    /// submission sequence (a total order, so the interleaving across
    /// shards — and across worker threads — is deterministic).
    fn drain(&mut self) -> Vec<ServedOp> {
        let mut ready = match self {
            Driver::Inline(_, inflight) => {
                let mut ready = Vec::new();
                inflight.retain_mut(|(seq, shard, future)| match future.try_take() {
                    Some(completion) => {
                        ready.push(ServedOp {
                            seq: *seq,
                            shard: *shard,
                            completion,
                        });
                        false
                    }
                    None => true,
                });
                ready
            }
            Driver::Threaded(workers) => workers.drain_ready(),
        };
        ready.sort_by_key(|e| (e.completion.finish_cycle, e.seq));
        ready
    }
}

/// One live tenancy: what the fleet keeps per tenant beside its slot's
/// driver.
#[derive(Debug)]
struct Tenant {
    epoch: u64,
    /// Outstanding-op quota enforced by stepping the tenant's own slot.
    quota: usize,
    /// Next tenant-stream sequence number.
    next_seq: u64,
}

impl Tenant {
    /// The serving discipline, confined to the tenant's slot:
    /// all-or-nothing routed submission, quota backpressure stepping
    /// only this slot's shards, a health check at the batch boundary,
    /// then a non-blocking drain. Every clock this touches belongs to
    /// the tenant's own slot, so no other tenant's device timeline can
    /// be perturbed.
    fn admit(
        &mut self,
        driver: &mut Driver,
        ops: &[CodicOp],
    ) -> Result<(AdmitReceipt, Vec<ServedOp>), CodicError> {
        driver.submit(self.next_seq, ops)?;
        let receipt = AdmitReceipt {
            seq_base: self.next_seq,
            accepted: ops.len() as u32,
        };
        self.next_seq += ops.len() as u64;
        while driver.outstanding() > self.quota {
            if !driver.step() {
                break;
            }
        }
        driver.check_health();
        Ok((receipt, driver.drain()))
    }
}

/// A slot's occupancy, as the registry tracks it. `Fresh` devices were
/// built with the fleet and never served; `Spent` devices carry a
/// previous tenant's state and are rebuilt when the slot is next
/// acquired; `Held` carries the live tenancy's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Fresh,
    Spent,
    Held(u64),
}

/// The only state tenants share: who holds which slot.
struct Registry {
    states: Vec<SlotState>,
    /// Monotonic tenancy counter backing [`TenantId`] staleness checks.
    epoch: u64,
}

/// One slot: the driver of the shards it owns and its live tenancy, if
/// any.
struct SlotBody {
    driver: Driver,
    tenant: Option<Tenant>,
}

/// What every clone of a [`FleetHandle`] shares.
struct Fleet {
    config: FleetConfig,
    /// Locked only by [`FleetHandle::acquire_with`] and
    /// [`FleetHandle::release`], always before a slot.
    registry: Mutex<Registry>,
    slots: Box<[Mutex<SlotBody>]>,
}

/// Locks `mutex`, ignoring poison. A holder can panic only on a stale
/// handle, before it mutates anything, or inside its own tenancy, whose
/// slot is released `Spent` and rebuilt before anyone serves from it
/// again.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared fleet: slots of disjoint shards, each behind its own lock,
/// leased one per tenant. Cloneable and thread-safe, the form the
/// server's one-thread-per-session model consumes. See the
/// [module docs](self) for the design contract.
#[derive(Clone)]
pub struct FleetHandle {
    inner: Arc<Fleet>,
}

impl fmt::Debug for FleetHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetHandle")
            .field("slots", &self.slots())
            .field("free_slots", &self.free_slots())
            .field("shards_per_slot", &self.shards_per_slot())
            .field("workers", &self.inner.config.workers)
            .finish()
    }
}

impl FleetHandle {
    /// Builds the fleet, all slots free, each slot's driver built once
    /// here (see [`FleetHandle::acquire_with`] for when it is rebuilt).
    ///
    /// # Panics
    ///
    /// Panics if `config.slots` or `config.shards_per_slot` is zero.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.slots > 0, "a fleet needs at least one slot");
        assert!(
            config.shards_per_slot > 0,
            "a slot needs at least one shard"
        );
        let fleet = Fleet {
            registry: Mutex::new(Registry {
                states: vec![SlotState::Fresh; config.slots],
                epoch: 0,
            }),
            slots: (0..config.slots)
                .map(|_| {
                    Mutex::new(SlotBody {
                        driver: Driver::build(&config),
                        tenant: None,
                    })
                })
                .collect(),
            config,
        };
        FleetHandle {
            inner: Arc::new(fleet),
        }
    }

    /// Number of tenant slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.inner.slots.len()
    }

    /// Slots currently free.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        lock(&self.inner.registry)
            .states
            .iter()
            .filter(|s| !matches!(s, SlotState::Held(_)))
            .count()
    }

    /// Shards owned by each slot.
    #[must_use]
    pub fn shards_per_slot(&self) -> usize {
        self.inner.config.shards_per_slot
    }

    /// Acquires a free slot with the fleet's default quota.
    pub fn acquire(&self) -> Option<TenantId> {
        self.acquire_with(1, self.inner.config.quota)
    }

    /// Acquires the lowest free slot for a new tenant with outstanding-op
    /// `quota` (clamped to at least 1), or `None` when the fleet is full.
    /// `weight` has no effect: admission is direct, with no cross-tenant
    /// scheduler to weigh. It stays in the signature only because
    /// existing callers still pass it.
    ///
    /// The tenant gets factory-fresh devices: local shard `l` runs
    /// `plan.for_shard(l)`, exactly what [`DevicePool::new`] builds for a
    /// private pool of `shards_per_slot` shards. A slot's first tenancy
    /// takes the driver built with the fleet; a slot a previous tenant
    /// held gets a new driver here (the old one's worker threads, if
    /// any, are joined first). That, plus the driver's own routing and
    /// health state, is the whole solo-equivalence argument.
    pub fn acquire_with(&self, weight: u32, quota: usize) -> Option<TenantId> {
        let _ = weight;
        let fleet = &*self.inner;
        let mut registry = lock(&fleet.registry);
        let slot = registry
            .states
            .iter()
            .position(|s| !matches!(s, SlotState::Held(_)))?;
        registry.epoch += 1;
        let epoch = registry.epoch;
        let previous = std::mem::replace(&mut registry.states[slot], SlotState::Held(epoch));
        let mut body = lock(&fleet.slots[slot]);
        if previous == SlotState::Spent {
            body.driver = Driver::build(&fleet.config);
        }
        body.tenant = Some(Tenant {
            epoch,
            quota: quota.max(1),
            next_seq: 0,
        });
        Some(TenantId { slot, epoch })
    }

    /// Releases the tenancy, freeing its slot for the next tenant (whose
    /// acquisition rebuilds the driver).
    ///
    /// # Panics
    ///
    /// Panics on a stale [`TenantId`].
    pub fn release(&self, id: TenantId) {
        let mut registry = lock(&self.inner.registry);
        assert!(
            registry.states[id.slot] == SlotState::Held(id.epoch),
            "stale tenant handle for slot {}",
            id.slot
        );
        registry.states[id.slot] = SlotState::Spent;
        lock(&self.inner.slots[id.slot]).tenant = None;
    }

    /// Runs `f` on the tenant and its slot's driver under the slot's
    /// lock alone.
    ///
    /// # Panics
    ///
    /// Panics on a stale [`TenantId`].
    fn with_tenant<R>(&self, id: TenantId, f: impl FnOnce(&mut Tenant, &mut Driver) -> R) -> R {
        let mut body = lock(&self.inner.slots[id.slot]);
        let SlotBody { driver, tenant } = &mut *body;
        match tenant {
            Some(t) if t.epoch == id.epoch => f(t, driver),
            _ => panic!("stale tenant handle for slot {}", id.slot),
        }
    }

    /// Submits one batch into the tenant's slot and returns the receipt
    /// plus every event of the tenant's stream that drained. Sequence
    /// numbers follow submission order.
    ///
    /// # Errors
    ///
    /// The policy or routing error of the all-or-nothing pre-flight; the
    /// tenant's state is untouched (no sequence numbers consumed).
    ///
    /// # Panics
    ///
    /// Panics on a stale [`TenantId`].
    pub fn submit(
        &self,
        id: TenantId,
        ops: &[CodicOp],
    ) -> Result<(AdmitReceipt, Vec<ServedOp>), CodicError> {
        self.with_tenant(id, |tenant, driver| tenant.admit(driver, ops))
    }

    /// Flushes the tenancy: runs its shards to idle, applies the health
    /// policy, drains every event. Returns the slowest shard's cycle and
    /// the drained events. Other tenants' clocks don't move.
    pub fn flush(&self, id: TenantId) -> (u64, Vec<ServedOp>) {
        self.with_tenant(id, |_, driver| {
            driver.run_to_idle();
            driver.check_health();
            let events = driver.drain();
            (driver.now_max(), events)
        })
    }

    /// Operations admitted but not yet completed on the tenant's slot
    /// (under the threaded driver, as of its last barrier — exact after
    /// every [`FleetHandle::submit`] and [`FleetHandle::flush`]).
    #[must_use]
    pub fn outstanding(&self, id: TenantId) -> usize {
        self.with_tenant(id, |_, driver| driver.outstanding())
    }

    /// The slowest shard cycle on the tenant's slot.
    #[must_use]
    pub fn now_max(&self, id: TenantId) -> u64 {
        self.with_tenant(id, |_, driver| driver.now_max())
    }

    /// The tenant's per-shard health, lease-local indices.
    #[must_use]
    pub fn health(&self, id: TenantId) -> Vec<ShardHealth> {
        self.with_tenant(id, |_, driver| driver.health().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codic_dram::geometry::DramGeometry;
    use codic_dram::timing::TimingParams;

    use crate::fault::FaultPlan;
    use crate::ops::VariantId;

    fn device_config() -> DeviceConfig {
        DeviceConfig::new(DramGeometry::module_mib(64), TimingParams::ddr3_1600_11())
            .with_refresh(false)
    }

    fn zero_ops(rows: u64) -> Vec<CodicOp> {
        (0..rows)
            .map(|i| CodicOp::command(VariantId::DetZero, i * DramGeometry::ROW_BYTES))
            .collect()
    }

    #[test]
    fn slots_acquire_release_and_recycle() {
        let fleet = FleetHandle::new(FleetConfig::new(2, 2, device_config()));
        assert_eq!(fleet.free_slots(), 2);
        let a = fleet.acquire().expect("slot a");
        let b = fleet.acquire().expect("slot b");
        assert_eq!(fleet.free_slots(), 0);
        assert!(fleet.acquire().is_none(), "full fleet rejects");
        fleet.release(a);
        assert_eq!(fleet.free_slots(), 1);
        let c = fleet.acquire().expect("slot a recycled");
        assert_eq!(c.slot(), a.slot(), "lowest free slot is reused");
        assert_ne!(c, a, "but under a fresh epoch");
        fleet.release(b);
        fleet.release(c);
    }

    #[test]
    #[should_panic(expected = "stale tenant handle")]
    fn stale_tenant_handles_are_caught() {
        let fleet = FleetHandle::new(FleetConfig::new(1, 1, device_config()));
        let a = fleet.acquire().expect("slot");
        fleet.release(a);
        let _b = fleet.acquire().expect("recycled");
        let _ = fleet.submit(a, &zero_ops(1)); // stale: a's epoch is gone
    }

    #[test]
    fn a_stale_handle_panic_poisons_only_its_own_slot() {
        // A stale handle panics inside its slot's lock and poisons it.
        // The slot's live occupant, a co-tenant on the other slot, and
        // the slot's next tenant must each serve exactly the stream an
        // undisturbed twin fleet serves.
        let device = device_config().with_faults(FaultPlan::new(31).with_misfires(4000));
        let ops = zero_ops(256);
        let run = |panic: bool| {
            let fleet = FleetHandle::new(FleetConfig::new(2, 2, device.clone()).with_quota(32));
            let neighbour = fleet.acquire().expect("slot 0");
            let stale = fleet.acquire().expect("slot 1");
            fleet.submit(stale, &ops[..64]).expect("admit");
            fleet.release(stale);
            let live = fleet.acquire().expect("slot 1 recycled");
            let (mut live_events, mut neighbour_events) = (Vec::new(), Vec::new());
            for (i, chunk) in ops.chunks(32).enumerate() {
                live_events.extend(fleet.submit(live, chunk).expect("admit").1);
                if panic && i == 3 {
                    let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        fleet.submit(stale, chunk)
                    }));
                    assert!(hit.is_err(), "the stale handle panics");
                    assert!(fleet.inner.slots[live.slot()].is_poisoned());
                }
                neighbour_events.extend(fleet.submit(neighbour, chunk).expect("admit").1);
            }
            live_events.extend(fleet.flush(live).1);
            neighbour_events.extend(fleet.flush(neighbour).1);
            fleet.release(live);
            let next = fleet.acquire().expect("slot 1 again");
            assert_eq!(next.slot(), live.slot());
            let (_, mut next_events) = fleet.submit(next, &ops).expect("admit");
            next_events.extend(fleet.flush(next).1);
            (live_events, neighbour_events, next_events)
        };
        let twin = run(false);
        let poisoned = run(true);
        assert_eq!(poisoned.0, twin.0, "the live occupant's stream moved");
        assert_eq!(poisoned.1, twin.1, "the co-tenant's stream moved");
        assert_eq!(poisoned.2, twin.2, "the next tenant's stream moved");

        let fresh = FleetHandle::new(FleetConfig::new(1, 2, device).with_quota(32));
        let t = fresh.acquire().expect("slot");
        let (_, mut events) = fresh.submit(t, &ops).expect("admit");
        events.extend(fresh.flush(t).1);
        assert_eq!(
            poisoned.2, events,
            "the released slot serves a fresh stream"
        );
    }

    /// The worker thread ids of `slot`'s driver; empty when inline.
    fn worker_threads(fleet: &FleetHandle, slot: usize) -> Vec<std::thread::ThreadId> {
        match &lock(&fleet.inner.slots[slot]).driver {
            Driver::Inline(..) => Vec::new(),
            Driver::Threaded(workers) => workers.thread_ids(),
        }
    }

    #[test]
    fn a_tenant_panicking_mid_submit_leaves_its_slot_spent_and_rebuilt() {
        // A live tenant panics inside its slot's lock with a batch half
        // served: ops enqueued, shards stepped, nothing drained. Its
        // release must leave the slot `Spent`, and the next acquire must
        // rebuild it (joining the old worker threads and launching new
        // ones under the threaded driver), so the next tenant serves
        // exactly a fresh fleet's stream.
        let device = device_config().with_faults(FaultPlan::new(5).with_misfires(4000));
        let ops = zero_ops(256);
        for workers in [false, true] {
            let config = FleetConfig::new(1, 2, device.clone())
                .with_quota(32)
                .with_workers(workers);
            let fleet = FleetHandle::new(config.clone());
            let doomed = fleet.acquire().expect("slot");
            fleet.submit(doomed, &ops[..64]).expect("admit");
            let old_threads = worker_threads(&fleet, 0);
            assert_eq!(old_threads.len(), if workers { 2 } else { 0 });
            let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fleet.with_tenant(doomed, |tenant, driver| {
                    driver
                        .submit(tenant.next_seq, &ops[64..128])
                        .expect("admit");
                    driver.step();
                    panic!("tenant dies mid-submit");
                })
            }));
            assert!(hit.is_err(), "the tenant panics");
            assert!(fleet.inner.slots[0].is_poisoned());
            fleet.release(doomed);
            assert_eq!(lock(&fleet.inner.registry).states[0], SlotState::Spent);

            let next = fleet.acquire().expect("the slot is free again");
            let new_threads = worker_threads(&fleet, 0);
            assert_eq!(new_threads.len(), old_threads.len());
            assert!(new_threads.iter().all(|id| !old_threads.contains(id)));
            let joined = crate::worker::JOINED.lock().expect("joined ids");
            assert!(old_threads.iter().all(|id| joined.contains(id)));
            drop(joined);
            let (_, mut events) = fleet.submit(next, &ops).expect("admit");
            events.extend(fleet.flush(next).1);
            fleet.release(next);

            let fresh = FleetHandle::new(config);
            let t = fresh.acquire().expect("slot");
            let (_, mut expected) = fresh.submit(t, &ops).expect("admit");
            expected.extend(fresh.flush(t).1);
            assert!(expected
                .iter()
                .any(|e| e.completion.outcome.cause().is_some()));
            assert_eq!(
                events, expected,
                "workers {workers}: the rebuilt slot moved"
            );
        }
    }

    #[test]
    fn submission_streams_are_dense_and_ordered() {
        let fleet = FleetHandle::new(FleetConfig::new(1, 2, device_config()));
        let t = fleet.acquire_with(1, 64).expect("slot");
        let mut events = Vec::new();
        for chunk in zero_ops(96).chunks(32) {
            let (receipt, ready) = fleet.submit(t, chunk).expect("admit");
            assert_eq!(receipt.accepted, 32);
            events.extend(ready);
        }
        let (_, tail) = fleet.flush(t);
        events.extend(tail);
        assert_eq!(events.len(), 96);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..96).collect::<Vec<_>>(), "dense seq space");
        for pair in events.windows(2) {
            assert!(
                (pair[0].completion.finish_cycle, pair[0].seq)
                    <= (pair[1].completion.finish_cycle, pair[1].seq),
                "emission order is (finish_cycle, seq)"
            );
        }
        fleet.release(t);
    }

    #[test]
    fn quota_is_respected_after_every_admission() {
        let fleet = FleetHandle::new(FleetConfig::new(1, 2, device_config()).with_quota(8));
        let t = fleet.acquire().expect("slot");
        for chunk in zero_ops(64).chunks(16) {
            fleet.submit(t, chunk).expect("admit");
            assert!(
                fleet.outstanding(t) <= 8,
                "quota bounds outstanding ops after every admission step"
            );
        }
        fleet.release(t);
    }

    #[test]
    fn derived_fault_seeds_are_lease_local() {
        // A faulted fleet slot must deliver the same failures a private
        // pool of the same shape delivers — seeds derived from LOCAL
        // shard indices, not fleet-global ones. Slot 1 (global shards
        // 2..4) is the interesting case.
        let device = device_config().with_faults(FaultPlan::new(77).with_misfires(8000));
        let fleet = FleetHandle::new(FleetConfig::new(2, 2, device.clone()));
        let _a = fleet.acquire_with(1, 1024).expect("slot 0");
        let b = fleet.acquire_with(1, 1024).expect("slot 1");
        let ops = zero_ops(512);
        let (_, mut events) = fleet.submit(b, &ops).expect("admit");
        let (_, tail) = fleet.flush(b);
        events.extend(tail);

        let mut solo = crate::pool::DevicePool::new(2, &device);
        let routed = solo.submit_all_async_routed(&ops).expect("solo admit");
        solo.run_to_idle();
        let mut solo_failures = 0;
        for (i, (shard, future)) in routed.into_iter().enumerate() {
            let completion = crate::executor::block_on(future);
            let event = &events[events.iter().position(|e| e.seq == i as u64).unwrap()];
            assert_eq!(event.shard as usize, shard);
            assert_eq!(event.completion.outcome, completion.outcome);
            if completion.outcome.cause().is_some() {
                solo_failures += 1;
            }
        }
        assert!(solo_failures > 0, "the misfire plan must actually fire");
        fleet.release(b);
    }

    #[test]
    fn tenant_quarantine_is_confined_to_its_lease() {
        // Both slots share a hot misfire plan, but only row operations
        // can misfire: the tenant hammering DetZero trips the health
        // policy and quarantines its own shard, while its neighbour —
        // running plain reads on the *same* plan — must neither observe
        // the quarantine in its health nor in its stream.
        let hot = device_config().with_faults(FaultPlan::new(9).with_misfires(60_000));
        let policy = HealthPolicy {
            max_failed_per_64k: 30_000,
            min_ops: 16,
        };
        let fleet = FleetHandle::new(FleetConfig::new(2, 1, hot).with_health(policy));
        let sick = fleet.acquire_with(1, 1024).expect("sick");
        let fine = fleet.acquire_with(1, 1024).expect("fine");
        let _ = fleet.submit(sick, &zero_ops(64));
        let _ = fleet.flush(sick);
        assert!(
            fleet.health(sick).iter().any(|h| !h.is_healthy()),
            "the misfiring shard quarantines"
        );
        let reads: Vec<CodicOp> = (0..64).map(|i| CodicOp::read(i * 8192)).collect();
        fleet.submit(fine, &reads).expect("healthy tenant admits");
        let (_, events) = fleet.flush(fine);
        assert_eq!(events.len(), 64);
        assert!(
            fleet.health(fine).iter().all(|h| h.is_healthy()),
            "the neighbour's lease stays healthy"
        );
        fleet.release(sick);
        fleet.release(fine);
    }
}
