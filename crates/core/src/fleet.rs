//! A shared device fleet multiplexing many tenants over one array of
//! devices.
//!
//! [`SharedFleet`] is the substrate every non-worker session is served
//! from: one sharded array of devices, carved into fixed-size *slots* of
//! contiguous shards, with each tenant holding an exclusive
//! [`ShardLease`] over its slot. A private session is the only tenant of
//! a one-slot fleet. Two properties define the design:
//!
//! - **Isolation by construction.** A tenant's lease routes, quarantines,
//!   and drives clocks with the *same* [`ShardLease`] machinery a private
//!   [`DevicePool`](crate::pool::DevicePool) uses over its own shards,
//!   against devices built fresh for the tenancy with lease-local fault
//!   seeding. A tenant's event stream — sequence numbers, lease-local
//!   shard indices, finish cycles, energy bits, fingerprints, typed
//!   failures — is therefore bit-identical to a solo run on an
//!   equivalent private pool, regardless of what other tenants do. The
//!   test battery in `tests/fleet_isolation.rs` pins this, not just
//!   claims it.
//! - **Quota backpressure.** After every submission the tenant's *own*
//!   lease is stepped until its outstanding count is back under its
//!   quota, the way a private serving engine bounds its window. Quotas
//!   shape host-side work only; they never touch another tenant's
//!   clocks.
//!
//! Admission is direct: [`SharedFleet::submit`] runs the batch through
//! the tenant's lease and returns the events that drained. There is no
//! cross-tenant scheduler. Slots are disjoint shards, so the only thing
//! tenants share is the host CPU and the fleet lock.
//!
//! [`FleetHandle`] wraps the fleet in `Arc<Mutex<…>>` for the server's
//! one-thread-per-session model.
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
use std::sync::{Arc, Mutex, MutexGuard};

use crate::device::{CodicDevice, DeviceConfig};
use crate::error::CodicError;
use crate::executor::OpFuture;
use crate::fault::HealthPolicy;
use crate::ops::CodicOp;
use crate::pool::{shard_device, ServedOp, ShardHealth, ShardLease};

/// Static shape of a [`SharedFleet`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of tenant slots. Each holds at most one tenant.
    pub slots: usize,
    /// Contiguous shards leased to each slot.
    pub shards_per_slot: usize,
    /// Device configuration for every shard. A
    /// [`FaultPlan`](crate::fault::FaultPlan) here is the *base* plan:
    /// each tenant's shards derive per-shard schedules from it by
    /// **lease-local** index, so every tenant sees the schedule a
    /// private pool built from the same config would see.
    pub device: DeviceConfig,
    /// Default per-tenant outstanding-op quota
    /// (see [`SharedFleet::acquire_with`] to override per tenant).
    pub quota: usize,
    /// Self-quarantine policy applied to every tenant's lease.
    pub health: HealthPolicy,
}

impl FleetConfig {
    /// A fleet of `slots` tenant slots, `shards_per_slot` shards each,
    /// with the default quota (1024 ops) and health policy.
    #[must_use]
    pub fn new(slots: usize, shards_per_slot: usize, device: DeviceConfig) -> Self {
        FleetConfig {
            slots,
            shards_per_slot,
            device,
            quota: 1024,
            health: HealthPolicy::default(),
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

/// One live tenancy: the lease plus everything a private serving engine
/// would keep per session.
#[derive(Debug)]
struct Tenant {
    epoch: u64,
    lease: ShardLease,
    /// Outstanding-op quota enforced by stepping the tenant's own lease.
    quota: usize,
    /// Next tenant-stream sequence number.
    next_seq: u64,
    /// Admitted, not yet completed: `(seq, lease-local shard, future)`.
    inflight: Vec<(u64, u16, OpFuture)>,
    scratch: Vec<(u64, u16, OpFuture)>,
}

impl Tenant {
    /// The private serving engine's submission discipline, confined to
    /// the tenant's lease: all-or-nothing routed submission, quota
    /// backpressure stepping only this tenant's shards, health check at
    /// the batch boundary, then a non-blocking drain. Every clock this
    /// touches belongs to the tenant's own slot, so no other tenant's
    /// device timeline can be perturbed.
    fn admit(
        &mut self,
        devices: &mut [CodicDevice],
        ops: &[CodicOp],
    ) -> Result<(AdmitReceipt, Vec<ServedOp>), CodicError> {
        let routed = self.lease.submit_all_async_routed(devices, ops)?;
        let seq_base = self.next_seq;
        for (local, future) in routed {
            self.inflight.push((self.next_seq, local as u16, future));
            self.next_seq += 1;
        }
        while self.lease.outstanding(devices) > self.quota {
            if !self.lease.step(devices) {
                break;
            }
        }
        self.lease.check_health(devices);
        let receipt = AdmitReceipt {
            seq_base,
            accepted: ops.len() as u32,
        };
        Ok((receipt, self.drain()))
    }

    /// Takes every resolved in-flight future, ordered by
    /// `(finish_cycle, seq)`: ascending finish cycle, ties broken by
    /// submission sequence (a total order, so the interleaving across
    /// shards is deterministic).
    fn drain(&mut self) -> Vec<ServedOp> {
        let mut ready = Vec::new();
        self.scratch.clear();
        for (seq, shard, mut future) in self.inflight.drain(..) {
            match future.try_take() {
                Some(completion) => ready.push(ServedOp {
                    seq,
                    shard,
                    completion,
                }),
                None => self.scratch.push((seq, shard, future)),
            }
        }
        std::mem::swap(&mut self.inflight, &mut self.scratch);
        ready.sort_by_key(|e| (e.completion.finish_cycle, e.seq));
        ready
    }
}

/// A slot's occupancy. `Fresh` devices were built for a first tenancy
/// and never served; `Spent` devices carry a previous tenant's state and
/// are rebuilt when the slot is next acquired.
#[derive(Debug)]
enum Slot {
    Fresh,
    Spent,
    Held(Box<Tenant>),
}

/// The shared fleet: one device array carved into per-tenant
/// [`ShardLease`]s. See the [module docs](self) for the design contract.
#[derive(Debug)]
pub struct SharedFleet {
    devices: Vec<CodicDevice>,
    config: FleetConfig,
    slots: Vec<Slot>,
    /// Monotonic tenancy counter backing [`TenantId`] staleness checks.
    epoch: u64,
}

impl SharedFleet {
    /// Builds the fleet, all slots free: `slots × shards_per_slot`
    /// devices, each slot's shards built the way a private pool of
    /// `shards_per_slot` shards builds them (the base fault plan, if
    /// any, derived by **lease-local** shard index).
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
        let per_slot = config.shards_per_slot;
        SharedFleet {
            devices: (0..config.slots * per_slot)
                .map(|shard| shard_device(&config.device, shard % per_slot))
                .collect(),
            slots: (0..config.slots).map(|_| Slot::Fresh).collect(),
            epoch: 0,
            config,
        }
    }

    /// Number of tenant slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently free.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !matches!(s, Slot::Held(_)))
            .count()
    }

    /// Shards leased to each slot.
    #[must_use]
    pub fn shards_per_slot(&self) -> usize {
        self.config.shards_per_slot
    }

    /// Acquires a free slot with the fleet's default quota.
    pub fn acquire(&mut self) -> Option<TenantId> {
        self.acquire_with(self.config.quota)
    }

    /// Acquires the lowest free slot for a new tenant with outstanding-op
    /// `quota` (clamped to at least 1), or `None` when the fleet is full.
    ///
    /// The tenant gets factory-fresh devices: local shard `l` runs
    /// `plan.for_shard(l)`, exactly what [`DevicePool::new`] builds for a
    /// private pool of `shards_per_slot` shards. A slot's first tenancy
    /// takes the devices built with the fleet; a slot a previous tenant
    /// held is rebuilt here. That, plus the lease's own routing and
    /// health state, is the whole solo-equivalence argument.
    ///
    /// [`DevicePool::new`]: crate::pool::DevicePool::new
    pub fn acquire_with(&mut self, quota: usize) -> Option<TenantId> {
        let slot = self
            .slots
            .iter()
            .position(|s| !matches!(s, Slot::Held(_)))?;
        let per_slot = self.config.shards_per_slot;
        let base = slot * per_slot;
        if matches!(self.slots[slot], Slot::Spent) {
            for local in 0..per_slot {
                self.devices[base + local] = shard_device(&self.config.device, local);
            }
        }
        let mut lease = ShardLease::new(base, per_slot, &self.config.device);
        lease.set_health_policy(self.config.health);
        self.epoch += 1;
        self.slots[slot] = Slot::Held(Box::new(Tenant {
            epoch: self.epoch,
            lease,
            quota: quota.max(1),
            next_seq: 0,
            inflight: Vec::new(),
            scratch: Vec::new(),
        }));
        Some(TenantId {
            slot,
            epoch: self.epoch,
        })
    }

    /// Releases the tenancy, freeing its slot for the next tenant (whose
    /// acquisition rebuilds the devices).
    ///
    /// # Panics
    ///
    /// Panics on a stale [`TenantId`].
    pub fn release(&mut self, id: TenantId) {
        let slot = self.checked_slot(id);
        self.slots[slot] = Slot::Spent;
    }

    fn checked_slot(&self, id: TenantId) -> usize {
        match &self.slots[id.slot] {
            Slot::Held(t) if t.epoch == id.epoch => id.slot,
            _ => panic!("stale tenant handle for slot {}", id.slot),
        }
    }

    /// The tenant and the device array its lease indexes into.
    fn tenant_mut(&mut self, id: TenantId) -> (&mut Tenant, &mut [CodicDevice]) {
        let slot = self.checked_slot(id);
        match &mut self.slots[slot] {
            Slot::Held(t) => (t, &mut self.devices),
            _ => unreachable!("checked_slot verified occupancy"),
        }
    }

    fn tenant(&self, id: TenantId) -> &Tenant {
        let slot = self.checked_slot(id);
        match &self.slots[slot] {
            Slot::Held(t) => t,
            _ => unreachable!("checked_slot verified occupancy"),
        }
    }

    /// Submits one batch into the tenant's lease and returns the receipt
    /// plus every event of the tenant's stream that drained — exactly
    /// what a private serving engine's batch submission returns.
    /// Sequence numbers follow submission order.
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
        &mut self,
        id: TenantId,
        ops: &[CodicOp],
    ) -> Result<(AdmitReceipt, Vec<ServedOp>), CodicError> {
        let (tenant, devices) = self.tenant_mut(id);
        tenant.admit(devices, ops)
    }

    /// Flushes the tenancy: runs its lease to idle, applies the health
    /// policy, drains every event. Returns the slowest leased shard's
    /// cycle and the drained events. Other tenants' clocks don't move.
    pub fn flush(&mut self, id: TenantId) -> (u64, Vec<ServedOp>) {
        let (tenant, devices) = self.tenant_mut(id);
        tenant.lease.run_to_idle(devices);
        tenant.lease.check_health(devices);
        (tenant.lease.now_max(devices), tenant.drain())
    }

    /// Operations admitted but not yet completed on the tenant's lease.
    #[must_use]
    pub fn outstanding(&self, id: TenantId) -> usize {
        self.tenant(id).lease.outstanding(&self.devices)
    }

    /// The slowest shard cycle on the tenant's lease.
    #[must_use]
    pub fn now_max(&self, id: TenantId) -> u64 {
        self.tenant(id).lease.now_max(&self.devices)
    }

    /// The tenant's per-shard health, lease-local indices.
    #[must_use]
    pub fn health(&self, id: TenantId) -> &[ShardHealth] {
        self.tenant(id).lease.health()
    }
}

/// Cloneable, thread-safe handle to a [`SharedFleet`] — the form the
/// server's one-thread-per-session model consumes. Every method locks
/// the fleet for its duration.
#[derive(Clone)]
pub struct FleetHandle {
    inner: Arc<Mutex<SharedFleet>>,
}

impl fmt::Debug for FleetHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fleet = self.lock();
        f.debug_struct("FleetHandle")
            .field("slots", &fleet.slots())
            .field("free_slots", &fleet.free_slots())
            .field("shards_per_slot", &fleet.shards_per_slot())
            .finish()
    }
}

impl FleetHandle {
    /// Builds a fleet and wraps it (see [`SharedFleet::new`]).
    ///
    /// # Panics
    ///
    /// As [`SharedFleet::new`].
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        FleetHandle {
            inner: Arc::new(Mutex::new(SharedFleet::new(config))),
        }
    }

    /// Locks the fleet for direct driving (benchmarks, tests). A
    /// panicked holder's poison is ignored: the fleet's state is only
    /// mutated under methods that keep it consistent at every await-free
    /// step.
    pub fn lock(&self) -> MutexGuard<'_, SharedFleet> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Acquires a slot with outstanding-op `quota` (see
    /// [`SharedFleet::acquire_with`]). `weight` has no effect: admission
    /// is direct, with no cross-tenant scheduler to weigh. It stays in
    /// the signature only because existing callers still pass it.
    pub fn acquire_with(&self, weight: u32, quota: usize) -> Option<TenantId> {
        let _ = weight;
        self.lock().acquire_with(quota)
    }

    /// See [`SharedFleet::release`].
    pub fn release(&self, id: TenantId) {
        self.lock().release(id);
    }

    /// See [`SharedFleet::submit`].
    ///
    /// # Errors
    ///
    /// As [`SharedFleet::submit`].
    pub fn submit(
        &self,
        id: TenantId,
        ops: &[CodicOp],
    ) -> Result<(AdmitReceipt, Vec<ServedOp>), CodicError> {
        self.lock().submit(id, ops)
    }

    /// See [`SharedFleet::flush`].
    pub fn flush(&self, id: TenantId) -> (u64, Vec<ServedOp>) {
        self.lock().flush(id)
    }

    /// See [`SharedFleet::outstanding`].
    #[must_use]
    pub fn outstanding(&self, id: TenantId) -> usize {
        self.lock().outstanding(id)
    }

    /// See [`SharedFleet::now_max`].
    #[must_use]
    pub fn now_max(&self, id: TenantId) -> u64 {
        self.lock().now_max(id)
    }

    /// The tenant's per-shard health, cloned out of the lock.
    #[must_use]
    pub fn health(&self, id: TenantId) -> Vec<ShardHealth> {
        self.lock().health(id).to_vec()
    }

    /// See [`SharedFleet::slots`].
    #[must_use]
    pub fn slots(&self) -> usize {
        self.lock().slots()
    }

    /// See [`SharedFleet::free_slots`].
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.lock().free_slots()
    }

    /// See [`SharedFleet::shards_per_slot`].
    #[must_use]
    pub fn shards_per_slot(&self) -> usize {
        self.lock().shards_per_slot()
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
        let mut fleet = SharedFleet::new(FleetConfig::new(2, 2, device_config()));
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
        let mut fleet = SharedFleet::new(FleetConfig::new(1, 1, device_config()));
        let a = fleet.acquire().expect("slot");
        fleet.release(a);
        let _b = fleet.acquire().expect("recycled");
        let _ = fleet.submit(a, &zero_ops(1)); // stale: a's epoch is gone
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
        let mut fleet = SharedFleet::new(FleetConfig::new(1, 2, device_config()).with_quota(8));
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
