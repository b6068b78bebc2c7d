//! The three served workloads. Every input is generated from the
//! run's seed; the server receives only the generated operations.

use codic_core::ops::CodicOp;
use codic_dram::DramGeometry;
use codic_server::proto::SessionParams;
use codic_server::server::ServerConfig;
use codic_server::trace::{generate_bulk_bitwise, generate_mixed};

/// Batches of 1024 mixed ops per session: ~0.25 s of serving, so one
/// run repeats the session many times and reports medians.
const MIXED_BATCHES: usize = 128;
/// Operations per mixed batch (the serving default window).
const MIXED_BATCH_OPS: usize = 1024;
/// Rounds of the four 8-bit vector ops per bitwise session (~29k ops).
const BITWISE_ROUNDS: usize = 16;
/// Operations per bitwise batch.
const BITWISE_BATCH_OPS: usize = 64;
/// Rows of the bitwise compute region at the top of the module.
const COMPUTE_ROWS: u64 = 64;
/// Lane width of the bitwise vector ops.
const BITWISE_BITS: u32 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Unix,
    Tcp,
}

/// One client session: its `Hello`, its operations and its batch size.
#[derive(Debug, Clone)]
pub struct Session {
    pub hello: SessionParams,
    pub ops: Vec<CodicOp>,
    pub batch: usize,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub transport: Transport,
    pub config: ServerConfig,
    /// The concurrent sessions of one serving round (one per tenant).
    pub sessions: Vec<Session>,
    /// A second trace of the same kind from another seed: the co-tenant
    /// of the waterfall's two-tenant fleet stage.
    pub twin: Session,
}

pub const NAMES: [&str; 3] = ["mixed_replay", "bitwise_compute", "fleet_pair"];

/// Tenant `k`'s seed, derived from the run seed.
fn tenant_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn module_rows() -> u64 {
    DramGeometry::module_mib(ServerConfig::default().module_mib).total_rows()
}

fn mixed(seed: u64) -> Session {
    Session {
        hello: SessionParams::defaults(),
        ops: generate_mixed(MIXED_BATCHES * MIXED_BATCH_OPS, module_rows(), seed),
        batch: MIXED_BATCH_OPS,
    }
}

fn bitwise(seed: u64) -> Session {
    let base = (module_rows() - COMPUTE_ROWS) * DramGeometry::ROW_BYTES;
    Session {
        hello: SessionParams {
            compute_rows: COMPUTE_ROWS as u32,
            ..SessionParams::defaults()
        },
        ops: generate_bulk_bitwise(BITWISE_ROUNDS, base, BITWISE_BITS, seed),
        batch: BITWISE_BATCH_OPS,
    }
}

/// Builds the named workload from `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let tenant = |k| tenant_seed(seed, k);
    let workload = match name {
        // The paper's two security use cases as served traffic: secure
        // deallocation zeroing and cold-boot destruction row ops among
        // reads and writes, one session on the default server.
        "mixed_replay" => Workload {
            name: "mixed_replay",
            transport: Transport::Unix,
            config: ServerConfig::default(),
            sessions: vec![mixed(tenant(0))],
            twin: mixed(tenant(1)),
        },
        // Bulk-bitwise compute: every op lands on one shard and carries
        // a row fingerprint, so the data plane dominates.
        "bitwise_compute" => Workload {
            name: "bitwise_compute",
            transport: Transport::Unix,
            config: ServerConfig::default(),
            sessions: vec![bitwise(tenant(0))],
            twin: bitwise(tenant(1)),
        },
        // Two equal-weight tenants on one shared fleet over TCP: the
        // only workload where sessions contend for the fleet lock, DRR
        // admission and the cores.
        "fleet_pair" => Workload {
            name: "fleet_pair",
            transport: Transport::Tcp,
            config: ServerConfig {
                fleet_slots: 2,
                ..ServerConfig::default()
            },
            sessions: vec![mixed(tenant(0)), mixed(tenant(1))],
            twin: mixed(tenant(1)),
        },
        _ => return None,
    };
    Some(workload)
}
