//! Property-based coherence tests of the data plane's fingerprint cache.
//!
//! Random op sequences run over a 16-row plane. The oracle is
//! independent of the plane: every row the generators can produce holds
//! one repeated 64-bit word, so a map from row to word models the
//! contents exactly, and a byte-serial FNV-1a written here pins the
//! plane's hash constants and hashes the model's rows. After every op,
//! the value `apply` returns must equal a fresh hash of the destination
//! row, and every row's contents and cached fingerprint must equal the
//! model's.

use std::collections::HashMap;

use codic_core::data::{row_fingerprint, DataPlane, RowWords, ONES_FP, WORDS_PER_ROW, ZERO_FP};
use codic_core::ops::{CodicOp, VariantId};
use codic_dram::DramGeometry;
use proptest::prelude::*;

const ROW: u64 = DramGeometry::ROW_BYTES;
/// The region covers rows `BASE_ROW..BASE_ROW + 16`.
const BASE_ROW: u64 = 64;
const REGION_ROWS: u64 = 16;
/// Addresses are drawn from a window of rows that extends past both
/// ends of the region.
const WINDOW: std::ops::Range<u64> = BASE_ROW - 4..BASE_ROW + REGION_ROWS + 4;

/// FNV-1a-64 over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn in_region(row: u64) -> u64 {
    (BASE_ROW + row % REGION_ROWS) * ROW
}

fn in_window(row: u64) -> u64 {
    (WINDOW.start + row % (WINDOW.end - WINDOW.start)) * ROW
}

/// Builds one op from a kind selector and raw draws. Compute
/// destinations stay inside the region (the device rejects the rest
/// before they reach the plane); sources and non-compute targets range
/// over the whole window. Small row indices make `src == dst` and MAJ
/// groups overlapping copy targets common.
fn build_op((kind, a, b, word): (u8, u64, u64, u64)) -> CodicOp {
    let pattern = match word % 4 {
        0 => 0,
        1 => u64::MAX,
        _ => word.rotate_left(17),
    };
    let variants = [
        VariantId::DetZero,
        VariantId::DetOne,
        VariantId::Sig,
        VariantId::SigOpt,
        VariantId::Sigsa,
        VariantId::Activate,
    ];
    match kind {
        0 => CodicOp::RowInit {
            row_addr: in_region(a),
            ones: word & 1 == 1,
        },
        1 => CodicOp::RowFill {
            row_addr: in_region(a),
            pattern,
        },
        2 => CodicOp::RowCopy {
            src_addr: in_window(a),
            dst_addr: in_region(b),
        },
        3 => CodicOp::RowCopy {
            src_addr: in_region(a),
            dst_addr: in_region(a),
        },
        4 => CodicOp::Not {
            src_addr: in_window(a),
            dst_addr: in_region(b),
        },
        5 => CodicOp::Not {
            src_addr: in_region(a),
            dst_addr: in_region(a),
        },
        6 | 7 => {
            let row_addr = (BASE_ROW + a % (REGION_ROWS - 2)) * ROW;
            if kind == 6 {
                CodicOp::MajAnd { row_addr }
            } else {
                CodicOp::MajOr { row_addr }
            }
        }
        8 => CodicOp::command(variants[(word % 6) as usize], in_window(a)),
        9 => CodicOp::RowCloneZero {
            row_addr: in_window(a),
        },
        _ => CodicOp::LisaCloneZero {
            row_addr: in_window(a),
        },
    }
}

fn any_op() -> impl Strategy<Value = CodicOp> {
    (0u8..11, 0u64..24, 0u64..24, any::<u64>()).prop_map(build_op)
}

/// The oracle: the word every row repeats (absent = zeros).
#[derive(Default)]
struct Model(HashMap<u64, u64>);

impl Model {
    fn get(&self, addr: u64) -> u64 {
        self.0.get(&addr).copied().unwrap_or(0)
    }

    fn apply(&mut self, op: CodicOp) {
        let region = BASE_ROW * ROW..(BASE_ROW + REGION_ROWS) * ROW;
        match op {
            CodicOp::RowInit { row_addr, ones } => {
                self.0.insert(row_addr, if ones { u64::MAX } else { 0 });
            }
            CodicOp::RowFill { row_addr, pattern } => {
                self.0.insert(row_addr, pattern);
            }
            CodicOp::RowCopy { src_addr, dst_addr } => {
                self.0.insert(dst_addr, self.get(src_addr));
            }
            CodicOp::Not { src_addr, dst_addr } => {
                self.0.insert(dst_addr, !self.get(src_addr));
            }
            CodicOp::MajAnd { row_addr } | CodicOp::MajOr { row_addr } => {
                let [a, b, c] = [0, 1, 2].map(|i| self.get(row_addr + i * ROW));
                for i in 0..3 {
                    self.0
                        .insert(row_addr + i * ROW, (a & b) | (a & c) | (b & c));
                }
            }
            _ if !region.contains(&op.row_addr()) => {}
            CodicOp::RowCloneZero { row_addr } | CodicOp::LisaCloneZero { row_addr } => {
                self.0.insert(row_addr, 0);
            }
            CodicOp::Command { variant, row_addr } => match variant {
                VariantId::DetZero => {
                    self.0.insert(row_addr, 0);
                }
                VariantId::DetOne => {
                    self.0.insert(row_addr, u64::MAX);
                }
                VariantId::Sig | VariantId::SigOpt | VariantId::SigAlt | VariantId::Sigsa => {
                    self.0.remove(&row_addr);
                }
                VariantId::Activate | VariantId::Precharge => {}
            },
            CodicOp::Read { .. } | CodicOp::Write { .. } => {}
        }
    }
}

#[test]
fn hash_constants_match_the_runtime_fnv() {
    let zeros: RowWords = [0; WORDS_PER_ROW];
    let ones: RowWords = [u64::MAX; WORDS_PER_ROW];
    assert_eq!(ZERO_FP, fnv1a(&zeros));
    assert_eq!(ONES_FP, fnv1a(&ones));
    assert_eq!(row_fingerprint(&zeros), ZERO_FP);
    assert_eq!(row_fingerprint(&ones), ONES_FP);
    let mut mixed: RowWords = [0; WORDS_PER_ROW];
    for (i, w) in mixed.iter_mut().enumerate() {
        *w = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    assert_eq!(row_fingerprint(&mixed), fnv1a(&mixed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cached_fingerprints_stay_coherent_with_row_contents(
        ops in proptest::collection::vec(any_op(), 1..64),
    ) {
        let mut plane = DataPlane::new(BASE_ROW * ROW..(BASE_ROW + REGION_ROWS) * ROW);
        let mut model = Model::default();
        // The oracle's fingerprint of a row repeating `word`, hashed once
        // per distinct word.
        let mut oracle_fps: HashMap<u64, u64> = HashMap::new();
        for (i, &op) in ops.iter().enumerate() {
            let returned = plane.apply(op);
            model.apply(op);
            if op.is_compute() {
                prop_assert_eq!(
                    returned,
                    row_fingerprint(plane.row(op.row_addr())),
                    "op {} {:?}: returned fingerprint is stale", i, op
                );
            } else {
                prop_assert_eq!(returned, 0, "op {} {:?}", i, op);
            }
            for row in WINDOW {
                let addr = row * ROW;
                let word = model.get(addr);
                prop_assert!(
                    plane.row(addr).iter().all(|&w| w == word),
                    "op {} {:?}: row {} diverges from the model", i, op, row
                );
                // The contents match the model, so the oracle's hash of
                // the model row is the hash of the plane's row.
                let oracle = *oracle_fps
                    .entry(word)
                    .or_insert_with(|| fnv1a(&[word; WORDS_PER_ROW]));
                prop_assert_eq!(
                    plane.fingerprint(addr),
                    oracle,
                    "op {} {:?}: cached fingerprint of row {} is stale", i, op, row
                );
            }
        }
    }
}
