//! The compute-region data plane: simulated row *contents* for the
//! bulk-bitwise subsystem.
//!
//! The cycle-level model times operations; it does not hold data. That is
//! the right trade for the paper's original use cases (signatures and
//! zeroing need no value tracking), but the bulk-bitwise family exists to
//! *compute*, so its results must be value-checked against a scalar
//! reference — not just timed. This module materializes row contents
//! lazily and only for rows inside the authorized compute region, so a
//! device without a compute region pays nothing.
//!
//! Rows never touched (or outside the region) read as all-zeros; a
//! `RowCopy`/`Not` whose source lies outside the region therefore reads
//! zeros, which the planner never relies on. Every mutation returns the
//! FNV-1a-64 fingerprint of the destination row, which the service layer
//! carries into completions and the wire protocol folds into the session
//! checksum — making a pinned replay checksum value-verifying end to end.
//!
//! Fingerprints are cached beside each materialized row and set when the
//! row is written, so reading one never re-hashes. Only operations that
//! create new contents pay a full-row hash: `RowFill`, `Not`, and MAJ
//! (once for all three rows of the group). Inits and CODIC-det/clone-zero
//! take the compile-time [`ZERO_FP`]/[`ONES_FP`], a `RowCopy` inherits its
//! source's cached fingerprint, and a dropped row reads [`ZERO_FP`] again
//! — all O(1) in hashing. The cache is per plane: nothing is shared
//! between sessions.

use std::collections::HashMap;
use std::ops::Range;

use codic_dram::geometry::DramGeometry;

use crate::exec::DataEffect;
use crate::ops::CodicOp;

/// 64-bit words per DRAM row (8 KB rows).
pub const WORDS_PER_ROW: usize = (DramGeometry::ROW_BYTES / 8) as usize;

/// One row of simulated contents.
pub type RowWords = [u64; WORDS_PER_ROW];

/// The all-zeros contents every unmaterialized row reads as.
static ZERO_ROW: RowWords = [0; WORDS_PER_ROW];

/// FNV-1a-64 over `words` in little-endian byte order — the same
/// algorithm (and constants) the wire protocol's session checksum uses,
/// so a row fingerprint folds naturally into the replay checksum.
#[must_use]
pub const fn row_fingerprint(words: &RowWords) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut w = 0;
    while w < WORDS_PER_ROW {
        let bytes = words[w].to_le_bytes();
        let mut b = 0;
        while b < bytes.len() {
            hash ^= bytes[b] as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            b += 1;
        }
        w += 1;
    }
    hash
}

/// The fingerprint of an all-zeros row (every unmaterialized row).
pub const ZERO_FP: u64 = row_fingerprint(&[0; WORDS_PER_ROW]);

/// The fingerprint of an all-ones row.
pub const ONES_FP: u64 = row_fingerprint(&[u64::MAX; WORDS_PER_ROW]);

/// One materialized row and the fingerprint of its current contents.
#[derive(Debug, Clone)]
struct StoredRow {
    words: Box<RowWords>,
    fingerprint: u64,
}

impl StoredRow {
    /// Hashes the current contents into the cached fingerprint.
    fn rehash(&mut self) -> u64 {
        self.fingerprint = row_fingerprint(&self.words);
        self.fingerprint
    }
}

/// Lazily materialized row contents for one device's compute region.
#[derive(Debug, Clone, Default)]
pub struct DataPlane {
    region: Range<u64>,
    rows: HashMap<u64, StoredRow>,
    rows_hashed: u64,
}

impl DataPlane {
    /// A data plane tracking contents for rows inside `region` (byte
    /// addresses).
    #[must_use]
    pub fn new(region: Range<u64>) -> Self {
        DataPlane {
            region,
            rows: HashMap::new(),
            rows_hashed: 0,
        }
    }

    /// The tracked byte-address region.
    #[must_use]
    pub fn region(&self) -> &Range<u64> {
        &self.region
    }

    /// Number of rows materialized so far.
    #[must_use]
    pub fn materialized_rows(&self) -> usize {
        self.rows.len()
    }

    /// Full-row fingerprints computed so far — one per content-creating
    /// operation (`RowFill`, `Not`, MAJ). Host-side bookkeeping only; it
    /// never feeds device timing.
    #[must_use]
    pub fn rows_hashed(&self) -> u64 {
        self.rows_hashed
    }

    fn key(addr: u64) -> u64 {
        addr - addr % DramGeometry::ROW_BYTES
    }

    /// The contents of the row containing `addr` (all-zeros when never
    /// written or outside the region).
    #[must_use]
    pub fn row(&self, addr: u64) -> &RowWords {
        self.rows
            .get(&Self::key(addr))
            .map_or(&ZERO_ROW, |row| row.words.as_ref())
    }

    /// The FNV-1a-64 fingerprint of the row containing `addr`, read from
    /// the cache.
    #[must_use]
    pub fn fingerprint(&self, addr: u64) -> u64 {
        self.rows
            .get(&Self::key(addr))
            .map_or(ZERO_FP, |row| row.fingerprint)
    }

    /// The stored row keyed `key`, materialized as zeros on first use.
    fn stored_mut(&mut self, key: u64) -> &mut StoredRow {
        self.rows.entry(key).or_insert_with(|| StoredRow {
            words: Box::new(ZERO_ROW),
            fingerprint: ZERO_FP,
        })
    }

    /// Fills the row containing `addr` with all-ones or all-zeros, whose
    /// fingerprints are constants.
    fn fill_uniform(&mut self, addr: u64, ones: bool) -> u64 {
        let (word, fingerprint) = if ones {
            (u64::MAX, ONES_FP)
        } else {
            (0, ZERO_FP)
        };
        let row = self.stored_mut(Self::key(addr));
        row.words.fill(word);
        row.fingerprint = fingerprint;
        fingerprint
    }

    /// Writes `f` of each word of the row containing `src_addr` (zeros
    /// when unmaterialized) into the row containing `dst_addr`, in place
    /// and without a row-sized temporary, and returns the destination.
    /// Source and destination may be the same row. The destination's
    /// cached fingerprint is left for the caller to set.
    fn map_row(&mut self, src_addr: u64, dst_addr: u64, f: impl Fn(u64) -> u64) -> &mut StoredRow {
        let (src, dst) = (Self::key(src_addr), Self::key(dst_addr));
        if src == dst {
            let row = self.stored_mut(dst);
            row.words.iter_mut().for_each(|w| *w = f(*w));
            return row;
        }
        if !self.rows.contains_key(&src) {
            let row = self.stored_mut(dst);
            row.words.fill(f(0));
            return row;
        }
        self.stored_mut(dst);
        let [Some(s), Some(d)] = self.rows.get_disjoint_mut([&src, &dst]) else {
            unreachable!("both rows are materialized and distinct")
        };
        for (d, s) in d.words.iter_mut().zip(s.words.iter()) {
            *d = f(*s);
        }
        d
    }

    /// Triple-row activation on the group at `row_addr`: the group
    /// charge-shares to the bitwise majority, and the restore writes
    /// that majority back into all three rows, which share one hash.
    fn majority(&mut self, row_addr: u64) -> u64 {
        let base = Self::key(row_addr);
        let keys = [
            base,
            base + DramGeometry::ROW_BYTES,
            base + 2 * DramGeometry::ROW_BYTES,
        ];
        for key in keys {
            self.stored_mut(key);
        }
        let [Some(a), Some(b), Some(c)] = self.rows.get_disjoint_mut(keys.each_ref()) else {
            unreachable!("the three group rows are materialized and distinct")
        };
        for ((a, b), c) in a
            .words
            .iter_mut()
            .zip(b.words.iter_mut())
            .zip(c.words.iter_mut())
        {
            let maj = (*a & *b) | (*a & *c) | (*b & *c);
            (*a, *b, *c) = (maj, maj, maj);
        }
        self.rows_hashed += 1;
        let fingerprint = a.rehash();
        b.fingerprint = fingerprint;
        c.fingerprint = fingerprint;
        fingerprint
    }

    /// Applies the architectural data effect of `op` and returns the
    /// fingerprint of the written destination row for bulk-bitwise
    /// compute operations (`0` for everything else).
    ///
    /// Non-compute destructive operations landing inside the region keep
    /// the plane honest: CODIC-det and the clone-zero baselines leave the
    /// deterministic value, and signature-class commands drop the row
    /// (its process-variation contents are not modeled, so it reads as
    /// zeros afterwards). Ordinary reads and writes are column traffic
    /// the plane does not track.
    pub fn apply(&mut self, op: CodicOp) -> u64 {
        match op {
            CodicOp::RowInit { row_addr, ones } => self.fill_uniform(row_addr, ones),
            CodicOp::RowFill { row_addr, pattern } => {
                self.rows_hashed += 1;
                let row = self.stored_mut(Self::key(row_addr));
                row.words.fill(pattern);
                row.rehash()
            }
            CodicOp::RowCopy { src_addr, dst_addr } => {
                let fingerprint = self.fingerprint(src_addr);
                self.map_row(src_addr, dst_addr, |w| w).fingerprint = fingerprint;
                fingerprint
            }
            CodicOp::Not { src_addr, dst_addr } => {
                self.rows_hashed += 1;
                self.map_row(src_addr, dst_addr, |w| !w).rehash()
            }
            CodicOp::MajAnd { row_addr } | CodicOp::MajOr { row_addr } => self.majority(row_addr),
            _ => {
                // Non-compute operations only matter when they land on a
                // tracked row.
                if op.written_rows().rows > 0 && self.region.contains(&op.row_addr()) {
                    match op.class().data_effect() {
                        DataEffect::Zeros => {
                            self.fill_uniform(op.row_addr(), false);
                        }
                        DataEffect::Ones => {
                            self.fill_uniform(op.row_addr(), true);
                        }
                        DataEffect::Signature | DataEffect::Scramble => {
                            self.rows.remove(&Self::key(op.row_addr()));
                        }
                        DataEffect::Preserve | DataEffect::Computed => {}
                    }
                }
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::VariantId;

    const ROW: u64 = DramGeometry::ROW_BYTES;

    fn plane() -> DataPlane {
        DataPlane::new(0..16 * ROW)
    }

    #[test]
    fn untouched_rows_read_as_zeros() {
        let p = plane();
        assert!(p.row(0).iter().all(|&w| w == 0));
        assert_eq!(p.fingerprint(0), row_fingerprint(&ZERO_ROW));
        assert_eq!(p.materialized_rows(), 0);
    }

    #[test]
    fn init_fill_copy_and_not_have_value_semantics() {
        let mut p = plane();
        p.apply(CodicOp::RowFill {
            row_addr: 0,
            pattern: 0xA5A5_A5A5_A5A5_A5A5,
        });
        p.apply(CodicOp::RowCopy {
            src_addr: 0,
            dst_addr: ROW,
        });
        assert_eq!(p.row(ROW)[7], 0xA5A5_A5A5_A5A5_A5A5);
        let fp = p.apply(CodicOp::Not {
            src_addr: ROW,
            dst_addr: 2 * ROW,
        });
        assert_eq!(p.row(2 * ROW)[0], 0x5A5A_5A5A_5A5A_5A5A);
        assert_eq!(fp, p.fingerprint(2 * ROW));
        p.apply(CodicOp::RowInit {
            row_addr: 2 * ROW,
            ones: true,
        });
        assert!(p.row(2 * ROW).iter().all(|&w| w == u64::MAX));
    }

    #[test]
    fn triple_activation_writes_the_majority_into_all_three_rows() {
        let mut p = plane();
        for (i, pattern) in [(0u64, 0b1100u64), (1, 0b1010), (2, 0b1001)] {
            p.apply(CodicOp::RowFill {
                row_addr: i * ROW,
                pattern,
            });
        }
        p.apply(CodicOp::MajAnd { row_addr: 0 });
        for i in 0..3 {
            assert_eq!(p.row(i * ROW)[0], 0b1000, "row {i} holds MAJ");
        }
    }

    #[test]
    fn addressing_is_row_granular() {
        let mut p = plane();
        p.apply(CodicOp::RowFill {
            row_addr: ROW + 64,
            pattern: 7,
        });
        assert_eq!(p.row(ROW)[0], 7, "mid-row addresses select the row");
    }

    #[test]
    fn legacy_destructive_ops_keep_tracked_rows_honest() {
        let mut p = plane();
        p.apply(CodicOp::RowFill {
            row_addr: 0,
            pattern: 7,
        });
        assert_eq!(p.apply(CodicOp::RowCloneZero { row_addr: 0 }), 0);
        assert!(p.row(0).iter().all(|&w| w == 0));
        p.apply(CodicOp::command(VariantId::DetOne, 0));
        assert!(p.row(0).iter().all(|&w| w == u64::MAX));
        p.apply(CodicOp::command(VariantId::Sig, 0));
        assert_eq!(p.row(0)[0], 0, "signature rows are dropped, read zeros");
        // Out-of-region destructive ops are ignored entirely.
        p.apply(CodicOp::RowCloneZero {
            row_addr: 1024 * ROW,
        });
        assert_eq!(p.materialized_rows(), 0, "sig dropped row 0; nothing new");
    }
}
