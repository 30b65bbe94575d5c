//! Sparse count matrices (§5.1).
//!
//! The paper stores only non-zero entries as `(row, column, value)` triples.
//! We keep the same information in two ordered maps — row-major and
//! column-major — so both row scans (all graphs containing a feature) and
//! column scans (all features of a graph) are cheap, and whole rows or
//! columns can be deleted, which is exactly what the maintenance rules
//! (1)–(4) of §5.1 require.

use std::collections::BTreeMap;
use std::ops::Bound;

/// A sparse `u32`-valued matrix over ordered row/column key types.
///
/// Key types must implement `Default` with `Default` being their minimum
/// value (true for all the integer newtypes the indices use); row/column
/// scans start their range there.
#[derive(Debug, Clone)]
pub struct SparseMatrix<R: Ord + Copy + Default, C: Ord + Copy + Default> {
    by_row: BTreeMap<(R, C), u32>,
    by_col: BTreeMap<(C, R), u32>,
}

impl<R: Ord + Copy + Default, C: Ord + Copy + Default> Default for SparseMatrix<R, C> {
    fn default() -> Self {
        SparseMatrix {
            by_row: BTreeMap::new(),
            by_col: BTreeMap::new(),
        }
    }
}

impl<R: Ord + Copy + Default, C: Ord + Copy + Default> SparseMatrix<R, C> {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.by_row.len()
    }

    /// Whether the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.by_row.is_empty()
    }

    /// Builds a matrix from `(row, col, value)` triples in one shot.
    /// Zero values are skipped (they would not be stored anyway) and the
    /// last write wins for duplicate coordinates. Bulk construction sorts
    /// each ordering once and feeds the maps a sorted stream — much
    /// cheaper than `nnz` interior `set` calls when filling a whole
    /// matrix, which is exactly the bootstrap build's shape.
    pub fn from_triples(triples: impl IntoIterator<Item = (R, C, u32)>) -> Self {
        let mut rows: Vec<((R, C), u32)> = triples
            .into_iter()
            .filter(|&(_, _, v)| v != 0)
            .map(|(r, c, v)| ((r, c), v))
            .collect();
        rows.sort_by_key(|&(k, _)| k);
        // Stable sort + last-wins dedup keeps `set` overwrite semantics.
        rows.reverse();
        rows.dedup_by_key(|&mut (k, _)| k);
        rows.reverse();
        let mut cols: Vec<((C, R), u32)> = rows.iter().map(|&((r, c), v)| ((c, r), v)).collect();
        cols.sort_unstable_by_key(|&(k, _)| k);
        SparseMatrix {
            by_row: rows.into_iter().collect(),
            by_col: cols.into_iter().collect(),
        }
    }

    /// Sets `(row, col)` to `value`; zero removes the entry.
    pub fn set(&mut self, row: R, col: C, value: u32) {
        if value == 0 {
            self.by_row.remove(&(row, col));
            self.by_col.remove(&(col, row));
        } else {
            self.by_row.insert((row, col), value);
            self.by_col.insert((col, row), value);
        }
    }

    /// The value at `(row, col)` (zero when absent).
    pub fn get(&self, row: R, col: C) -> u32 {
        self.by_row.get(&(row, col)).copied().unwrap_or(0)
    }

    /// Iterates the non-zero entries of one row as `(col, value)`.
    pub fn row(&self, row: R) -> impl Iterator<Item = (C, u32)> + '_ {
        self.by_row
            .range((Bound::Included((row, C::default())), Bound::Unbounded))
            .take_while(move |((r, _), _)| *r == row)
            .map(|((_, c), &v)| (*c, v))
    }

    /// Iterates the non-zero entries of one column as `(row, value)`.
    pub fn col(&self, col: C) -> impl Iterator<Item = (R, u32)> + '_ {
        self.by_col
            .range((Bound::Included((col, R::default())), Bound::Unbounded))
            .take_while(move |((c, _), _)| *c == col)
            .map(|((_, r), &v)| (*r, v))
    }

    /// Removes an entire row; returns how many entries were dropped.
    pub fn remove_row(&mut self, row: R) -> usize {
        let cols: Vec<C> = self.row(row).map(|(c, _)| c).collect();
        for c in &cols {
            self.by_row.remove(&(row, *c));
            self.by_col.remove(&(*c, row));
        }
        cols.len()
    }

    /// Removes an entire column; returns how many entries were dropped.
    pub fn remove_col(&mut self, col: C) -> usize {
        let rows: Vec<R> = self.col(col).map(|(r, _)| r).collect();
        for r in &rows {
            self.by_row.remove(&(*r, col));
            self.by_col.remove(&(col, *r));
        }
        rows.len()
    }

    /// Iterates all non-zero entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (R, C, u32)> + '_ {
        self.by_row.iter().map(|(&(r, c), &v)| (r, c, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_zero_removal() {
        let mut m: SparseMatrix<u32, u32> = SparseMatrix::new();
        m.set(1, 2, 5);
        assert_eq!(m.get(1, 2), 5);
        assert_eq!(m.get(2, 1), 0);
        assert_eq!(m.nnz(), 1);
        m.set(1, 2, 0);
        assert_eq!(m.get(1, 2), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn row_and_col_scans() {
        let mut m: SparseMatrix<u32, u64> = SparseMatrix::new();
        m.set(1, 10, 1);
        m.set(1, 20, 2);
        m.set(2, 10, 3);
        let row1: Vec<_> = m.row(1).collect();
        assert_eq!(row1, vec![(10, 1), (20, 2)]);
        let col10: Vec<_> = m.col(10).collect();
        assert_eq!(col10, vec![(1, 1), (2, 3)]);
        assert!(m.row(3).next().is_none());
    }

    #[test]
    fn remove_row_and_col() {
        let mut m: SparseMatrix<u32, u32> = SparseMatrix::new();
        for r in 0..3 {
            for c in 0..3 {
                m.set(r, c, r + c + 1);
            }
        }
        assert_eq!(m.remove_row(1), 3);
        assert_eq!(m.nnz(), 6);
        assert!(m.row(1).next().is_none());
        assert_eq!(m.remove_col(2), 2);
        assert_eq!(m.nnz(), 4);
        assert!(m.col(2).next().is_none());
        // Mirror stays consistent.
        for (r, c, v) in m.iter() {
            assert_eq!(m.col(c).find(|&(rr, _)| rr == r).map(|(_, v)| v), Some(v));
        }
    }

    #[test]
    fn overwrite_updates_both_maps() {
        let mut m: SparseMatrix<u32, u32> = SparseMatrix::new();
        m.set(5, 7, 1);
        m.set(5, 7, 9);
        assert_eq!(m.get(5, 7), 9);
        assert_eq!(m.col(7).next(), Some((5, 9)));
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn from_triples_matches_incremental_set() {
        let triples = [(2u32, 1u32, 5), (0, 3, 7), (2, 0, 1), (1, 1, 0), (0, 3, 9)];
        let bulk: SparseMatrix<u32, u32> = SparseMatrix::from_triples(triples);
        let mut slow: SparseMatrix<u32, u32> = SparseMatrix::new();
        for (r, c, v) in triples {
            slow.set(r, c, v);
        }
        assert_eq!(bulk.nnz(), slow.nnz());
        assert_eq!(bulk.get(0, 3), 9, "last write wins");
        assert_eq!(bulk.get(1, 1), 0, "zeros are skipped");
        for (r, c, v) in slow.iter() {
            assert_eq!(bulk.get(r, c), v);
            assert_eq!(
                bulk.col(c).find(|&(rr, _)| rr == r).map(|(_, v)| v),
                Some(v)
            );
        }
    }

    #[test]
    fn removing_missing_is_noop() {
        let mut m: SparseMatrix<u32, u32> = SparseMatrix::new();
        m.set(0, 0, 1);
        assert_eq!(m.remove_row(9), 0);
        assert_eq!(m.remove_col(9), 0);
        assert_eq!(m.nnz(), 1);
    }
}
