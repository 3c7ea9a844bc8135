//! Macroblock geometry: resolutions, MB grids and MB-row ranges.
//!
//! FEVES distributes work in units of *macroblock rows* (16-pixel-high
//! stripes). The types here make those units explicit so the scheduler, the
//! data-access manager and the kernels all speak the same language.

/// Macroblock edge length in luma pixels (H.264/AVC).
pub const MB_SIZE: usize = 16;

/// A video resolution in luma pixels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Resolution {
    /// Width in pixels (must be even for 4:2:0).
    pub width: usize,
    /// Height in pixels (must be even for 4:2:0).
    pub height: usize,
}

impl Resolution {
    /// Construct a resolution.
    pub const fn new(width: usize, height: usize) -> Self {
        Resolution { width, height }
    }

    /// 1920×1080 — the paper's evaluation resolution ("full HD", 1080p).
    pub const FULL_HD: Resolution = Resolution::new(1920, 1080);

    /// 1280×720.
    pub const HD720: Resolution = Resolution::new(1280, 720);

    /// 352×288 (CIF) — handy for fast tests.
    pub const CIF: Resolution = Resolution::new(352, 288);

    /// 176×144 (QCIF).
    pub const QCIF: Resolution = Resolution::new(176, 144);

    /// The macroblock grid covering this resolution (partial MBs rounded up).
    pub fn mb_grid(&self) -> MbGrid {
        MbGrid {
            cols: self.width.div_ceil(MB_SIZE),
            rows: self.height.div_ceil(MB_SIZE),
        }
    }

    /// Width/height rounded up to whole macroblocks — the padded encode size.
    pub fn padded(&self) -> Resolution {
        let g = self.mb_grid();
        Resolution::new(g.cols * MB_SIZE, g.rows * MB_SIZE)
    }

    /// Total luma pixels.
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }
}

/// A grid of macroblocks: `cols × rows`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MbGrid {
    /// Macroblocks per row.
    pub cols: usize,
    /// Macroblock rows — the `N` of the paper's load-balancing formulation.
    pub rows: usize,
}

impl MbGrid {
    /// Total number of macroblocks.
    pub fn count(&self) -> usize {
        self.cols * self.rows
    }

    /// Linear MB index for `(mbx, mby)`.
    #[inline]
    pub fn index(&self, mbx: usize, mby: usize) -> usize {
        debug_assert!(mbx < self.cols && mby < self.rows);
        mby * self.cols + mbx
    }
}

/// A half-open range of macroblock rows `[start, end)` assigned to a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RowRange {
    /// First MB row (inclusive).
    pub start: usize,
    /// One past the last MB row.
    pub end: usize,
}

impl RowRange {
    /// Construct a range; `start <= end` is required.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start <= end, "RowRange start {start} > end {end}");
        RowRange { start, end }
    }

    /// Empty range at 0.
    pub const EMPTY: RowRange = RowRange { start: 0, end: 0 };

    /// Number of MB rows covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when no rows are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Iterate over the covered MB-row indices.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        self.start..self.end
    }

    /// Rows of `self` *not* covered by `other`, as (above, below) leftovers.
    ///
    /// This is the geometric core of the paper's `MS_BOUNDS`/`LS_BOUNDS`
    /// routines: the extra rows a device needs transferred when two modules'
    /// distributions refer to the same buffer but cover different stripes.
    pub fn difference(&self, other: &RowRange) -> (RowRange, RowRange) {
        let above = if self.start < other.start {
            RowRange::new(self.start, self.end.min(other.start))
        } else {
            RowRange::EMPTY
        };
        let below = if self.end > other.end {
            RowRange::new(self.start.max(other.end), self.end)
        } else {
            RowRange::EMPTY
        };
        (above, below)
    }
}

/// Turn a per-device row-count vector (the paper's `m`/`l`/`s` distribution
/// vectors) into consecutive [`RowRange`]s, in device enumeration order.
pub fn ranges_from_counts(counts: &[usize]) -> Vec<RowRange> {
    let mut out = Vec::with_capacity(counts.len());
    let mut at = 0usize;
    for &c in counts {
        out.push(RowRange::new(at, at + c));
        at += c;
    }
    out
}

/// Split `n_rows` MB rows as evenly as possible over `parts` devices — the
/// paper's *equidistant* partitioning used for the first inter-frame.
pub fn equidistant(n_rows: usize, parts: usize) -> Vec<usize> {
    assert!(parts > 0);
    let base = n_rows / parts;
    let extra = n_rows % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_hd_grid_matches_paper() {
        // 1080p: 120 MBs per row, 68 MB rows (1088 padded height).
        let g = Resolution::FULL_HD.mb_grid();
        assert_eq!(g.cols, 120);
        assert_eq!(g.rows, 68);
        assert_eq!(Resolution::FULL_HD.padded(), Resolution::new(1920, 1088));
    }

    #[test]
    fn row_range_len_and_iter() {
        let r = RowRange::new(3, 7);
        assert_eq!(r.len(), 4);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![3, 4, 5, 6]);
        assert!(RowRange::EMPTY.is_empty());
    }

    #[test]
    fn difference_leaves_the_uncovered_rows() {
        let a = RowRange::new(2, 10);
        let b = RowRange::new(5, 8);
        let (above, below) = a.difference(&b);
        assert_eq!(above, RowRange::new(2, 5));
        assert_eq!(below, RowRange::new(8, 10));

        // Contained range has no difference.
        let (ab, bl) = b.difference(&a);
        assert!(ab.is_empty() && bl.is_empty());
    }

    #[test]
    fn ranges_from_counts_are_consecutive() {
        let r = ranges_from_counts(&[3, 0, 5]);
        assert_eq!(r[0], RowRange::new(0, 3));
        assert_eq!(r[1], RowRange::new(3, 3));
        assert_eq!(r[2], RowRange::new(3, 8));
    }

    #[test]
    fn equidistant_sums_and_balances() {
        let d = equidistant(68, 5);
        assert_eq!(d.iter().sum::<usize>(), 68);
        assert_eq!(d.iter().max().unwrap() - d.iter().min().unwrap(), 1);
        assert_eq!(equidistant(4, 8), vec![1, 1, 1, 1, 0, 0, 0, 0]);
    }
}
