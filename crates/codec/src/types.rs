//! Common codec types: motion vectors, partitions, encode parameters.

use feves_video::geometry::{RowRange, MB_SIZE};

/// A full-pel motion vector (displacement into a reference frame).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Mv {
    /// Horizontal displacement in full pixels.
    pub x: i16,
    /// Vertical displacement in full pixels.
    pub y: i16,
}

impl Mv {
    /// Construct a motion vector.
    pub const fn new(x: i16, y: i16) -> Self {
        Mv { x, y }
    }

    /// Zero displacement.
    pub const ZERO: Mv = Mv { x: 0, y: 0 };

    /// Convert to quarter-pel units.
    pub fn to_qpel(self) -> QpelMv {
        QpelMv {
            x: self.x * 4,
            y: self.y * 4,
        }
    }
}

/// A quarter-pel motion vector (units of 1/4 pixel), the output of SME.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct QpelMv {
    /// Horizontal displacement in quarter pixels.
    pub x: i16,
    /// Vertical displacement in quarter pixels.
    pub y: i16,
}

impl QpelMv {
    /// Construct a quarter-pel motion vector.
    pub const fn new(x: i16, y: i16) -> Self {
        QpelMv { x, y }
    }

    /// Zero displacement.
    pub const ZERO: QpelMv = QpelMv { x: 0, y: 0 };

    /// Sub-pel phase in quarter units, each in `0..4`.
    pub fn phase(self) -> (u8, u8) {
        (self.x.rem_euclid(4) as u8, self.y.rem_euclid(4) as u8)
    }
}

/// The seven H.264/AVC inter-prediction macroblock partition modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PartitionMode {
    /// One 16×16 partition.
    P16x16,
    /// Two 16×8 partitions.
    P16x8,
    /// Two 8×16 partitions.
    P8x16,
    /// Four 8×8 partitions.
    P8x8,
    /// Eight 8×4 partitions.
    P8x4,
    /// Eight 4×8 partitions.
    P4x8,
    /// Sixteen 4×4 partitions.
    P4x4,
}

/// All partition modes in coding order.
pub const ALL_PARTITION_MODES: [PartitionMode; 7] = [
    PartitionMode::P16x16,
    PartitionMode::P16x8,
    PartitionMode::P8x16,
    PartitionMode::P8x8,
    PartitionMode::P8x4,
    PartitionMode::P4x8,
    PartitionMode::P4x4,
];

impl PartitionMode {
    /// Partition width and height in pixels.
    pub const fn dims(self) -> (usize, usize) {
        match self {
            PartitionMode::P16x16 => (16, 16),
            PartitionMode::P16x8 => (16, 8),
            PartitionMode::P8x16 => (8, 16),
            PartitionMode::P8x8 => (8, 8),
            PartitionMode::P8x4 => (8, 4),
            PartitionMode::P4x8 => (4, 8),
            PartitionMode::P4x4 => (4, 4),
        }
    }

    /// Number of partitions of this shape in one macroblock.
    pub const fn count(self) -> usize {
        let (w, h) = self.dims();
        (MB_SIZE / w) * (MB_SIZE / h)
    }

    /// Pixel offset of partition `idx` within the macroblock (raster order).
    pub fn offset(self, idx: usize) -> (usize, usize) {
        let (w, h) = self.dims();
        let per_row = MB_SIZE / w;
        debug_assert!(idx < self.count());
        ((idx % per_row) * w, (idx / per_row) * h)
    }

    /// Index of this mode in [`ALL_PARTITION_MODES`].
    pub fn index(self) -> usize {
        match self {
            PartitionMode::P16x16 => 0,
            PartitionMode::P16x8 => 1,
            PartitionMode::P8x16 => 2,
            PartitionMode::P8x8 => 3,
            PartitionMode::P8x4 => 4,
            PartitionMode::P4x8 => 5,
            PartitionMode::P4x4 => 6,
        }
    }
}

/// Total partition blocks across all 7 modes (1+2+2+4+8+8+16).
pub const TOTAL_PARTITION_BLOCKS: usize = 41;

/// Search-area configuration: an `n × n` pixel window centred on the
/// collocated macroblock, exactly the paper's "SA size" axis in Fig 6(a).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SearchArea(pub u16);

impl SearchArea {
    /// The paper's headline size.
    pub const SA32: SearchArea = SearchArea(32);

    /// Displacement range: candidates span `[-range, range)` per axis.
    pub fn range(self) -> i16 {
        (self.0 / 2) as i16
    }

    /// Number of candidate displacements (`n²`).
    pub fn candidates(self) -> usize {
        (self.0 as usize) * (self.0 as usize)
    }
}

/// Largest reference window the codec supports; a coded reference index
/// is below it.
pub const MAX_REFS: usize = 16;

/// Largest quantization parameter (H.264's range is 0 … 51).
pub const MAX_QP: u8 = 51;

/// Encoding parameters relevant to the inter-loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EncodeParams {
    /// Full-search window (paper: 32×32 … 256×256).
    pub search_area: SearchArea,
    /// Number of reference frames (paper: 1 … 8).
    pub n_ref: usize,
    /// Quantization parameter for P slices (paper: 28).
    pub qp: u8,
    /// Quantization parameter for the leading I slice (paper: 27).
    pub qp_intra: u8,
}

impl Default for EncodeParams {
    fn default() -> Self {
        // VCEG common conditions used by the paper: QP {27, 28} for {I, P}.
        EncodeParams {
            search_area: SearchArea::SA32,
            n_ref: 1,
            qp: 28,
            qp_intra: 27,
        }
    }
}

impl EncodeParams {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.search_area.0 < 8 || self.search_area.0 > 512 {
            return Err(format!("search area {} out of [8,512]", self.search_area.0));
        }
        if !self.search_area.0.is_power_of_two() {
            return Err("search area must be a power of two".into());
        }
        if self.n_ref == 0 || self.n_ref > MAX_REFS {
            return Err(format!("n_ref {} out of [1,{MAX_REFS}]", self.n_ref));
        }
        if self.qp > MAX_QP || self.qp_intra > MAX_QP {
            return Err(format!("QP must be <= {MAX_QP}"));
        }
        Ok(())
    }
}

/// A frame's worth of per-macroblock values, addressable by MB coordinate
/// or sliceable by an MB-row range — the unit the Data Access Management
/// moves and the unit [`crate::par`] hands to a row kernel. The one grid
/// behind [`crate::me::MeField`], [`crate::sme::SmeField`],
/// [`crate::mc::ModeField`], [`crate::recon::CoeffField`] and
/// [`crate::chroma::ChromaField`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MbField<T> {
    mbs: Vec<T>,
    mb_cols: usize,
    mb_rows: usize,
}

impl<T: Clone + Default> MbField<T> {
    /// A field of `mb_cols × mb_rows` default values.
    #[inline]
    pub fn new(mb_cols: usize, mb_rows: usize) -> Self {
        MbField {
            mbs: vec![T::default(); mb_cols * mb_rows],
            mb_cols,
            mb_rows,
        }
    }

    /// Macroblocks per row.
    #[inline]
    pub fn mb_cols(&self) -> usize {
        self.mb_cols
    }

    /// Macroblock rows.
    #[inline]
    pub fn mb_rows(&self) -> usize {
        self.mb_rows
    }

    /// The value of macroblock `(mbx, mby)`.
    #[inline]
    pub fn mb(&self, mbx: usize, mby: usize) -> &T {
        &self.mbs[mby * self.mb_cols + mbx]
    }

    /// The mutable value of macroblock `(mbx, mby)`.
    #[inline]
    pub fn mb_mut(&mut self, mbx: usize, mby: usize) -> &mut T {
        &mut self.mbs[mby * self.mb_cols + mbx]
    }

    /// Borrow the MB rows of `range`, row-major.
    #[inline]
    pub fn rows(&self, range: RowRange) -> &[T] {
        &self.mbs[range.start * self.mb_cols..range.end * self.mb_cols]
    }

    /// Mutable slice covering the MB rows of `range` (for row-partitioned
    /// fills by different devices or threads).
    #[inline]
    pub fn rows_mut(&mut self, range: RowRange) -> &mut [T] {
        &mut self.mbs[range.start * self.mb_cols..range.end * self.mb_cols]
    }
}

/// The inter-loop modules of Fig 1, in the grouping the paper uses: the
/// compute-heavy trio (ME, INT, SME) is load-balanced across devices, the
/// light `R*` group (MC, TQ, TQ⁻¹, DBL) runs on one best device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Module {
    /// Motion estimation (full-search block matching).
    Me,
    /// Sub-pixel interpolation building the SF.
    Interp,
    /// Sub-pixel motion estimation.
    Sme,
    /// Motion compensation + mode decision (R*).
    Mc,
    /// Forward transform + quantization (R*).
    Tq,
    /// Dequantization + inverse transform (R*).
    Itq,
    /// Deblocking filter (R*).
    Dbl,
}

impl Module {
    /// All modules in pipeline order.
    pub const ALL: [Module; 7] = [
        Module::Me,
        Module::Interp,
        Module::Sme,
        Module::Mc,
        Module::Tq,
        Module::Itq,
        Module::Dbl,
    ];

    /// The load-balanced compute-intensive modules (≈90 % of encoding time).
    pub const BALANCED: [Module; 3] = [Module::Me, Module::Interp, Module::Sme];

    /// The single-device `R*` group.
    pub const RSTAR: [Module; 4] = [Module::Mc, Module::Tq, Module::Itq, Module::Dbl];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qpel_roundtrip() {
        let q = QpelMv::new(-7, 9);
        assert_eq!(q.phase(), (1, 1));
        let q2 = QpelMv::new(8, -8);
        assert_eq!(q2.phase(), (0, 0));
        assert_eq!(Mv::new(3, -1).to_qpel(), QpelMv::new(12, -4));
    }

    #[test]
    fn partition_counts_sum_to_41() {
        let total: usize = ALL_PARTITION_MODES.iter().map(|m| m.count()).sum();
        assert_eq!(total, TOTAL_PARTITION_BLOCKS);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // 2-D coverage grid
    fn partition_offsets_tile_the_mb() {
        for mode in ALL_PARTITION_MODES {
            let (w, h) = mode.dims();
            let mut covered = [[false; MB_SIZE]; MB_SIZE];
            for i in 0..mode.count() {
                let (ox, oy) = mode.offset(i);
                for y in oy..oy + h {
                    for x in ox..ox + w {
                        assert!(!covered[y][x], "{mode:?} overlaps at {x},{y}");
                        covered[y][x] = true;
                    }
                }
            }
            assert!(covered.iter().flatten().all(|&c| c), "{mode:?} leaves gaps");
        }
    }

    #[test]
    fn search_area_geometry() {
        assert_eq!(SearchArea::SA32.range(), 16);
        assert_eq!(SearchArea::SA32.candidates(), 1024);
        assert_eq!(SearchArea(64).candidates(), 4 * 1024);
    }

    #[test]
    fn params_validation() {
        assert!(EncodeParams::default().validate().is_ok());
        let bad = EncodeParams {
            n_ref: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad_sa = EncodeParams {
            search_area: SearchArea(48),
            ..Default::default()
        };
        assert!(bad_sa.validate().is_err());
    }

    #[test]
    fn mb_field_row_slices_equal_the_per_mb_walk() {
        let (cols, rows) = (5, 7);
        let mut f: MbField<u32> = MbField::new(cols, rows);
        assert_eq!((f.mb_cols(), f.mb_rows()), (cols, rows));
        for mby in 0..rows {
            for mbx in 0..cols {
                *f.mb_mut(mbx, mby) = (mby * 100 + mbx) as u32;
            }
        }
        for start in 0..=rows {
            for end in start..=rows {
                let r = RowRange::new(start, end);
                let walk: Vec<u32> = (start..end)
                    .flat_map(|mby| (0..cols).map(move |mbx| (mbx, mby)))
                    .map(|(mbx, mby)| *f.mb(mbx, mby))
                    .collect();
                assert_eq!(f.rows(r), walk, "rows({start}..{end})");
                assert_eq!(f.rows_mut(r), walk, "rows_mut({start}..{end})");
            }
        }
        // A write through a row slice lands on the macroblock it names.
        f.rows_mut(RowRange::new(3, 4))[2] = 9;
        assert_eq!(*f.mb(2, 3), 9);
    }

    #[test]
    #[should_panic]
    fn mb_field_row_past_the_end_panics() {
        let f: MbField<u32> = MbField::new(5, 7);
        let _ = f.rows(RowRange::new(6, 8));
    }

    #[test]
    #[should_panic]
    fn mb_field_mb_past_the_last_row_panics() {
        let f: MbField<u32> = MbField::new(5, 7);
        let _ = f.mb(0, 7);
    }

    #[test]
    fn module_grouping() {
        assert_eq!(
            Module::BALANCED.len() + Module::RSTAR.len(),
            Module::ALL.len()
        );
    }
}
