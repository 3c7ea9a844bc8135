//! Sub-pixel interpolation (the paper's INT module).
//!
//! Builds the Sub-pixel interpolated Frame (SF) from a reconstructed
//! reference frame: half-pel samples via the H.264/AVC 6-tap Wiener filter
//! `(1, -5, 20, 20, -5, 1)/32` and quarter-pel samples via bilinear
//! averaging, exactly the standard's §8.4.2.2 scheme. The SF is stored as 16
//! phase planes — one per quarter-pel phase `(fx, fy) ∈ {0..3}²` — so it "is
//! as large as 16 RFs" just as the paper states, and so a contiguous stripe
//! of MB rows of the SF is a well-defined transfer unit for the scheduler.
//!
//! Interpolation of an output row depends only on a ±3-row halo of the
//! *source* reference frame, never on other SF rows, so any row-partitioned
//! execution produces bit-identical SFs (the partition-invariance the
//! framework relies on).
//!
//! The row kernel itself lives in [`crate::kernels`]
//! (`FEVES_KERNELS=scalar|fast`): the fast path hoists the border clamping
//! into padded rows and computes the quarter-pel averages with packed SWAR
//! byte math, bit-exact against the scalar reference.

use crate::par;
use feves_video::geometry::{RowRange, MB_SIZE};
use feves_video::plane::{Plane, PlaneBandMut};

/// The sub-pixel interpolated frame: 16 quarter-pel phase planes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubpelFrame {
    phases: Vec<Plane<u8>>,
    width: usize,
    height: usize,
}

impl SubpelFrame {
    /// Allocate an SF for a `width × height` (padded) reference frame.
    pub fn new(width: usize, height: usize) -> Self {
        SubpelFrame {
            phases: (0..16).map(|_| Plane::new(width, height)).collect(),
            width,
            height,
        }
    }

    /// Reference-frame width this SF covers.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Reference-frame height this SF covers.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Borrow the plane of phase `(fx, fy)` (quarter-pel units, `0..4`).
    pub fn phase(&self, fx: u8, fy: u8) -> &Plane<u8> {
        &self.phases[fy as usize * 4 + fx as usize]
    }

    /// Sample at quarter-pel coordinates (clamped at frame borders).
    #[inline]
    pub fn sample(&self, qx: isize, qy: isize) -> u8 {
        let fx = qx.rem_euclid(4) as usize;
        let fy = qy.rem_euclid(4) as usize;
        let x = qx.div_euclid(4);
        let y = qy.div_euclid(4);
        self.phases[fy * 4 + fx].get_clamped(x, y)
    }

    /// The `w × h` block (`w, h ≤ 16`) whose top-left sample sits at
    /// quarter-pel `(qx, qy)`, for SME, MC and the decoder alike: a view
    /// into the phase plane when the block is inside it, else a copy into
    /// `tile` in which samples beyond an edge repeat that edge's row or
    /// column — the one place that rule is written down.
    #[inline(always)]
    pub fn block<'a>(
        &'a self,
        qx: i32,
        qy: i32,
        w: usize,
        h: usize,
        tile: &'a mut Tile,
    ) -> BlockRef<'a> {
        let plane = &self.phases[((qy & 3) * 4 + (qx & 3)) as usize];
        // `>>` floors, so with `& 3` this is the Euclidean split for
        // negative positions too.
        let (x0, y0) = ((qx >> 2) as isize, (qy >> 2) as isize);
        let inside =
            x0 >= 0 && y0 >= 0 && x0 as usize + w <= self.width && y0 as usize + h <= self.height;
        if inside {
            BlockRef {
                data: plane.as_slice(),
                offset: y0 as usize * plane.stride() + x0 as usize,
                stride: plane.stride(),
            }
        } else {
            copy_clamped(plane, x0, y0, w, h, tile);
            BlockRef {
                data: tile,
                offset: 0,
                stride: TILE,
            }
        }
    }

    /// Interpolate the pixel rows covered by the MB rows of `rows`, reading
    /// the reference plane `rf`. May be called for disjoint ranges by
    /// different devices; the union covers the whole SF.
    pub fn interpolate_rows(&mut self, rf: &Plane<u8>, rows: RowRange) {
        assert_eq!(rf.width(), self.width);
        assert_eq!(rf.height(), self.height);
        let y0 = (rows.start * MB_SIZE).min(self.height);
        let y1 = (rows.end * MB_SIZE).min(self.height);
        if y0 >= y1 {
            return;
        }
        // Split each phase plane into [0, y0), [y0, y1), [y1, h) bands and
        // hand the middle band to the row kernel.
        let counts = [y0, y1 - y0, self.height - y1];
        let mut bands: Vec<_> = self
            .phases
            .iter_mut()
            .map(|p| p.split_rows_mut(&counts).swap_remove(1))
            .collect();
        crate::kernels::interp_band(rf, self.width, y0, y1, &mut bands);
    }

    /// The SF rows of each MB row of `rows` as an item of their own (all 16
    /// phase bands), for [`crate::par`] regions.
    pub fn mb_rows_mut(&mut self, rows: RowRange) -> Vec<SubpelRowMut<'_>> {
        let mut out: Vec<_> = rows
            .iter()
            .map(|mby| SubpelRowMut {
                mby,
                bands: Vec::with_capacity(16),
            })
            .collect();
        for phase in &mut self.phases {
            for (row, band) in out.iter_mut().zip(phase.split_mb_rows_mut(rows)) {
                row.bands.push(band);
            }
        }
        out
    }

    /// [`Self::interpolate_rows`] with the MB rows spread over the host's
    /// cores ([`crate::par`]).
    pub fn interpolate_rows_parallel(&mut self, rf: &Plane<u8>, rows: RowRange) {
        assert_eq!(rf.width(), self.width);
        assert_eq!(rf.height(), self.height);
        par::for_each_row(self.mb_rows_mut(rows), |_, row| row.interpolate(rf));
    }
}

/// Side of the largest block [`SubpelFrame::block`] serves (a macroblock).
const TILE: usize = MB_SIZE;

/// Scratch for a block that straddles the frame edge, row stride 16.
pub type Tile = [u8; TILE * TILE];

/// A block of samples as a raster view: row `r` is
/// `data[offset + r * stride..][..w]`.
#[derive(Clone, Copy, Debug)]
pub struct BlockRef<'a> {
    /// The samples the block lives in (a phase plane, or a [`Tile`]).
    pub data: &'a [u8],
    /// Index of the block's first sample.
    pub offset: usize,
    /// Distance between the starts of consecutive rows.
    pub stride: usize,
}

impl<'a> BlockRef<'a> {
    /// The block's `h` rows of `w` samples.
    pub fn rows(self, w: usize, h: usize) -> impl Iterator<Item = &'a [u8]> {
        (0..h).map(move |r| &self.data[self.offset + r * self.stride..][..w])
    }

    /// Copy the `w × h` block into the rows of `dst`, `dst_stride` apart.
    pub fn widen_into(self, w: usize, h: usize, dst: &mut [i16], dst_stride: usize) {
        for (dst, src) in dst.chunks_mut(dst_stride).zip(self.rows(w, h)) {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s as i16;
            }
        }
    }
}

/// The border path of [`SubpelFrame::block`], out of line: row by row,
/// clamp the row index, then the column of each sample.
#[inline(never)]
fn copy_clamped(plane: &Plane<u8>, x0: isize, y0: isize, w: usize, h: usize, tile: &mut Tile) {
    assert!(w <= TILE && h <= TILE, "{w}x{h} block exceeds the tile");
    let (last_x, last_y) = (plane.width() as isize - 1, plane.height() as isize - 1);
    for (r, dst) in tile.chunks_exact_mut(TILE).take(h).enumerate() {
        let src = plane.row((y0 + r as isize).clamp(0, last_y) as usize);
        for (c, d) in dst[..w].iter_mut().enumerate() {
            *d = src[(x0 + c as isize).clamp(0, last_x) as usize];
        }
    }
}

/// The 16 phase bands of one MB row of a [`SubpelFrame`]
/// ([`SubpelFrame::mb_rows_mut`]).
pub struct SubpelRowMut<'a> {
    mby: usize,
    bands: Vec<PlaneBandMut<'a, u8>>,
}

impl SubpelRowMut<'_> {
    /// Interpolate this MB row from the reference plane `rf`.
    pub fn interpolate(mut self, rf: &Plane<u8>) {
        let y0 = (self.mby * MB_SIZE).min(rf.height());
        let y1 = ((self.mby + 1) * MB_SIZE).min(rf.height());
        if y0 < y1 {
            crate::kernels::interp_band(rf, rf.width(), y0, y1, &mut self.bands);
        }
    }
}

/// Build a full SF for `rf` (single call convenience).
pub fn interpolate(rf: &Plane<u8>) -> SubpelFrame {
    let mut sf = SubpelFrame::new(rf.width(), rf.height());
    let mb_rows = rf.height().div_ceil(MB_SIZE);
    sf.interpolate_rows(rf, RowRange::new(0, mb_rows));
    sf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_phase_reproduces_source() {
        let rf = Plane::from_fn(32, 32, |x, y| ((x * 7) ^ (y * 3)) as u8);
        let sf = interpolate(&rf);
        for y in 0..32 {
            for x in 0..32 {
                assert_eq!(sf.sample(x as isize * 4, y as isize * 4), rf.get(x, y));
            }
        }
    }

    #[test]
    fn constant_plane_stays_constant() {
        let mut rf = Plane::new(32, 32);
        rf.fill(77);
        let sf = interpolate(&rf);
        for fy in 0..4u8 {
            for fx in 0..4u8 {
                for y in 0..32 {
                    for x in 0..32 {
                        assert_eq!(
                            sf.phase(fx, fy).get(x, y),
                            77,
                            "phase ({fx},{fy}) at {x},{y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn horizontal_ramp_half_pel_is_midpoint() {
        // On a linear horizontal ramp, the 6-tap half-pel interpolates the
        // midpoint exactly: taps sum to 32 and are symmetric.
        let rf = Plane::from_fn(64, 16, |x, _| (x * 2) as u8);
        let sf = interpolate(&rf);
        for y in 2..14 {
            for x in 8..48 {
                let expect = (rf.get(x, y) as u16 + rf.get(x + 1, y) as u16).div_ceil(2) as u8;
                assert_eq!(sf.phase(2, 0).get(x, y), expect, "at {x},{y}");
            }
        }
    }

    #[test]
    fn vertical_matches_transposed_horizontal() {
        let rf = Plane::from_fn(40, 40, |x, y| ((x * 13 + y * 7) % 256) as u8);
        let rf_t = Plane::from_fn(40, 40, |x, y| rf.get(y, x));
        let sf = interpolate(&rf);
        let sf_t = interpolate(&rf_t);
        // h of original == b of transpose (away from borders where the
        // clamping halo differs in direction).
        for y in 4..36 {
            for x in 4..36 {
                assert_eq!(
                    sf.phase(0, 2).get(x, y),
                    sf_t.phase(2, 0).get(y, x),
                    "at {x},{y}"
                );
            }
        }
    }

    #[test]
    fn row_partitioned_equals_full() {
        let rf = Plane::from_fn(48, 64, |x, y| ((x * 31) ^ (y * 5)) as u8);
        let full = interpolate(&rf);

        let mut split = SubpelFrame::new(48, 64);
        split.interpolate_rows(&rf, RowRange::new(0, 1));
        split.interpolate_rows(&rf, RowRange::new(1, 3));
        split.interpolate_rows(&rf, RowRange::new(3, 4));
        assert_eq!(full, split, "row-partitioned SF must be bit-identical");
    }

    #[test]
    fn parallel_equals_sequential() {
        // 72 rows: the last MB row is half height.
        let rf = Plane::from_fn(48, 72, |x, y| ((x * 11) ^ (y * 17)) as u8);
        let seq = interpolate(&rf);
        let mut par = SubpelFrame::new(48, 72);
        par.interpolate_rows_parallel(&rf, RowRange::new(0, 2));
        par.interpolate_rows_parallel(&rf, RowRange::new(2, 5));
        assert_eq!(seq, par);
    }

    #[test]
    fn block_equals_per_sample_fetch_inside_and_across_every_edge() {
        use crate::types::ALL_PARTITION_MODES;
        let (pw, ph) = (32isize, 16isize);
        let rf = Plane::from_fn(32, 16, |x, y| ((x * 37) ^ (y * 101)).wrapping_mul(13) as u8);
        let sf = interpolate(&rf);
        // Full-pel anchors: inside, straddling each edge and corner, and
        // fully outside on every side.
        let xs = [-40, -17, -16, -3, 0, 9, 29, pw, pw + 3, pw + 40];
        let ys = [-40, -17, -16, -3, 0, 5, 13, ph, ph + 3, ph + 40];
        let mut tile = [0; 256];
        for mode in ALL_PARTITION_MODES {
            let (w, h) = mode.dims();
            for (x0, y0) in xs.iter().flat_map(|&x| ys.iter().map(move |&y| (x, y))) {
                for (fx, fy) in (0..4).flat_map(|fx| (0..4).map(move |fy| (fx, fy))) {
                    let (qx, qy) = (x0 * 4 + fx, y0 * 4 + fy);
                    let inside =
                        x0 >= 0 && y0 >= 0 && x0 + w as isize <= pw && y0 + h as isize <= ph;
                    tile.fill(0xA5);
                    let block = sf.block(qx as i32, qy as i32, w, h, &mut tile);
                    assert_eq!(block.stride == TILE, !inside, "{mode:?} at {qx},{qy}");
                    for (r, row) in block.rows(w, h).enumerate() {
                        for (c, &s) in row.iter().enumerate() {
                            let want = sf.sample(qx + 4 * c as isize, qy + 4 * r as isize);
                            assert_eq!(s, want, "{mode:?} at {qx},{qy} sample {c},{r}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sample_clamps_outside_frame() {
        let rf = Plane::from_fn(16, 16, |x, y| (x + y) as u8);
        let sf = interpolate(&rf);
        assert_eq!(sf.sample(-40, -40), rf.get(0, 0));
        assert_eq!(sf.sample(100 * 4, 100 * 4), rf.get(15, 15));
    }

    // ---- scalar vs fast differential (direct kernel calls) ----

    /// Signature shared by the scalar and fast band kernels.
    type BandKernel =
        fn(&Plane<u8>, usize, usize, usize, &mut [feves_video::plane::PlaneBandMut<'_, u8>]);

    /// Build a full SF by driving a specific band kernel directly.
    fn interpolate_with(rf: &Plane<u8>, kernel: BandKernel) -> SubpelFrame {
        let (w, h) = (rf.width(), rf.height());
        let mut sf = SubpelFrame::new(w, h);
        let mut bands: Vec<_> = sf
            .phases
            .iter_mut()
            .map(|p| {
                let mut b = p.split_rows_mut(&[h]);
                b.pop().unwrap()
            })
            .collect();
        kernel(rf, w, 0, h, &mut bands);
        drop(bands);
        sf
    }

    #[test]
    fn differential_band_kernels_odd_sizes() {
        // Widths around the 8-byte SWAR boundary and non-MB-aligned heights
        // exercise every tail path of the fast kernel.
        for &(w, h) in &[
            (1usize, 1usize),
            (3, 5),
            (7, 9),
            (8, 8),
            (9, 17),
            (16, 16),
            (23, 11),
            (48, 32),
        ] {
            let rf = Plane::from_fn(w, h, |x, y| ((x * 37) ^ (y * 101)).wrapping_mul(13) as u8);
            let a = interpolate_with(&rf, crate::kernels::scalar::interp_band);
            let b = interpolate_with(&rf, crate::kernels::fast::interp_band);
            assert_eq!(a, b, "SF mismatch at {w}x{h}");
        }
    }
}
