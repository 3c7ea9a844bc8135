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
use crate::types::QpelMv;
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

    /// Copy a `w × h` prediction block whose top-left full-pel anchor is
    /// `(bx, by)` displaced by the quarter-pel motion vector `mv`, into
    /// `dst` (row-major, stride `w`).
    pub fn predict_block(
        &self,
        bx: usize,
        by: usize,
        mv: QpelMv,
        w: usize,
        h: usize,
        dst: &mut [i16],
    ) {
        debug_assert_eq!(dst.len(), w * h);
        let qx0 = bx as isize * 4 + mv.x as isize;
        let qy0 = by as isize * 4 + mv.y as isize;
        let fx = qx0.rem_euclid(4) as usize;
        let fy = qy0.rem_euclid(4) as usize;
        let x0 = qx0.div_euclid(4);
        let y0 = qy0.div_euclid(4);
        let plane = &self.phases[fy * 4 + fx];
        for row in 0..h {
            for col in 0..w {
                dst[row * w + col] = plane.get_clamped(x0 + col as isize, y0 + row as isize) as i16;
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

    fn plane_from_fn(w: usize, h: usize, f: impl Fn(usize, usize) -> u8) -> Plane<u8> {
        let mut p = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                p.set(x, y, f(x, y));
            }
        }
        p
    }

    #[test]
    fn integer_phase_reproduces_source() {
        let rf = plane_from_fn(32, 32, |x, y| ((x * 7) ^ (y * 3)) as u8);
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
        let rf = plane_from_fn(64, 16, |x, _| (x * 2) as u8);
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
        let rf = plane_from_fn(40, 40, |x, y| ((x * 13 + y * 7) % 256) as u8);
        let rf_t = plane_from_fn(40, 40, |x, y| rf.get(y, x));
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
        let rf = plane_from_fn(48, 64, |x, y| ((x * 31) ^ (y * 5)) as u8);
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
        let rf = plane_from_fn(48, 72, |x, y| ((x * 11) ^ (y * 17)) as u8);
        let seq = interpolate(&rf);
        let mut par = SubpelFrame::new(48, 72);
        par.interpolate_rows_parallel(&rf, RowRange::new(0, 2));
        par.interpolate_rows_parallel(&rf, RowRange::new(2, 5));
        assert_eq!(seq, par);
    }

    #[test]
    fn predict_block_at_zero_mv_copies_source() {
        let rf = plane_from_fn(32, 32, |x, y| (x + y * 2) as u8);
        let sf = interpolate(&rf);
        let mut dst = [0i16; 16];
        sf.predict_block(8, 8, QpelMv::ZERO, 4, 4, &mut dst);
        for row in 0..4 {
            for col in 0..4 {
                assert_eq!(dst[row * 4 + col], rf.get(8 + col, 8 + row) as i16);
            }
        }
    }

    #[test]
    fn predict_block_full_pel_mv() {
        let rf = plane_from_fn(32, 32, |x, y| ((x * 5) ^ y) as u8);
        let sf = interpolate(&rf);
        let mut dst = [0i16; 16];
        sf.predict_block(8, 8, QpelMv::new(-8, 4), 4, 4, &mut dst);
        for row in 0..4 {
            for col in 0..4 {
                assert_eq!(dst[row * 4 + col], rf.get(6 + col, 9 + row) as i16);
            }
        }
    }

    #[test]
    fn sample_clamps_outside_frame() {
        let rf = plane_from_fn(16, 16, |x, y| (x + y) as u8);
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
            let rf = plane_from_fn(w, h, |x, y| ((x * 37) ^ (y * 101)).wrapping_mul(13) as u8);
            let a = interpolate_with(&rf, crate::kernels::scalar::interp_band);
            let b = interpolate_with(&rf, crate::kernels::fast::interp_band);
            assert_eq!(a, b, "SF mismatch at {w}x{h}");
        }
    }
}
