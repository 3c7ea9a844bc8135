//! Sub-pixel interpolation (the paper's INT module).
//!
//! Builds the Sub-pixel interpolated Frame (SF) from a reconstructed
//! reference frame: half-pel samples via the H.264/AVC 6-tap Wiener filter
//! `(1, -5, 20, 20, -5, 1)/32` and quarter-pel samples via bilinear
//! averaging, exactly the standard's §8.4.2.2 scheme. The paper's SF "is as
//! large as 16 RFs": one plane per quarter-pel phase `(fx, fy) ∈ {0..3}²`.
//! Twelve of those sixteen phases are the rounded average of two samples of
//! the other four (§8.4.2.2.2), so this SF stores only those four — the
//! full-pel plane G and the half-pel planes b, h and j, 4 × RF — and
//! derives a quarter-pel sample when it is fetched ([`SubpelFrame::block`],
//! [`SubpelFrame::sample`]). The values are the sixteen planes' own: the
//! reference `kernels::scalar::interp_band` still writes all sixteen, and
//! the scheduler's model still charges an SF transfer at 16 × RF, as the
//! paper's platform moves it.
//!
//! Interpolation of an output row depends only on a ±3-row halo of the
//! *source* reference frame, never on other SF rows, so any row-partitioned
//! execution produces bit-identical SFs (the partition-invariance the
//! framework relies on).
//!
//! The row kernel itself lives in [`crate::kernels`]: the product's fast
//! path hoists the border clamping into padded rows, bit-exact against the
//! reference `kernels::scalar::interp_band` on the four stored phases.
//!
//! A fetch across the frame's edge repeats the edge sample. Row by row it
//! is span copies: a constant run left of the frame, one contiguous copy
//! and a constant run right of it — of the stored plane for a stored
//! phase, of each of the two stored sources for an averaged one, whose
//! runs follow [`SubpelFrame::sample`]'s clamp-first rule. The per-sample
//! loops they replace are kept as the test definitions.

use crate::kernels::avg;
use crate::par::Crew;
use feves_video::geometry::{RowRange, MB_SIZE};
use feves_video::plane::{Plane, PlaneBandMut};

/// The sub-pixel interpolated frame: the four stored phase planes G (0,0),
/// b (2,0), h (0,2) and j (2,2), in that order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubpelFrame {
    planes: [Plane<u8>; 4],
    width: usize,
    height: usize,
}

/// For each phase `fy * 4 + fx`, the quarter-pel offsets of the two stored
/// samples whose rounded average it is (H.264 §8.4.2.2.2); a stored phase
/// names itself twice. The letters are the standard's.
const SOURCES: [[(i32, i32); 2]; 16] = [
    [(0, 0), (0, 0)],   // G (0,0)
    [(-1, 0), (1, 0)],  // a (1,0) = avg(G, b)
    [(0, 0), (0, 0)],   // b (2,0)
    [(-1, 0), (1, 0)],  // c (3,0) = avg(b, G→)
    [(0, -1), (0, 1)],  // d (0,1) = avg(G, h)
    [(1, -1), (-1, 1)], // e (1,1) = avg(b, h)
    [(0, -1), (0, 1)],  // f (2,1) = avg(b, j)
    [(-1, -1), (1, 1)], // g (3,1) = avg(b, h→)
    [(0, 0), (0, 0)],   // h (0,2)
    [(-1, 0), (1, 0)],  // i (1,2) = avg(h, j)
    [(0, 0), (0, 0)],   // j (2,2)
    [(-1, 0), (1, 0)],  // k (3,2) = avg(j, h→)
    [(0, -1), (0, 1)],  // n (0,3) = avg(h, G↓)
    [(-1, -1), (1, 1)], // p (1,3) = avg(h, b↓)
    [(0, -1), (0, 1)],  // q (2,3) = avg(j, b↓)
    [(1, -1), (-1, 1)], // r (3,3) = avg(h→, b↓)
];

impl SubpelFrame {
    /// Allocate an SF for a `width × height` (padded) reference frame.
    pub fn new(width: usize, height: usize) -> Self {
        SubpelFrame {
            planes: std::array::from_fn(|_| Plane::new(width, height)),
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

    /// Borrow the plane of stored phase `(fx, fy)` (quarter-pel units, each
    /// 0 or 2). The other twelve phases are not stored: read them through
    /// [`Self::sample`] or [`Self::block`].
    pub fn phase(&self, fx: u8, fy: u8) -> &Plane<u8> {
        assert!(
            matches!((fx, fy), (0 | 2, 0 | 2)),
            "phase ({fx},{fy}) is not stored"
        );
        self.stored(fx as i32, fy as i32)
    }

    /// The stored plane that holds quarter-pel position `(qx, qy)`, whose
    /// phase is even in both axes.
    #[inline(always)]
    fn stored(&self, qx: i32, qy: i32) -> &Plane<u8> {
        debug_assert!(qx & 1 == 0 && qy & 1 == 0);
        &self.planes[((qy & 2) | ((qx & 2) >> 1)) as usize]
    }

    /// The quarter-pel positions of the two stored samples (G, b, h or j)
    /// whose rounded average is the sample at `(qx, qy)` — the same
    /// position twice when `(qx, qy)` is itself stored. Exact wherever the
    /// full-pel position `(qx >> 2, qy >> 2)` is not left of or above the
    /// frame: there the sources are clamped one by one, as the stored
    /// planes are; left of or above it [`Self::sample`] clamps first.
    #[inline(always)]
    pub(crate) const fn sources(qx: i32, qy: i32) -> [(i32, i32); 2] {
        let [(ax, ay), (bx, by)] = SOURCES[((qy & 3) * 4 + (qx & 3)) as usize];
        [(qx + ax, qy + ay), (qx + bx, qy + by)]
    }

    /// Sample at quarter-pel coordinates, clamped at the frame borders the
    /// way the sixteen phase planes are: the full-pel position is clamped
    /// into the frame first, keeping the phase, and only then are the two
    /// stored samples averaged. (Clamping them one by one instead would
    /// read `c` at `x = −1` as `avg(b[0], G[0])`, not `avg(b[0], G[1])`.)
    #[inline]
    pub fn sample(&self, qx: isize, qy: isize) -> u8 {
        let x = qx.div_euclid(4).clamp(0, self.width as isize - 1) as i32;
        let y = qy.div_euclid(4).clamp(0, self.height as isize - 1) as i32;
        let (fx, fy) = (qx.rem_euclid(4) as i32, qy.rem_euclid(4) as i32);
        let [a, b] = Self::sources(x * 4 + fx, y * 4 + fy).map(|(sx, sy)| {
            self.stored(sx, sy)
                .get_clamped((sx >> 2) as isize, (sy >> 2) as isize)
        });
        avg(a, b)
    }

    /// The `w × h` block (`w, h ≤ 16`) whose top-left sample sits at
    /// quarter-pel `(qx, qy)`, for MC, the decoder and the SME reference
    /// alike. A stored phase is a view into its plane when the block is
    /// inside it, else a copy into `tile` in which samples beyond an edge
    /// repeat that edge's row or column. Any other phase is written into
    /// `tile`: the average of its two stored blocks when both are inside
    /// the frame, else by [`Self::sample`]'s clamp-first rule — the one
    /// place these rules are written down, with [`Self::window`] for the
    /// windows SME streams.
    #[inline(always)]
    pub fn block<'a>(
        &'a self,
        qx: i32,
        qy: i32,
        w: usize,
        h: usize,
        tile: &'a mut Tile,
    ) -> BlockRef<'a> {
        if (qx | qy) & 1 == 0 {
            self.stored_block((qx, qy), w, h, tile)
        } else {
            self.averaged_block(qx, qy, w, h, tile)
        }
    }

    /// The `w × h` full-pel samples from `(x0, y0)` (`w, h ≤ 18`) of each
    /// stored plane — G, b, h, j — as a slice that starts at the first of
    /// them, with the stride of their rows: views into the planes when the
    /// window is inside the frame, else copies into `tile` in which samples
    /// beyond the right or bottom edge repeat that edge ([`clamped_span`]
    /// per row). SME reads every candidate of a partition from one window;
    /// there is no left or top form, because an averaged phase left of or
    /// above the frame clamps before it averages ([`Self::sample`]) and so
    /// is no average of repeated stored samples.
    pub(crate) fn window<'a>(
        &'a self,
        (x0, y0): (usize, usize),
        w: usize,
        h: usize,
        tile: &'a mut WindowTile,
    ) -> ([&'a [u8]; 4], usize) {
        // The four planes share their geometry, so their stride.
        let stride = self.planes[0].stride();
        if x0 + w <= self.width && y0 + h <= self.height {
            let first = y0 * stride + x0;
            return (
                self.planes.each_ref().map(|p| &p.as_slice()[first..]),
                stride,
            );
        }
        assert!(
            w <= WINDOW && h <= WINDOW,
            "{w}x{h} window exceeds the tile"
        );
        let last_y = self.height - 1;
        for (plane, tile) in self.planes.iter().zip(tile.iter_mut()) {
            for (r, dst) in tile.chunks_exact_mut(WINDOW).take(h).enumerate() {
                clamped_span(
                    plane.row((y0 + r).min(last_y)),
                    x0 as isize,
                    0,
                    &mut dst[..w],
                );
            }
        }
        (tile.each_ref().map(|t| &t[..]), WINDOW)
    }

    /// [`Self::block`] of a position that is not stored; out of line.
    #[inline(never)]
    fn averaged_block<'a>(
        &'a self,
        qx: i32,
        qy: i32,
        w: usize,
        h: usize,
        tile: &'a mut Tile,
    ) -> BlockRef<'a> {
        let [a, b] = Self::sources(qx, qy);
        assert!(w <= TILE && h <= TILE, "{w}x{h} block exceeds the tile");
        // `>>` floors, so this is the Euclidean split for negative
        // positions too.
        let inside = |(sx, sy): (i32, i32)| {
            let (x0, y0) = ((sx >> 2) as isize, (sy >> 2) as isize);
            x0 >= 0 && y0 >= 0 && x0 as usize + w <= self.width && y0 as usize + h <= self.height
        };
        if qx >= 0 && qy >= 0 && inside(a) && inside(b) {
            let view = |(sx, sy): (i32, i32)| {
                let plane = self.stored(sx, sy);
                let first = (sy >> 2) as usize * plane.stride() + (sx >> 2) as usize;
                (&plane.as_slice()[first..], plane.stride())
            };
            let ((a, sa), (b, sb)) = (view(a), view(b));
            for (r, dst) in tile.chunks_exact_mut(TILE).take(h).enumerate() {
                let (ra, rb) = (&a[r * sa..][..w], &b[r * sb..][..w]);
                for ((d, &s), &t) in dst[..w].iter_mut().zip(ra).zip(rb) {
                    *d = avg(s, t);
                }
            }
        } else {
            self.averaged_clamped(qx, qy, w, h, tile);
        }
        BlockRef {
            data: tile,
            offset: 0,
            stride: TILE,
        }
    }

    /// The border path of an averaged [`Self::block`]: [`Self::sample`]'s
    /// rule row by row — clamp the full-pel row first, then take each
    /// stored source's row beside it, clamped again only at the bottom. In
    /// a row, each source is three runs ([`clamped_span`]): the constant
    /// its clamp-first column takes left of the frame (`G[1]` for `c` at
    /// `x = −1`), one contiguous span and the constant of the last column;
    /// the two are then averaged whole.
    fn averaged_clamped(&self, qx: i32, qy: i32, w: usize, h: usize, tile: &mut Tile) {
        let (fx, fy) = (qx & 3, qy & 3);
        // Every source of a phase is at a full-pel offset of 0 or 1.
        let [a, b] = SOURCES[(fy * 4 + fx) as usize].map(|(ox, oy)| {
            let (sx, sy) = (fx + ox, fy + oy);
            (self.stored(sx, sy), (sx >> 2) as usize, (sy >> 2) as usize)
        });
        let last_y = self.height - 1;
        let (x0, y0) = ((qx >> 2) as isize, (qy >> 2) as isize);
        let (mut ra, mut rb) = ([0; TILE], [0; TILE]);
        for (r, dst) in tile.chunks_exact_mut(TILE).take(h).enumerate() {
            let y = (y0 + r as isize).clamp(0, last_y as isize) as usize;
            clamped_span(a.0.row((y + a.2).min(last_y)), x0, a.1, &mut ra[..w]);
            clamped_span(b.0.row((y + b.2).min(last_y)), x0, b.1, &mut rb[..w]);
            for ((d, &s), &t) in dst[..w].iter_mut().zip(&ra).zip(&rb) {
                *d = avg(s, t);
            }
        }
    }

    /// The definition of [`Self::averaged_clamped`], sample by sample:
    /// clamp the full-pel row and column first, then take each stored
    /// source beside them, clamped again only towards the right and bottom
    /// edges.
    #[cfg(test)]
    fn averaged_clamped_per_sample(&self, qx: i32, qy: i32, w: usize, h: usize, tile: &mut Tile) {
        let (fx, fy) = (qx & 3, qy & 3);
        let [a, b] = SOURCES[(fy * 4 + fx) as usize].map(|(ox, oy)| {
            let (sx, sy) = (fx + ox, fy + oy);
            (self.stored(sx, sy), (sx >> 2) as usize, (sy >> 2) as usize)
        });
        let (last_x, last_y) = (self.width - 1, self.height - 1);
        let (x0, y0) = ((qx >> 2) as isize, (qy >> 2) as isize);
        for (r, dst) in tile.chunks_exact_mut(TILE).take(h).enumerate() {
            let y = (y0 + r as isize).clamp(0, last_y as isize) as usize;
            let (ra, rb) = (
                a.0.row((y + a.2).min(last_y)),
                b.0.row((y + b.2).min(last_y)),
            );
            for (c, d) in dst[..w].iter_mut().enumerate() {
                let x = (x0 + c as isize).clamp(0, last_x as isize) as usize;
                *d = avg(ra[(x + a.1).min(last_x)], rb[(x + b.1).min(last_x)]);
            }
        }
    }

    /// [`Self::block`] of a stored position.
    #[inline(always)]
    fn stored_block<'a>(
        &'a self,
        (qx, qy): (i32, i32),
        w: usize,
        h: usize,
        tile: &'a mut Tile,
    ) -> BlockRef<'a> {
        let plane = self.stored(qx, qy);
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
        // Split each stored plane into [0, y0), [y0, y1), [y1, h) bands and
        // hand the middle band to the row kernel.
        let counts = [y0, y1 - y0, self.height - y1];
        let mut bands = self
            .planes
            .each_mut()
            .map(|p| p.split_rows_mut(&counts).swap_remove(1));
        crate::kernels::fast::interp_band(rf, self.width, y0, y1, &mut bands);
    }

    /// The SF rows of each MB row of `rows` as an item of their own (the
    /// four stored bands), for [`crate::par`] regions.
    pub fn mb_rows_mut(&mut self, rows: RowRange) -> Vec<SubpelRowMut<'_>> {
        let mut out: Vec<_> = rows
            .iter()
            .map(|mby| SubpelRowMut {
                mby,
                bands: Vec::with_capacity(4),
            })
            .collect();
        for plane in &mut self.planes {
            for (row, band) in out.iter_mut().zip(plane.split_mb_rows_mut(rows)) {
                row.bands.push(band);
            }
        }
        out
    }

    /// [`Self::interpolate_rows`] with the MB rows spread over `crew`
    /// ([`crate::par`]).
    pub fn interpolate_rows_parallel(&mut self, crew: &mut Crew, rf: &Plane<u8>, rows: RowRange) {
        assert_eq!(rf.width(), self.width);
        assert_eq!(rf.height(), self.height);
        crew.for_each_row(self.mb_rows_mut(rows), |_, row| row.interpolate(rf));
    }
}

/// Side of the largest block [`SubpelFrame::block`] serves (a macroblock).
const TILE: usize = MB_SIZE;

/// Scratch for a block that straddles the frame edge, row stride 16.
pub type Tile = [u8; TILE * TILE];

/// Side of the largest window [`SubpelFrame::window`] serves: a macroblock
/// and one sample on each side.
pub(crate) const WINDOW: usize = TILE + 2;

/// Room for a window that crosses the frame's right or bottom edge: one
/// `WINDOW × WINDOW` block per stored plane, row stride `WINDOW`.
pub type WindowTile = [[u8; WINDOW * WINDOW]; 4];

/// A block of samples as a raster view: row `r` is
/// `data[offset + r * stride..][..w]`.
#[derive(Clone, Copy, Debug)]
pub struct BlockRef<'a> {
    /// The samples the block lives in (a stored plane, or a [`Tile`]).
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
}

/// The border path of [`SubpelFrame::block`] for a stored phase, out of
/// line: row by row, clamp the row index, then copy the row's three runs
/// ([`clamped_span`]).
#[inline(never)]
fn copy_clamped(plane: &Plane<u8>, x0: isize, y0: isize, w: usize, h: usize, tile: &mut Tile) {
    assert!(w <= TILE && h <= TILE, "{w}x{h} block exceeds the tile");
    let last_y = plane.height() as isize - 1;
    for (r, dst) in tile.chunks_exact_mut(TILE).take(h).enumerate() {
        let src = plane.row((y0 + r as isize).clamp(0, last_y) as usize);
        clamped_span(src, x0, 0, &mut dst[..w]);
    }
}

/// The definition of [`copy_clamped`], sample by sample: clamp the row
/// index, then the column of each sample.
#[cfg(test)]
fn copy_clamped_per_sample(
    plane: &Plane<u8>,
    x0: isize,
    y0: isize,
    w: usize,
    h: usize,
    tile: &mut Tile,
) {
    let (last_x, last_y) = (plane.width() as isize - 1, plane.height() as isize - 1);
    for (r, dst) in tile.chunks_exact_mut(TILE).take(h).enumerate() {
        let src = plane.row((y0 + r as isize).clamp(0, last_y) as usize);
        for (c, d) in dst[..w].iter_mut().enumerate() {
            *d = src[(x0 + c as isize).clamp(0, last_x) as usize];
        }
    }
}

/// `dst[c] = src[min(clamp(x0 + c) + ox, last)]` for every `c`, where
/// `clamp` keeps a column inside `src` and `last` is its last: a stored
/// source `ox ∈ {0, 1}` columns right of a clamped full-pel column, as
/// three runs — `src[min(ox, last)]` left of the row, one contiguous copy,
/// then `src[last]`.
#[inline]
fn clamped_span(src: &[u8], x0: isize, ox: usize, dst: &mut [u8]) {
    let (w, last) = (dst.len() as isize, src.len() - 1);
    // Columns `c < lo` are left of the row; `lo <= c < hi` read
    // `x0 + c + ox` itself, which is at most `last`.
    let lo = (-x0).clamp(0, w);
    let hi = ((src.len() - ox) as isize - x0).clamp(lo, w);
    let (lo, hi) = (lo as usize, hi as usize);
    dst[..lo].fill(src[ox.min(last)]);
    if lo < hi {
        let from = (x0 + lo as isize) as usize + ox;
        dst[lo..hi].copy_from_slice(&src[from..from + (hi - lo)]);
    }
    dst[hi..].fill(src[last]);
}

/// The four stored bands of one MB row of a [`SubpelFrame`]
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
            crate::kernels::fast::interp_band(rf, rf.width(), y0, y1, &mut self.bands);
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
    use crate::types::ALL_PARTITION_MODES;

    /// The sixteen phase planes of `rf` (index `fy * 4 + fx`) as the
    /// reference kernel writes them: the definition every fetch is held to.
    fn reference_phases(rf: &Plane<u8>) -> Vec<Plane<u8>> {
        let (w, h) = (rf.width(), rf.height());
        let mut phases = vec![Plane::new(w, h); 16];
        let mut bands: Vec<_> = phases
            .iter_mut()
            .map(|p| p.split_rows_mut(&[h]).remove(0))
            .collect();
        crate::kernels::scalar::interp_band(rf, w, 0, h, &mut bands);
        drop(bands);
        phases
    }

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
        for qy in -8..32 * 4 + 8 {
            for qx in -8..32 * 4 + 8 {
                assert_eq!(sf.sample(qx, qy), 77, "at quarter-pel {qx},{qy}");
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
    #[should_panic(expected = "phase (3,1) is not stored")]
    fn a_quarter_pel_phase_has_no_plane() {
        let _ = SubpelFrame::new(16, 16).phase(3, 1);
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
        let mut crew = Crew::host();
        par.interpolate_rows_parallel(&mut crew, &rf, RowRange::new(0, 2));
        par.interpolate_rows_parallel(&mut crew, &rf, RowRange::new(2, 5));
        assert_eq!(seq, par);
    }

    /// `block` and `sample` against the sixteen reference planes read with
    /// clamping: all 16 phases × 7 shapes, inside, across every edge and
    /// corner, and fully outside on every side. A block is a view exactly
    /// when its phase is stored and it is inside.
    #[test]
    fn block_equals_per_sample_fetch_inside_and_across_every_edge() {
        let (pw, ph) = (32isize, 16isize);
        let rf = Plane::from_fn(32, 16, |x, y| ((x * 37) ^ (y * 101)).wrapping_mul(13) as u8);
        let want = reference_phases(&rf);
        let sf = interpolate(&rf);
        // Full-pel anchors: inside, straddling each edge and corner, and
        // fully outside on every side.
        let xs = [-40, -17, -16, -3, -1, 0, 9, 29, pw - 1, pw, pw + 3, pw + 40];
        let ys = [-40, -17, -16, -3, -1, 0, 5, 13, ph - 1, ph, ph + 3, ph + 40];
        let mut tile = [0; 256];
        for mode in ALL_PARTITION_MODES {
            let (w, h) = mode.dims();
            for (x0, y0) in xs.iter().flat_map(|&x| ys.iter().map(move |&y| (x, y))) {
                for (fx, fy) in (0..4).flat_map(|fx| (0..4).map(move |fy| (fx, fy))) {
                    let (qx, qy) = (x0 * 4 + fx, y0 * 4 + fy);
                    let phase = &want[(fy * 4 + fx) as usize];
                    let inside =
                        x0 >= 0 && y0 >= 0 && x0 + w as isize <= pw && y0 + h as isize <= ph;
                    let stored = fx % 2 == 0 && fy % 2 == 0;
                    tile.fill(0xA5);
                    let block = sf.block(qx as i32, qy as i32, w, h, &mut tile);
                    let view = block.stride != TILE;
                    assert_eq!(view, stored && inside, "{mode:?} at {qx},{qy}");
                    for (r, row) in block.rows(w, h).enumerate() {
                        for (c, &s) in row.iter().enumerate() {
                            let (x, y) = (x0 + c as isize, y0 + r as isize);
                            let (qx, qy) = (qx + 4 * c as isize, qy + 4 * r as isize);
                            let at = format!("{mode:?} at {qx},{qy} sample {c},{r}");
                            assert_eq!(s, phase.get_clamped(x, y), "block: {at}");
                            assert_eq!(sf.sample(qx, qy), s, "sample: {at}");
                        }
                    }
                }
            }
        }
    }

    /// The left/top trap: an averaged phase whose second source is the
    /// "+1" neighbour reads, left of or above the frame, the neighbour of
    /// the clamped position (`c` at `x = −1` is `avg(b[0], G[1])`), not the
    /// clamped neighbour (`avg(b[0], G[0])`).
    #[test]
    fn averaged_phases_clamp_before_they_average() {
        // G[0] ≠ G[1] along both axes.
        let rf = Plane::from_fn(16, 16, |x, y| (10 + 60 * x.min(1) + 120 * y.min(1)) as u8);
        let want = reference_phases(&rf);
        let sf = interpolate(&rf);
        let (g, b, h) = (sf.phase(0, 0), sf.phase(2, 0), sf.phase(0, 2));
        let (g00, g10, g01) = (g.get(0, 0), g.get(1, 0), g.get(0, 1));
        let (b00, b01, h00, h10) = (b.get(0, 0), b.get(0, 1), h.get(0, 0), h.get(1, 0));
        // (name, phase, full-pel position, the two stored samples it
        // averages, and the two a per-source clamp would take instead).
        let cases = [
            ("c", (3, 0), (-1, 0), [b00, g10], [b00, g00]),
            ("n", (0, 3), (0, -1), [h00, g01], [h00, g00]),
            ("r", (3, 3), (-1, -1), [h10, b01], [h00, b00]),
        ];
        let mut tile = [0; 256];
        for (name, (fx, fy), (x, y), [s, t], [u, v]) in cases {
            let (qx, qy) = (4 * x + fx, 4 * y + fy);
            let exact = avg(s, t);
            assert_eq!(want[(fy * 4 + fx) as usize].get(0, 0), exact, "{name}");
            assert_ne!(avg(u, v), exact, "{name}: the plane must show the trap");
            assert_eq!(sf.sample(qx as isize, qy as isize), exact, "{name}: sample");
            let block = sf.block(qx, qy, 4, 4, &mut tile);
            assert_eq!(block.data[block.offset], exact, "{name}: block");
        }
    }

    proptest::proptest! {
        /// The span forms of the border paths against their per-sample
        /// definitions: `copy_clamped` on each stored plane, and
        /// `averaged_clamped` on each of the twelve averaged phases, for
        /// every partition shape at random positions up to SA/2 + 16
        /// samples outside every edge (ME's vectors reach SA/2 beyond the
        /// macroblock); and `window` against the clamped planes there too,
        /// right of and below the frame.
        #[test]
        fn span_copies_equal_the_per_sample_fetch(
            seed in proptest::prelude::any::<u64>(),
            (pw, ph) in (1usize..=40, 1usize..=40),
            sa in proptest::prop_oneof![
                proptest::prelude::Just(8usize),
                proptest::prelude::Just(16),
                proptest::prelude::Just(32),
                proptest::prelude::Just(64),
            ],
            (u, v) in (proptest::prelude::any::<u32>(), proptest::prelude::any::<u32>()),
        ) {
            let rf = Plane::from_fn(pw, ph, |x, y| {
                ((x as u64 * 37 + seed) ^ (y as u64 * 101 + (seed >> 13))).wrapping_mul(13) as u8
            });
            let sf = interpolate(&rf);
            let m = sa / 2 + 16;
            let at = |r: u32, len: usize| -(m as isize) + (r as usize % (len + 2 * m)) as isize;
            let (x0, y0) = (at(u, pw), at(v, ph));
            let (mut want, mut got) = ([0xA5; 256], [0x5A; 256]);
            for mode in ALL_PARTITION_MODES {
                let (w, h) = mode.dims();
                for plane in &sf.planes {
                    copy_clamped_per_sample(plane, x0, y0, w, h, &mut want);
                    copy_clamped(plane, x0, y0, w, h, &mut got);
                    proptest::prop_assert_eq!(want, got, "{:?} stored at {},{}", mode, x0, y0);
                }
                for phase in (0..16).filter(|k| k & 5 != 0) {
                    let (qx, qy) = (4 * x0 as i32 + phase % 4, 4 * y0 as i32 + phase / 4);
                    sf.averaged_clamped_per_sample(qx, qy, w, h, &mut want);
                    sf.averaged_clamped(qx, qy, w, h, &mut got);
                    proptest::prop_assert_eq!(want, got, "{:?} phase {} at {},{}", mode, phase, x0, y0);
                }
                let first = (x0.max(0) as usize, y0.max(0) as usize);
                let mut tile = [[0; WINDOW * WINDOW]; 4];
                let (planes, stride) = sf.window(first, w + 2, h + 2, &mut tile);
                for (plane, window) in sf.planes.iter().zip(planes) {
                    for (r, c) in (0..h + 2).flat_map(|r| (0..w + 2).map(move |c| (r, c))) {
                        let (x, y) = ((first.0 + c) as isize, (first.1 + r) as isize);
                        proptest::prop_assert_eq!(window[r * stride + c], plane.get_clamped(x, y));
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

    // ---- reference vs product band kernel (direct calls) ----

    #[test]
    fn differential_band_kernels_odd_sizes() {
        // Widths around the 8-byte boundary and non-MB-aligned heights
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
            let want = reference_phases(&rf);
            let mut sf = SubpelFrame::new(w, h);
            let mut bands = sf
                .planes
                .each_mut()
                .map(|p| p.split_rows_mut(&[h]).remove(0));
            crate::kernels::fast::interp_band(&rf, w, 0, h, &mut bands);
            for (k, (fx, fy)) in [(0, 0), (2, 0), (0, 2), (2, 2)].into_iter().enumerate() {
                assert_eq!(sf.planes[k], want[fy * 4 + fx], "{w}x{h} phase ({fx},{fy})");
            }
            for (qx, qy) in
                (0..4 * h as isize).flat_map(|y| (0..4 * w as isize).map(move |x| (x, y)))
            {
                let (x, y) = ((qx / 4) as usize, (qy / 4) as usize);
                let phase = &want[(qy % 4 * 4 + qx % 4) as usize];
                assert_eq!(sf.sample(qx, qy), phase.get(x, y), "{w}x{h} at {qx},{qy}");
            }
        }
    }
}
