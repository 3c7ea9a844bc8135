//! Hot-kernel implementations: the product's fast paths and their references.
//!
//! The paper implements its CPU kernels with SSE/AVX intrinsics (Sec. III-A)
//! because ME + INT + SME account for ~90 % of inter-loop encoding time.
//! This module is the equivalent here. Kernels that have a faster form
//! exist twice —
//!
//! * [`scalar`] — the plain reference loops, the semantic ground truth;
//! * [`fast`] — `std::arch` SAD instructions where the host has them
//!   (packed-block `psadbw` under the SME refinement in [`crate::sme`], the
//!   AVX2 `vmpsadbw` cells and running-minimum vectors of the ME search in
//!   [`crate::me`]), the deblocking line filter of [`crate::dbl`] sixteen
//!   lines at a time in SSE2 `i16` lanes, the forward TQ ([`tq_blocks`])
//!   two 4×4 blocks per SSE2 register, and for interpolation padded-row
//!   6-tap passes that write only the four stored phases (G, b, h, j).
//!
//! Kernels whose fast twin never beat the scalar loop (the dequantizer, the
//! per-candidate SAD grid, `row_sad`) have one implementation, in
//! [`scalar`], that the product runs too. The scalar quantizer
//! ([`quantize_4x4`]) and [`crate::quant::tq_block`] stay as the forward
//! TQ's reference, which the product no longer runs.
//!
//! The product always runs [`fast`]; within it the instruction set is
//! whatever the CPU reports — there is no switch for it. [`scalar`] stays
//! as the reference that tests and benches call **by name**, next to the
//! product entry points' `*_reference` twins in [`crate::me`],
//! [`crate::sme`] and [`crate::dbl`]. All of it is **bit-exact**: the
//! differential tests (`tests/kernel_differential.rs`, plus the unit tests
//! of [`crate::me`], [`crate::sme`], [`fast`] and [`crate::interp`]) prove
//! `fast(x) == scalar(x)` over exhaustive small inputs and
//! proptest-generated planes.

pub mod fast;
pub mod scalar;

#[cfg(not(target_arch = "x86_64"))]
use fast::Portable as TqFast;
#[cfg(target_arch = "x86_64")]
use fast::Sse2 as TqFast;
use fast::{Quantizer, TqIsa};

use crate::sad::SadGrid;
use feves_video::plane::{Plane, PlaneBandMut};

/// The one kernel family left. A no-op shim kept only because the
/// wall-clock benchmark still names it; item B of the roadmap deletes it
/// together with [`force_kind`].
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// `std::arch` SAD and line-filter instructions + SWAR interpolation.
    Fast,
}

/// Does nothing: the product always runs [`fast`]. See [`KernelKind`].
#[doc(hidden)]
pub fn force_kind(_: KernelKind) {}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// SAD of two equal-length rows.
///
/// Mismatched lengths are a **hard error** in every build profile (not just
/// under `debug_assertions`): a silent zip-truncation here would corrupt
/// motion search results without any visible failure.
#[inline]
pub fn row_sad(a: &[u8], b: &[u8]) -> u32 {
    assert_eq!(
        a.len(),
        b.len(),
        "row_sad length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    scalar::row_sad(a, b)
}

/// The sixteen 4×4 SADs of one macroblock against one reference position
/// (border-clamped when the reference block leaves the plane) — the
/// per-candidate form [`crate::me::motion_estimate_rows_reference`] runs;
/// the product search ([`crate::me`]) computes the same grids sixteen
/// candidates at a time.
#[inline]
pub fn sad_grid_16x16(
    cur: &Plane<u8>,
    cur_x: usize,
    cur_y: usize,
    reference: &Plane<u8>,
    ref_x: isize,
    ref_y: isize,
) -> SadGrid {
    scalar::sad_grid_16x16(cur, cur_x, cur_y, reference, ref_x, ref_y)
}

/// Quantize transformed coefficients in place (H.264 MF tables + dead-zone):
/// the reference of [`tq_blocks`]' quantizer lanes.
#[inline]
pub fn quantize_4x4(w: &mut [i32; 16], qp: u8, intra: bool) {
    scalar::quantize_4x4(w, qp, intra)
}

/// Forward TQ (core transform + quantization) of the 4×4 blocks of a
/// region `4 · cols` samples wide, its rows `stride` apart in `src`: block
/// `k` (raster order, `cols` to a row) is the block at `(4 · (k % cols),
/// 4 · (k / cols))` and its levels go to `blocks[k]`. Returns the blocks
/// with a non-zero level as bits (bit `k` ⇔ `blocks[k]`).
///
/// Runs two side-by-side blocks per call of the SSE2 primitive
/// (`Portable` off x86-64). For residuals in ±255 each block equals
/// [`crate::quant::tq_block`] — the reference tests and benches name.
///
/// # Panics
/// When `cols` is odd, `blocks` is more than sixteen or not whole rows of
/// `cols`, or `src` ends before the region does.
#[inline]
pub fn tq_blocks(
    src: &[i16],
    stride: usize,
    cols: usize,
    qp: u8,
    intra: bool,
    blocks: &mut [[i16; 16]],
) -> u16 {
    assert!(
        cols.is_multiple_of(2) && blocks.len().is_multiple_of(cols) && blocks.len() <= 16,
        "{} blocks in rows of {cols}",
        blocks.len()
    );
    let q = Quantizer::new(qp, intra);
    let mut mask = 0u16;
    for (k, pair) in blocks.as_chunks_mut::<2>().0.iter_mut().enumerate() {
        let at = k / (cols / 2) * 4 * stride + k % (cols / 2) * 8;
        let rows = core::array::from_fn(|r| {
            (src[at + r * stride..].first_chunk()).expect("the region's rows lie in `src`")
        });
        let nonzero;
        (*pair, nonzero) = TqFast.tq_pair(rows, &q);
        mask |= u16::from(nonzero) << (2 * k);
    }
    mask
}

/// Dequantize levels in place (result is in the inverse-transform domain).
#[inline]
pub fn dequantize_4x4(z: &mut [i32; 16], qp: u8) {
    scalar::dequantize_4x4(z, qp)
}

/// Interpolate pixel rows `[y0, y1)` of the four stored phases — G (0,0),
/// b (2,0), h (0,2) and j (2,2) — into `bands`, in that order, reading `rf`
/// with clamped halos. The reference [`scalar::interp_band`] writes all
/// sixteen phases; its bands 0, 2, 8 and 10 are these four.
#[inline]
pub fn interp_band(
    rf: &Plane<u8>,
    width: usize,
    y0: usize,
    y1: usize,
    bands: &mut [PlaneBandMut<'_, u8>],
) {
    fast::interp_band(rf, width, y0, y1, bands)
}

// ---------------------------------------------------------------------------
// Shared constants and helpers used by both implementations.
// ---------------------------------------------------------------------------

/// Multiplication factors for the forward quantizer, indexed `[qp % 6]` ×
/// frequency class `{0: corner, 1: mixed, 2: center}` (Richardson Table 7.x).
pub(crate) const MF: [[i32; 3]; 6] = [
    [13107, 5243, 8066],
    [11916, 4660, 7490],
    [10082, 4194, 6554],
    [9362, 3647, 5825],
    [8192, 3355, 5243],
    [7282, 2893, 4559],
];

/// Dequantizer scaling factors `V`, same indexing as [`MF`].
pub(crate) const V: [[i32; 3]; 6] = [
    [10, 16, 13],
    [11, 18, 14],
    [13, 20, 16],
    [14, 23, 18],
    [16, 25, 20],
    [18, 29, 23],
];

/// Frequency class of position `(i, j)` in a 4×4 block, matching the table
/// column order: even-even {(0,0),(0,2),(2,0),(2,2)} → 0, odd-odd
/// {(1,1),(1,3),(3,1),(3,3)} → 1, mixed → 2.
#[inline]
pub(crate) const fn freq_class(i: usize, j: usize) -> usize {
    match (i % 2, j % 2) {
        (0, 0) => 0,
        (1, 1) => 1,
        _ => 2,
    }
}

/// 6-tap Wiener filter on six consecutive samples (unnormalized).
#[inline]
pub(crate) fn tap6(a: i32, b: i32, c: i32, d: i32, e: i32, f: i32) -> i32 {
    a - 5 * b + 20 * c + 20 * d - 5 * e + f
}

#[inline]
pub(crate) fn clip8(v: i32) -> u8 {
    v.clamp(0, 255) as u8
}

/// Rounding-up bilinear average, the H.264 quarter-pel combiner.
#[inline]
pub(crate) fn avg(a: u8, b: u8) -> u8 {
    ((a as u16 + b as u16 + 1) >> 1) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "row_sad length mismatch")]
    fn row_sad_length_mismatch_is_a_hard_error() {
        // A hard assert (not debug_assert): this must panic identically in
        // dev and release builds. The release-mode CI job re-runs this test
        // with optimizations on.
        let _ = row_sad(&[1, 2, 3], &[1, 2]);
    }
}
