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
//! Each kernel has one name, where it is defined: [`fast::interp_band`],
//! [`tq_blocks`], [`itq_blocks`], [`scalar::row_sad`] and so on; nothing
//! here forwards. Of the [`scalar`] loops the product runs only
//! [`scalar::dequantize_4x4`], under [`itq_blocks`] — the one TQ⁻¹ and
//! reconstruction, which luma, chroma, intra and the decoder all run — and
//! its fast twin never beat it. The SAD loops ([`scalar::row_sad`],
//! [`scalar::sad_grid_16x16`]) are the reference of the ME search and the
//! SME refinement, the scalar quantizer ([`scalar::quantize_4x4`]) with
//! [`crate::quant::tq_block`] the reference of the forward TQ, and
//! [`crate::quant::itq_block`] the per-block step [`itq_blocks`] is defined
//! by.
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

use crate::quant::itq_block;
#[cfg(not(target_arch = "x86_64"))]
use fast::Portable as TqFast;
#[cfg(target_arch = "x86_64")]
use fast::Sse2 as TqFast;
use fast::{Quantizer, TqIsa};

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

/// TQ⁻¹ and reconstruction of the 4×4 blocks of a region `4 · cols` samples
/// wide, the mirror of [`tq_blocks`]: block `k` (raster order) is written
/// as `clip(pred + itq_block(blocks[k]))`, the sum in `i32` so that any
/// `i16` level reconstructs, where bit `k` of `mask` is set, and as its
/// prediction where it is clear. `pred` and `out` are the region's rows,
/// each with its own stride. The one TQ⁻¹: luma, chroma, intra and the
/// decoder all run it; [`crate::quant::itq_block`] is its per-block step.
///
/// # Panics
/// When `cols` is 0, `blocks` is more than sixteen or not whole rows of
/// `cols`, or `pred` or `out` ends before the region does.
#[inline]
pub fn itq_blocks(
    blocks: &[[i16; 16]],
    cols: usize,
    mask: u16,
    qp: u8,
    (pred, stride): (&[u8], usize),
    (out, out_stride): (&mut [u8], usize),
) {
    assert!(
        cols > 0 && blocks.len().is_multiple_of(cols) && blocks.len() <= 16,
        "{} blocks in rows of {cols}",
        blocks.len()
    );
    for (k, levels) in blocks.iter().enumerate() {
        let (x, y) = (k % cols * 4, k / cols * 4);
        // TQ⁻¹ of no levels is a zero residual: the block is its prediction.
        let residual = (mask & (1 << k) != 0).then(|| itq_block(levels, qp));
        for row in 0..4 {
            let p = &pred[(y + row) * stride + x..][..4];
            let o = &mut out[(y + row) * out_stride + x..][..4];
            match &residual {
                None => o.copy_from_slice(p),
                Some(r) => {
                    for ((o, &p), &r) in o.iter_mut().zip(p).zip(&r[4 * row..]) {
                        *o = clip8(i32::from(p) + i32::from(r));
                    }
                }
            }
        }
    }
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
