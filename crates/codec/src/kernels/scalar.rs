//! Reference scalar kernels.
//!
//! These are the plain loops the codec shipped with before the fast paths
//! existed, moved here verbatim. They are the semantic ground truth: every
//! [`super::fast`] kernel is differential-tested against these, which tests
//! and benches call by name. The product runs the ones without a fast twin
//! (the quantizers, the SAD grid, `row_sad`).

use super::{avg, clip8, freq_class, tap6, MF, V};
use crate::sad::SadGrid;
use feves_video::plane::{Plane, PlaneBandMut};

/// SAD of two equal-length rows (auto-vectorizable).
#[inline]
pub fn row_sad(a: &[u8], b: &[u8]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as i16 - y as i16).unsigned_abs() as u32)
        .sum()
}

/// Compute the [`SadGrid`] for the 16×16 block at `(cur_x, cur_y)` in `cur`
/// against the block at `(ref_x, ref_y)` in `reference`.
pub fn sad_grid_16x16(
    cur: &Plane<u8>,
    cur_x: usize,
    cur_y: usize,
    reference: &Plane<u8>,
    ref_x: isize,
    ref_y: isize,
) -> SadGrid {
    let mut grid = [0u32; 16];
    let inside = ref_x >= 0
        && ref_y >= 0
        && (ref_x as usize) + 16 <= reference.width()
        && (ref_y as usize) + 16 <= reference.height();
    if inside {
        let (rx, ry) = (ref_x as usize, ref_y as usize);
        for row in 0..16 {
            let ca = &cur.row(cur_y + row)[cur_x..cur_x + 16];
            let rb = &reference.row(ry + row)[rx..rx + 16];
            let gy = row / 4;
            for gx in 0..4 {
                grid[gy * 4 + gx] += row_sad(&ca[gx * 4..gx * 4 + 4], &rb[gx * 4..gx * 4 + 4]);
            }
        }
    } else {
        for row in 0..16 {
            let ca = &cur.row(cur_y + row)[cur_x..cur_x + 16];
            let gy = row / 4;
            for (col, &c) in ca.iter().enumerate() {
                let r = reference.get_clamped(ref_x + col as isize, ref_y + row as isize);
                let gx = col / 4;
                grid[gy * 4 + gx] += (c as i16 - r as i16).unsigned_abs() as u32;
            }
        }
    }
    grid
}

/// Quantize transformed coefficients in place.
///
/// `intra` selects the larger dead-zone offset (`2^qbits/3` vs `/6`).
pub fn quantize_4x4(w: &mut [i32; 16], qp: u8, intra: bool) {
    let qbits = 15 + (qp / 6) as i32;
    let f = if intra {
        (1i64 << qbits) / 3
    } else {
        (1i64 << qbits) / 6
    };
    let mf = &MF[(qp % 6) as usize];
    for i in 0..4 {
        for j in 0..4 {
            let idx = i * 4 + j;
            let m = mf[freq_class(i, j)] as i64;
            let v = w[idx] as i64;
            let q = ((v.abs() * m + f) >> qbits) as i32;
            w[idx] = if v < 0 { -q } else { q };
        }
    }
}

/// Dequantize levels in place (result is in the inverse-transform domain).
pub fn dequantize_4x4(z: &mut [i32; 16], qp: u8) {
    let shift = (qp / 6) as i32;
    let v = &V[(qp % 6) as usize];
    for i in 0..4 {
        for j in 0..4 {
            let idx = i * 4 + j;
            z[idx] = (z[idx] * v[freq_class(i, j)]) << shift;
        }
    }
}

/// Interpolate pixel rows `[y0, y1)` of all 16 phases into `bands`
/// (index = fy*4+fx), reading `rf` with clamped halos: the definition of
/// every sample `SubpelFrame` stores (phases 0, 2, 8, 10) or derives (the
/// other twelve).
pub fn interp_band(
    rf: &Plane<u8>,
    width: usize,
    y0: usize,
    y1: usize,
    bands: &mut [PlaneBandMut<'_, u8>],
) {
    debug_assert_eq!(bands.len(), 16);
    let h = y1 - y0;
    // We need half-pel rows y0..y1 *plus one* (quarter-pel rows average the
    // next row's half-pels), and the vertical 6-tap needs a ±2/+3 source
    // halo. Precompute, for rows y0-2 .. y1+3, the horizontal unnormalized
    // 6-tap intermediates B1 (for b and j) and the source row G.
    let halo_top = 2isize;
    let halo_bot = 3isize;
    let ext_rows = (h + 1) + (halo_top + halo_bot) as usize; // rows y0-2 .. y1+3
    let mut b1 = vec![0i32; ext_rows * width]; // horizontal 6-tap intermediates
    let mut g = vec![0u8; ext_rows * width]; // clamped source samples
    for (ri, yy) in (-halo_top..(h + 1) as isize + halo_bot).enumerate() {
        let sy = y0 as isize + yy;
        for x in 0..width {
            let xi = x as isize;
            g[ri * width + x] = rf.get_clamped(xi, sy);
            b1[ri * width + x] = tap6(
                rf.get_clamped(xi - 2, sy) as i32,
                rf.get_clamped(xi - 1, sy) as i32,
                rf.get_clamped(xi, sy) as i32,
                rf.get_clamped(xi + 1, sy) as i32,
                rf.get_clamped(xi + 2, sy) as i32,
                rf.get_clamped(xi + 3, sy) as i32,
            );
        }
    }
    let row = |r: isize| -> &[u8] {
        let ri = (r + halo_top) as usize;
        &g[ri * width..(ri + 1) * width]
    };
    let b1row = |r: isize| -> &[i32] {
        let ri = (r + halo_top) as usize;
        &b1[ri * width..(ri + 1) * width]
    };

    // Half-pel planes for rows 0..h+1 (local coordinates).
    let hw = width;
    let mut bp = vec![0u8; (h + 1) * hw]; // b: (2,0)
    let mut hp = vec![0u8; (h + 1) * hw]; // h: (0,2)
    let mut jp = vec![0u8; (h + 1) * hw]; // j: (2,2)
    for ly in 0..(h + 1) as isize {
        for x in 0..width {
            // b: horizontal half-pel.
            bp[ly as usize * hw + x] = clip8((b1row(ly)[x] + 16) >> 5);
            // h: vertical half-pel on source samples.
            let h1 = tap6(
                row(ly - 2)[x] as i32,
                row(ly - 1)[x] as i32,
                row(ly)[x] as i32,
                row(ly + 1)[x] as i32,
                row(ly + 2)[x] as i32,
                row(ly + 3)[x] as i32,
            );
            hp[ly as usize * hw + x] = clip8((h1 + 16) >> 5);
            // j: vertical 6-tap over horizontal intermediates (20-bit path).
            let j1 = tap6(
                b1row(ly - 2)[x],
                b1row(ly - 1)[x],
                b1row(ly)[x],
                b1row(ly + 1)[x],
                b1row(ly + 2)[x],
                b1row(ly + 3)[x],
            );
            jp[ly as usize * hw + x] = clip8((j1 + 512) >> 10);
        }
    }

    // Helper closures over local row coordinates (0..h+1 valid).
    let gv = |x: usize, ly: usize| row(ly as isize)[x.min(width - 1)];
    let bv = |x: usize, ly: usize| bp[ly * hw + x.min(width - 1)];
    let hv = |x: usize, ly: usize| hp[ly * hw + x.min(width - 1)];
    let jv = |x: usize, ly: usize| jp[ly * hw + x.min(width - 1)];

    for ly in 0..h {
        let y = y0 + ly;
        for x in 0..width {
            let xr = (x + 1).min(width - 1); // clamped right neighbor
            let g00 = gv(x, ly);
            let b00 = bv(x, ly);
            let h00 = hv(x, ly);
            let j00 = jv(x, ly);
            let g_d = gv(x, ly + 1); // G one row down
            let b_d = bv(x, ly + 1); // b one row down
            let h_r = hv(xr, ly); // h one column right
            let g_r = gv(xr, ly); // G one column right

            // Integer and half-pel phases.
            bands[0].row_mut(y)[x] = g00; // (0,0)
            bands[2].row_mut(y)[x] = b00; // (2,0)
            bands[8].row_mut(y)[x] = h00; // (0,2)
            bands[10].row_mut(y)[x] = j00; // (2,2)

            // Quarter-pel phases (H.264 §8.4.2.2.2 averaging pattern).
            bands[1].row_mut(y)[x] = avg(g00, b00); // a (1,0)
            bands[3].row_mut(y)[x] = avg(b00, g_r); // c (3,0)
            bands[4].row_mut(y)[x] = avg(g00, h00); // d (0,1)
            bands[12].row_mut(y)[x] = avg(h00, g_d); // n (0,3)
            bands[6].row_mut(y)[x] = avg(b00, j00); // f (2,1)
            bands[14].row_mut(y)[x] = avg(j00, b_d); // q (2,3)
            bands[9].row_mut(y)[x] = avg(h00, j00); // i (1,2)
            bands[11].row_mut(y)[x] = avg(j00, h_r); // k (3,2)
            bands[5].row_mut(y)[x] = avg(b00, h00); // e (1,1)
            bands[7].row_mut(y)[x] = avg(b00, h_r); // g (3,1)
            bands[13].row_mut(y)[x] = avg(h00, b_d); // p (1,3)
            bands[15].row_mut(y)[x] = avg(h_r, b_d); // r (3,3)
        }
    }
}
