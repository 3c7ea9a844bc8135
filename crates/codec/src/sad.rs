//! Sum-of-absolute-differences primitives.
//!
//! These are the innermost loops of the encoder (full-search block matching
//! evaluates millions of them per frame). [`row_sad`] and
//! [`sad_grid_16x16`] are the reference forms. The paper's CPU kernels use
//! SSE/AVX intrinsics, and so do the two loops that spend the time (both
//! bit-exact against these): the ME search ([`crate::me`]) computes the same
//! grids sixteen candidates at a time, and the SME refinement
//! ([`crate::sme`]) runs packed-block `psadbw`.

use feves_video::plane::Plane;

/// SAD of two equal-length rows.
///
/// # Panics
/// If `a.len() != b.len()`, in **all** build profiles — see
/// [`crate::kernels::row_sad`].
#[inline]
pub fn row_sad(a: &[u8], b: &[u8]) -> u32 {
    crate::kernels::row_sad(a, b)
}

/// The 4×4 SAD grid of one macroblock against one reference position:
/// sixteen 4×4 SADs in raster order. Larger-partition SADs are sums of
/// entries of this grid — the classic "fast full search" decomposition
/// (JM / x264) that lets one pass serve all 7 partition modes.
pub type SadGrid = [u32; 16];

/// Compute the [`SadGrid`] for the 16×16 block at `(cur_x, cur_y)` in `cur`
/// against the block at `(ref_x, ref_y)` in `reference`.
///
/// The reference position may partially leave the plane; samples are then
/// taken with border clamping (slower fallback path).
#[inline]
pub fn sad_grid_16x16(
    cur: &Plane<u8>,
    cur_x: usize,
    cur_y: usize,
    reference: &Plane<u8>,
    ref_x: isize,
    ref_y: isize,
) -> SadGrid {
    crate::kernels::sad_grid_16x16(cur, cur_x, cur_y, reference, ref_x, ref_y)
}

/// Sum the grid entries covering the `w × h` sub-block at pixel offset
/// `(ox, oy)` inside the macroblock (all multiples of 4).
#[inline]
pub fn grid_partition_sad(grid: &SadGrid, ox: usize, oy: usize, w: usize, h: usize) -> u32 {
    debug_assert!(
        ox.is_multiple_of(4) && oy.is_multiple_of(4) && w.is_multiple_of(4) && h.is_multiple_of(4)
    );
    let mut acc = 0u32;
    for gy in oy / 4..(oy + h) / 4 {
        for gx in ox / 4..(ox + w) / 4 {
            acc += grid[gy * 4 + gx];
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_blocks_zero_sad() {
        let p = Plane::from_fn(32, 32, |x, y| (x * 7 + y * 13) as u8);
        let g = sad_grid_16x16(&p, 8, 8, &p, 8, 8);
        assert_eq!(g, [0u32; 16]);
    }

    #[test]
    fn grid_aggregation_equals_direct_sad() {
        let cur = Plane::from_fn(48, 48, |x, y| ((x * 31) ^ (y * 17)) as u8);
        let rf = Plane::from_fn(48, 48, |x, y| ((x * 13) ^ (y * 29)) as u8);
        let grid = sad_grid_16x16(&cur, 16, 16, &rf, 20, 12);

        // Full 16x16 from the grid equals a direct block SAD.
        let direct: u32 = (0..16)
            .map(|row| row_sad(&cur.row(16 + row)[16..32], &rf.row(12 + row)[20..36]))
            .sum();
        assert_eq!(grid_partition_sad(&grid, 0, 0, 16, 16), direct);

        // 8x8 quadrant.
        let q: u32 = (0..8)
            .map(|row| {
                row_sad(
                    &cur.row(16 + 8 + row)[24..32],
                    &rf.row(12 + 8 + row)[28..36],
                )
            })
            .sum();
        assert_eq!(grid_partition_sad(&grid, 8, 8, 8, 8), q);
    }

    #[test]
    fn out_of_bounds_reference_uses_clamping() {
        let cur = Plane::from_fn(32, 32, |_, _| 100);
        let rf = Plane::from_fn(32, 32, |_, _| 100);
        // Fully off the top-left corner still evaluates (clamped == 100).
        let g = sad_grid_16x16(&cur, 0, 0, &rf, -20, -20);
        assert_eq!(g, [0u32; 16]);
    }

    #[test]
    fn clamped_and_inside_paths_agree_on_border() {
        let cur = Plane::from_fn(32, 32, |x, y| (x + y) as u8);
        let rf = Plane::from_fn(32, 32, |x, y| (x * 2 + y) as u8);
        // Position exactly at the edge: inside path.
        let inside = sad_grid_16x16(&cur, 8, 8, &rf, 16, 16);
        // Same position forced through clamped path must agree.
        let mut clamped = [0u32; 16];
        for row in 0..16usize {
            for col in 0..16usize {
                let c = cur.get(8 + col, 8 + row);
                let r = rf.get_clamped(16 + col as isize, 16 + row as isize);
                clamped[(row / 4) * 4 + col / 4] += (c as i16 - r as i16).unsigned_abs() as u32;
            }
        }
        assert_eq!(inside, clamped);
    }

    #[test]
    fn extreme_values_fill_the_grid() {
        // 0/255 checkerboards: every 4×4 cell is 16 · 255 and the whole
        // block the 65 280 that must fit a `u16` lane of the fast search.
        let cur = Plane::from_fn(32, 32, |x, y| if (x + y) % 2 == 0 { 0 } else { 255 });
        let rf = Plane::from_fn(32, 32, |x, y| if (x + y) % 2 == 0 { 255 } else { 0 });
        let full = sad_grid_16x16(&cur, 0, 0, &rf, 0, 0);
        assert_eq!(full, [4080u32; 16]);
        assert_eq!(grid_partition_sad(&full, 0, 0, 16, 16), 255 * 256);
    }
}
