//! Sample planes: the storage unit all encoding kernels operate on.

use crate::geometry::{RowRange, MB_SIZE};

/// A rectangular plane of samples with an explicit stride.
///
/// `T` is `u8` for pixel data and `i16` for residuals / transform
/// coefficients. Rows are stored contiguously; `stride >= width` allows
/// padded layouts (alignment, sub-views) without copying.
///
/// ```
/// use feves_video::Plane;
/// let mut p: Plane<u8> = Plane::new(16, 16);
/// p.set(3, 5, 42);
/// assert_eq!(p.get(3, 5), 42);
/// assert_eq!(p.get_clamped(-10, 5), p.get(0, 5)); // border replication
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plane<T = u8> {
    data: Vec<T>,
    width: usize,
    height: usize,
    stride: usize,
}

impl<T: Copy + Default> Plane<T> {
    /// Create a zero-filled plane with `stride == width`.
    pub fn new(width: usize, height: usize) -> Self {
        Self::with_stride(width, height, width)
    }

    /// Create a zero-filled plane with an explicit stride (`stride >= width`).
    pub fn with_stride(width: usize, height: usize, stride: usize) -> Self {
        assert!(stride >= width, "stride {stride} < width {width}");
        Plane {
            data: vec![T::default(); stride * height],
            width,
            height,
            stride,
        }
    }

    /// Build a plane from row-major samples with `stride == width`.
    ///
    /// # Panics
    /// If `data.len() != width * height`.
    pub fn from_vec(data: Vec<T>, width: usize, height: usize) -> Self {
        assert_eq!(data.len(), width * height, "sample count mismatch");
        Plane {
            data,
            width,
            height,
            stride: width,
        }
    }

    /// Build a plane with `stride == width` whose sample at `(x, y)` is
    /// `f(x, y)`, called in raster order.
    ///
    /// ```
    /// use feves_video::Plane;
    /// let p = Plane::from_fn(4, 2, |x, y| (10 * y + x) as u8);
    /// assert_eq!(p.row(1), [10, 11, 12, 13]);
    /// ```
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let data = (0..height)
            .flat_map(|y| (0..width).map(move |x| (x, y)))
            .map(|(x, y)| f(x, y))
            .collect();
        Self::from_vec(data, width, height)
    }

    /// Plane width in samples.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in samples (rows).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Distance in samples between the starts of consecutive rows.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Borrow row `y` (exactly `width` samples).
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        debug_assert!(y < self.height);
        let start = y * self.stride;
        &self.data[start..start + self.width]
    }

    /// Mutably borrow row `y`.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        debug_assert!(y < self.height);
        let start = y * self.stride;
        &mut self.data[start..start + self.width]
    }

    /// Sample at `(x, y)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.stride + x]
    }

    /// Write sample at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.stride + x] = v;
    }

    /// Sample at `(x, y)` with edge clamping — coordinates may lie outside
    /// the plane and are clamped to the border, the padding rule H.264 uses
    /// for motion search and interpolation beyond frame edges.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> T {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.stride + cx]
    }

    /// Raw backing storage (row-major with stride).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The samples from `(x, y)` on, and the stride: a region at `(x, y)`.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> (&[T], usize) {
        debug_assert!(x < self.width && y < self.height);
        (&self.data[y * self.stride + x..], self.stride)
    }

    /// [`Self::at`], mutably.
    #[inline]
    pub fn at_mut(&mut self, x: usize, y: usize) -> (&mut [T], usize) {
        debug_assert!(x < self.width && y < self.height);
        (&mut self.data[y * self.stride + x..], self.stride)
    }

    /// Iterator over the valid samples of each row (stride padding excluded).
    pub fn rows(&self) -> impl Iterator<Item = &[T]> {
        self.data
            .chunks_exact(self.stride)
            .map(move |r| &r[..self.width])
    }

    /// Fill the whole plane (incl. stride padding) with `v`.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Copy the overlapping region from `src` (same-size planes copy fully).
    pub fn copy_from(&mut self, src: &Plane<T>) {
        let h = self.height.min(src.height);
        let w = self.width.min(src.width);
        for y in 0..h {
            self.row_mut(y)[..w].copy_from_slice(&src.row(y)[..w]);
        }
    }

    /// Split the plane into disjoint mutable horizontal bands, one per entry
    /// of `row_counts` (heights in *sample rows*; must sum to `height`).
    ///
    /// This is how row-partitioned kernels obtain non-overlapping mutable
    /// output regions for parallel execution without `unsafe`.
    pub fn split_rows_mut(&mut self, row_counts: &[usize]) -> Vec<PlaneBandMut<'_, T>> {
        let total: usize = row_counts.iter().sum();
        assert_eq!(total, self.height, "band heights must sum to plane height");
        let width = self.width;
        let stride = self.stride;
        let mut out = Vec::with_capacity(row_counts.len());
        let mut rest: &mut [T] = &mut self.data;
        let mut y0 = 0usize;
        for &h in row_counts {
            let (band, tail) = rest.split_at_mut(h * stride);
            out.push(PlaneBandMut {
                data: band,
                width,
                stride,
                start_row: y0,
                rows: h,
            });
            rest = tail;
            y0 += h;
        }
        out
    }

    /// The sixteen lines of each macroblock row of `rows`, back to back:
    /// line `i` of a row starts at `i * stride` of its slice. The plane
    /// must hold all sixteen lines of every row.
    pub fn mb_row_lines(&self, rows: RowRange) -> std::slice::ChunksExact<'_, T> {
        let lines = MB_SIZE * self.stride;
        self.data[rows.start * lines..rows.end * lines].chunks_exact(lines)
    }

    /// [`Self::mb_row_lines`], mutably: each row's lines are its own.
    pub fn mb_row_lines_mut(&mut self, rows: RowRange) -> std::slice::ChunksExactMut<'_, T> {
        let lines = MB_SIZE * self.stride;
        self.data[rows.start * lines..rows.end * lines].chunks_exact_mut(lines)
    }

    /// One disjoint mutable band per macroblock row of `rows` (16 sample
    /// rows each, clipped to the plane height) — the output regions of a
    /// row-parallel kernel.
    pub fn split_mb_rows_mut(&mut self, rows: RowRange) -> Vec<PlaneBandMut<'_, T>> {
        let edge = |mb_row: usize| (mb_row * MB_SIZE).min(self.height);
        let mut counts = vec![edge(rows.start)];
        counts.extend(rows.iter().map(|r| edge(r + 1) - edge(r)));
        counts.push(self.height - edge(rows.end));
        let mut bands = self.split_rows_mut(&counts);
        bands.pop();
        bands.remove(0);
        bands
    }
}

/// A mutable horizontal band of a [`Plane`], produced by
/// [`Plane::split_rows_mut`]. Rows are addressed in *plane* coordinates.
pub struct PlaneBandMut<'a, T> {
    data: &'a mut [T],
    width: usize,
    stride: usize,
    start_row: usize,
    rows: usize,
}

impl<T: Copy> PlaneBandMut<'_, T> {
    /// First plane row covered by this band.
    #[inline]
    pub fn start_row(&self) -> usize {
        self.start_row
    }

    /// Number of rows in this band.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Band width (same as the parent plane's).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// [`Plane::at_mut`] within the band (plane row `y` must fall inside it).
    #[inline]
    pub fn at_mut(&mut self, x: usize, y: usize) -> (&mut [T], usize) {
        assert!(y >= self.start_row && y < self.start_row + self.rows);
        let at = (y - self.start_row) * self.stride + x;
        (&mut self.data[at..], self.stride)
    }

    /// Mutably borrow plane row `y` (must fall inside the band).
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        assert!(
            y >= self.start_row && y < self.start_row + self.rows,
            "row {y} outside band [{}, {})",
            self.start_row,
            self.start_row + self.rows
        );
        let local = y - self.start_row;
        &mut self.data[local * self.stride..local * self.stride + self.width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let p: Plane<u8> = Plane::new(4, 3);
        assert_eq!(p.width(), 4);
        assert_eq!(p.height(), 3);
        assert!(p.as_slice().iter().all(|&v| v == 0));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut p: Plane<u8> = Plane::new(8, 8);
        p.set(3, 5, 42);
        assert_eq!(p.get(3, 5), 42);
        assert_eq!(p.row(5)[3], 42);
    }

    #[test]
    fn stride_layout_keeps_rows_apart() {
        let mut p: Plane<u8> = Plane::with_stride(4, 2, 16);
        p.row_mut(0).copy_from_slice(&[1, 2, 3, 4]);
        p.row_mut(1).copy_from_slice(&[5, 6, 7, 8]);
        assert_eq!(p.get(0, 1), 5);
        assert_eq!(p.as_slice()[16], 5);
    }

    #[test]
    fn clamped_access_replicates_borders() {
        let mut p: Plane<u8> = Plane::new(2, 2);
        p.set(0, 0, 10);
        p.set(1, 0, 20);
        p.set(0, 1, 30);
        p.set(1, 1, 40);
        assert_eq!(p.get_clamped(-5, -5), 10);
        assert_eq!(p.get_clamped(7, -1), 20);
        assert_eq!(p.get_clamped(-1, 9), 30);
        assert_eq!(p.get_clamped(9, 9), 40);
    }

    #[test]
    fn from_vec_row_major() {
        let p = Plane::from_vec((0u8..12).collect(), 4, 3);
        assert_eq!(p.get(3, 2), 11);
        assert_eq!(p.row(1), &[4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "sample count mismatch")]
    fn from_vec_wrong_len_panics() {
        let _ = Plane::from_vec(vec![0u8; 10], 4, 3);
    }

    #[test]
    fn split_rows_mut_disjoint_bands() {
        let mut p: Plane<u8> = Plane::new(4, 6);
        {
            let mut bands = p.split_rows_mut(&[2, 3, 1]);
            assert_eq!(bands.len(), 3);
            assert_eq!(bands[0].start_row(), 0);
            assert_eq!(bands[1].start_row(), 2);
            assert_eq!(bands[2].start_row(), 5);
            bands[1].row_mut(4).fill(9);
        }
        assert_eq!(p.row(4), &[9, 9, 9, 9]);
        assert_eq!(p.row(3), &[0, 0, 0, 0]);
    }

    #[test]
    fn split_mb_rows_mut_covers_the_range_and_clips_the_last_row() {
        let mut p: Plane<u8> = Plane::new(4, 40); // 2.5 macroblock rows
        {
            let mut bands = p.split_mb_rows_mut(RowRange::new(1, 3));
            let shape: Vec<_> = bands.iter().map(|b| (b.start_row(), b.rows())).collect();
            assert_eq!(shape, [(16, 16), (32, 8)]);
            bands[1].row_mut(39).fill(7);
        }
        assert_eq!(p.row(39), &[7, 7, 7, 7]);
        assert!(p.split_mb_rows_mut(RowRange::new(2, 2)).is_empty());
    }

    #[test]
    #[should_panic(expected = "sum to plane height")]
    fn split_rows_mut_bad_sum_panics() {
        let mut p: Plane<u8> = Plane::new(4, 6);
        let _ = p.split_rows_mut(&[2, 2]);
    }

    #[test]
    fn copy_from_clips_to_overlap() {
        let mut dst: Plane<u8> = Plane::new(3, 3);
        let mut src: Plane<u8> = Plane::new(5, 2);
        src.fill(7);
        dst.copy_from(&src);
        assert_eq!(dst.get(2, 1), 7);
        assert_eq!(dst.get(0, 2), 0);
    }

    #[test]
    fn rows_iterator_excludes_padding() {
        let mut p: Plane<u8> = Plane::with_stride(2, 2, 4);
        p.as_mut_slice()[2] = 99; // padding sample
        let rows: Vec<&[u8]> = p.rows().collect();
        assert_eq!(rows, vec![&[0u8, 0][..], &[0u8, 0][..]]);
    }
}
