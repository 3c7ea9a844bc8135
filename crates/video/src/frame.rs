//! YUV 4:2:0 frames.

use crate::error::VideoError;
use crate::geometry::{Resolution, MB_SIZE};
use crate::plane::Plane;

/// A YUV 4:2:0 picture.
///
/// The luma plane is padded up to whole macroblocks (border replication) so
/// kernels never special-case partial MBs; `resolution()` still reports the
/// display size. Chroma planes are half-size in both dimensions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    y: Plane<u8>,
    u: Plane<u8>,
    v: Plane<u8>,
    display: Resolution,
}

impl Frame {
    /// Create a mid-gray frame of the given display resolution.
    pub fn new(display: Resolution) -> Result<Self, VideoError> {
        if display.width == 0 || display.height == 0 {
            return Err(VideoError::BadDimensions(format!(
                "{}x{}",
                display.width, display.height
            )));
        }
        if !display.width.is_multiple_of(2) || !display.height.is_multiple_of(2) {
            return Err(VideoError::BadDimensions(format!(
                "4:2:0 needs even dimensions, got {}x{}",
                display.width, display.height
            )));
        }
        let padded = display.padded();
        let mut y = Plane::new(padded.width, padded.height);
        y.fill(128);
        let mut u = Plane::new(padded.width / 2, padded.height / 2);
        u.fill(128);
        let mut v = Plane::new(padded.width / 2, padded.height / 2);
        v.fill(128);
        Ok(Frame { y, u, v, display })
    }

    /// Replicate the last display row/column into the MB padding region.
    pub fn pad_borders(&mut self) {
        let (w, h) = (self.display.width, self.display.height);
        pad_plane(&mut self.y, w, h);
        pad_plane(&mut self.u, w / 2, h / 2);
        pad_plane(&mut self.v, w / 2, h / 2);
    }

    /// Display resolution (unpadded).
    pub fn resolution(&self) -> Resolution {
        self.display
    }

    /// Luma plane (padded).
    pub fn y(&self) -> &Plane<u8> {
        &self.y
    }

    /// Mutable luma plane.
    pub fn y_mut(&mut self) -> &mut Plane<u8> {
        &mut self.y
    }

    /// Cb plane.
    pub fn u(&self) -> &Plane<u8> {
        &self.u
    }

    /// Mutable Cb plane.
    pub fn u_mut(&mut self) -> &mut Plane<u8> {
        &mut self.u
    }

    /// Cr plane.
    pub fn v(&self) -> &Plane<u8> {
        &self.v
    }

    /// Mutable Cr plane.
    pub fn v_mut(&mut self) -> &mut Plane<u8> {
        &mut self.v
    }

    /// Number of macroblock rows (the scheduler's `N`).
    pub fn mb_rows(&self) -> usize {
        self.y.height() / MB_SIZE
    }

    /// Number of macroblocks per row.
    pub fn mb_cols(&self) -> usize {
        self.y.width() / MB_SIZE
    }
}

fn pad_plane(p: &mut Plane<u8>, valid_w: usize, valid_h: usize) {
    let (pw, ph) = (p.width(), p.height());
    // Replicate the last valid column to the right.
    if pw > valid_w {
        for y in 0..valid_h {
            let last = p.row(y)[valid_w - 1];
            p.row_mut(y)[valid_w..].fill(last);
        }
    }
    // Replicate the last valid row downward.
    if ph > valid_h {
        let last_row: Vec<u8> = p.row(valid_h - 1).to_vec();
        for y in valid_h..ph {
            p.row_mut(y).copy_from_slice(&last_row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_hd_is_padded_to_1088() {
        let f = Frame::new(Resolution::FULL_HD).unwrap();
        assert_eq!((f.y().width(), f.y().height()), (1920, 1088));
        assert_eq!(f.mb_rows(), 68);
        assert_eq!(f.mb_cols(), 120);
        assert_eq!(f.resolution(), Resolution::FULL_HD);
    }

    #[test]
    fn odd_dimensions_rejected() {
        assert!(Frame::new(Resolution::new(17, 16)).is_err());
        assert!(Frame::new(Resolution::new(0, 16)).is_err());
    }

    #[test]
    fn pad_borders_replicates_the_last_row_and_column() {
        let mut f = Frame::new(Resolution::new(12, 10)).unwrap(); // pads to 16x16
        for y in 0..10 {
            for x in 0..12 {
                f.y_mut().set(x, y, (y * 12 + x) as u8);
            }
        }
        f.pad_borders();
        for y in 0..16 {
            let src = y.min(9);
            assert_eq!(&f.y().row(y)[..12], &f.y().row(src)[..12], "row {y}");
            assert!(f.y().row(y)[12..].iter().all(|&s| s == f.y().get(11, src)));
        }
    }
}
