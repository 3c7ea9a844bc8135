//! Objective quality metrics: MSE and PSNR.

use crate::plane::Plane;

/// Mean squared error between the valid regions of two equally-sized planes.
pub fn mse(a: &Plane<u8>, b: &Plane<u8>) -> f64 {
    assert_eq!(a.width(), b.width(), "plane widths differ");
    assert_eq!(a.height(), b.height(), "plane heights differ");
    let mut acc = 0u64;
    for (ra, rb) in a.rows().zip(b.rows()) {
        for (&pa, &pb) in ra.iter().zip(rb) {
            let d = pa as i64 - pb as i64;
            acc += (d * d) as u64;
        }
    }
    acc as f64 / (a.width() * a.height()) as f64
}

/// Peak signal-to-noise ratio in dB (8-bit peak). Identical planes → +inf.
pub fn psnr(a: &Plane<u8>, b: &Plane<u8>) -> f64 {
    let e = mse(a, b);
    if e == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / e).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_planes_infinite_psnr() {
        let p: Plane<u8> = Plane::new(8, 8);
        assert_eq!(mse(&p, &p), 0.0);
        assert!(psnr(&p, &p).is_infinite());
    }

    #[test]
    fn known_mse() {
        let a: Plane<u8> = Plane::new(2, 2);
        let mut b: Plane<u8> = Plane::new(2, 2);
        b.fill(2); // every sample differs by 2 → MSE 4
        assert_eq!(mse(&a, &b), 4.0);
        let p = psnr(&a, &b);
        assert!((p - 10.0 * (65025.0f64 / 4.0).log10()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "plane widths differ")]
    fn size_mismatch_panics() {
        let a: Plane<u8> = Plane::new(2, 2);
        let b: Plane<u8> = Plane::new(3, 2);
        let _ = mse(&a, &b);
    }
}
