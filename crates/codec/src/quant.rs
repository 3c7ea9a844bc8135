//! Quantization and dequantization (the paper's TQ / TQ⁻¹ modules).
//!
//! Implements the H.264/AVC scalar quantizer with the standard MF/V scaling
//! tables (QP mod 6 periodicity, per-position frequency classes), combined
//! with the 4×4 core transform of [`crate::transform`] into the `TQ` and
//! `TQ⁻¹` block operations the inter-loop applies to prediction residuals.
//!
//! The forward TQ the encoder runs is [`crate::kernels::tq_blocks`], two
//! blocks per SSE2 register; [`tq_block`] is its scalar reference, which
//! tests and benches call by name. TQ⁻¹ ([`itq_block`]) has one
//! implementation, [`crate::kernels::scalar::dequantize_4x4`]'s
//! per-coefficient loop and the inverse transform.

use crate::kernels::scalar::{dequantize_4x4, quantize_4x4};
use crate::transform::{forward_4x4, inverse_4x4};

/// Quantization step size for `qp` (doubles every 6 QP, QStep(4) = 1.0).
pub fn qstep(qp: u8) -> f64 {
    const BASE: [f64; 6] = [0.625, 0.6875, 0.8125, 0.875, 1.0, 1.125];
    BASE[(qp % 6) as usize] * f64::powi(2.0, (qp / 6) as i32)
}

/// Forward transform + quantize a 4×4 residual block: the reference of
/// [`crate::kernels::tq_blocks`].
pub fn tq_block(residual: &[i16; 16], qp: u8, intra: bool) -> [i16; 16] {
    let mut w: [i32; 16] = core::array::from_fn(|i| residual[i] as i32);
    forward_4x4(&mut w);
    quantize_4x4(&mut w, qp, intra);
    core::array::from_fn(|i| w[i] as i16)
}

/// Dequantize + inverse transform quantized levels back to a residual block.
pub fn itq_block(levels: &[i16; 16], qp: u8) -> [i16; 16] {
    let mut w: [i32; 16] = core::array::from_fn(|i| levels[i] as i32);
    dequantize_4x4(&mut w, qp);
    inverse_4x4(&mut w);
    core::array::from_fn(|i| w[i].clamp(i16::MIN as i32, i16::MAX as i32) as i16)
}

/// True when any level is non-zero (drives deblocking strength and entropy
/// coded-block flags).
pub fn has_coefficients(levels: &[i16; 16]) -> bool {
    levels.iter().any(|&v| v != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qstep_doubles_every_six() {
        assert!((qstep(4) - 1.0).abs() < 1e-12);
        for qp in 0..46u8 {
            let ratio = qstep(qp + 6) / qstep(qp);
            assert!((ratio - 2.0).abs() < 1e-12, "QP {qp}: ratio {ratio}");
        }
    }

    #[test]
    fn zero_block_roundtrips_to_zero() {
        let z = tq_block(&[0i16; 16], 28, false);
        assert_eq!(z, [0i16; 16]);
        assert!(!has_coefficients(&z));
        assert_eq!(itq_block(&z, 28), [0i16; 16]);
    }

    #[test]
    fn roundtrip_error_bounded_by_quant_step() {
        // Reconstruction error per sample must be bounded by ~QStep — the
        // defining property of the quantizer.
        for qp in [10u8, 22, 28, 36, 44] {
            let step = qstep(qp);
            for seed in 0..20i32 {
                let residual: [i16; 16] =
                    core::array::from_fn(|i| (((seed * 31 + i as i32 * 17) % 255) - 127) as i16);
                let z = tq_block(&residual, qp, false);
                let back = itq_block(&z, qp);
                for i in 0..16 {
                    let err = (residual[i] - back[i]).abs() as f64;
                    assert!(
                        err <= step * 1.5 + 1.0,
                        "qp {qp} seed {seed} i {i}: err {err} > step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn lower_qp_means_lower_error() {
        let residual: [i16; 16] = core::array::from_fn(|i| ((i as i16) * 9 - 70) % 100);
        let err = |qp: u8| -> i64 {
            let z = tq_block(&residual, qp, false);
            let back = itq_block(&z, qp);
            (0..16)
                .map(|i| ((residual[i] - back[i]) as i64).pow(2))
                .sum()
        };
        assert!(err(10) <= err(40), "finer quantization must not be worse");
    }

    #[test]
    fn high_qp_kills_small_residuals() {
        let residual = [1i16; 16];
        let z = tq_block(&residual, 40, false);
        assert!(!has_coefficients(&z), "QP 40 must zero a ±1 residual");
    }

    #[test]
    fn intra_deadzone_is_wider() {
        // With the same coefficient magnitude near the decision boundary the
        // intra offset (1/3) rounds up where inter (1/6) rounds down.
        // Construct a DC-only residual to probe the boundary.
        let mut found = false;
        for v in 1..40i16 {
            let r = [v; 16];
            let zi = tq_block(&r, 30, true);
            let zp = tq_block(&r, 30, false);
            if zi[0] > zp[0] {
                found = true;
                break;
            }
        }
        assert!(found, "intra rounding must be more generous somewhere");
    }

    #[test]
    fn quant_symmetry_in_sign() {
        let r: [i16; 16] = core::array::from_fn(|i| (i as i16 * 13 - 100) % 90);
        let neg: [i16; 16] = core::array::from_fn(|i| -r[i]);
        let z = tq_block(&r, 26, false);
        let zn = tq_block(&neg, 26, false);
        for i in 0..16 {
            assert_eq!(z[i], -zn[i], "quantizer must be odd-symmetric");
        }
    }
}
