//! Computational work model of the inter-loop modules.
//!
//! Expresses, in abstract *work units per MB row*, how each module's cost
//! scales with the encoding parameters — ME with the search-area size and
//! the number of reference frames ("quadruplication of the ME computational
//! load" between successive SA sizes, §IV), INT with one newly reconstructed
//! reference per frame, SME with the fixed two-stage refinement. The
//! platform simulator multiplies these units by per-device speeds to obtain
//! the execution times the framework measures; the paper's performance
//! characterization then works purely on measured times, exactly as on real
//! hardware.

use crate::types::{EncodeParams, Module};

/// One ME unit = one full 16×16 candidate evaluation (256-pixel SAD plus
/// partition aggregation). One unit of any other module = processing one
/// macroblock.
pub fn units_per_mb(module: Module, params: &EncodeParams) -> f64 {
    match module {
        // Exhaustive search: SA² candidates per reference frame.
        Module::Me => params.search_area.candidates() as f64 * params.n_ref as f64,
        // One new reference frame is interpolated per encoded frame,
        // regardless of how many old SFs are cached.
        Module::Interp => 1.0,
        // Two-stage refinement of 41 partitions at their best reference:
        // constant per MB.
        Module::Sme => 1.0,
        Module::Mc | Module::Tq | Module::Itq | Module::Dbl => 1.0,
    }
}

/// Work units per MB row (`mb_cols` macroblocks).
pub fn units_per_mb_row(module: Module, params: &EncodeParams, mb_cols: usize) -> f64 {
    units_per_mb(module, params) * mb_cols as f64
}

/// Total units for a module over a whole frame.
pub fn units_per_frame(
    module: Module,
    params: &EncodeParams,
    mb_cols: usize,
    mb_rows: usize,
) -> f64 {
    units_per_mb_row(module, params, mb_cols) * mb_rows as f64
}

/// Bytes per MB row of each transferable buffer, for a frame `width` pixels
/// wide (the Data Access Management sizing of Fig 5).
pub mod bytes_per_row {
    use crate::types::TOTAL_PARTITION_BLOCKS;
    use feves_video::geometry::MB_SIZE;

    /// Current-frame luma stripe: `16 · width` bytes.
    pub fn cf(width: usize) -> usize {
        MB_SIZE * width
    }

    /// Reconstructed reference-frame stripe (same layout as CF).
    pub fn rf(width: usize) -> usize {
        MB_SIZE * width
    }

    /// Sub-pixel frame stripe as the paper's platform moves it: 16 phase
    /// planes ⇒ 16× an RF stripe ("which size is as large as 16 RFs",
    /// §II). The host's `SubpelFrame` stores four of them; the model does
    /// not follow it.
    pub fn sf(width: usize) -> usize {
        16 * MB_SIZE * width
    }

    /// Motion-vector stripe: 41 blocks × (rf, mv, cost) ≈ 8 bytes each per MB.
    pub fn mv(width: usize) -> usize {
        (width / MB_SIZE) * TOTAL_PARTITION_BLOCKS * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SearchArea;

    fn params(sa: u16, n_ref: usize) -> EncodeParams {
        EncodeParams {
            search_area: SearchArea(sa),
            n_ref,
            ..Default::default()
        }
    }

    #[test]
    fn me_quadruples_between_sa_sizes() {
        // The paper's observation: doubling the SA edge quadruples ME work.
        let w32 = units_per_mb(Module::Me, &params(32, 1));
        let w64 = units_per_mb(Module::Me, &params(64, 1));
        let w128 = units_per_mb(Module::Me, &params(128, 1));
        assert_eq!(w64 / w32, 4.0);
        assert_eq!(w128 / w64, 4.0);
    }

    #[test]
    fn me_scales_linearly_with_refs() {
        let w1 = units_per_mb(Module::Me, &params(32, 1));
        let w4 = units_per_mb(Module::Me, &params(32, 4));
        assert_eq!(w4 / w1, 4.0);
    }

    #[test]
    fn non_me_modules_are_parameter_independent() {
        for module in [Module::Interp, Module::Sme, Module::Mc, Module::Dbl] {
            assert_eq!(
                units_per_mb(module, &params(32, 1)),
                units_per_mb(module, &params(256, 8)),
                "{module:?}"
            );
        }
    }

    #[test]
    fn frame_units_compose() {
        let p = params(32, 2);
        assert_eq!(
            units_per_frame(Module::Me, &p, 120, 68),
            120.0 * 68.0 * 1024.0 * 2.0
        );
    }

    #[test]
    fn sf_stripe_is_16_rf_stripes() {
        assert_eq!(bytes_per_row::sf(1920), 16 * bytes_per_row::rf(1920));
        assert_eq!(bytes_per_row::cf(1920), 30720);
    }
}
