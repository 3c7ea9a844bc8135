//! Motion compensation and partition-mode decision (the paper's MC module,
//! first of the R\* group).
//!
//! Per macroblock: select the best of the 7 partition modes from the refined
//! SME costs (distortion + λ·rate, the standard Lagrangian mode decision),
//! sample the prediction from the sub-pixel frames at the refined vectors,
//! and emit the prediction residual for TQ, into one MB row's sixteen
//! lines: per-thread lines in the R\* row pass
//! ([`crate::recon::code_inter_row`]), a frame plane's rows in [`mc_rows`].

use crate::interp::{SubpelFrame, Tile};
use crate::sme::{MbSubMotion, SmeBlockMv};
use crate::types::{MbField, PartitionMode, ALL_PARTITION_MODES};
use feves_video::geometry::{RowRange, MB_SIZE};
use feves_video::plane::Plane;

/// Mode decision + motion data of one coded macroblock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MbMode {
    /// Winning partition mode.
    pub mode: PartitionMode,
    /// Winning blocks (`mode.count()` entries are valid).
    pub mvs: [SmeBlockMv; 16],
    /// Lagrangian cost of the winner (distortion + λ·rate).
    pub cost: u64,
}

impl Default for MbMode {
    fn default() -> Self {
        MbMode {
            mode: PartitionMode::P16x16,
            mvs: [SmeBlockMv::default(); 16],
            cost: u64::MAX,
        }
    }
}

/// Mode-decision output for a frame.
pub type ModeField = MbField<MbMode>;

/// Lagrange multiplier for mode decision: `0.85 · 2^((QP-12)/3)`.
pub fn lambda_mode(qp: u8) -> f64 {
    0.85 * f64::powf(2.0, (qp as f64 - 12.0) / 3.0)
}

/// Estimated header bits for coding a macroblock in `mode` (mode symbol +
/// per-partition reference index and motion-vector difference).
pub fn mode_overhead_bits(mode: PartitionMode) -> u64 {
    const MODE_BITS: [u64; 7] = [1, 3, 3, 5, 7, 7, 9];
    MODE_BITS[mode.index()] + mode.count() as u64 * 8
}

/// The rate term of every mode's Lagrangian cost at `qp`,
/// `round(λ(qp) · overhead bits)`, indexed like [`ALL_PARTITION_MODES`] —
/// a function of the frame's QP only, so a row computes it once.
pub fn mode_rate_costs(qp: u8) -> [u64; 7] {
    let lambda = lambda_mode(qp);
    ALL_PARTITION_MODES.map(|mode| (lambda * mode_overhead_bits(mode) as f64).round() as u64)
}

/// Choose the best partition mode for one macroblock from its SME output,
/// given the QP's [`mode_rate_costs`].
fn decide_mode_at(sme: &MbSubMotion, rate_costs: &[u64; 7]) -> MbMode {
    let mut best = MbMode::default();
    for (mode, rate) in ALL_PARTITION_MODES.into_iter().zip(rate_costs) {
        let cost = sme.mode_cost(mode) + rate;
        // Strict `<`: ties resolve to the earlier (coarser) mode.
        if cost < best.cost {
            let mut mvs = [SmeBlockMv::default(); 16];
            for (i, mv) in mvs.iter_mut().enumerate().take(mode.count()) {
                *mv = *sme.block(mode, i);
            }
            best = MbMode { mode, mvs, cost };
        }
    }
    best
}

/// Write the prediction of macroblock `(mbx, mby)` under `mb_mode` into
/// `pred`, its MB row's sixteen lines (each `pred.len() / 16` long), each
/// partition's `u8` samples straight from its sub-pel frame, then hand each
/// line to `each_line(i, line)` while it is hot (MC computes its residual
/// there). The one definition of a macroblock's prediction: the encoder's
/// MC and the decoder both write through it.
pub fn write_prediction(
    mb_mode: &MbMode,
    sfs: &[&SubpelFrame],
    (mbx, mby): (usize, usize),
    pred: &mut [u8],
    mut each_line: impl FnMut(usize, &[u8]),
) {
    let (cx, cy) = (mbx * MB_SIZE, mby * MB_SIZE);
    let stride = pred.len() / MB_SIZE;
    let mode = mb_mode.mode;
    let (w, h) = mode.dims();
    let mut tile: Tile = [0; 256];
    for (i, blk) in mb_mode.mvs[..mode.count()].iter().enumerate() {
        let (ox, oy) = mode.offset(i);
        let qx = (cx + ox) as i32 * 4 + blk.mv.x as i32;
        let qy = (cy + oy) as i32 * 4 + blk.mv.y as i32;
        let block = sfs[blk.rf as usize].block(qx, qy, w, h, &mut tile);
        for (r, row) in block.rows(w, h).enumerate() {
            pred[(oy + r) * stride + cx + ox..][..w].copy_from_slice(row);
        }
    }
    for i in 0..MB_SIZE {
        each_line(i, &pred[i * stride + cx..][..MB_SIZE]);
    }
}

/// Mode decision + motion compensation for MB row `mby`: the row's slice of
/// the mode field and its prediction and residual — the row's sixteen
/// lines of each, indexed row-locally (each line `pred.len() / 16` long) —
/// are the only outputs, so rows can run concurrently ([`crate::par`]).
#[allow(clippy::too_many_arguments)] // mirrors the MC module's natural inputs
pub fn mc_row(
    cf: &Plane<u8>,
    sfs: &[&SubpelFrame],
    sme_row: &[MbSubMotion],
    qp: u8,
    mby: usize,
    modes: &mut [MbMode],
    pred: &mut [u8],
    residual: &mut [i16],
) {
    let rate_costs = mode_rate_costs(qp);
    let stride = residual.len() / MB_SIZE;
    for (mbx, (sme, mode)) in sme_row.iter().zip(modes).enumerate() {
        *mode = decide_mode_at(sme, &rate_costs);
        let cx = mbx * MB_SIZE;
        write_prediction(mode, sfs, (mbx, mby), pred, |i, line| {
            let crow = &cf.row(mby * MB_SIZE + i)[cx..cx + MB_SIZE];
            let rrow = &mut residual[i * stride + cx..][..MB_SIZE];
            for ((r, &c), &p) in rrow.iter_mut().zip(crow).zip(line) {
                *r = c as i16 - p as i16;
            }
        });
    }
}

/// Run mode decision + motion compensation for the MB rows of `rows`.
///
/// Writes the winning modes into `modes`, the prediction samples into
/// `pred` and the residual (`cf − pred`) into `residual` (both full-frame
/// planes; only the rows of `rows` are touched).
#[allow(clippy::too_many_arguments)] // mirrors the MC module's natural inputs
pub fn mc_rows(
    cf: &Plane<u8>,
    sfs: &[&SubpelFrame],
    sme_rows: &[MbSubMotion],
    qp: u8,
    rows: RowRange,
    modes: &mut ModeField,
    pred: &mut Plane<u8>,
    residual: &mut Plane<i16>,
) {
    let mb_cols = cf.width() / MB_SIZE;
    assert_eq!(
        sme_rows.len(),
        rows.len() * mb_cols,
        "SME input size mismatch"
    );
    let items = (sme_rows.chunks(mb_cols))
        .zip(modes.rows_mut(rows).chunks_mut(mb_cols))
        .zip(
            pred.mb_row_lines_mut(rows)
                .zip(residual.mb_row_lines_mut(rows)),
        );
    for (mby, ((sme, modes), (pred, residual))) in rows.iter().zip(items) {
        mc_row(cf, sfs, sme, qp, mby, modes, pred, residual);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::interpolate;
    use crate::me::motion_estimate_rows;
    use crate::sme::sme_rows as run_sme_rows;
    use crate::types::{EncodeParams, SearchArea};

    #[test]
    fn lambda_grows_with_qp() {
        assert!(lambda_mode(40) > lambda_mode(20));
        assert!((lambda_mode(12) - 0.85).abs() < 1e-12);
    }

    #[test]
    fn rate_cost_table_equals_the_per_macroblock_expression() {
        for qp in 0..=51 {
            let table = mode_rate_costs(qp);
            for mode in ALL_PARTITION_MODES {
                let per_mb = (lambda_mode(qp) * mode_overhead_bits(mode) as f64).round() as u64;
                assert_eq!(table[mode.index()], per_mb, "qp {qp} {mode:?}");
            }
        }
    }

    #[test]
    fn perfect_translation_gives_zero_residual() {
        let rf = Plane::from_fn(64, 64, |x, y| ((x * 37) ^ (y * 11)) as u8);
        let cf = Plane::from_fn(64, 64, |x, y| {
            rf.get_clamped(x as isize + 3, y as isize - 2)
        });
        let params = EncodeParams {
            search_area: SearchArea(16),
            n_ref: 1,
            ..Default::default()
        };
        let sf = interpolate(&rf);
        let rows = RowRange::new(1, 3);
        let mb_cols = 4;
        let mut me = vec![crate::me::MbMotion::default(); rows.len() * mb_cols];
        motion_estimate_rows(&cf, &[&rf], &params, rows, &mut me);
        let mut sme = vec![MbSubMotion::default(); rows.len() * mb_cols];
        run_sme_rows(&cf, &[&sf], &me, rows, &mut sme);

        let mut modes = ModeField::new(mb_cols, 4);
        let mut pred: Plane<u8> = Plane::new(64, 64);
        let mut residual: Plane<i16> = Plane::new(64, 64);
        mc_rows(
            &cf,
            &[&sf],
            &sme,
            28,
            rows,
            &mut modes,
            &mut pred,
            &mut residual,
        );

        // Interior MBs (away from the clamped frame border) must predict
        // perfectly: residual 0, and the coarse 16x16 mode must win (it has
        // the lowest overhead at equal distortion).
        for mby in rows.iter() {
            for mbx in 1..3 {
                let m = modes.mb(mbx, mby);
                assert_eq!(m.mode, PartitionMode::P16x16, "mb {mbx},{mby}");
                for row in mby * 16..mby * 16 + 16 {
                    for col in mbx * 16..mbx * 16 + 16 {
                        assert_eq!(residual.get(col, row), 0, "at {col},{row}");
                    }
                }
            }
        }
    }

    #[test]
    fn residual_plus_pred_equals_source() {
        let rf = Plane::from_fn(48, 48, |x, y| ((x * 5 + y * 3) % 256) as u8);
        let cf = Plane::from_fn(48, 48, |x, y| ((x * 7) ^ (y * 2)) as u8);
        let params = EncodeParams {
            search_area: SearchArea(8),
            n_ref: 1,
            ..Default::default()
        };
        let sf = interpolate(&rf);
        let rows = RowRange::new(0, 3);
        let mb_cols = 3;
        let mut me = vec![crate::me::MbMotion::default(); rows.len() * mb_cols];
        motion_estimate_rows(&cf, &[&rf], &params, rows, &mut me);
        let mut sme = vec![MbSubMotion::default(); rows.len() * mb_cols];
        run_sme_rows(&cf, &[&sf], &me, rows, &mut sme);

        let mut modes = ModeField::new(mb_cols, 3);
        let mut pred: Plane<u8> = Plane::new(48, 48);
        let mut residual: Plane<i16> = Plane::new(48, 48);
        mc_rows(
            &cf,
            &[&sf],
            &sme,
            28,
            rows,
            &mut modes,
            &mut pred,
            &mut residual,
        );
        for y in 0..48 {
            for x in 0..48 {
                assert_eq!(
                    pred.get(x, y) as i16 + residual.get(x, y),
                    cf.get(x, y) as i16,
                    "at {x},{y}"
                );
            }
        }
    }

    #[test]
    fn high_qp_prefers_coarse_modes() {
        // With huge lambda, overhead dominates: 16x16 must win even when
        // finer modes have slightly lower SAD.
        let mut sme = MbSubMotion::default();
        for mode in ALL_PARTITION_MODES {
            for i in 0..mode.count() {
                sme.block_mut(mode, i).cost = match mode {
                    PartitionMode::P16x16 => 1000,
                    _ => 900 / mode.count() as u32, // finer modes slightly better
                };
            }
        }
        let d = decide_mode_at(&sme, &mode_rate_costs(51));
        assert_eq!(d.mode, PartitionMode::P16x16);
    }

    #[test]
    fn zero_lambda_prefers_min_distortion() {
        let mut sme = MbSubMotion::default();
        for mode in ALL_PARTITION_MODES {
            for i in 0..mode.count() {
                sme.block_mut(mode, i).cost = match mode {
                    PartitionMode::P4x4 => 0,
                    _ => 10_000,
                };
            }
        }
        // QP 0 → tiny lambda; 4x4 with zero distortion must win.
        let d = decide_mode_at(&sme, &mode_rate_costs(0));
        assert_eq!(d.mode, PartitionMode::P4x4);
    }
}
