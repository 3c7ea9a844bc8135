//! Inter-frame **decoder**: reconstruct pixels from the bitstream alone.
//!
//! The encoder's reconstruction loop (MC → TQ⁻¹ → DBL) is re-run here from
//! *decoded* syntax — modes, motion vectors and quantized levels — against
//! the same reference store. Decoding must reproduce the encoder's
//! reconstruction **bit-exactly** (the closed-loop property every hybrid
//! codec rests on); the round-trip tests assert it. This is the strongest
//! possible evidence that the bitstream is complete and self-contained:
//! nothing the encoder knows beyond the references is needed to rebuild
//! the frame.

use crate::chroma::{chroma_qp, predict_chroma_block, ChromaField};
use crate::dbl::deblock_frame;
use crate::entropy::{self, DecodeError};
use crate::inter_loop::ReferenceStore;
use crate::mc::{predict_mb, ModeField};
use crate::quant::itq_block;
use crate::recon::CoeffField;
use crate::syntax::FrameSyntax;
use feves_video::geometry::{RowRange, MB_SIZE};
use feves_video::plane::Plane;

/// A decoded inter frame.
#[derive(Clone, Debug)]
pub struct DecodedFrame {
    /// Reconstructed luma (deblocked — identical to the encoder's RF).
    pub y: Plane<u8>,
    /// Reconstructed chroma planes when the stream carries them.
    pub chroma: Option<(Plane<u8>, Plane<u8>)>,
    /// QP signalled in the stream.
    pub qp: u8,
}

/// Rebuild the luma reconstruction from decoded syntax.
fn reconstruct_luma(
    modes: &ModeField,
    coeffs: &CoeffField,
    store: &ReferenceStore,
    qp: u8,
) -> Plane<u8> {
    let sfs = store.sfs();
    let width = sfs[0].width();
    let height = sfs[0].height();
    let mut recon: Plane<u8> = Plane::new(width, height);
    let mut pbuf = [0i16; 256];
    for mby in 0..modes.mb_rows() {
        for mbx in 0..modes.mb_cols() {
            let m = modes.mb(mbx, mby);
            let (cx, cy) = (mbx * MB_SIZE, mby * MB_SIZE);
            predict_mb(m, &sfs, cx, cy, &mut pbuf);
            let c = coeffs.mb(mbx, mby);
            for blk in 0..16 {
                let bx = (blk % 4) * 4;
                let by = (blk / 4) * 4;
                let residual = if c.coded_mask & (1 << blk) != 0 {
                    itq_block(&c.blocks[blk], qp)
                } else {
                    [0i16; 16]
                };
                for row in 0..4 {
                    for col in 0..4 {
                        let idx = (by + row) * MB_SIZE + bx + col;
                        let v =
                            (pbuf[idx].clamp(0, 255) + residual[row * 4 + col]).clamp(0, 255) as u8;
                        recon.set(cx + bx + col, cy + by + row, v);
                    }
                }
            }
        }
    }
    deblock_frame(&mut recon, modes, coeffs, qp);
    recon
}

/// Rebuild the chroma reconstructions from decoded syntax.
fn reconstruct_chroma(
    modes: &ModeField,
    chroma: &ChromaField,
    store: &ReferenceStore,
    luma_qp: u8,
) -> Option<(Plane<u8>, Plane<u8>)> {
    let (refs_u, refs_v) = store.chroma_planes()?;
    let qp_c = chroma_qp(luma_qp);
    let (cw, ch) = (refs_u[0].width(), refs_u[0].height());
    let mut out_u: Plane<u8> = Plane::new(cw, ch);
    let mut out_v: Plane<u8> = Plane::new(cw, ch);
    let mut block = vec![0i16; 64];
    for mby in 0..modes.mb_rows() {
        for mbx in 0..modes.mb_cols() {
            let m = modes.mb(mbx, mby);
            let cm = chroma.mb(mbx, mby);
            let (cx, cy) = (mbx * 8, mby * 8);
            let mode = m.mode;
            let (lw, lh) = mode.dims();
            let (w, h) = (lw / 2, lh / 2);
            for (ci, (refs, out, blocks, mask_shift)) in [
                (&refs_u, &mut out_u, &cm.cb, 0u8),
                (&refs_v, &mut out_v, &cm.cr, 4u8),
            ]
            .into_iter()
            .enumerate()
            {
                let _ = ci;
                let mut pred8 = [0i16; 64];
                for i in 0..mode.count() {
                    let (ox, oy) = mode.offset(i);
                    let (ox, oy) = (ox / 2, oy / 2);
                    let blk = &m.mvs[i];
                    block.truncate(0);
                    block.resize(w * h, 0);
                    predict_chroma_block(
                        refs[blk.rf as usize],
                        cx + ox,
                        cy + oy,
                        blk.mv,
                        w,
                        h,
                        &mut block,
                    );
                    for row in 0..h {
                        for col in 0..w {
                            pred8[(oy + row) * 8 + ox + col] = block[row * w + col];
                        }
                    }
                }
                #[allow(clippy::needless_range_loop)] // b indexes geometry AND blocks
                for b in 0..4 {
                    let bx = (b % 2) * 4;
                    let by = (b / 2) * 4;
                    let residual = if cm.coded_mask & (1 << (b as u8 + mask_shift)) != 0 {
                        itq_block(&blocks[b], qp_c)
                    } else {
                        [0i16; 16]
                    };
                    for row in 0..4 {
                        for col in 0..4 {
                            let p = pred8[(by + row) * 8 + bx + col];
                            let v = (p + residual[row * 4 + col]).clamp(0, 255) as u8;
                            out.set(cx + bx + col, cy + by + row, v);
                        }
                    }
                }
            }
        }
    }
    Some((out_u, out_v))
}

/// Rebuild the pixels of decoded syntax — after checking what only the
/// reference store can decide about it: that the frame has the references'
/// geometry and that every partition names a reference the store holds.
fn reconstruct(
    (modes, coeffs, chroma, qp): FrameSyntax,
    store: &ReferenceStore,
) -> Result<DecodedFrame, DecodeError> {
    if store.is_empty() {
        return Err(DecodeError("no reference frame to decode against".into()));
    }
    let sf = &store.entry(0).sf;
    let (cols, rows) = (modes.mb_cols(), modes.mb_rows());
    if (cols * MB_SIZE, rows * MB_SIZE) != (sf.width(), sf.height()) {
        return Err(DecodeError(format!(
            "stream is {cols}x{rows} macroblocks, the references are {}x{} pixels",
            sf.width(),
            sf.height()
        )));
    }
    let coded = modes.rows(RowRange::new(0, rows)).iter();
    if let Some(blk) = coded
        .flat_map(|m| &m.mvs[..m.mode.count()])
        .find(|blk| blk.rf as usize >= store.len())
    {
        return Err(DecodeError(format!(
            "reference index {} with {} references held",
            blk.rf,
            store.len()
        )));
    }
    let y = reconstruct_luma(&modes, &coeffs, store, qp);
    let chroma = chroma.and_then(|c| reconstruct_chroma(&modes, &c, store, qp));
    Ok(DecodedFrame { y, chroma, qp })
}

/// Decode a luma-only stream written by [`crate::entropy::encode_frame`].
pub fn decode_inter_frame(
    bitstream: &[u8],
    store: &ReferenceStore,
) -> Result<DecodedFrame, DecodeError> {
    reconstruct(entropy::read(bitstream, false)?, store)
}

/// Decode a YUV stream written by [`crate::entropy::encode_frame_yuv`].
pub fn decode_inter_frame_yuv(
    bitstream: &[u8],
    store: &ReferenceStore,
) -> Result<DecodedFrame, DecodeError> {
    reconstruct(entropy::read(bitstream, true)?, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::{decode_frame, encode_frame, encode_frame_yuv};
    use crate::inter_loop::{encode_inter_frame, encode_inter_frame_yuv};
    use crate::interp::interpolate;
    use crate::types::{EncodeParams, SearchArea};
    use feves_video::synth::{SynthConfig, SynthSequence};

    fn params() -> EncodeParams {
        EncodeParams {
            search_area: SearchArea(16),
            n_ref: 2,
            ..Default::default()
        }
    }

    #[test]
    fn decoder_reproduces_encoder_reconstruction() {
        let mut cfg = SynthConfig::tiny_test();
        cfg.resolution = feves_video::geometry::Resolution::QCIF;
        let frames = SynthSequence::new(cfg).take_frames(4);
        let params = params();
        let intra = crate::intra::encode_intra_frame(frames[0].y(), params.qp_intra);
        let mut store = ReferenceStore::new(params.n_ref);
        store.push(intra.recon);
        for f in &frames[1..] {
            let out = encode_inter_frame(f.y(), &store, &params);
            let decoded =
                decode_inter_frame(&out.bitstream, &store).expect("own stream must decode");
            assert_eq!(decoded.qp, params.qp);
            assert_eq!(
                decoded.y, out.recon,
                "decoder must match encoder reconstruction bit-exactly"
            );
            store.push(out.recon);
        }
    }

    #[test]
    fn yuv_decoder_matches_encoder_chroma() {
        let mut cfg = SynthConfig::tiny_test();
        cfg.resolution = feves_video::geometry::Resolution::QCIF;
        let frames = SynthSequence::new(cfg).take_frames(3);
        let params = params();
        let intra = crate::intra::encode_intra_frame(frames[0].y(), params.qp_intra);
        let chroma0 = crate::chroma::encode_chroma_intra(
            frames[0].u(),
            frames[0].v(),
            frames[0].mb_cols(),
            frames[0].mb_rows(),
            params.qp_intra,
        );
        let mut store = ReferenceStore::new(params.n_ref);
        let sf = interpolate(&intra.recon);
        store.push_yuv(intra.recon, sf, chroma0.recon_u, chroma0.recon_v);
        for f in &frames[1..] {
            let out = encode_inter_frame_yuv(f, &store, &params);
            let (stream, _) = encode_frame_yuv(
                &out.luma.modes,
                &out.luma.coeffs,
                &out.chroma.coeffs,
                params.qp,
            );
            let decoded = decode_inter_frame_yuv(&stream, &store).unwrap();
            assert_eq!(decoded.y, out.luma.recon, "luma mismatch");
            let (du, dv) = decoded.chroma.expect("stream carries chroma");
            assert_eq!(du, out.chroma.recon_u, "Cb mismatch");
            assert_eq!(dv, out.chroma.recon_v, "Cr mismatch");
            let sf = interpolate(&out.luma.recon);
            store.push_yuv(out.luma.recon, sf, out.chroma.recon_u, out.chroma.recon_v);
        }
    }

    /// QCIF intra reference plus the first P-frame coded against it.
    fn coded_qcif_frame() -> (crate::inter_loop::InterFrameOutput, ReferenceStore) {
        let mut cfg = SynthConfig::tiny_test();
        cfg.resolution = feves_video::geometry::Resolution::QCIF;
        let frames = SynthSequence::new(cfg).take_frames(2);
        let params = params();
        let intra = crate::intra::encode_intra_frame(frames[0].y(), params.qp_intra);
        let mut store = ReferenceStore::new(params.n_ref);
        store.push(intra.recon);
        (encode_inter_frame(frames[1].y(), &store, &params), store)
    }

    fn rejection(stream: &[u8], store: &ReferenceStore) -> String {
        decode_inter_frame(stream, store)
            .expect_err("stream must be rejected")
            .0
    }

    // The four tests below each run the repo's own writer on a field the
    // decoder cannot reconstruct from; each panicked before the checks.

    #[test]
    fn reference_index_beyond_the_store_is_rejected() {
        let (mut out, store) = coded_qcif_frame();
        // Held by no store of one reference, but within the codec's bound.
        out.modes.mb_mut(3, 2).mvs[0].rf = 1;
        let (stream, _) = encode_frame(&out.modes, &out.coeffs, 28);
        assert!(rejection(&stream, &store).contains("reference index 1 with 1 references"));
        // Beyond the bound: the reader itself refuses.
        out.modes.mb_mut(3, 2).mvs[0].rf = 16;
        let (stream, _) = encode_frame(&out.modes, &out.coeffs, 28);
        assert!(decode_frame(&stream).is_err());
    }

    #[test]
    fn stream_geometry_other_than_the_references_is_rejected() {
        let (_, store) = coded_qcif_frame();
        for (cols, rows) in [(2, 2), (11, 10), (12, 9)] {
            let (modes, coeffs) = (ModeField::new(cols, rows), CoeffField::new(cols, rows));
            let (stream, _) = encode_frame(&modes, &coeffs, 28);
            assert!(rejection(&stream, &store).contains("macroblocks"));
            let (stream, _) = encode_frame_yuv(&modes, &coeffs, &ChromaField::new(cols, rows), 28);
            assert!(decode_inter_frame_yuv(&stream, &store).is_err());
        }
    }

    #[test]
    fn qp_beyond_51_is_rejected() {
        let (out, store) = coded_qcif_frame();
        for qp in [52, 200] {
            let (stream, _) = encode_frame(&out.modes, &out.coeffs, qp);
            assert!(rejection(&stream, &store).contains("qp"));
        }
    }

    #[test]
    fn vector_difference_leaving_i16_is_rejected() {
        use crate::entropy::BitWriter;
        // Two 16×16 macroblocks side by side: the second is predicted from
        // the first, and 30 000 + 30 000 is not an i16.
        let mut w = BitWriter::new();
        for v in [2, 1, 28] {
            w.ue(v);
        }
        for _ in 0..2 {
            w.ue(0); // mode
            w.ue(0); // rf
            w.se(30_000);
            w.se(0);
            w.put_bits(0, 16); // nothing coded
        }
        let err = decode_frame(&w.finish()).expect_err("overflowing vector");
        assert!(err.0.contains("leaves i16"), "{err}");
    }
}
