//! Inter-frame **decoder**: reconstruct pixels from the bitstream alone.
//!
//! The encoder's reconstruction loop (MC → TQ⁻¹ → DBL, and chroma) is
//! re-run here from *decoded* syntax — modes, motion vectors and quantized
//! levels — against the same reference store, through the encoder's own
//! kernels: row by row [`mc::write_prediction`] into the row's sixteen
//! lines of prediction and [`itq_recon_row`], then [`deblock_frame`] and
//! [`chroma::reconstruct_inter_into`]. Every reference holds Y, Cb and
//! Cr, so every decoded frame is YUV. This module computes no sample
//! itself; it reads, checks and calls. Decoding must reproduce the
//! encoder's reconstruction **bit-exactly** (the closed-loop property
//! every hybrid codec rests on); the round-trip tests assert it. This is
//! the strongest possible evidence that the bitstream is complete and
//! self-contained: nothing the encoder knows beyond the references is
//! needed to rebuild the frame.

use crate::chroma;
use crate::dbl::deblock_frame;
use crate::entropy::DecodeError;
use crate::inter_loop::ReferenceStore;
use crate::mc;
use crate::recon::itq_recon_row;
use crate::syntax::{EntropyBackend, FrameSyntax};
use feves_video::geometry::{RowRange, MB_SIZE};
use feves_video::plane::Plane;

/// A decoded inter frame.
#[derive(Clone, Debug)]
pub struct DecodedFrame {
    /// Reconstructed luma (deblocked — identical to the encoder's RF).
    pub y: Plane<u8>,
    /// Reconstructed chroma planes `(Cb, Cr)`. Always `Some`: every
    /// reference holds Cb and Cr. The `Option` stays only because the
    /// wall-clock benchmark's codec replay (`wallbench/src/layers.rs`) calls
    /// `.is_some_and` on it — the ROADMAP's signature lock; item B unwraps it.
    pub chroma: Option<(Plane<u8>, Plane<u8>)>,
    /// QP signalled in the stream.
    pub qp: u8,
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
    let (w, h) = (sf.width(), sf.height());
    let (cols, rows) = (modes.mb_cols(), modes.mb_rows());
    if (cols * MB_SIZE, rows * MB_SIZE) != (w, h) {
        return Err(DecodeError(format!(
            "stream is {cols}x{rows} macroblocks, the references are {w}x{h} pixels"
        )));
    }
    let all = RowRange::new(0, rows);
    if let Some(blk) = (modes.rows(all).iter())
        .flat_map(|m| &m.mvs[..m.mode.count()])
        .find(|blk| blk.rf as usize >= store.len())
    {
        return Err(DecodeError(format!(
            "reference index {} with {} references held",
            blk.rf,
            store.len()
        )));
    }
    let sfs = store.sfs();
    let mut y = Plane::new(w, h);
    let mut pred = vec![0; MB_SIZE * w];
    let items = (modes.rows(all).chunks(cols))
        .zip(coeffs.rows(all).chunks(cols))
        .zip(y.split_mb_rows_mut(all));
    for (mby, ((row_modes, row_coeffs), mut band)) in items.enumerate() {
        for (mbx, mb_mode) in row_modes.iter().enumerate() {
            mc::write_prediction(mb_mode, &sfs, (mbx, mby), &mut pred, |_, _| {});
        }
        itq_recon_row(row_coeffs, &pred, qp, mby, &mut band);
    }
    deblock_frame(&mut y, &modes, &coeffs, qp);
    let (refs_u, refs_v) = store.chroma_refs();
    let (cw, ch) = (refs_u[0].width(), refs_u[0].height());
    let (mut u, mut v) = (Plane::new(cw, ch), Plane::new(cw, ch));
    chroma::reconstruct_inter_into(&refs_u, &refs_v, &modes, &chroma, qp, &mut u, &mut v);
    Ok(DecodedFrame {
        y,
        chroma: Some((u, v)),
        qp,
    })
}

/// Decode a YUV stream written by `backend`'s
/// [`EntropyBackend::encode_frame_yuv`].
pub fn decode_yuv(
    backend: EntropyBackend,
    bitstream: &[u8],
    store: &ReferenceStore,
) -> Result<DecodedFrame, DecodeError> {
    reconstruct(backend.decode_frame_yuv(bitstream)?, store)
}

/// Decode a YUV stream written by [`crate::entropy::encode_frame_yuv`].
pub fn decode_inter_frame_yuv(
    bitstream: &[u8],
    store: &ReferenceStore,
) -> Result<DecodedFrame, DecodeError> {
    decode_yuv(EntropyBackend::ExpGolomb, bitstream, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chroma::ChromaField;
    use crate::entropy::{decode_frame_yuv, encode_frame_yuv};
    use crate::inter_loop::tests::coded_frames;
    use crate::inter_loop::InterFrameOutputYuv;
    use crate::mc::ModeField;
    use crate::recon::CoeffField;
    use crate::types::{EncodeParams, SearchArea};
    use feves_video::synth::{SynthConfig, SynthSequence};

    fn params() -> EncodeParams {
        EncodeParams {
            search_area: SearchArea(16),
            n_ref: 2,
            ..Default::default()
        }
    }

    /// The first `n - 1` P-frames of the QCIF clip, each with its store.
    fn coded_qcif(n: usize) -> Vec<(InterFrameOutputYuv, ReferenceStore)> {
        let mut cfg = SynthConfig::tiny_test();
        cfg.resolution = feves_video::geometry::Resolution::QCIF;
        coded_frames(&SynthSequence::new(cfg).take_frames(n), &params())
    }

    #[test]
    fn decoder_matches_encoder_through_both_backends() {
        for (out, store) in coded_qcif(4) {
            let (modes, coeffs, chroma) = (&out.luma.modes, &out.luma.coeffs, &out.chroma.coeffs);
            for backend in [EntropyBackend::ExpGolomb, EntropyBackend::Cabac] {
                let (stream, _) = backend.encode_frame_yuv(modes, coeffs, chroma, params().qp);
                let decoded = decode_yuv(backend, &stream, &store).expect("own stream decodes");
                assert_eq!(decoded.qp, params().qp);
                assert_eq!(decoded.y, out.luma.recon, "{backend:?}: luma mismatch");
                let (du, dv) = decoded.chroma.expect("every decoded frame is YUV");
                assert_eq!(du, out.chroma.recon_u, "{backend:?}: Cb mismatch");
                assert_eq!(dv, out.chroma.recon_v, "{backend:?}: Cr mismatch");
            }
        }
    }

    /// The QCIF intra reference plus the first P-frame coded against it.
    fn coded_qcif_frame() -> (InterFrameOutputYuv, ReferenceStore) {
        coded_qcif(2).remove(0)
    }

    /// The Exp-Golomb stream of `out`'s fields at `qp`.
    fn stream(out: &InterFrameOutputYuv, qp: u8) -> Vec<u8> {
        let (modes, coeffs, chroma) = (&out.luma.modes, &out.luma.coeffs, &out.chroma.coeffs);
        encode_frame_yuv(modes, coeffs, chroma, qp).0
    }

    fn rejection(stream: &[u8], store: &ReferenceStore) -> String {
        decode_inter_frame_yuv(stream, store)
            .expect_err("stream must be rejected")
            .0
    }

    // The four tests below each run the repo's own writer on a field the
    // decoder cannot reconstruct from; each panicked before the checks.

    #[test]
    fn reference_index_beyond_the_store_is_rejected() {
        let (mut out, store) = coded_qcif_frame();
        // Held by no store of one reference, but within the codec's bound.
        out.luma.modes.mb_mut(3, 2).mvs[0].rf = 1;
        assert!(
            rejection(&stream(&out, 28), &store).contains("reference index 1 with 1 references")
        );
        // Beyond the bound: the reader itself refuses.
        out.luma.modes.mb_mut(3, 2).mvs[0].rf = 16;
        assert!(decode_frame_yuv(&stream(&out, 28)).is_err());
    }

    #[test]
    fn stream_geometry_other_than_the_references_is_rejected() {
        let (_, store) = coded_qcif_frame();
        for (cols, rows) in [(2, 2), (11, 10), (12, 9)] {
            let (modes, coeffs) = (ModeField::new(cols, rows), CoeffField::new(cols, rows));
            let (stream, _) = encode_frame_yuv(&modes, &coeffs, &ChromaField::new(cols, rows), 28);
            assert!(rejection(&stream, &store).contains("macroblocks"));
        }
    }

    #[test]
    fn qp_beyond_51_is_rejected() {
        let (out, store) = coded_qcif_frame();
        for qp in [52, 200] {
            assert!(rejection(&stream(&out, qp), &store).contains("qp"));
        }
    }

    /// A level at the `i16` rail — `syntax::level` takes any `i16`, so a
    /// crafted stream can carry one — decodes without an overflow, and the
    /// samples are the per-block reference, prediction plus residual in
    /// `i32`: a Cb block against its prediction (the stream with that block
    /// uncoded; chroma is not deblocked), and luma through DBL.
    #[test]
    fn a_level_at_the_i16_rail_decodes_to_the_clipped_reference() {
        let (mut out, store) = coded_qcif_frame();
        let (qp, (mbx, mby)) = (51, (3, 2));
        let mb = out.luma.coeffs.mb_mut(mbx, mby);
        (mb.blocks[5][0], mb.coded_mask) = (i16::MAX, mb.coded_mask | 1 << 5);
        let mut decode = |levels: [i16; 16]| {
            let c = out.chroma.coeffs.mb_mut(mbx, mby);
            let coded = u8::from(levels != [0; 16]) << 1;
            (c.cb[1], c.coded_mask) = (levels, c.coded_mask & !2 | coded);
            let d = decode_inter_frame_yuv(&stream(&out, qp), &store).expect("decodes");
            (d.y, d.chroma.expect("every decoded frame is YUV").0)
        };
        let (_, mut want_cb) = decode([0; 16]);
        let levels = core::array::from_fn(|i| if i == 0 { i16::MAX } else { 0 });
        let (y, cb) = decode(levels);
        let (cx, cy) = (mbx * 8 + 4, mby * 8);
        let pred = core::array::from_fn(|i| want_cb.get(cx + i % 4, cy + i / 4));
        let want = crate::quant::recon_block(&pred, &levels, chroma::chroma_qp(qp));
        assert_eq!(want, [255; 16], "the rail clips, it does not wrap");
        for (row, want) in want.chunks_exact(4).enumerate() {
            want_cb.row_mut(cy + row)[cx..cx + 4].copy_from_slice(want);
        }
        assert_eq!(cb, want_cb);

        // Luma: the decoder's walk with the reference per block, then DBL.
        let (modes, coeffs) = (&out.luma.modes, &out.luma.coeffs);
        let (w, cols, sfs) = (y.width(), modes.mb_cols(), store.sfs());
        let (mut want_y, mut pred) = (Plane::new(w, y.height()), vec![0; MB_SIZE * w]);
        let all = RowRange::new(0, coeffs.mb_rows());
        for (i, mb) in coeffs.rows(all).iter().enumerate() {
            let (mbx, mby) = (i % cols, i / cols);
            mc::write_prediction(modes.mb(mbx, mby), &sfs, (mbx, mby), &mut pred, |_, _| {});
            for (blk, levels) in mb.blocks.iter().enumerate() {
                let (bx, by) = (mbx * MB_SIZE + blk % 4 * 4, blk / 4 * 4);
                let p = core::array::from_fn(|i| pred[(by + i / 4) * w + bx + i % 4]);
                let r = crate::quant::recon_block(&p, levels, qp);
                for (row, r) in r.chunks_exact(4).enumerate() {
                    want_y.row_mut(mby * MB_SIZE + by + row)[bx..bx + 4].copy_from_slice(r);
                }
            }
        }
        deblock_frame(&mut want_y, modes, coeffs, qp);
        assert_eq!(y, want_y);
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
            w.put_bits(0, 16); // no luma coded
            w.put_bits(0, 8); // no chroma coded
        }
        let err = decode_frame_yuv(&w.finish()).expect_err("overflowing vector");
        assert!(err.0.contains("leaves i16"), "{err}");
    }
}
