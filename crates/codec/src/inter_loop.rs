//! Single-device reference implementation of the complete inter-loop
//! (Fig 1): ME → (INT) → SME → MC → TQ → TQ⁻¹ → DBL → chroma → entropy.
//!
//! This is the golden path: the FEVES framework distributes exactly these
//! kernels across devices, and its output must be bit-identical to this
//! driver for any workload distribution (the partition-invariance tests in
//! the workspace root assert that). The hot inner loops (SAD, interpolation,
//! quantization) run the fast paths of [`crate::kernels`], bit-exact against
//! their scalar references.

use crate::chroma::{encode_chroma_inter, ChromaOutput};
use crate::dbl::deblock_frame;
use crate::interp::{interpolate, SubpelFrame};
use crate::mc::{mc_rows, ModeField};
use crate::me::{motion_estimate_rows_parallel, MbMotion, MeField};
use crate::recon::{itq_recon_rows, tq_rows, CoeffField};
use crate::sme::{sme_rows_parallel, MbSubMotion, SmeField};
use crate::syntax::EntropyBackend;
use crate::types::EncodeParams;
use feves_video::frame::Frame;
use feves_video::geometry::{RowRange, MB_SIZE};
use feves_video::plane::Plane;
use std::collections::VecDeque;

/// A reconstructed reference frame together with its sub-pixel
/// interpolation.
#[derive(Clone, Debug)]
pub struct RefEntry {
    /// Reconstructed (deblocked) luma plane.
    pub plane: Plane<u8>,
    /// Its sub-pixel interpolated frame.
    pub sf: SubpelFrame,
    /// Reconstructed chroma planes (Cb, Cr), when chroma coding is active.
    pub chroma: Option<(Plane<u8>, Plane<u8>)>,
}

/// Sliding window of reference frames, most recent first.
///
/// Mirrors the paper's RF/SF buffers: pushing a newly reconstructed frame
/// interpolates it (the INT module's output) and evicts the oldest entry
/// beyond the configured depth.
#[derive(Clone, Debug)]
pub struct ReferenceStore {
    entries: VecDeque<RefEntry>,
    max_refs: usize,
    /// Entries [`Self::clear`] retired: not references, only buffers.
    retired: Vec<RefEntry>,
}

impl ReferenceStore {
    /// Create a store holding at most `max_refs` references.
    pub fn new(max_refs: usize) -> Self {
        assert!(max_refs >= 1);
        ReferenceStore {
            entries: VecDeque::with_capacity(max_refs + 1),
            max_refs,
            retired: Vec::new(),
        }
    }

    /// Number of currently available references (ramps up 1, 2, … at the
    /// start of a sequence — the slopes visible in the paper's Fig 7(b)).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no reference is available yet (next frame must be intra).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Push a full YUV reconstruction (luma, its SF — which the framework
    /// computes collaboratively — and the chroma planes); it becomes
    /// reference index 0.
    pub fn push_yuv(&mut self, recon: Plane<u8>, sf: SubpelFrame, u: Plane<u8>, v: Plane<u8>) {
        self.entries.push_front(RefEntry {
            plane: recon,
            sf,
            chroma: Some((u, v)),
        });
        while self.entries.len() > self.max_refs {
            self.entries.pop_back();
        }
    }

    /// Take out an entry no later frame searches, for its buffers to be
    /// reused: one [`Self::clear`] retired, else the oldest of a full
    /// window — the one the next push would evict. Taking it *before*
    /// building the next entry lets that be built in its buffers, so a
    /// window never holds more than `max_refs` SFs.
    pub fn recycle(&mut self) -> Option<RefEntry> {
        if let Some(retired) = self.retired.pop() {
            return Some(retired);
        }
        if self.entries.len() < self.max_refs {
            return None;
        }
        self.entries.pop_back()
    }

    /// Drop every reference (a closed-GOP refresh), keeping their buffers
    /// for [`Self::recycle`].
    pub fn clear(&mut self) {
        self.retired.extend(self.entries.drain(..));
    }

    /// Chroma reference planes, most recent first; `None` if any entry was
    /// pushed without chroma.
    #[allow(clippy::type_complexity)] // (Cb refs, Cr refs) pair
    pub fn chroma_planes(&self) -> Option<(Vec<&Plane<u8>>, Vec<&Plane<u8>>)> {
        let mut us = Vec::with_capacity(self.entries.len());
        let mut vs = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            let (u, v) = e.chroma.as_ref()?;
            us.push(u);
            vs.push(v);
        }
        Some((us, vs))
    }

    /// Reference planes, most recent first.
    pub fn rf_planes(&self) -> Vec<&Plane<u8>> {
        self.entries.iter().map(|e| &e.plane).collect()
    }

    /// Sub-pixel frames, most recent first.
    pub fn sfs(&self) -> Vec<&SubpelFrame> {
        self.entries.iter().map(|e| &e.sf).collect()
    }

    /// Entry `idx` (0 = most recent).
    pub fn entry(&self, idx: usize) -> &RefEntry {
        &self.entries[idx]
    }

    /// Entries most recent first (checkpoint serialization walks these).
    pub fn entries(&self) -> impl Iterator<Item = &RefEntry> {
        self.entries.iter()
    }

    /// Rebuild a store from reconstructed planes (most recent first),
    /// re-deriving each sub-pixel frame with [`interpolate`]. SFs are pure
    /// functions of their RF — and bit-exact against their references and
    /// work partitions (the partition-invariance tests prove it) — so a
    /// checkpoint only needs the ~5× smaller reconstructed planes.
    #[allow(clippy::type_complexity)] // (luma, optional (Cb, Cr)) per entry
    pub fn rebuild(
        max_refs: usize,
        planes: Vec<(Plane<u8>, Option<(Plane<u8>, Plane<u8>)>)>,
    ) -> Self {
        assert!(max_refs >= 1 && planes.len() <= max_refs);
        let mut entries = VecDeque::with_capacity(max_refs + 1);
        for (plane, chroma) in planes {
            let sf = interpolate(&plane);
            entries.push_back(RefEntry { plane, sf, chroma });
        }
        ReferenceStore {
            entries,
            max_refs,
            retired: Vec::new(),
        }
    }
}

/// The luma side of one encoded inter frame.
#[derive(Clone, Debug)]
pub struct InterFrameOutput {
    /// Full-pel motion field (ME output).
    pub me: MeField,
    /// Refined motion field (SME output).
    pub sme: SmeField,
    /// Winning modes per MB (MC output).
    pub modes: ModeField,
    /// Quantized coefficients (TQ output).
    pub coeffs: CoeffField,
    /// Deblocked reconstruction (the next reference frame).
    pub recon: Plane<u8>,
    /// Number of references actually searched (≤ `params.n_ref`).
    pub refs_used: usize,
}

/// Everything produced by encoding one inter frame.
#[derive(Clone, Debug)]
pub struct InterFrameOutputYuv {
    /// The luma-side output.
    pub luma: InterFrameOutput,
    /// Chroma coefficients + reconstructions.
    pub chroma: ChromaOutput,
    /// The Exp-Golomb YUV stream.
    pub bitstream: Vec<u8>,
    /// Its exact bit count.
    pub bits: u64,
}

/// Encode one full YUV inter frame against the reference store on a single
/// device (ME and SME over the host's cores, [`crate::par`]), following the
/// module order of Fig 1, with chroma prediction and coding derived from
/// the winning luma modes (the standard H.264 coupling).
///
/// The store's entries must hold chroma ([`ReferenceStore::push_yuv`]).
pub fn encode_inter_frame_yuv(
    frame: &Frame,
    store: &ReferenceStore,
    params: &EncodeParams,
) -> InterFrameOutputYuv {
    assert!(
        !store.is_empty(),
        "inter frame needs at least one reference"
    );
    let cf = frame.y();
    let mb_cols = cf.width() / MB_SIZE;
    let mb_rows = cf.height() / MB_SIZE;
    let all_rows = RowRange::new(0, mb_rows);
    let refs_used = params.n_ref.min(store.len());
    let eff_params = EncodeParams {
        n_ref: refs_used,
        ..*params
    };
    let rfs = store.rf_planes();
    let sfs = store.sfs();

    // ME (full-pel, all references).
    let mut me = MeField::new(mb_cols, mb_rows);
    {
        let out: &mut [MbMotion] = me.rows_mut(all_rows);
        motion_estimate_rows_parallel(cf, &rfs, &eff_params, all_rows, out);
    }

    // SME (quarter-pel refinement on the SFs).
    let mut sme = SmeField::new(mb_cols, mb_rows);
    {
        let me_rows: Vec<MbMotion> = me.rows(all_rows).to_vec();
        let out: &mut [MbSubMotion] = sme.rows_mut(all_rows);
        sme_rows_parallel(cf, &sfs, &me_rows, all_rows, out);
    }

    // MC: mode decision, prediction, residual.
    let mut modes = ModeField::new(mb_cols, mb_rows);
    let mut pred: Plane<u8> = Plane::new(cf.width(), cf.height());
    let mut residual: Plane<i16> = Plane::new(cf.width(), cf.height());
    mc_rows(
        cf,
        &sfs,
        sme.rows(all_rows),
        eff_params.qp,
        all_rows,
        &mut modes,
        &mut pred,
        &mut residual,
    );

    // TQ → TQ⁻¹ → reconstruction.
    let mut coeffs = CoeffField::new(mb_cols, mb_rows);
    tq_rows(&residual, eff_params.qp, false, all_rows, &mut coeffs);
    let mut recon: Plane<u8> = Plane::new(cf.width(), cf.height());
    itq_recon_rows(&coeffs, &pred, eff_params.qp, all_rows, &mut recon);

    // DBL (sequential, single device — see crate::dbl docs).
    deblock_frame(&mut recon, &modes, &coeffs, eff_params.qp);

    // Chroma, from the winning luma modes.
    let (refs_u, refs_v) = store
        .chroma_planes()
        .expect("YUV encoding requires chroma references (push_yuv)");
    let chroma = encode_chroma_inter(
        frame.u(),
        frame.v(),
        &refs_u[..refs_used],
        &refs_v[..refs_used],
        &modes,
        eff_params.qp,
    );

    // Entropy coding.
    let (bitstream, bits) =
        EntropyBackend::ExpGolomb.encode_frame_yuv(&modes, &coeffs, &chroma.coeffs, eff_params.qp);

    InterFrameOutputYuv {
        luma: InterFrameOutput {
            me,
            sme,
            modes,
            coeffs,
            recon,
            refs_used,
        },
        chroma,
        bitstream,
        bits,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::types::SearchArea;
    use feves_video::metrics::psnr;
    use feves_video::synth::{SynthConfig, SynthSequence};

    fn test_params() -> EncodeParams {
        EncodeParams {
            search_area: SearchArea(16),
            n_ref: 2,
            ..Default::default()
        }
    }

    fn small_sequence(n: usize) -> Vec<Frame> {
        SynthSequence::new(SynthConfig::tiny_test()).take_frames(n)
    }

    /// A store of at most `max_refs` references holding `frame` intra-coded
    /// at `qp`, luma and chroma.
    pub(crate) fn intra_store(frame: &Frame, qp: u8, max_refs: usize) -> ReferenceStore {
        let intra = crate::intra::encode_intra_frame(frame.y(), qp);
        let (cols, rows) = (frame.mb_cols(), frame.mb_rows());
        let c = crate::chroma::encode_chroma_intra(frame.u(), frame.v(), cols, rows, qp);
        let mut store = ReferenceStore::new(max_refs);
        let sf = interpolate(&intra.recon);
        store.push_yuv(intra.recon, sf, c.recon_u, c.recon_v);
        store
    }

    /// Frame 0 intra, then P-frames `1..frames.len()` through the reference
    /// loop: each P-frame's output and the store it was coded against.
    pub(crate) fn coded_frames(
        frames: &[Frame],
        params: &EncodeParams,
    ) -> Vec<(InterFrameOutputYuv, ReferenceStore)> {
        let mut store = intra_store(&frames[0], params.qp_intra, params.n_ref);
        let mut coded = Vec::new();
        for f in &frames[1..] {
            let out = encode_inter_frame_yuv(f, &store, params);
            coded.push((out.clone(), store.clone()));
            let sf = interpolate(&out.luma.recon);
            store.push_yuv(out.luma.recon, sf, out.chroma.recon_u, out.chroma.recon_v);
        }
        coded
    }

    #[test]
    fn reference_store_window_and_ramp() {
        let mut store = ReferenceStore::new(3);
        assert!(store.is_empty());
        for i in 0..5usize {
            let mut p = Plane::new(16, 16);
            p.fill(i as u8);
            let sf = interpolate(&p);
            store.push_yuv(p, sf, Plane::new(8, 8), Plane::new(8, 8));
            assert_eq!(store.len(), (i + 1).min(3));
        }
        // Most recent first: values 4, 3, 2.
        assert_eq!(store.entry(0).plane.get(0, 0), 4);
        assert_eq!(store.entry(2).plane.get(0, 0), 2);
    }

    #[test]
    fn encode_decode_consistency_and_quality() {
        let frames = small_sequence(3);
        let params = test_params();
        let coded = coded_frames(&frames, &params);
        let (out1, out2) = (&coded[0].0, &coded[1].0);
        assert_eq!(out1.luma.refs_used, 1, "only one reference available yet");
        let q = psnr(&out1.luma.recon, frames[1].y());
        assert!(q > 28.0, "inter reconstruction too poor: {q:.1} dB");
        assert!(out1.bits > 0);
        assert_eq!(out2.luma.refs_used, 2);

        // The bitstream round-trips to the same modes/coefficients.
        let (dm, dc, _, qp) = crate::entropy::decode_frame_yuv(&out2.bitstream).unwrap();
        assert_eq!(qp, params.qp);
        assert_eq!(dc.mb(1, 1), out2.luma.coeffs.mb(1, 1));
        assert_eq!(dm.mb(1, 1).mode, out2.luma.modes.mb(1, 1).mode);
    }

    #[test]
    fn still_content_codes_cheaply() {
        // A frame identical to its reference: inter coding must produce
        // (nearly) no coefficients and a tiny bitstream.
        let frames = small_sequence(1);
        let params = test_params();
        let store = intra_store(&frames[0], 20, 1);
        let reference = store.entry(0);
        let (u, v) = reference.chroma.as_ref().expect("pushed with chroma");
        let mut still = frames[0].clone();
        still.y_mut().copy_from(&reference.plane);
        still.u_mut().copy_from(u);
        still.v_mut().copy_from(v);
        let out = encode_inter_frame_yuv(&still, &store, &params);
        assert_eq!(
            out.luma.coeffs.nonzero_levels(),
            0,
            "identical frame must need no residual coding"
        );
        // Reconstruction before DBL is exact; the deblocking filter may
        // nudge a handful of samples at bS=1 edges (motion discontinuities
        // between equally-good zero-cost matches), so require near-lossless.
        let q = psnr(&out.luma.recon, still.y());
        assert!(q > 55.0, "reconstruction must be near-exact, got {q:.1}");
    }

    #[test]
    fn deterministic_encoding() {
        let frames = small_sequence(2);
        let params = test_params();
        let store = intra_store(&frames[0], params.qp_intra, params.n_ref);
        let a = encode_inter_frame_yuv(&frames[1], &store, &params);
        let b = encode_inter_frame_yuv(&frames[1], &store, &params);
        assert_eq!(a.bitstream, b.bitstream);
        assert_eq!(a.luma.recon, b.luma.recon);
    }
}
