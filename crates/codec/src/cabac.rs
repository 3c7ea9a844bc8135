//! CABAC-style adaptive binary arithmetic coding — the H.264 Main-profile
//! entropy backend, here built from first principles: a carry-less binary
//! range coder plus adaptive per-context probability models, with the same
//! frame syntax as the Exp-Golomb coder of [`crate::entropy`].
//!
//! The paper's Baseline-profile evaluation uses CAVLC-class coding (our
//! [`crate::entropy`] module); this module is the natural Main-profile
//! extension and demonstrates the rate gap between static and adaptive
//! entropy coding on the same quantized data (see the `rd_sweep` binary).
//! The encoder/decoder pair round-trips bit-exactly, which the property
//! tests assert.

use crate::chroma::{ChromaField, MbChromaCoeffs};
use crate::entropy::{DecodeError, MvPredictor, ZIGZAG_4X4};
use crate::mc::{MbMode, ModeField};
use crate::recon::{CoeffField, MbCoeffs};
use crate::sme::SmeBlockMv;
use crate::types::{QpelMv, ALL_PARTITION_MODES};

const PROB_BITS: u32 = 12;
const PROB_ONE: u16 = 1 << PROB_BITS;
const ADAPT_SHIFT: u32 = 5;
const TOP: u32 = 1 << 24;

/// An adaptive binary probability model (probability that the bit is 0).
#[derive(Clone, Copy, Debug)]
pub struct Context(u16);

impl Default for Context {
    fn default() -> Self {
        Context(PROB_ONE / 2)
    }
}

impl Context {
    fn update(&mut self, bit: bool) {
        if bit {
            self.0 -= self.0 >> ADAPT_SHIFT;
        } else {
            self.0 += (PROB_ONE - self.0) >> ADAPT_SHIFT;
        }
        // Keep away from 0/1 certainty.
        self.0 = self.0.clamp(32, PROB_ONE - 32);
    }
}

/// Carry-less binary range encoder (LZMA-style renormalization).
pub struct ArithEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for ArithEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ArithEncoder {
    /// Fresh encoder.
    pub fn new() -> Self {
        ArithEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    fn shift_low(&mut self) {
        if self.low < 0xFF00_0000u64 || self.low > u32::MAX as u64 {
            let carry = (self.low >> 32) as u8;
            let mut first = true;
            while self.cache_size > 0 {
                let byte = if first {
                    self.cache.wrapping_add(carry)
                } else {
                    0xFFu8.wrapping_add(carry)
                };
                self.out.push(byte);
                first = false;
                self.cache_size -= 1;
            }
            self.cache = ((self.low >> 24) & 0xFF) as u8;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Encode one bit under the adaptive `ctx`.
    pub fn encode(&mut self, ctx: &mut Context, bit: bool) {
        let bound = (self.range >> PROB_BITS) * ctx.0 as u32;
        if !bit {
            self.range = bound;
        } else {
            self.low += bound as u64;
            self.range -= bound;
        }
        ctx.update(bit);
        while self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
    }

    /// Encode one equiprobable ("bypass") bit.
    pub fn encode_bypass(&mut self, bit: bool) {
        let bound = self.range >> 1;
        if !bit {
            self.range = bound;
        } else {
            self.low += bound as u64;
            self.range -= bound;
        }
        while self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
    }

    /// Flush and return the byte stream.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// The matching range decoder.
pub struct ArithDecoder<'a> {
    code: u32,
    range: u32,
    data: &'a [u8],
    pos: usize,
}

impl<'a> ArithDecoder<'a> {
    /// Wrap a byte stream produced by [`ArithEncoder::finish`].
    pub fn new(data: &'a [u8]) -> Result<Self, DecodeError> {
        if data.is_empty() {
            return Err(DecodeError("empty arithmetic stream".into()));
        }
        let mut d = ArithDecoder {
            code: 0,
            range: u32::MAX,
            data,
            pos: 1, // the first byte is the encoder's initial zero cache
        };
        for _ in 0..4 {
            d.code = (d.code << 8) | d.next_byte();
        }
        Ok(d)
    }

    fn next_byte(&mut self) -> u32 {
        let b = self.data.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b as u32
    }

    /// Decode one bit under the adaptive `ctx`.
    pub fn decode(&mut self, ctx: &mut Context) -> bool {
        let bound = (self.range >> PROB_BITS) * ctx.0 as u32;
        let bit = if self.code < bound {
            self.range = bound;
            false
        } else {
            self.code -= bound;
            self.range -= bound;
            true
        };
        ctx.update(bit);
        while self.range < TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | self.next_byte();
        }
        bit
    }

    /// Decode one bypass bit.
    pub fn decode_bypass(&mut self) -> bool {
        let bound = self.range >> 1;
        let bit = if self.code < bound {
            self.range = bound;
            false
        } else {
            self.code -= bound;
            self.range -= bound;
            true
        };
        while self.range < TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | self.next_byte();
        }
        bit
    }
}

// ---- Binarizations ----------------------------------------------------

/// Unsigned value: truncated-unary prefix (adaptive, up to `k` ctx bits)
/// followed by a bypass Exp-Golomb suffix for the remainder.
fn encode_uval(e: &mut ArithEncoder, ctxs: &mut [Context], v: u32) {
    let k = ctxs.len() as u32;
    let prefix = v.min(k);
    for i in 0..prefix {
        e.encode(&mut ctxs[i as usize], true);
    }
    if prefix < k {
        e.encode(&mut ctxs[prefix as usize], false);
        return;
    }
    // Bypass Exp-Golomb of (v - k).
    let rest = v - k;
    let mut n = 0u32;
    while (rest + 1) >> (n + 1) > 0 {
        n += 1;
    }
    for _ in 0..n {
        e.encode_bypass(true);
    }
    e.encode_bypass(false);
    for i in (0..n).rev() {
        e.encode_bypass(((rest + 1) >> i) & 1 == 1);
    }
}

fn decode_uval(d: &mut ArithDecoder<'_>, ctxs: &mut [Context]) -> Result<u32, DecodeError> {
    let k = ctxs.len() as u32;
    let mut prefix = 0u32;
    while prefix < k {
        if d.decode(&mut ctxs[prefix as usize]) {
            prefix += 1;
        } else {
            return Ok(prefix);
        }
    }
    let mut n = 0u32;
    while d.decode_bypass() {
        n += 1;
        if n > 40 {
            return Err(DecodeError("arithmetic EG prefix too long".into()));
        }
    }
    let mut v = 1u32;
    for _ in 0..n {
        v = (v << 1) | d.decode_bypass() as u32;
    }
    Ok(k + v - 1)
}

fn encode_sval(e: &mut ArithEncoder, ctxs: &mut [Context], v: i32) {
    encode_uval(e, ctxs, v.unsigned_abs());
    if v != 0 {
        e.encode_bypass(v < 0);
    }
}

fn decode_sval(d: &mut ArithDecoder<'_>, ctxs: &mut [Context]) -> Result<i32, DecodeError> {
    let mag = decode_uval(d, ctxs)? as i32;
    if mag == 0 {
        return Ok(0);
    }
    Ok(if d.decode_bypass() { -mag } else { mag })
}

// ---- Frame syntax ------------------------------------------------------

/// The adaptive context set for one frame.
struct Models {
    mode: Vec<Context>,
    rf: Vec<Context>,
    mvd_x: Vec<Context>,
    mvd_y: Vec<Context>,
    coded_block: Vec<Context>, // [luma, chroma]
    sig: Vec<Context>,         // per zigzag position
    level: Vec<Context>,
}

impl Models {
    fn new() -> Self {
        Models {
            mode: vec![Context::default(); 6],
            rf: vec![Context::default(); 4],
            mvd_x: vec![Context::default(); 9],
            mvd_y: vec![Context::default(); 9],
            coded_block: vec![Context::default(); 2],
            sig: vec![Context::default(); 16],
            level: vec![Context::default(); 8],
        }
    }
}

fn code_block(e: &mut ArithEncoder, m: &mut Models, levels: &[i16; 16], chroma: bool) {
    let scanned: Vec<i16> = ZIGZAG_4X4.iter().map(|&i| levels[i]).collect();
    let any = scanned.iter().any(|&v| v != 0);
    let cbf = usize::from(chroma);
    e.encode(&mut m.coded_block[cbf], any);
    if !any {
        return;
    }
    for (pos, &v) in scanned.iter().enumerate() {
        e.encode(&mut m.sig[pos], v != 0);
        if v != 0 {
            encode_uval(e, &mut m.level, (v.unsigned_abs() - 1) as u32);
            e.encode_bypass(v < 0);
        }
    }
}

fn decode_block(
    d: &mut ArithDecoder<'_>,
    m: &mut Models,
    chroma: bool,
) -> Result<[i16; 16], DecodeError> {
    let cbf = usize::from(chroma);
    let mut out = [0i16; 16];
    if !d.decode(&mut m.coded_block[cbf]) {
        return Ok(out);
    }
    for pos in 0..16 {
        if d.decode(&mut m.sig[pos]) {
            let mag1 = decode_uval(d, &mut m.level)? as i32;
            let neg = d.decode_bypass();
            let mag = mag1 + 1;
            out[ZIGZAG_4X4[pos]] = if neg { -mag as i16 } else { mag as i16 };
        }
    }
    Ok(out)
}

/// Encode a full YUV frame with adaptive arithmetic coding; returns the
/// stream and its exact bit count.
pub fn encode_frame_cabac(
    modes: &ModeField,
    coeffs: &CoeffField,
    chroma: Option<&ChromaField>,
    qp: u8,
) -> (Vec<u8>, u64) {
    let mut e = ArithEncoder::new();
    let mut m = Models::new();
    // Plain header bits (dimensions + qp) via bypass.
    for v in [
        modes.mb_cols() as u32,
        modes.mb_rows() as u32,
        qp as u32,
        chroma.is_some() as u32,
    ] {
        for i in (0..16).rev() {
            e.encode_bypass((v >> i) & 1 == 1);
        }
    }
    let mut pred = MvPredictor::new(modes.mb_cols(), modes.mb_rows());
    for mby in 0..modes.mb_rows() {
        for mbx in 0..modes.mb_cols() {
            let mb = modes.mb(mbx, mby);
            encode_uval(&mut e, &mut m.mode, mb.mode.index() as u32);
            let (pw, ph) = mb.mode.dims();
            let (w4, h4) = (pw / 4, ph / 4);
            for i in 0..mb.mode.count() {
                let blk = &mb.mvs[i];
                let (ox, oy) = mb.mode.offset(i);
                let (x4, y4) = (mbx * 4 + ox / 4, mby * 4 + oy / 4);
                let p = pred.predict(x4, y4, w4);
                encode_uval(&mut e, &mut m.rf, blk.rf as u32);
                encode_sval(&mut e, &mut m.mvd_x, (blk.mv.x - p.x) as i32);
                encode_sval(&mut e, &mut m.mvd_y, (blk.mv.y - p.y) as i32);
                pred.record(x4, y4, w4, h4, blk.mv);
            }
            let c = coeffs.mb(mbx, mby);
            for blk in &c.blocks {
                code_block(&mut e, &mut m, blk, false);
            }
            if let Some(ch) = chroma {
                let cm = ch.mb(mbx, mby);
                for blk in cm.cb.iter().chain(cm.cr.iter()) {
                    code_block(&mut e, &mut m, blk, true);
                }
            }
        }
    }
    let bytes = e.finish();
    let bits = bytes.len() as u64 * 8;
    (bytes, bits)
}

/// Decode a stream produced by [`encode_frame_cabac`].
#[allow(clippy::type_complexity)]
pub fn decode_frame_cabac(
    data: &[u8],
) -> Result<(ModeField, CoeffField, Option<ChromaField>, u8), DecodeError> {
    let mut d = ArithDecoder::new(data)?;
    let mut m = Models::new();
    let mut hdr = [0u32; 4];
    for h in hdr.iter_mut() {
        let mut v = 0u32;
        for _ in 0..16 {
            v = (v << 1) | d.decode_bypass() as u32;
        }
        *h = v;
    }
    let (mb_cols, mb_rows, qp, has_chroma) =
        (hdr[0] as usize, hdr[1] as usize, hdr[2] as u8, hdr[3] != 0);
    if mb_cols == 0 || mb_rows == 0 || mb_cols > 1024 || mb_rows > 1024 {
        return Err(DecodeError(format!("bad dimensions {mb_cols}x{mb_rows}")));
    }
    let mut modes = ModeField::new(mb_cols, mb_rows);
    let mut coeffs = CoeffField::new(mb_cols, mb_rows);
    let mut chroma = if has_chroma {
        Some(ChromaField::new(mb_cols, mb_rows))
    } else {
        None
    };
    let mut pred = MvPredictor::new(mb_cols, mb_rows);
    for mby in 0..mb_rows {
        for mbx in 0..mb_cols {
            let mode_idx = decode_uval(&mut d, &mut m.mode)? as usize;
            let mode = *ALL_PARTITION_MODES
                .get(mode_idx)
                .ok_or_else(|| DecodeError(format!("bad mode {mode_idx}")))?;
            let (pw, ph) = mode.dims();
            let (w4, h4) = (pw / 4, ph / 4);
            let mut mvs = [SmeBlockMv::default(); 16];
            for (i, slot) in mvs.iter_mut().enumerate().take(mode.count()) {
                let (ox, oy) = mode.offset(i);
                let (x4, y4) = (mbx * 4 + ox / 4, mby * 4 + oy / 4);
                let p = pred.predict(x4, y4, w4);
                let rf = decode_uval(&mut d, &mut m.rf)? as u8;
                let dx = decode_sval(&mut d, &mut m.mvd_x)? as i16;
                let dy = decode_sval(&mut d, &mut m.mvd_y)? as i16;
                let mv = QpelMv::new(p.x + dx, p.y + dy);
                *slot = SmeBlockMv { rf, mv, cost: 0 };
                pred.record(x4, y4, w4, h4, mv);
            }
            *modes.mb_mut(mbx, mby) = MbMode { mode, mvs, cost: 0 };
            let mut mc = MbCoeffs::default();
            for (b, blk) in mc.blocks.iter_mut().enumerate() {
                *blk = decode_block(&mut d, &mut m, false)?;
                if blk.iter().any(|&v| v != 0) {
                    mc.coded_mask |= 1 << b;
                }
            }
            *coeffs.mb_mut(mbx, mby) = mc;
            if let Some(ch) = chroma.as_mut() {
                let mut cm = MbChromaCoeffs::default();
                for b in 0..4 {
                    cm.cb[b] = decode_block(&mut d, &mut m, true)?;
                    if cm.cb[b].iter().any(|&v| v != 0) {
                        cm.coded_mask |= 1 << b;
                    }
                }
                for b in 0..4 {
                    cm.cr[b] = decode_block(&mut d, &mut m, true)?;
                    if cm.cr[b].iter().any(|&v| v != 0) {
                        cm.coded_mask |= 1 << (b + 4);
                    }
                }
                *ch.mb_mut(mbx, mby) = cm;
            }
        }
    }
    Ok((modes, coeffs, chroma, qp))
}

/// Which entropy backend a stream uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntropyBackend {
    /// Static Exp-Golomb / run-level (Baseline-profile class).
    ExpGolomb,
    /// Adaptive binary arithmetic coding (Main-profile class).
    Cabac,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_coder_roundtrips_random_bits() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        // Biased bit stream: contexts should adapt and compress it.
        let bits: Vec<bool> = (0..20_000).map(|_| rng.gen_bool(0.15)).collect();
        let mut e = ArithEncoder::new();
        let mut ctx = Context::default();
        for &b in &bits {
            e.encode(&mut ctx, b);
        }
        let bytes = e.finish();
        // Entropy of p=0.15 is ~0.61 bits/symbol; the adaptive coder should
        // land well below 0.8.
        assert!(
            (bytes.len() * 8) < 16_000,
            "poor compression: {} bits for 20k symbols",
            bytes.len() * 8
        );
        let mut d = ArithDecoder::new(&bytes).unwrap();
        let mut ctx = Context::default();
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(d.decode(&mut ctx), b, "bit {i}");
        }
    }

    #[test]
    fn bypass_bits_roundtrip() {
        let bits: Vec<bool> = (0..999).map(|i| (i * 7) % 3 == 0).collect();
        let mut e = ArithEncoder::new();
        for &b in &bits {
            e.encode_bypass(b);
        }
        let bytes = e.finish();
        let mut d = ArithDecoder::new(&bytes).unwrap();
        for &b in &bits {
            assert_eq!(d.decode_bypass(), b);
        }
    }

    #[test]
    fn uval_sval_roundtrip() {
        let values = [0u32, 1, 2, 3, 7, 8, 100, 4096, 70000];
        let signed = [0i32, 1, -1, 2, -2, 63, -64, 500, -70000];
        let mut e = ArithEncoder::new();
        let mut cu = vec![Context::default(); 4];
        let mut cs = vec![Context::default(); 6];
        for &v in &values {
            encode_uval(&mut e, &mut cu, v);
        }
        for &v in &signed {
            encode_sval(&mut e, &mut cs, v);
        }
        let bytes = e.finish();
        let mut d = ArithDecoder::new(&bytes).unwrap();
        let mut cu = vec![Context::default(); 4];
        let mut cs = vec![Context::default(); 6];
        for &v in &values {
            assert_eq!(decode_uval(&mut d, &mut cu).unwrap(), v);
        }
        for &v in &signed {
            assert_eq!(decode_sval(&mut d, &mut cs).unwrap(), v);
        }
    }

    fn synthetic_fields(mb_cols: usize, mb_rows: usize) -> (ModeField, CoeffField, ChromaField) {
        let mut modes = ModeField::new(mb_cols, mb_rows);
        let mut coeffs = CoeffField::new(mb_cols, mb_rows);
        let mut chroma = ChromaField::new(mb_cols, mb_rows);
        for mby in 0..mb_rows {
            for mbx in 0..mb_cols {
                let mode = ALL_PARTITION_MODES[(mbx * 3 + mby) % 7];
                let mut mvs = [SmeBlockMv::default(); 16];
                for (i, mv) in mvs.iter_mut().enumerate().take(mode.count()) {
                    mv.mv = QpelMv::new((mbx as i16) * 4 + i as i16, (mby as i16) * 2 - 3);
                    mv.rf = ((mbx + i) % 2) as u8;
                }
                *modes.mb_mut(mbx, mby) = MbMode { mode, mvs, cost: 0 };
                if (mbx + mby) % 3 == 0 {
                    let mb = coeffs.mb_mut(mbx, mby);
                    mb.blocks[2][0] = 7;
                    mb.blocks[2][5] = -2;
                    mb.blocks[9][1] = 1;
                    mb.coded_mask = (1 << 2) | (1 << 9);
                    let cm = chroma.mb_mut(mbx, mby);
                    cm.cb[1][0] = -3;
                    cm.coded_mask = 1 << 1;
                }
            }
        }
        (modes, coeffs, chroma)
    }

    #[test]
    fn frame_roundtrip_with_chroma() {
        let (modes, coeffs, chroma) = synthetic_fields(5, 4);
        let (bytes, bits) = encode_frame_cabac(&modes, &coeffs, Some(&chroma), 28);
        assert!(bits > 0);
        let (dm, dc, dch, qp) = decode_frame_cabac(&bytes).unwrap();
        assert_eq!(qp, 28);
        let dch = dch.expect("chroma flag set");
        for mby in 0..4 {
            for mbx in 0..5 {
                assert_eq!(dm.mb(mbx, mby).mode, modes.mb(mbx, mby).mode);
                for i in 0..modes.mb(mbx, mby).mode.count() {
                    assert_eq!(dm.mb(mbx, mby).mvs[i].mv, modes.mb(mbx, mby).mvs[i].mv);
                    assert_eq!(dm.mb(mbx, mby).mvs[i].rf, modes.mb(mbx, mby).mvs[i].rf);
                }
                assert_eq!(dc.mb(mbx, mby), coeffs.mb(mbx, mby));
                assert_eq!(dch.mb(mbx, mby), chroma.mb(mbx, mby));
            }
        }
    }

    #[test]
    fn frame_roundtrip_without_chroma() {
        let (modes, coeffs, _) = synthetic_fields(3, 3);
        let (bytes, _) = encode_frame_cabac(&modes, &coeffs, None, 30);
        let (_, dc, dch, qp) = decode_frame_cabac(&bytes).unwrap();
        assert_eq!(qp, 30);
        assert!(dch.is_none());
        assert_eq!(dc.mb(1, 1), coeffs.mb(1, 1));
    }

    #[test]
    fn cabac_beats_expgolomb_on_real_content() {
        // Encode a synthetic frame with the real pipeline, then compare the
        // two entropy backends on identical quantized data.
        use feves_video::synth::{SynthConfig, SynthSequence};
        let mut cfg = SynthConfig::tiny_test();
        cfg.resolution = feves_video::geometry::Resolution::QCIF;
        let frames = SynthSequence::new(cfg).take_frames(2);
        let params = crate::types::EncodeParams {
            search_area: crate::types::SearchArea(16),
            n_ref: 1,
            ..Default::default()
        };
        let intra = crate::intra::encode_intra_frame(frames[0].y(), params.qp_intra);
        let mut store = crate::inter_loop::ReferenceStore::new(1);
        store.push(intra.recon);
        let out = crate::inter_loop::encode_inter_frame(frames[1].y(), &store, &params);
        let (_, eg_bits) = crate::entropy::encode_frame(&out.modes, &out.coeffs, params.qp);
        let (_, cb_bits) = encode_frame_cabac(&out.modes, &out.coeffs, None, params.qp);
        assert!(
            (cb_bits as f64) < eg_bits as f64 * 0.95,
            "CABAC {cb_bits} should beat Exp-Golomb {eg_bits} by >5%"
        );
    }

    #[test]
    fn truncated_stream_fails_cleanly() {
        let (modes, coeffs, _) = synthetic_fields(3, 3);
        let (bytes, _) = encode_frame_cabac(&modes, &coeffs, None, 30);
        // Heavy truncation: must error or decode garbage, never panic.
        let _ = decode_frame_cabac(&bytes[..2.min(bytes.len())]);
        let _ = decode_frame_cabac(&[0u8; 1]);
    }
}
