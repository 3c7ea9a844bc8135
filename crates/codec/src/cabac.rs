//! CABAC-style adaptive binary arithmetic coding — the H.264 Main-profile
//! entropy backend, here built from first principles: a carry-less binary
//! range coder plus adaptive per-context probability models. It binarises
//! the same frame syntax as the Exp-Golomb coder of [`crate::entropy`]: both
//! are symbol coders under the one frame walk of `crate::syntax`.
//!
//! The paper's Baseline-profile evaluation uses CAVLC-class coding (our
//! [`crate::entropy`] module); this module is the natural Main-profile
//! extension and demonstrates the rate gap between static and adaptive
//! entropy coding on the same quantized data (see the `rd_sweep` binary).
//! The encoder/decoder pair round-trips bit-exactly, which the property
//! tests assert.

use crate::chroma::{ChromaField, MbChromaCoeffs};
use crate::entropy::{DecodeError, ZIGZAG_4X4};
use crate::mc::ModeField;
use crate::quant::has_coefficients;
use crate::recon::{CoeffField, MbCoeffs};
pub use crate::syntax::EntropyBackend;
use crate::syntax::{self, read_frame, write_frame, FrameHeader, SymbolReader, SymbolWriter};

const PROB_BITS: u32 = 12;
const PROB_ONE: u16 = 1 << PROB_BITS;
const ADAPT_SHIFT: u32 = 5;
const TOP: u32 = 1 << 24;

/// An adaptive binary probability model (probability that the bit is 0).
#[derive(Clone, Copy, Debug)]
struct Context(u16);

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
struct ArithEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl ArithEncoder {
    /// Fresh encoder.
    fn new() -> Self {
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

    /// Narrow the interval to the side of `bound` that `bit` names.
    fn split(&mut self, bound: u32, bit: bool) {
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

    /// Encode one bit under the adaptive `ctx`.
    fn encode(&mut self, ctx: &mut Context, bit: bool) {
        self.split((self.range >> PROB_BITS) * ctx.0 as u32, bit);
        ctx.update(bit);
    }

    /// Encode one equiprobable ("bypass") bit.
    fn encode_bypass(&mut self, bit: bool) {
        self.split(self.range >> 1, bit);
    }

    /// Flush and return the byte stream.
    fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// The matching range decoder.
struct ArithDecoder<'a> {
    code: u32,
    range: u32,
    data: &'a [u8],
    pos: usize,
}

impl<'a> ArithDecoder<'a> {
    /// Wrap a byte stream produced by [`ArithEncoder::finish`].
    fn new(data: &'a [u8]) -> Result<Self, DecodeError> {
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

    /// Which side of `bound` the code value lies on; narrows to it.
    fn split(&mut self, bound: u32) -> bool {
        let bit = self.code >= bound;
        if !bit {
            self.range = bound;
        } else {
            self.code -= bound;
            self.range -= bound;
        }
        while self.range < TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | self.next_byte();
        }
        bit
    }

    /// Decode one bit under the adaptive `ctx`.
    fn decode(&mut self, ctx: &mut Context) -> bool {
        let bit = self.split((self.range >> PROB_BITS) * ctx.0 as u32);
        ctx.update(bit);
        bit
    }

    /// Decode one bypass bit.
    fn decode_bypass(&mut self) -> bool {
        self.split(self.range >> 1)
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
        // A longer prefix names a value no u32 holds.
        if n > 31 {
            return Err(DecodeError("arithmetic EG prefix too long".into()));
        }
    }
    let mut v = 1u32;
    for _ in 0..n {
        v = (v << 1) | d.decode_bypass() as u32;
    }
    (k - 1)
        .checked_add(v)
        .ok_or_else(|| DecodeError("arithmetic EG value leaves u32".into()))
}

fn encode_sval(e: &mut ArithEncoder, ctxs: &mut [Context], v: i32) {
    encode_uval(e, ctxs, v.unsigned_abs());
    if v != 0 {
        e.encode_bypass(v < 0);
    }
}

fn decode_sval(d: &mut ArithDecoder<'_>, ctxs: &mut [Context]) -> Result<i32, DecodeError> {
    let mag = i64::from(decode_uval(d, ctxs)?);
    let v = if mag != 0 && d.decode_bypass() {
        -mag
    } else {
        mag
    };
    i32::try_from(v).map_err(|_| DecodeError(format!("signed value {v} leaves i32")))
}

// ---- Symbol coders -----------------------------------------------------

/// The adaptive context set for one frame.
#[derive(Default)]
struct Models {
    mode: [Context; 6],
    rf: [Context; 4],
    mvd_x: [Context; 9],
    mvd_y: [Context; 9],
    coded_block: [Context; 2], // [luma, chroma]
    sig: [Context; 16],        // per zigzag position
    level: [Context; 8],
}

/// Width of each header field — dimensions, QP, `has_chroma` — in bypass bits.
const HEADER_FIELD_BITS: u32 = 16;

/// The header's `has_chroma` field: every frame carries chroma, so it is
/// always written as 1, and a stream saying otherwise is not one of ours.
const HAS_CHROMA: u32 = 1;

/// The arithmetic-coded binarisation of the frame syntax: a bypass header,
/// truncated-unary + Exp-Golomb values under per-class contexts, and per 4×4
/// block a coded flag, a significance flag per zigzag position, and the
/// level magnitudes.
struct CabacWriter {
    e: ArithEncoder,
    m: Models,
}

impl CabacWriter {
    fn block(&mut self, levels: &[i16; 16], chroma: bool) {
        let (e, m) = (&mut self.e, &mut self.m);
        let any = has_coefficients(levels);
        e.encode(&mut m.coded_block[usize::from(chroma)], any);
        if !any {
            return;
        }
        for (pos, v) in ZIGZAG_4X4.map(|i| levels[i]).into_iter().enumerate() {
            e.encode(&mut m.sig[pos], v != 0);
            if v != 0 {
                encode_uval(e, &mut m.level, (v.unsigned_abs() - 1) as u32);
                e.encode_bypass(v < 0);
            }
        }
    }
}

impl SymbolWriter for CabacWriter {
    fn header(&mut self, h: &FrameHeader) {
        for v in [h.mb_cols, h.mb_rows, h.qp, HAS_CHROMA] {
            for i in (0..HEADER_FIELD_BITS).rev() {
                self.e.encode_bypass((v >> i) & 1 == 1);
            }
        }
    }

    fn mode(&mut self, index: u32) {
        encode_uval(&mut self.e, &mut self.m.mode, index);
    }

    fn motion(&mut self, rf: u8, dx: i32, dy: i32) {
        encode_uval(&mut self.e, &mut self.m.rf, rf as u32);
        encode_sval(&mut self.e, &mut self.m.mvd_x, dx);
        encode_sval(&mut self.e, &mut self.m.mvd_y, dy);
    }

    fn luma(&mut self, c: &MbCoeffs) {
        for blk in &c.blocks {
            self.block(blk, false);
        }
    }

    fn chroma(&mut self, c: &MbChromaCoeffs) {
        for blk in c.cb.iter().chain(&c.cr) {
            self.block(blk, true);
        }
    }

    fn finish(self) -> (Vec<u8>, u64) {
        let bytes = self.e.finish();
        let bits = bytes.len() as u64 * 8;
        (bytes, bits)
    }
}

/// Reads what [`CabacWriter`] wrote.
struct CabacReader<'a> {
    d: ArithDecoder<'a>,
    m: Models,
}

impl CabacReader<'_> {
    fn block(&mut self, chroma: bool) -> Result<[i16; 16], DecodeError> {
        let (d, m) = (&mut self.d, &mut self.m);
        let mut out = [0i16; 16];
        if !d.decode(&mut m.coded_block[usize::from(chroma)]) {
            return Ok(out);
        }
        for pos in 0..16 {
            if d.decode(&mut m.sig[pos]) {
                let mag = i64::from(decode_uval(d, &mut m.level)?) + 1;
                let level = if d.decode_bypass() { -mag } else { mag };
                out[ZIGZAG_4X4[pos]] = syntax::level(level)?;
            }
        }
        Ok(out)
    }
}

impl SymbolReader for CabacReader<'_> {
    fn header(&mut self) -> Result<FrameHeader, DecodeError> {
        let mut field =
            || (0..HEADER_FIELD_BITS).fold(0, |v, _| v << 1 | self.d.decode_bypass() as u32);
        let h = FrameHeader {
            mb_cols: field(),
            mb_rows: field(),
            qp: field(),
        };
        match field() {
            HAS_CHROMA => Ok(h),
            flag => Err(DecodeError(format!("has_chroma {flag}, not {HAS_CHROMA}"))),
        }
    }

    fn mode(&mut self) -> Result<u32, DecodeError> {
        decode_uval(&mut self.d, &mut self.m.mode)
    }

    fn motion(&mut self) -> Result<(u32, i32, i32), DecodeError> {
        Ok((
            decode_uval(&mut self.d, &mut self.m.rf)?,
            decode_sval(&mut self.d, &mut self.m.mvd_x)?,
            decode_sval(&mut self.d, &mut self.m.mvd_y)?,
        ))
    }

    fn luma(&mut self) -> Result<MbCoeffs, DecodeError> {
        let mut c = MbCoeffs::default();
        for (b, blk) in c.blocks.iter_mut().enumerate() {
            *blk = self.block(false)?;
            c.coded_mask |= u16::from(has_coefficients(blk)) << b;
        }
        Ok(c)
    }

    fn chroma(&mut self) -> Result<MbChromaCoeffs, DecodeError> {
        let mut c = MbChromaCoeffs::default();
        for (b, blk) in c.cb.iter_mut().chain(&mut c.cr).enumerate() {
            *blk = self.block(true)?;
            c.coded_mask |= u8::from(has_coefficients(blk)) << b;
        }
        Ok(c)
    }
}

/// Encode a YUV frame with adaptive arithmetic coding; returns the stream
/// and its exact bit count.
pub fn encode_frame_cabac(
    modes: &ModeField,
    coeffs: &CoeffField,
    chroma: &ChromaField,
    qp: u8,
) -> (Vec<u8>, u64) {
    let w = CabacWriter {
        e: ArithEncoder::new(),
        m: Models::default(),
    };
    write_frame(w, modes, coeffs, chroma, qp)
}

/// Decode a stream produced by [`encode_frame_cabac`].
pub fn decode_frame_cabac(
    data: &[u8],
) -> Result<(ModeField, CoeffField, ChromaField, u8), DecodeError> {
    read_frame(CabacReader {
        d: ArithDecoder::new(data)?,
        m: Models::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::MbMode;
    use crate::sme::SmeBlockMv;
    use crate::types::{QpelMv, ALL_PARTITION_MODES};

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

    #[test]
    fn escape_value_no_u32_holds_is_an_error() {
        // Four saturated contexts, then a bypass Exp-Golomb escape of
        // `prefix` one-bits and a suffix of `ones` one-bits, zero-padded.
        let escape = |prefix: usize, ones: usize| {
            let mut e = ArithEncoder::new();
            for c in [Context::default(); 4].iter_mut() {
                e.encode(c, true);
            }
            let suffix = (0..prefix).map(|i| i < ones);
            for bit in (0..prefix).map(|_| true).chain([false]).chain(suffix) {
                e.encode_bypass(bit);
            }
            let bytes = e.finish();
            let mut d = ArithDecoder::new(&bytes).unwrap();
            decode_uval(&mut d, &mut [Context::default(); 4])
        };
        // 4 + 0xFFFF_FFFC − 1 is the largest value; each case past it was an
        // overflow panic in debug builds before the checks.
        assert_eq!(escape(31, 29), Ok(u32::MAX));
        assert!(escape(31, 30).is_err());
        assert!(escape(35, 35).is_err());
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
        let (bytes, bits) = encode_frame_cabac(&modes, &coeffs, &chroma, 28);
        assert!(bits > 0);
        let (dm, dc, dch, qp) = decode_frame_cabac(&bytes).unwrap();
        assert_eq!(qp, 28);
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
    fn a_header_without_chroma_is_an_error() {
        // A 3 × 3 frame at QP 30 whose `has_chroma` field is 0 or 2.
        for flag in [0, 2] {
            let mut e = ArithEncoder::new();
            for v in [3, 3, 30, flag] {
                for i in (0..HEADER_FIELD_BITS).rev() {
                    e.encode_bypass((v >> i) & 1 == 1);
                }
            }
            let err = decode_frame_cabac(&e.finish()).expect_err("not a YUV stream");
            assert!(err.0.contains("has_chroma"), "{err}");
        }
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
        let out = &crate::inter_loop::tests::coded_frames(&frames, &params)[0].0;
        let (modes, coeffs, chroma) = (&out.luma.modes, &out.luma.coeffs, &out.chroma.coeffs);
        let (_, eg_bits) = crate::entropy::encode_frame_yuv(modes, coeffs, chroma, params.qp);
        let (_, cb_bits) = encode_frame_cabac(modes, coeffs, chroma, params.qp);
        assert!(
            (cb_bits as f64) < eg_bits as f64 * 0.95,
            "CABAC {cb_bits} should beat Exp-Golomb {eg_bits} by >5%"
        );
    }
}
