//! Minimal YUV4MPEG2 (Y4M) reader and writer, 4:2:0 only.
//!
//! Supports the common header tags (`W`, `H`, `F`, `I`, `A`, `C420`*) and the
//! per-frame `FRAME` marker. Enough to feed real sequences into the encoder
//! and to dump synthetic ones for inspection with standard tools.
//!
//! A stream of any length is read in bounded memory: [`scan`] walks it once
//! (validating, counting, locating a frame, handing every byte on for
//! hashing), [`Y4mReader::read_frame_into`] reads frames into one reused
//! [`Frame`], and [`Y4mFile`] is the two over a file on disk.

use crate::error::VideoError;
use crate::frame::Frame;
use crate::geometry::Resolution;
use crate::plane::Plane;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::SystemTime;

/// Stream parameters parsed from a Y4M header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Y4mHeader {
    /// Display resolution.
    pub resolution: Resolution,
    /// Frame rate as a rational (num, den).
    pub fps: (u32, u32),
}

/// Largest width/height a Y4M header may declare. Anything bigger is far
/// beyond DCI 8K and almost certainly a corrupted or hostile header — the
/// reader must reject it *before* sizing a frame buffer from it.
pub const MAX_Y4M_DIM: usize = 16_384;

impl Y4mHeader {
    /// Parse a stream header line (without its newline).
    fn parse(line: &[u8]) -> Result<Self, VideoError> {
        let text = std::str::from_utf8(line)
            .map_err(|_| VideoError::ParseError("non-UTF8 Y4M header".into()))?;
        if !text.starts_with("YUV4MPEG2") {
            return Err(VideoError::ParseError("missing YUV4MPEG2 magic".into()));
        }
        let mut width = 0usize;
        let mut height = 0usize;
        let mut fps = (25, 1);
        for tag in text.split_ascii_whitespace().skip(1) {
            // Key is the first *character* (not byte): a multi-byte UTF-8
            // key must fall through to "unknown tag", not split mid-char.
            let mut chars = tag.char_indices();
            let Some((_, key)) = chars.next() else {
                continue;
            };
            let val = &tag[chars.next().map(|(i, _)| i).unwrap_or(tag.len())..];
            match key {
                'W' => {
                    width = val
                        .parse()
                        .map_err(|_| VideoError::ParseError(format!("bad W tag {val}")))?
                }
                'H' => {
                    height = val
                        .parse()
                        .map_err(|_| VideoError::ParseError(format!("bad H tag {val}")))?
                }
                'F' => {
                    let mut it = val.splitn(2, ':');
                    let n: Option<u32> = it.next().and_then(|s| s.parse().ok());
                    let d: Option<u32> = it.next().and_then(|s| s.parse().ok());
                    match (n, d) {
                        (Some(n), Some(d)) if n > 0 && d > 0 => fps = (n, d),
                        _ => return Err(VideoError::ParseError(format!("bad F tag {val}"))),
                    }
                }
                'C' if !val.starts_with("420") => {
                    return Err(VideoError::ParseError(format!(
                        "unsupported chroma {val}, only 4:2:0"
                    )));
                }
                _ => {} // I, A, X tags ignored
            }
        }
        if width == 0 || height == 0 {
            return Err(VideoError::ParseError("missing W/H tags".into()));
        }
        if width > MAX_Y4M_DIM || height > MAX_Y4M_DIM {
            return Err(VideoError::BadDimensions(format!(
                "{width}x{height} exceeds the {MAX_Y4M_DIM} limit — refusing to \
                 size buffers from an implausible header"
            )));
        }
        if !width.is_multiple_of(2) || !height.is_multiple_of(2) {
            return Err(VideoError::BadDimensions(format!(
                "{width}x{height} is odd — 4:2:0 chroma needs even dimensions"
            )));
        }
        Ok(Y4mHeader {
            resolution: Resolution::new(width, height),
            fps,
        })
    }

    /// Bytes of one frame's samples (the `FRAME` line not included).
    fn frame_bytes(&self) -> u64 {
        self.resolution.pixels() as u64 * 3 / 2
    }
}

/// Reads frames from a Y4M stream.
pub struct Y4mReader<R> {
    inner: R,
    header: Y4mHeader,
    /// The marker line being read, kept so a frame costs no allocation.
    line: Vec<u8>,
}

impl<R: BufRead> Y4mReader<R> {
    /// Parse the stream header and return a reader positioned at frame 0.
    pub fn new(mut inner: R) -> Result<Self, VideoError> {
        let mut line = Vec::new();
        if !read_line(&mut inner, &mut line)? {
            return Err(VideoError::UnexpectedEof);
        }
        let header = Y4mHeader::parse(&line)?;
        Ok(Self::resume(inner, header))
    }

    /// A reader over a stream *already* positioned at a `FRAME` marker (or
    /// its end) — a file sought to an offset [`scan`] located.
    pub fn resume(inner: R, header: Y4mHeader) -> Self {
        Y4mReader {
            inner,
            header,
            line: Vec::new(),
        }
    }

    /// Stream parameters.
    pub fn header(&self) -> Y4mHeader {
        self.header
    }

    /// Read the next frame; `Ok(None)` at clean end of stream.
    pub fn read_frame(&mut self) -> Result<Option<Frame>, VideoError> {
        let mut frame = Frame::new(self.header.resolution)?;
        Ok(self.read_frame_into(&mut frame)?.then_some(frame))
    }

    /// Read the next frame into `frame`, overwriting every sample of it
    /// (padding included), row by row straight into the padded planes.
    /// `Ok(false)` at clean end of stream, with `frame` untouched; after an
    /// error its contents are unspecified.
    pub fn read_frame_into(&mut self, frame: &mut Frame) -> Result<bool, VideoError> {
        let res = self.header.resolution;
        if frame.resolution() != res {
            return Err(wrong_size(frame.resolution(), res));
        }
        let terminated = read_line(&mut self.inner, &mut self.line)?;
        if !frame_follows(terminated, &self.line)? {
            return Ok(false);
        }
        let inner = &mut self.inner;
        let mut plane = |p: &mut Plane<u8>, w: usize, h: usize| {
            (0..h).try_for_each(|y| inner.read_exact(&mut p.row_mut(y)[..w]))
        };
        plane(frame.y_mut(), res.width, res.height)
            .and_then(|()| plane(frame.u_mut(), res.width / 2, res.height / 2))
            .and_then(|()| plane(frame.v_mut(), res.width / 2, res.height / 2))
            .map_err(|_| VideoError::UnexpectedEof)?;
        frame.pad_borders();
        Ok(true)
    }

    /// Read every remaining frame.
    pub fn read_all(&mut self) -> Result<Vec<Frame>, VideoError> {
        let mut out = Vec::new();
        while let Some(f) = self.read_frame()? {
            out.push(f);
        }
        Ok(out)
    }
}

/// Writes frames to a Y4M stream.
pub struct Y4mWriter<W> {
    inner: W,
    header: Y4mHeader,
    wrote_header: bool,
}

impl<W: Write> Y4mWriter<W> {
    /// Create a writer; the header is emitted lazily with the first frame.
    pub fn new(inner: W, header: Y4mHeader) -> Self {
        Y4mWriter {
            inner,
            header,
            wrote_header: false,
        }
    }

    /// Create a writer appending to a stream that *already* carries its
    /// header (checkpoint resume: the output file was truncated to a frame
    /// boundary past the original header).
    pub fn resume(inner: W, header: Y4mHeader) -> Self {
        Y4mWriter {
            inner,
            header,
            wrote_header: true,
        }
    }

    /// Flush buffered frames to the underlying writer without consuming
    /// the writer (checkpoint commits need frame-boundary durability).
    pub fn flush(&mut self) -> Result<(), VideoError> {
        self.inner.flush()?;
        Ok(())
    }

    /// Shared access to the underlying writer (e.g. to fsync the backing
    /// file after a flush).
    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    /// Append one frame (display region only; padding stripped).
    pub fn write_frame(&mut self, frame: &Frame) -> Result<(), VideoError> {
        let res = self.header.resolution;
        if frame.resolution() != res {
            return Err(wrong_size(frame.resolution(), res));
        }
        self.write_yuv(frame.y(), frame.u(), frame.v())
    }

    /// Append one frame given as its three planes — [`Self::write_frame`]
    /// for a reconstruction that is not held as a [`Frame`]. The planes may
    /// be padded; only the display region is written.
    pub fn write_yuv(
        &mut self,
        y: &Plane<u8>,
        u: &Plane<u8>,
        v: &Plane<u8>,
    ) -> Result<(), VideoError> {
        let res = self.header.resolution;
        let covers = |p: &Plane<u8>, w: usize, h: usize| p.width() >= w && p.height() >= h;
        if !(covers(y, res.width, res.height)
            && covers(u, res.width / 2, res.height / 2)
            && covers(v, res.width / 2, res.height / 2))
        {
            return Err(VideoError::BadDimensions(format!(
                "planes {}x{} do not cover stream {}x{}",
                y.width(),
                y.height(),
                res.width,
                res.height
            )));
        }
        if !self.wrote_header {
            writeln!(
                self.inner,
                "YUV4MPEG2 W{} H{} F{}:{} Ip A1:1 C420jpeg",
                res.width, res.height, self.header.fps.0, self.header.fps.1
            )?;
            self.wrote_header = true;
        }
        writeln!(self.inner, "FRAME")?;
        for (plane, w, h) in [
            (y, res.width, res.height),
            (u, res.width / 2, res.height / 2),
            (v, res.width / 2, res.height / 2),
        ] {
            for row in 0..h {
                self.inner.write_all(&plane.row(row)[..w])?;
            }
        }
        Ok(())
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> Result<W, VideoError> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

fn wrong_size(frame: Resolution, stream: Resolution) -> VideoError {
    VideoError::BadDimensions(format!(
        "frame {}x{} vs stream {}x{}",
        frame.width, frame.height, stream.width, stream.height
    ))
}

/// Longest header or `FRAME` line accepted, newline excluded.
const MAX_LINE: usize = 4096;

/// Read one line into `out`, newline stripped. `Ok(false)` means the stream
/// ended first — `out` holds whatever preceded the end.
fn read_line<R: BufRead>(r: &mut R, out: &mut Vec<u8>) -> Result<bool, VideoError> {
    out.clear();
    r.take(MAX_LINE as u64 + 1).read_until(b'\n', out)?;
    if out.last() == Some(&b'\n') {
        out.pop();
        return Ok(true);
    }
    if out.len() > MAX_LINE {
        return Err(VideoError::ParseError("unterminated header line".into()));
    }
    Ok(false)
}

/// What the line read where a `FRAME` marker is due means: a frame follows,
/// or (`Ok(false)`) the stream ends cleanly — at its end, or at a blank
/// line.
fn frame_follows(terminated: bool, line: &[u8]) -> Result<bool, VideoError> {
    if line.is_empty() {
        return Ok(false);
    }
    if !terminated {
        return Err(VideoError::UnexpectedEof);
    }
    if !line.starts_with(b"FRAME") {
        return Err(VideoError::ParseError("missing FRAME marker".into()));
    }
    Ok(true)
}

/// What one bounded-memory pass over a whole Y4M stream establishes
/// ([`scan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Y4mScan {
    /// The stream header.
    pub header: Y4mHeader,
    /// Frames in the stream: what [`Y4mReader::read_all`] would return.
    pub n_frames: usize,
    /// Byte offset of frame 0's `FRAME` line (the header line's length).
    pub first_frame: u64,
    /// Byte offset at which the frame asked for starts — or would, were it
    /// the one after the last. `None` when the stream ends sooner.
    pub located: Option<u64>,
}

/// Walk a whole Y4M stream without holding any of it: validate the header,
/// every `FRAME` line and the last frame's length exactly as
/// [`Y4mReader::read_all`] does (same errors, same clean ends), count the
/// frames, and note where frame `locate` starts so a reader can be
/// [resumed](Y4mReader::resume) there. Every byte of the stream — to its
/// very end, whatever follows the frames — is handed to `each` once, in
/// order, so the caller can fingerprint the file in the same pass.
pub fn scan<R: BufRead>(
    mut r: R,
    locate: usize,
    each: impl FnMut(&[u8]),
) -> Result<Y4mScan, VideoError> {
    let mut passed = Passed { each, len: 0 };
    let mut line = Vec::new();
    if !passed.line(&mut r, &mut line)? {
        return Err(VideoError::UnexpectedEof);
    }
    let header = Y4mHeader::parse(&line)?;
    let first_frame = passed.len;
    let (mut n_frames, mut located) = (0, None);
    loop {
        if n_frames == locate {
            located = Some(passed.len);
        }
        let terminated = passed.line(&mut r, &mut line)?;
        if !frame_follows(terminated, &line)? {
            break;
        }
        if passed.skip(&mut r, header.frame_bytes())? < header.frame_bytes() {
            return Err(VideoError::UnexpectedEof);
        }
        n_frames += 1;
    }
    passed.skip(&mut r, u64::MAX)?;
    Ok(Y4mScan {
        header,
        n_frames,
        first_frame,
        located,
    })
}

/// The bytes a [`scan`] has consumed: each handed on, all counted.
struct Passed<F> {
    each: F,
    len: u64,
}

impl<F: FnMut(&[u8])> Passed<F> {
    fn pass(&mut self, bytes: &[u8]) {
        (self.each)(bytes);
        self.len += bytes.len() as u64;
    }

    /// [`read_line`], passing the line and its newline.
    fn line<R: BufRead>(&mut self, r: &mut R, line: &mut Vec<u8>) -> Result<bool, VideoError> {
        let terminated = read_line(r, line)?;
        self.pass(line);
        if terminated {
            self.pass(b"\n");
        }
        Ok(terminated)
    }

    /// Pass up to `limit` bytes of `r`; returns how many it had.
    fn skip<R: BufRead>(&mut self, r: &mut R, limit: u64) -> io::Result<u64> {
        let mut done = 0u64;
        while done < limit {
            let buf = match r.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                break;
            }
            let n = usize::try_from(limit - done).map_or(buf.len(), |left| left.min(buf.len()));
            self.pass(&buf[..n]);
            r.consume(n);
            done += n as u64;
        }
        Ok(done)
    }
}

/// Buffer in front of a [`Y4mFile`]: a few hundred KiB keeps a 720p frame
/// to a handful of `read(2)` calls where the 8 KiB default makes ~170.
const FILE_BUF: usize = 256 * 1024;

/// A Y4M file on disk read as a stream: [`scan`]ned once when opened —
/// nothing of it is held — then read a frame at a time into the caller's
/// buffer from frame 0 or the frame located, and able to say whether the
/// file has changed since it was opened.
pub struct Y4mFile {
    reader: Y4mReader<BufReader<File>>,
    scan: Y4mScan,
    stamp: (u64, Option<SystemTime>),
}

/// A file's length and modification time.
fn stamp(file: &File) -> io::Result<(u64, Option<SystemTime>)> {
    let meta = file.metadata()?;
    Ok((meta.len(), meta.modified().ok()))
}

impl Y4mFile {
    /// Open and [`scan`] `path` (see there for `locate` and `each`). The
    /// file is left positioned past its last byte: [`Self::seek_first`] or
    /// [`Self::seek_located`] before reading.
    pub fn open(path: &Path, locate: usize, each: impl FnMut(&[u8])) -> Result<Self, VideoError> {
        let file = File::open(path)?;
        let stamp = stamp(&file)?;
        let mut file = BufReader::with_capacity(FILE_BUF, file);
        let scan = scan(&mut file, locate, each)?;
        Ok(Y4mFile {
            reader: Y4mReader::resume(file, scan.header),
            scan,
            stamp,
        })
    }

    /// What the opening scan found.
    pub fn scan(&self) -> Y4mScan {
        self.scan
    }

    /// Position the next read at frame 0.
    pub fn seek_first(&mut self) -> Result<(), VideoError> {
        self.seek(Some(self.scan.first_frame))
    }

    /// Position the next read at the frame located when the file was
    /// opened. [`VideoError::UnexpectedEof`] when the file ends before it.
    pub fn seek_located(&mut self) -> Result<(), VideoError> {
        self.seek(self.scan.located)
    }

    fn seek(&mut self, offset: Option<u64>) -> Result<(), VideoError> {
        let offset = offset.ok_or(VideoError::UnexpectedEof)?;
        self.reader.inner.seek(SeekFrom::Start(offset))?;
        Ok(())
    }

    /// [`Y4mReader::read_frame_into`] at the current position.
    pub fn read_frame_into(&mut self, frame: &mut Frame) -> Result<bool, VideoError> {
        self.reader.read_frame_into(frame)
    }

    /// Whether the file still has the length and modification time it had
    /// when opened. A stat, not a second hash: a same-length rewrite inside
    /// the mtime's resolution passes — re-hashing what is read would catch
    /// it, at ~1 ns/byte on every frame; the stat is free.
    pub fn unchanged(&self) -> io::Result<bool> {
        Ok(stamp(self.reader.inner.get_ref())? == self.stamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SynthConfig, SynthSequence};
    use std::io::Cursor;

    #[test]
    fn roundtrip_synthetic_frames() {
        let mut seq = SynthSequence::new(SynthConfig::tiny_test());
        let frames = seq.take_frames(3);
        let header = Y4mHeader {
            resolution: frames[0].resolution(),
            fps: (25, 1),
        };
        let mut w = Y4mWriter::new(Vec::new(), header);
        for f in &frames {
            w.write_frame(f).unwrap();
        }
        let bytes = w.finish().unwrap();

        let mut r = Y4mReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.header(), header);
        let back = r.read_all().unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in frames.iter().zip(&back) {
            assert_eq!(a, b, "Y4M roundtrip must be lossless");
        }
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(Y4mReader::new(Cursor::new(b"NOTAY4M\n".to_vec())).is_err());
    }

    #[test]
    fn rejects_unsupported_chroma() {
        let hdr = b"YUV4MPEG2 W16 H16 F25:1 C444\n".to_vec();
        assert!(Y4mReader::new(Cursor::new(hdr)).is_err());
    }

    #[test]
    fn empty_stream_after_header_yields_no_frames() {
        let hdr = b"YUV4MPEG2 W16 H16 F25:1\n".to_vec();
        let mut r = Y4mReader::new(Cursor::new(hdr)).unwrap();
        assert!(r.read_frame().unwrap().is_none());
    }

    #[test]
    fn truncated_frame_is_error() {
        let mut data = b"YUV4MPEG2 W16 H16 F25:1\nFRAME\n".to_vec();
        data.extend_from_slice(&[0u8; 10]); // far less than 16*16*1.5
        let mut r = Y4mReader::new(Cursor::new(data)).unwrap();
        assert!(r.read_frame().is_err());
    }

    #[test]
    fn writer_rejects_mismatched_frame() {
        let header = Y4mHeader {
            resolution: Resolution::new(32, 32),
            fps: (25, 1),
        };
        let mut w = Y4mWriter::new(Vec::new(), header);
        let f = Frame::new(Resolution::new(16, 16)).unwrap();
        assert!(w.write_frame(&f).is_err());
    }
}
