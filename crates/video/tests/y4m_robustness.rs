//! Robustness properties of the Y4M reader: no input — truncated, mutated,
//! or outright garbage — may panic, allocate absurdly, or return a frame
//! that was never fully present in the stream. Every failure mode must be
//! a typed [`VideoError`].

use feves_video::error::VideoError;
use feves_video::frame::Frame;
use feves_video::geometry::Resolution;
use feves_video::synth::{SynthConfig, SynthSequence};
use feves_video::y4m::{scan, Y4mFile, Y4mHeader, Y4mReader, Y4mWriter, MAX_Y4M_DIM};
use proptest::prelude::*;
use std::io::{BufReader, Cursor};

/// A small valid two-frame stream to mutate.
fn valid_stream() -> Vec<u8> {
    let mut seq = SynthSequence::new(SynthConfig::tiny_test());
    let frames = seq.take_frames(2);
    let header = Y4mHeader {
        resolution: frames[0].resolution(),
        fps: (25, 1),
    };
    let mut w = Y4mWriter::new(Vec::new(), header);
    for f in &frames {
        w.write_frame(f).unwrap();
    }
    w.finish().unwrap()
}

/// Feed `bytes` through the reader to completion; the only acceptable
/// outcomes are parsed frames or a typed error — this harness converts a
/// panic into a test failure via proptest.
fn drain(bytes: &[u8]) -> Result<usize, VideoError> {
    let mut r = Y4mReader::new(Cursor::new(bytes.to_vec()))?;
    let mut n = 0;
    while let Some(_f) = r.read_frame()? {
        n += 1;
    }
    Ok(n)
}

proptest! {
    #[test]
    fn truncation_at_any_point_never_panics(cut in 0usize..6000) {
        let full = valid_stream();
        let cut = cut.min(full.len());
        // Either a clean short parse or a typed error; never a panic.
        let _ = drain(&full[..cut]);
    }

    #[test]
    fn single_byte_mutations_never_panic(pos in 0usize..6000, val in any::<u8>()) {
        let mut bytes = valid_stream();
        let pos = pos % bytes.len();
        bytes[pos] = val;
        let _ = drain(&bytes);
    }

    #[test]
    fn arbitrary_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = drain(&bytes);
    }

    #[test]
    fn random_header_lines_never_panic(
        tags in proptest::collection::vec(proptest::collection::vec(32u8..127u8, 0..12), 0..8)
    ) {
        let mut line = b"YUV4MPEG2".to_vec();
        for t in &tags {
            line.push(b' ');
            line.extend_from_slice(t);
        }
        line.push(b'\n');
        let _ = drain(&line);
    }

    #[test]
    fn random_bytes_in_the_header_never_panic(
        raw in proptest::collection::vec(any::<u8>(), 0..24)
    ) {
        let mut line = b"YUV4MPEG2 ".to_vec();
        line.extend_from_slice(&raw);
        line.extend_from_slice(b" W16 H16\n");
        let _ = drain(&line);
    }
}

/// How a generated stream ends after its last whole frame.
#[derive(Clone, Debug)]
enum Tail {
    Clean,
    /// The last frame (if any) loses this many bytes, at least one.
    Truncated(usize),
    /// Bytes where the next `FRAME` line is due.
    Garbage(Vec<u8>),
    /// A blank line — a clean end — and then anything at all.
    BlankThen(Vec<u8>),
}

fn tails() -> impl Strategy<Value = Tail> {
    let bytes = || proptest::collection::vec(any::<u8>(), 1..40);
    prop_oneof![
        Just(Tail::Clean),
        (1usize..400).prop_map(Tail::Truncated),
        bytes().prop_map(Tail::Garbage),
        bytes().prop_map(Tail::BlankThen),
    ]
}

/// The error's variant, which is all two readers of one stream can be
/// expected to share.
fn variant(e: &VideoError) -> std::mem::Discriminant<VideoError> {
    std::mem::discriminant(e)
}

proptest! {
    /// The streaming forms against the whole-file reader they replace in
    /// the session driver: `read_frame_into` over one recycled, poisoned
    /// `Frame` returns `read_all`'s frames one by one and fails where and
    /// how it fails; `scan` agrees on the count and the error, passes every
    /// byte of the file exactly once, and locates each frame where a linear
    /// walk puts it — through parameterised `FRAME` lines, a truncated last
    /// frame, trailing garbage and bytes past a blank line.
    #[test]
    fn streaming_reads_equal_read_all(
        markers in proptest::collection::vec(proptest::option::of(0u32..1000), 0..4),
        tail in tails(),
        small_buffer in 1usize..64,
    ) {
        // 24x20 pads to 32x32: the recycled frame's padding is poisoned too.
        let res = Resolution::new(24, 20);
        let mut seq = SynthSequence::new(SynthConfig { resolution: res, ..SynthConfig::tiny_test() });
        let frames = seq.take_frames(markers.len());
        let mut bytes = format!("YUV4MPEG2 W{} H{} F30:1 Ip\n", res.width, res.height).into_bytes();
        let mut offsets = Vec::new();
        for (f, param) in frames.iter().zip(&markers) {
            offsets.push(bytes.len() as u64);
            match param {
                Some(x) => bytes.extend_from_slice(format!("FRAME Ix{x}\n").as_bytes()),
                None => bytes.extend_from_slice(b"FRAME\n"),
            }
            for (p, w, h) in [
                (f.y(), res.width, res.height),
                (f.u(), res.width / 2, res.height / 2),
                (f.v(), res.width / 2, res.height / 2),
            ] {
                for y in 0..h {
                    bytes.extend_from_slice(&p.row(y)[..w]);
                }
            }
        }
        offsets.push(bytes.len() as u64);
        match &tail {
            Tail::Clean => {}
            Tail::Truncated(n) => {
                let frames_start = offsets[0] as usize;
                let cut = (*n).min(bytes.len() - frames_start);
                bytes.truncate(bytes.len() - cut);
            }
            Tail::Garbage(g) => bytes.extend_from_slice(g),
            Tail::BlankThen(g) => {
                bytes.push(b'\n');
                bytes.extend_from_slice(g);
            }
        }

        let want = Y4mReader::new(Cursor::new(bytes.clone())).and_then(|mut r| r.read_all());

        // Frame by frame into one buffer that starts every read poisoned.
        let mut reader = Y4mReader::new(Cursor::new(bytes.clone())).unwrap();
        let mut recycled = Frame::new(res).unwrap();
        let mut got = Vec::new();
        let streamed = loop {
            recycled.y_mut().fill(0xAA);
            recycled.u_mut().fill(0xAA);
            recycled.v_mut().fill(0xAA);
            match reader.read_frame_into(&mut recycled) {
                Ok(true) => got.push(recycled.clone()),
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        match (&want, &streamed) {
            (Ok(frames), Ok(())) => prop_assert_eq!(frames, &got),
            (Err(a), Err(b)) => prop_assert_eq!(variant(a), variant(b)),
            _ => prop_assert!(false, "read_all {:?} vs read_frame_into {:?}", want.is_ok(), streamed),
        }

        // The scan, through a buffer far smaller than a frame.
        for locate in 0..markers.len() + 2 {
            let mut passed = Vec::new();
            let r = BufReader::with_capacity(small_buffer, Cursor::new(&bytes));
            let scanned = scan(r, locate, |b| passed.extend_from_slice(b));
            match (&want, &scanned) {
                (Ok(frames), Ok(s)) => {
                    prop_assert_eq!(s.n_frames, frames.len());
                    prop_assert_eq!(s.header.resolution, res);
                    prop_assert_eq!(s.header.fps, (30, 1));
                    prop_assert_eq!(&passed, &bytes);
                    prop_assert_eq!(s.first_frame, offsets[0]);
                    let walked = (locate <= frames.len()).then(|| offsets[locate]);
                    prop_assert_eq!(s.located, walked);
                    // …and a reader resumed there reads the rest.
                    if let Some(at) = s.located {
                        let rest = Cursor::new(bytes[at as usize..].to_vec());
                        let tail = Y4mReader::resume(rest, s.header).read_all().unwrap();
                        prop_assert_eq!(&tail[..], &frames[locate..]);
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(variant(a), variant(b)),
                _ => prop_assert!(false, "read_all {:?} vs scan {:?}", want.is_ok(), scanned),
            }
        }
    }
}

#[test]
fn a_file_is_read_from_the_located_frame_and_notices_a_change() {
    let bytes = valid_stream();
    let all = Y4mReader::new(Cursor::new(bytes.clone()))
        .and_then(|mut r| r.read_all())
        .unwrap();
    let path = std::env::temp_dir().join(format!("feves-y4mfile-{}.y4m", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let mut passed = 0;
    let mut file = Y4mFile::open(&path, 1, |b| passed += b.len()).unwrap();
    assert_eq!((file.scan().n_frames, passed), (2, bytes.len()));
    let mut frame = Frame::new(file.scan().header.resolution).unwrap();
    for (located, want) in [(true, &all[1..]), (false, &all[..])] {
        if located {
            file.seek_located().unwrap();
        } else {
            file.seek_first().unwrap();
        }
        for f in want {
            assert!(file.read_frame_into(&mut frame).unwrap());
            assert_eq!(&frame, f);
        }
        assert!(!file.read_frame_into(&mut frame).unwrap());
    }
    // Locating past the end is not an error until that frame is wanted.
    let mut short = Y4mFile::open(&path, 5, |_| {}).unwrap();
    assert_eq!(short.scan().located, None);
    assert!(matches!(
        short.seek_located(),
        Err(VideoError::UnexpectedEof)
    ));

    assert!(file.unchanged().unwrap());
    let mut grown = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    std::io::Write::write_all(&mut grown, b"FRAME\n").unwrap();
    assert!(!file.unchanged().unwrap());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn multibyte_utf8_tag_key_is_ignored_not_split() {
    // A multi-byte first character once hit a byte-indexed `split_at(1)`
    // and panicked on the char boundary.
    let line = "YUV4MPEG2 \u{03A9}420 W16 H16\n";
    let r = Y4mReader::new(Cursor::new(line.as_bytes().to_vec())).unwrap();
    assert_eq!(r.header().resolution.width, 16);
    assert_eq!(r.header().resolution.height, 16);
}

#[test]
fn absurd_dimensions_are_rejected_before_allocation() {
    for hdr in [
        format!("YUV4MPEG2 W{} H16 F25:1\n", MAX_Y4M_DIM + 2),
        format!("YUV4MPEG2 W16 H{} F25:1\n", MAX_Y4M_DIM + 2),
        "YUV4MPEG2 W99999999999999999999 H16\n".to_string(),
        format!("YUV4MPEG2 W{0} H{0}\n", usize::MAX),
    ] {
        let err = Y4mReader::new(Cursor::new(hdr.clone().into_bytes()))
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(
                err,
                VideoError::BadDimensions(_) | VideoError::ParseError(_)
            ),
            "{hdr:?} → {err}"
        );
    }
}

#[test]
fn odd_dimensions_are_rejected() {
    let err = Y4mReader::new(Cursor::new(b"YUV4MPEG2 W17 H16\n".to_vec()))
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, VideoError::BadDimensions(_)), "{err}");
}

#[test]
fn zero_rate_fps_is_rejected() {
    for hdr in ["YUV4MPEG2 W16 H16 F0:1\n", "YUV4MPEG2 W16 H16 F25:0\n"] {
        assert!(
            Y4mReader::new(Cursor::new(hdr.as_bytes().to_vec())).is_err(),
            "{hdr:?}"
        );
    }
}

#[test]
fn truncated_mid_frame_is_a_typed_error_not_a_short_frame() {
    let full = valid_stream();
    // Cut inside the second frame's payload: first frame parses, second errors.
    let cut = full.len() - 7;
    let mut r = Y4mReader::new(Cursor::new(full[..cut].to_vec())).unwrap();
    assert!(r.read_frame().unwrap().is_some(), "first frame is intact");
    let err = r.read_frame().unwrap_err();
    assert!(matches!(err, VideoError::UnexpectedEof), "{err}");
}

#[test]
fn resume_writer_skips_the_header() {
    let mut seq = SynthSequence::new(SynthConfig::tiny_test());
    let frames = seq.take_frames(2);
    let header = Y4mHeader {
        resolution: frames[0].resolution(),
        fps: (25, 1),
    };
    // Full stream in one writer...
    let mut w = Y4mWriter::new(Vec::new(), header);
    for f in &frames {
        w.write_frame(f).unwrap();
    }
    let whole = w.finish().unwrap();
    // ...equals header+frame0 from a fresh writer plus frame1 from a
    // resumed writer appended after it.
    let mut first = Y4mWriter::new(Vec::new(), header);
    first.write_frame(&frames[0]).unwrap();
    let mut bytes = first.finish().unwrap();
    let mut second = Y4mWriter::resume(Vec::new(), header);
    second.flush().unwrap();
    second.write_frame(&frames[1]).unwrap();
    bytes.extend_from_slice(&second.finish().unwrap());
    assert_eq!(
        whole, bytes,
        "resumed writer must continue the exact stream"
    );
}
