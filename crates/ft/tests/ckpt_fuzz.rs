//! Adversarial fuzz of the checkpoint wire format: any truncated or
//! bit-flipped image must surface as a typed `CheckpointCorrupt` — never a
//! panic, never a silent success. This extends the per-section CRC unit
//! tests to proptest-generated mutations.

use feves_ft::ckpt::{crc32, ByteReader, CheckpointBlob, CKPT_MAGIC, CKPT_VERSION};
use feves_ft::error::FevesError;
use proptest::prelude::*;

/// A structurally valid checkpoint image built from arbitrary sections.
fn valid_blob(sections: &[(u8, Vec<u8>)], fingerprint: u64) -> Vec<u8> {
    let mut blob = CheckpointBlob::new(fingerprint);
    for (i, (tag_seed, payload)) in sections.iter().enumerate() {
        // Distinct printable 4-byte tags.
        let tag = [b'A' + (tag_seed % 26), b'A' + ((i as u8) % 26), b'0', b'1'];
        blob.push_section(tag, payload.clone());
    }
    blob.to_bytes()
}

/// A 28-byte header with a valid CRC and the given section count.
fn header(nsect: u32) -> Vec<u8> {
    let mut h = CKPT_MAGIC.to_vec();
    h.extend(CKPT_VERSION.to_le_bytes());
    h.extend(0x1234_5678_9ABC_DEF0u64.to_le_bytes());
    h.extend(nsect.to_le_bytes());
    let crc = crc32(&h);
    h.extend(crc.to_le_bytes());
    h
}

/// The header CRC is over bytes anyone can write, so it proves nothing
/// about the section count or a section length: an absurd one behind a
/// valid header is a typed error, not an allocation abort or an
/// arithmetic-overflow panic.
#[test]
fn absurd_counts_and_lengths_behind_a_valid_header_are_corrupt() {
    let corrupt = |image: &[u8], what: &str| match CheckpointBlob::from_bytes(image) {
        Err(FevesError::CheckpointCorrupt(_)) => {}
        other => panic!("{what}: {other:?}"),
    };
    corrupt(&header(u32::MAX), "nsect 2^32-1, no sections");
    let lens = [u64::from(u32::MAX)]
        .into_iter()
        .chain((0..16).map(|k| u64::MAX - k));
    for len in lens {
        for nsect in [1, u32::MAX] {
            let mut image = header(nsect);
            image.extend(b"META");
            image.extend(len.to_le_bytes());
            image.extend([0u8; 16]);
            corrupt(&image, &format!("nsect {nsect}, section length {len}"));
        }
    }
}

proptest! {
    /// Decoding arbitrary garbage never panics.
    #[test]
    fn from_bytes_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = CheckpointBlob::from_bytes(&bytes);
    }

    /// Every single-bit flip of a valid image is rejected with a typed
    /// corrupt error — the header CRC covers the header, each section CRC
    /// covers tag‖len‖body, and the CRC fields themselves self-invalidate.
    #[test]
    fn any_bit_flip_yields_checkpoint_corrupt(
        sections in proptest::collection::vec((any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64)), 1..4),
        fingerprint in any::<u64>(),
        flip_pos in any::<u64>(),
        flip_bit in 0u8..8,
    ) {
        let good = valid_blob(&sections, fingerprint);
        prop_assert!(CheckpointBlob::from_bytes(&good).is_ok());

        let mut bad = good.clone();
        let idx = (flip_pos % bad.len() as u64) as usize;
        bad[idx] ^= 1 << flip_bit;
        match CheckpointBlob::from_bytes(&bad) {
            Err(FevesError::CheckpointCorrupt(_)) => {}
            Err(other) => prop_assert!(false, "wrong error class for flipped byte {idx}: {other}"),
            Ok(_) => prop_assert!(false, "bit flip at byte {idx} bit {flip_bit} decoded silently"),
        }
    }

    /// Every proper prefix of a valid image is rejected, never panics.
    #[test]
    fn any_truncation_yields_checkpoint_corrupt(
        sections in proptest::collection::vec((any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64)), 1..4),
        fingerprint in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let good = valid_blob(&sections, fingerprint);
        let len = (cut % good.len() as u64) as usize; // strictly < full length
        match CheckpointBlob::from_bytes(&good[..len]) {
            Err(FevesError::CheckpointCorrupt(_)) => {}
            Err(other) => prop_assert!(false, "wrong error class truncating to {len}: {other}"),
            Ok(_) => prop_assert!(false, "truncation to {len} bytes decoded silently"),
        }
    }

    /// ByteReader take_* ops on arbitrary buffers return typed errors on
    /// exhaustion — no panics, no out-of-bounds.
    #[test]
    fn byte_reader_never_panics(
        buf in proptest::collection::vec(any::<u8>(), 0..256),
        ops in proptest::collection::vec(0u8..9, 1..64),
    ) {
        let mut r = ByteReader::new(&buf);
        for op in ops {
            let res: Result<(), FevesError> = match op {
                0 => r.take_u8().map(|_| ()),
                1 => r.take_u32().map(|_| ()),
                2 => r.take_u64().map(|_| ()),
                3 => r.take_usize().map(|_| ()),
                4 => r.take_f64().map(|_| ()),
                5 => r.take_bool().map(|_| ()),
                6 => r.take_str().map(|_| ()),
                7 => r.take_bytes().map(|_| ()),
                _ => r.take_f64_vec().map(|_| ()),
            };
            if res.is_err() {
                break;
            }
        }
        // Whatever remains, expect_end never panics either.
        let _ = r.expect_end("fuzz");
        // And the checksum of the scanned region is stable (smoke-check the
        // crc32 helpers against slicing).
        prop_assert_eq!(crc32(&buf), crc32(&buf.clone()));
    }
}
