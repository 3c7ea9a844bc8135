//! Seeded inputs: synthetic Y4M clips and the open-loop arrival schedule.
//!
//! Everything the measured program sees is a file written here; the seed
//! never reaches it any other way.

use feves::video::frame::Frame;
use feves::video::geometry::Resolution;
use feves::video::synth::{SynthConfig, SynthSequence};
use feves::video::y4m::{Y4mHeader, Y4mWriter};
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::Path;

/// SplitMix64: a small, well-mixed generator for the arrival schedule.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Due times (seconds from the start of the phase) of `n` Poisson arrivals
/// at `rate_per_s`: exponential gaps drawn from `seed`.
pub fn arrival_schedule(seed: u64, n: usize, rate_per_s: f64) -> Vec<f64> {
    let mut rng = SplitMix64(seed ^ 0xA221_7A15);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -rng.next_f64().ln() / rate_per_s;
            t
        })
        .collect()
}

/// The scenes are fixed: scene `i` is the same panned value-noise background
/// and bouncing discs on every run, so that bits and PSNR of a workload move
/// only when the codec does. The object count follows the frame area so that
/// QCIF is not one big disc.
fn scene(res: Resolution, index: usize) -> SynthSequence {
    SynthSequence::new(SynthConfig {
        resolution: res,
        seed: 0xFE5E5 + index as u64,
        objects: (res.pixels() / 75_000).clamp(3, 12),
        pan: (1.5, 0.5),
        noise: 0,
    })
}

/// What the seed draws: sensor noise of +-2 on every luma sample.
fn add_sensor_noise(frame: &mut Frame, rng: &mut SplitMix64) {
    let res = frame.resolution();
    for y in 0..res.height {
        for px in frame.y_mut().row_mut(y)[..res.width].chunks_mut(8) {
            let draw = rng.next_u64().to_le_bytes();
            for (p, d) in px.iter_mut().zip(draw) {
                *p = (i16::from(*p) + i16::from(d % 5) - 2).clamp(0, 255) as u8;
            }
        }
    }
    frame.pad_borders();
}

/// Write `frames` frames of scene `index` under the noise of `seed` to
/// `path` as 25 fps Y4M, one frame in memory at a time; the first
/// `head.1` frames also go to `head.0`.
pub fn write_clip(
    path: &Path,
    res: Resolution,
    index: usize,
    seed: u64,
    frames: usize,
    head: Option<(&Path, usize)>,
) -> io::Result<()> {
    let header = Y4mHeader {
        resolution: res,
        fps: (25, 1),
    };
    let create =
        |p: &Path| io::Result::Ok(Y4mWriter::new(BufWriter::new(File::create(p)?), header));
    let mut full = create(path)?;
    let mut short = match head {
        Some((p, n)) => Some((create(p)?, n)),
        None => None,
    };
    let mut scene = scene(res, index);
    let mut rng = SplitMix64(seed);
    for i in 0..frames {
        let mut frame = scene.next_frame();
        add_sensor_noise(&mut frame, &mut rng);
        full.write_frame(&frame).map_err(io::Error::other)?;
        if let Some((w, n)) = &mut short {
            if i < *n {
                w.write_frame(&frame).map_err(io::Error::other)?;
            }
        }
    }
    if let Some((w, _)) = short {
        w.finish().map_err(io::Error::other)?;
    }
    full.finish().map(drop).map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_due_times() {
        let a = arrival_schedule(7, 50, 3.0);
        assert_eq!(a, arrival_schedule(7, 50, 3.0));
        assert_ne!(a, arrival_schedule(8, 50, 3.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "due times increase");
    }

    #[test]
    fn schedule_keeps_the_requested_rate() {
        let a = arrival_schedule(1, 4000, 3.0);
        let rate = a.len() as f64 / a.last().unwrap();
        assert!((rate - 3.0).abs() < 0.2, "rate {rate}");
    }

    #[test]
    fn noise_follows_the_seed_and_stays_small() {
        let clean = scene(Resolution::QCIF, 0).next_frame();
        let noisy = |seed| {
            let mut f = clean.clone();
            add_sensor_noise(&mut f, &mut SplitMix64(seed));
            f
        };
        assert_eq!(noisy(3), noisy(3));
        assert_ne!(noisy(3), noisy(4));
        let (a, b) = (noisy(3), &clean);
        let worst = (0..144)
            .flat_map(|y| a.y().row(y)[..176].iter().zip(&b.y().row(y)[..176]))
            .map(|(p, q)| p.abs_diff(*q))
            .max();
        assert_eq!(worst, Some(2));
    }
}
