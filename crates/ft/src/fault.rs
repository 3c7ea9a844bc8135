//! The injectable device-fault model.
//!
//! A fault schedule is a list of [`FaultSpec`]s — *(device, start frame,
//! kind)* triples — either given explicitly (CLI `--inject-fault`, tests) or
//! generated deterministically from a seed for chaos runs. Frames are the
//! framework's 1-based inter-frame numbers.
//!
//! Spec grammar (one spec per `--inject-fault`):
//!
//! ```text
//! <dev>:death@<frame>            permanent death from <frame> on
//! <dev>:stall@<frame>+<k>        full stall for <k> frames
//! <dev>:slow@<frame>+<k>x<f>     slowdown: runs at 1/<f> speed for <k> frames
//! <dev>:xfer@<frame>             one H2D/D2H transfer error at <frame>
//! <dev>:panic@<frame>            stripe-thread kernel panic at <frame>
//! ```
//!
//! Examples: `0:death@5`, `1:stall@3+2`, `0:slow@4+6x8`, `1:xfer@2`,
//! `0:panic@6`.

use crate::error::FevesError;
use crate::{splitmix64, GOLDEN_GAMMA};
use std::fmt;
use std::str::FromStr;

/// What goes wrong with the device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The device stops making progress forever.
    Death,
    /// The device stops making progress for `frames` frames, then resumes.
    Stall { frames: usize },
    /// Straggler: the device runs `factor`× slower for `frames` frames.
    Slowdown { factor: f64, frames: usize },
    /// One transfer (H2D or D2H) involving the device fails this frame.
    TransferError,
    /// The device's stripe thread panics during kernel execution this frame.
    KernelPanic,
}

/// One injected fault: `kind` hits `device` starting at inter frame `frame`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Platform device index (accelerators first, then cores).
    pub device: usize,
    /// 1-based inter-frame number at which the fault begins.
    pub frame: usize,
    pub kind: FaultKind,
}

impl FaultSpec {
    /// True when the fault is in effect at inter frame `frame`.
    pub fn active_at(&self, frame: usize) -> bool {
        match self.kind {
            FaultKind::Death => frame >= self.frame,
            FaultKind::Stall { frames } | FaultKind::Slowdown { frames, .. } => {
                frame >= self.frame && frame < self.frame + frames
            }
            FaultKind::TransferError | FaultKind::KernelPanic => frame == self.frame,
        }
    }

    /// True when the fault begins exactly at inter frame `frame`.
    pub fn starts_at(&self, frame: usize) -> bool {
        frame == self.frame
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Death => write!(f, "{}:death@{}", self.device, self.frame),
            FaultKind::Stall { frames } => {
                write!(f, "{}:stall@{}+{}", self.device, self.frame, frames)
            }
            FaultKind::Slowdown { factor, frames } => write!(
                f,
                "{}:slow@{}+{}x{}",
                self.device, self.frame, frames, factor
            ),
            FaultKind::TransferError => write!(f, "{}:xfer@{}", self.device, self.frame),
            FaultKind::KernelPanic => write!(f, "{}:panic@{}", self.device, self.frame),
        }
    }
}

impl FromStr for FaultSpec {
    type Err = FevesError;

    fn from_str(s: &str) -> Result<Self, FevesError> {
        let bad = |why: &str| FevesError::Parse(format!("fault spec `{s}`: {why}"));
        let (dev, rest) = s
            .split_once(':')
            .ok_or_else(|| bad("expected `dev:kind@frame`"))?;
        let device: usize = dev.trim().parse().map_err(|_| bad("bad device index"))?;
        let (kind, when) = rest
            .split_once('@')
            .ok_or_else(|| bad("expected `kind@frame`"))?;
        let parse_frame = |t: &str| -> Result<usize, FevesError> {
            let f: usize = t.trim().parse().map_err(|_| bad("bad frame number"))?;
            if f == 0 {
                return Err(bad("frames are 1-based"));
            }
            Ok(f)
        };
        let kind = kind.trim();
        let spec = match kind {
            "death" => FaultSpec {
                device,
                frame: parse_frame(when)?,
                kind: FaultKind::Death,
            },
            "stall" => {
                let (fr, k) = when
                    .split_once('+')
                    .ok_or_else(|| bad("stall needs `@frame+count`"))?;
                let frames: usize = k.trim().parse().map_err(|_| bad("bad stall length"))?;
                if frames == 0 {
                    return Err(bad("stall length must be ≥ 1"));
                }
                FaultSpec {
                    device,
                    frame: parse_frame(fr)?,
                    kind: FaultKind::Stall { frames },
                }
            }
            "slow" => {
                let (fr, rest) = when
                    .split_once('+')
                    .ok_or_else(|| bad("slow needs `@frame+count x factor`"))?;
                let (k, fac) = rest
                    .split_once('x')
                    .ok_or_else(|| bad("slow needs `xfactor` suffix"))?;
                let frames: usize = k.trim().parse().map_err(|_| bad("bad slowdown length"))?;
                let factor: f64 = fac.trim().parse().map_err(|_| bad("bad slowdown factor"))?;
                if frames == 0 {
                    return Err(bad("slowdown length must be ≥ 1"));
                }
                if !(factor.is_finite() && factor > 1.0) {
                    return Err(bad("slowdown factor must be > 1"));
                }
                FaultSpec {
                    device,
                    frame: parse_frame(fr)?,
                    kind: FaultKind::Slowdown { factor, frames },
                }
            }
            "xfer" => FaultSpec {
                device,
                frame: parse_frame(when)?,
                kind: FaultKind::TransferError,
            },
            "panic" => FaultSpec {
                device,
                frame: parse_frame(when)?,
                kind: FaultKind::KernelPanic,
            },
            other => return Err(bad(&format!("unknown fault kind `{other}`"))),
        };
        Ok(spec)
    }
}

/// A deterministic set of faults to inject over a sequence.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    pub specs: Vec<FaultSpec>,
}

impl FaultSchedule {
    pub fn new(specs: Vec<FaultSpec>) -> Self {
        FaultSchedule { specs }
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Parses a list of CLI-style fault specs.
    pub fn parse(specs: &[String]) -> Result<Self, FevesError> {
        let specs = specs
            .iter()
            .map(|s| s.parse())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultSchedule { specs })
    }

    /// Generates a recoverable chaos schedule: 1–3 transient faults spread
    /// over the first `n_accel` devices within `1..=horizon` frames. The
    /// same `(seed, n_accel, horizon)` always yields the same schedule, and
    /// no schedule kills a CPU core, so every generated run must complete.
    pub fn chaos(seed: u64, n_accel: usize, horizon: usize) -> Self {
        if n_accel == 0 || horizon < 2 {
            return FaultSchedule::default();
        }
        let mut rng = SplitMix64::new(seed);
        let n_faults = 1 + (rng.next() % 3) as usize;
        let mut specs = Vec::with_capacity(n_faults);
        for _ in 0..n_faults {
            let device = (rng.next() as usize) % n_accel;
            // Start at frame ≥ 2 so the first (equidistant probe) frame
            // establishes a healthy baseline for deadline detection.
            let frame = 2 + (rng.next() as usize) % (horizon - 1);
            let kind = match rng.next() % 4 {
                0 => FaultKind::Death,
                1 => FaultKind::Stall {
                    frames: 1 + (rng.next() as usize) % 3,
                },
                2 => FaultKind::Slowdown {
                    factor: 8.0 + (rng.next() % 56) as f64,
                    frames: 1 + (rng.next() as usize) % 3,
                },
                _ => FaultKind::TransferError,
            };
            specs.push(FaultSpec {
                device,
                frame,
                kind,
            });
        }
        FaultSchedule { specs }
    }

    /// Faults in effect at inter frame `frame`.
    pub fn active(&self, frame: usize) -> impl Iterator<Item = &FaultSpec> {
        self.specs.iter().filter(move |s| s.active_at(frame))
    }

    /// Faults that begin exactly at inter frame `frame`.
    pub fn starting(&self, frame: usize) -> impl Iterator<Item = &FaultSpec> {
        self.specs.iter().filter(move |s| s.starts_at(frame))
    }
}

/// SplitMix64 — tiny, deterministic, dependency-free PRNG for chaos
/// schedule generation (quality is irrelevant; determinism is not).
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 {
            state: seed.wrapping_add(GOLDEN_GAMMA),
        }
    }

    fn next(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_round_trips() {
        for s in [
            "0:death@5",
            "1:stall@3+2",
            "0:slow@4+6x8",
            "1:xfer@2",
            "0:panic@6",
        ] {
            let spec: FaultSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s, "round trip of {s}");
        }
    }

    #[test]
    fn spec_parse_rejects_garbage() {
        for s in [
            "death@5",      // no device
            "0:death",      // no frame
            "0:death@0",    // 1-based frames
            "0:stall@3",    // stall needs a length
            "0:slow@4+2x1", // slowdown must be > 1
            "0:frob@2",     // unknown kind
            "x:death@5",    // bad device
        ] {
            assert!(s.parse::<FaultSpec>().is_err(), "`{s}` should not parse");
        }
    }

    #[test]
    fn activity_windows() {
        let death: FaultSpec = "0:death@5".parse().unwrap();
        assert!(!death.active_at(4));
        assert!(death.active_at(5));
        assert!(death.active_at(100));

        let stall: FaultSpec = "0:stall@3+2".parse().unwrap();
        assert!(!stall.active_at(2));
        assert!(stall.active_at(3));
        assert!(stall.active_at(4));
        assert!(!stall.active_at(5));

        let xfer: FaultSpec = "1:xfer@2".parse().unwrap();
        assert!(xfer.active_at(2));
        assert!(!xfer.active_at(3));
    }

    #[test]
    fn chaos_is_deterministic_and_bounded() {
        let a = FaultSchedule::chaos(42, 2, 10);
        let b = FaultSchedule::chaos(42, 2, 10);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.specs.len() <= 3);
        for spec in &a.specs {
            assert!(spec.device < 2, "chaos only targets accelerators");
            assert!(spec.frame >= 2 && spec.frame <= 10);
        }
        // Different seeds should (overwhelmingly) differ.
        let c = FaultSchedule::chaos(43, 2, 10);
        assert!(a != c || a.specs.len() == c.specs.len());
    }
}
