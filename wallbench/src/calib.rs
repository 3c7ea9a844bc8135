//! The host's pace, measured all through the untraced run.
//!
//! The benchmark gets a few cores of a shared host, and what the host's other
//! tenants do slows a CPU-bound child by anything up to 1.8x, for a tenth of a
//! second or for half an hour: no run length the contract allows averages
//! that out, and no statistic within a run sees past a spell that outlasts
//! the run. So the run measures the spell. A *heartbeat* thread runs a fixed
//! reference kernel (full-search 16x16 SAD over a QCIF frame, search area 16;
//! the benchmark's own code, nothing of the product, so no change to the
//! product's code moves it) for a third of a millisecond every 10 ms, 3 % of
//! one core, from the first set-up to the last timed child, and logs when
//! each unit ran and how long it took. The mean unit *while a child ran*,
//! over a fixed nominal unit, is how much slower than a nominal host this
//! host ran this kind of work during exactly that child, and the child's
//! wall and CPU time are divided by it: what is reported is the time on the
//! nominal host. The nominal unit is this box at its best (its fastest unit
//! of a run repeats within 296 to 327 us whatever the spell), so on a quiet
//! run the reported times are the clock's.
//!
//! Sampling beside the child, and not in slots before and after it, is what
//! makes this hold: the host's pace moves as much within a second as between
//! minutes, so a slot next to a child of several seconds says little of the
//! child (measured: correlation 0.2 to 0.8 with the child's wall, against 0.8
//! to 0.9 for the beats inside it). The price is that the units share the
//! cores with the child: they also slow when the child keeps the other core
//! busy, so a change to how busy the product keeps the cores moves the
//! reported times by a few percent more than the clock's. The table on stderr
//! shows both.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The reference frame: QCIF, and a search area of 16.
const WIDTH: usize = 176;
const MB_ROWS: usize = 9;
const SA: usize = 16;
/// Macroblock rows per unit: 4.3 M absolute differences, a third of a
/// millisecond, long against the clock and short against a burst.
const ROWS_PER_UNIT: usize = 6;
/// From the end of one unit to the start of the next.
const GAP: Duration = Duration::from_millis(10);
/// Back-to-back units before the first gap, so that the run's fastest unit,
/// which is printed beside the nominal one, has seen warm caches.
const WARM_UNITS: usize = 100;
/// Seconds a unit takes on the nominal host.
const NOMINAL_UNIT_S: f64 = 300e-6;

/// The reference kernel and its two frames.
struct Kernel {
    cur: Vec<u8>,
    /// The reference frame, padded by half a search area all round.
    refp: Vec<u8>,
    next_row: usize,
    /// Keeps the search from being optimised away.
    sink: u64,
}

impl Kernel {
    fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut noise = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 32) as u8
                })
                .collect()
        };
        Kernel {
            cur: noise(WIDTH * MB_ROWS * 16),
            refp: noise((WIDTH + SA) * (MB_ROWS * 16 + SA)),
            next_row: 0,
            sink: 0,
        }
    }

    /// Full search for every macroblock of one row.
    fn search_row(&mut self, by: usize) {
        let stride = WIDTH + SA;
        for bx in 0..WIDTH / 16 {
            let mut best = u32::MAX;
            for dy in 0..SA {
                for dx in 0..SA {
                    let mut sad = 0u32;
                    for y in 0..16 {
                        let c = &self.cur[(by * 16 + y) * WIDTH + bx * 16..][..16];
                        let r = &self.refp[(by * 16 + y + dy) * stride + bx * 16 + dx..][..16];
                        for i in 0..16 {
                            sad += (i32::from(c[i]) - i32::from(r[i])).unsigned_abs();
                        }
                    }
                    best = best.min(sad);
                }
            }
            self.sink = self.sink.wrapping_add(u64::from(best));
        }
    }

    /// One unit of reference work; returns its seconds.
    fn unit(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..ROWS_PER_UNIT {
            self.search_row(self.next_row);
            self.next_row = (self.next_row + 1) % MB_ROWS;
        }
        t.elapsed().as_secs_f64()
    }
}

/// The running heartbeat. Times on its clock are seconds since it started.
pub struct Heartbeat {
    start: Instant,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(f64, f64)>>,
}

/// A stretch of the heartbeat's clock, seconds.
pub type Span = (f64, f64);

impl Heartbeat {
    pub fn start() -> Self {
        let start = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut kernel = Kernel::new();
            let mut beats = Vec::new();
            loop {
                let at = start.elapsed().as_secs_f64();
                beats.push((at, kernel.unit()));
                if stopped.load(Ordering::Relaxed) {
                    break;
                }
                if beats.len() > WARM_UNITS {
                    std::thread::sleep(GAP);
                }
            }
            std::hint::black_box(kernel.sink);
            beats
        });
        Heartbeat {
            start,
            stop,
            thread,
        }
    }

    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// `instant`, which is not before the start, on the heartbeat's clock.
    pub fn at(&self, instant: Instant) -> f64 {
        instant.duration_since(self.start).as_secs_f64()
    }

    /// Run `f` and return what it returned with the span it took.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Span) {
        let from = self.now();
        let what = f();
        (what, (from, self.now()))
    }

    /// Stop beating, and hand over the log.
    pub fn stop(self) -> Pulse {
        self.stop.store(true, Ordering::Relaxed);
        let beats = self.thread.join().expect("the heartbeat does not panic");
        Pulse::new(beats)
    }
}

/// Every unit of a run: when it started and how long it took, seconds.
pub struct Pulse {
    beats: Vec<(f64, f64)>,
    floor_s: f64,
}

impl Pulse {
    fn new(beats: Vec<(f64, f64)>) -> Self {
        let floor_s = beats.iter().map(|b| b.1).fold(f64::INFINITY, f64::min);
        Pulse { beats, floor_s }
    }

    /// How much slower than the nominal host this one ran the reference
    /// kernel during `span`: the mean of the units that started in it over
    /// the nominal unit, or of the two units either side of a span that held
    /// none.
    pub fn slowdown(&self, span: Span) -> f64 {
        let first = self.beats.partition_point(|b| b.0 < span.0);
        let end = self.beats.partition_point(|b| b.0 <= span.1);
        let inside = if first < end {
            &self.beats[first..end]
        } else {
            &self.beats[first.saturating_sub(1)..(end + 1).min(self.beats.len())]
        };
        let mean = inside.iter().map(|b| b.1).sum::<f64>() / inside.len() as f64;
        mean / NOMINAL_UNIT_S
    }

    /// Seconds of the fastest unit, and how many units there were.
    pub fn floor(&self) -> (f64, usize) {
        (self.floor_s, self.beats.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_span_is_no_faster_than_the_fastest_unit() {
        let heart = Heartbeat::start();
        let ((), span) = heart.time(|| std::thread::sleep(Duration::from_millis(60)));
        let pulse = heart.stop();
        let (floor, units) = pulse.floor();
        assert!(units > WARM_UNITS && floor > 0.0);
        assert!(span.1 - span.0 >= 0.06);
        assert!(pulse.slowdown(span) >= floor / NOMINAL_UNIT_S);
        assert!(pulse.slowdown((0.0, f64::INFINITY)) >= floor / NOMINAL_UNIT_S);
    }

    #[test]
    fn a_span_takes_the_units_that_started_in_it() {
        let u = NOMINAL_UNIT_S;
        let pulse = Pulse::new(vec![(0.0, u), (1.0, 2.0 * u), (2.0, 4.0 * u), (3.0, u)]);
        assert_eq!(pulse.floor(), (u, 4));
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(pulse.slowdown((0.5, 2.5)), 3.0));
        assert!(close(pulse.slowdown((2.0, 2.0)), 4.0));
        // None inside: the units either side.
        assert!(close(pulse.slowdown((1.2, 1.8)), 3.0));
        assert!(close(pulse.slowdown((3.5, 9.0)), 1.0));
        assert!(close(pulse.slowdown((-2.0, -1.0)), 1.0));
    }

    #[test]
    fn a_unit_is_a_fixed_amount_of_work() {
        let k = Kernel::new();
        assert_eq!(k.refp.len(), (WIDTH + SA) * (MB_ROWS * 16 + SA));
        let ops = ROWS_PER_UNIT * (WIDTH / 16) * SA * SA * 256;
        assert!((4 << 20..5 << 20).contains(&ops));
    }
}
