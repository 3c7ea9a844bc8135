//! Host execution: a crew of parked threads, and the parallel-for over
//! macroblock rows it runs.
//!
//! The row kernels of this crate are partition-invariant — a row's result
//! depends only on the frame data — and every row writes an output slice
//! no other row touches. A region therefore takes its rows as a list of
//! items, each owning that row's disjoint `&mut` output, and lets the host's
//! cores claim them one at a time from a shared counter. Which thread runs a
//! row, and how many threads there are, cannot change a byte of the output:
//! the item list is built before any thread starts and is the same for
//! every width.
//!
//! A [`Crew`] is `width − 1` helper threads, started once and parked on a
//! condition variable between regions; the caller of a region is its first
//! worker. The encoder keeps one crew for the whole session, so a region
//! costs a wake-up, not a spawn and a join, and a helper that has just been
//! idle is not a new thread the host must place. A region borrows its crew
//! mutably, so regions cannot nest — a row kernel runs serially. An inter
//! frame opens five: INT, ME, SME, the R\* row pass
//! ([`crate::recon::code_inter_row`], whose working lines are per thread)
//! and the tail's two lanes ([`crate::recon::code_tail`]).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// The cores this process may use (affinity mask and cgroup quota
/// included), read once — the query parses cgroup files, too slow for a
/// crew per call of the `*_rows_parallel` entry points.
fn host_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A row whose kernel panicked inside a region.
pub struct RowPanic {
    /// Index of the row in the region's item list.
    pub row: usize,
    /// What the kernel panicked with.
    pub payload: Box<dyn Any + Send>,
}

/// `width − 1` parked helper threads and the caller: the host's workers
/// for row regions. Dropping the crew joins every helper.
pub struct Crew {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

/// A region's work as the helpers see it. The lifetime is the region's,
/// not `'static`: see [`Crew::run`].
type Job = &'static (dyn Fn() + Sync);

struct Shared {
    state: Mutex<State>,
    /// Signalled when a region is posted or the crew is dropped.
    posted: Condvar,
    /// Signalled when the last helper of a region has left its work.
    done: Condvar,
}

struct State {
    /// Bumped by every region a helper takes part in.
    epoch: u64,
    /// The newest region's work; `None` once that region has returned.
    job: Option<Job>,
    /// Helpers `0..joining` take part in the newest region.
    joining: usize,
    /// Of those, the ones still inside its work.
    running: usize,
    /// The first panic that left a helper's work outside any row.
    escaped: Option<Box<dyn Any + Send>>,
    quit: bool,
}

impl Shared {
    /// The state, also after a panic: no thread panics while holding the
    /// lock (every update is a plain assignment), and a region must be able
    /// to wait for its helpers whatever happened elsewhere.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, cv: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }
}

impl Crew {
    /// A crew as wide as the cores this process may use.
    pub fn host() -> Self {
        Self::new(host_width())
    }

    /// A crew of `width` threads, the caller included: `width − 1` helpers
    /// (none for a width of 0 or 1). Nothing but tests should pick a width
    /// other than [`Self::host`]'s — the parameter exists so they can show
    /// the output does not depend on it.
    pub fn new(width: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                joining: 0,
                running: 0,
                escaped: None,
                quit: false,
            }),
            posted: Condvar::new(),
            done: Condvar::new(),
        });
        let helpers = (0..width.saturating_sub(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("feves-crew".into())
                    .spawn(move || helper(&shared, index))
                    .expect("the host starts a crew helper")
            })
            .collect();
        Crew { shared, helpers }
    }

    /// Run `kernel(index, row)` for every item of `rows` on the crew. A
    /// panic in any row is re-raised on the caller once every other row has
    /// finished.
    pub fn for_each_row<T: Send>(
        &mut self,
        rows: impl IntoIterator<Item = T>,
        kernel: impl Fn(usize, T) + Sync,
    ) {
        if let Some(first) = self.try_for_each_row(rows, kernel).into_iter().next() {
            resume_unwind(first.payload);
        }
    }

    /// [`Self::for_each_row`], reporting panicked rows (ascending) instead
    /// of re-raising them: every row that did not panic has run to
    /// completion, a panicked row's output is unspecified, and a helper
    /// that ran it is ready for the next region. The framework uses it to
    /// attribute a panic to a device band.
    #[must_use = "a panicked row's output is unspecified"]
    pub fn try_for_each_row<T: Send>(
        &mut self,
        rows: impl IntoIterator<Item = T>,
        kernel: impl Fn(usize, T) + Sync,
    ) -> Vec<RowPanic> {
        let slots: Vec<Mutex<Option<T>>> = rows.into_iter().map(|r| Mutex::new(Some(r))).collect();
        // Relaxed: the counter hands out indices and publishes nothing — the
        // slots are filled before the region is posted (the state lock
        // orders that), and each slot's own lock orders its hand-over.
        let next = AtomicUsize::new(0);
        let panics = Mutex::new(Vec::new());
        let work = || loop {
            let row = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(row) else { break };
            let item = slot
                .lock()
                .expect("a slot is locked once, by the thread that claimed its index")
                .take()
                .expect("the counter hands out every index once");
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| kernel(row, item))) {
                panics
                    .lock()
                    .expect("nothing panics while holding the list")
                    .push(RowPanic { row, payload });
            }
        };
        self.run(slots.len().saturating_sub(1), &work);
        let mut panics = panics
            .into_inner()
            .expect("nothing panics while holding the list");
        panics.sort_by_key(|p| p.row);
        panics
    }

    /// Run `work` on the caller and on up to `extra` helpers at once, and
    /// return when every one of them has returned from it.
    fn run(&mut self, extra: usize, work: &(dyn Fn() + Sync)) {
        let joining = extra.min(self.helpers.len());
        if joining == 0 {
            return work();
        }
        // SAFETY: only the lifetime changes. The helpers call `job` between
        // the post below and their `running` decrement, and this function
        // neither returns nor unwinds before `running` is back at 0 (the
        // caller's own share of the work runs under `catch_unwind`, and the
        // lock cannot fail): `work` outlives every call through `job`.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(work) };
        {
            let mut state = self.shared.lock();
            state.epoch += 1;
            state.job = Some(job);
            state.joining = joining;
            state.running = joining;
        }
        self.shared.posted.notify_all();
        let mine = catch_unwind(AssertUnwindSafe(work));
        let mut state = self.shared.lock();
        while state.running > 0 {
            state = self.shared.wait(&self.shared.done, state);
        }
        state.job = None;
        let escaped = state.escaped.take();
        drop(state);
        if let Some(payload) = mine.err().or(escaped) {
            resume_unwind(payload);
        }
    }
}

/// Helper `index`'s life: sleep until a region it takes part in is posted,
/// run the region's work, report that it is done; until the crew drops.
fn helper(shared: &Shared, index: usize) {
    let mut seen = 0;
    loop {
        let job = {
            let mut state = shared.lock();
            loop {
                if state.quit {
                    return;
                }
                if state.epoch != seen {
                    seen = state.epoch;
                    if index < state.joining {
                        break state.job.expect("a posted region carries its work");
                    }
                }
                state = shared.wait(&shared.posted, state);
            }
        };
        let escaped = catch_unwind(AssertUnwindSafe(job)).err();
        let mut state = shared.lock();
        if let Some(payload) = escaped {
            state.escaped.get_or_insert(payload);
        }
        state.running -= 1;
        if state.running == 0 {
            shared.done.notify_one();
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        self.shared.lock().quit = true;
        self.shared.posted.notify_all();
        for helper in self.helpers.drain(..) {
            // A helper catches whatever its work raises, so it cannot have
            // panicked; and `drop` must not panic.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// Run a region that marks each row's own cell; returns the cells.
    fn visit(crew: &mut Crew, rows: usize) -> Vec<u32> {
        let mut seen = vec![0u32; rows];
        let panics = crew.try_for_each_row(seen.iter_mut(), |_, cell| *cell += 1);
        assert!(panics.is_empty());
        seen
    }

    #[test]
    fn edge_shapes_visit_every_row_once() {
        for (rows, width) in [(0, 4), (1, 8), (3, 8), (9, 1), (9, 0), (45, 2), (18, 3)] {
            let mut crew = Crew::new(width);
            assert_eq!(
                visit(&mut crew, rows),
                vec![1; rows],
                "{rows} rows on {width}"
            );
        }
    }

    #[test]
    fn one_crew_runs_a_thousand_regions() {
        for width in [1, 2, 3, 8] {
            let mut crew = Crew::new(width);
            for region in 0..1_000 {
                let rows = region % 13;
                assert_eq!(
                    visit(&mut crew, rows),
                    vec![1; rows],
                    "region {region} on {width}"
                );
            }
        }
    }

    #[test]
    fn rows_get_their_own_index_and_item() {
        let mut out = vec![usize::MAX; 23];
        Crew::host().for_each_row(out.iter_mut(), |i, cell| *cell = i * i);
        assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
    }

    /// Both threads must be inside a row at once for the barrier to open:
    /// the region really runs `width` rows concurrently, the caller included.
    #[test]
    fn caller_and_helper_run_rows_concurrently() {
        let barrier = Barrier::new(2);
        let mut out = [0u8; 2];
        Crew::new(2).for_each_row(out.iter_mut(), |_, cell| {
            barrier.wait();
            *cell = 1;
        });
        assert_eq!(out, [1, 1]);
    }

    #[test]
    fn width_one_starts_no_thread() {
        let mut crew = Crew::new(1);
        assert!(crew.helpers.is_empty());
        let caller = std::thread::current().id();
        let mut ran_on: Vec<Option<ThreadId>> = vec![None; 9];
        crew.for_each_row(ran_on.iter_mut(), |_, cell| {
            *cell = Some(std::thread::current().id());
        });
        assert_eq!(ran_on, vec![Some(caller); 9]);
    }

    #[test]
    fn drop_joins_every_helper() {
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                // Late on purpose: only a join waits for it.
                std::thread::sleep(std::time::Duration::from_millis(30));
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static GUARD: std::cell::RefCell<Option<OnExit>> = const { std::cell::RefCell::new(None) };
        }
        // The barrier holds each of the four threads in its own row, so
        // every helper arms its thread's guard.
        let barrier = Barrier::new(4);
        let caller = std::thread::current().id();
        let mut crew = Crew::new(4);
        crew.for_each_row(0..4, |_, _| {
            if std::thread::current().id() != caller {
                GUARD.set(Some(OnExit));
            }
            barrier.wait();
        });
        assert_eq!(EXITED.load(Ordering::SeqCst), 0, "helpers outlive a region");
        drop(crew);
        // A helper's thread-locals are dropped when its thread exits, and
        // a join returns after that.
        assert_eq!(EXITED.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_panicking_row_is_reported_and_the_rest_complete() {
        for width in [1, 2, 3, 8] {
            let mut crew = Crew::new(width);
            for _ in 0..3 {
                let mut out = vec![0u32; 11];
                let panics = crew.try_for_each_row(out.iter_mut(), |i, cell| {
                    if i == 4 || i == 9 {
                        panic!("row {i} fails");
                    }
                    *cell = 1;
                });
                let rows: Vec<usize> = panics.iter().map(|p| p.row).collect();
                assert_eq!(rows, [4, 9], "width {width}");
                let msg = panics[0].payload.downcast_ref::<String>();
                assert_eq!(msg.map(String::as_str), Some("row 4 fails"));
                let want: Vec<u32> = (0..11).map(|i| u32::from(i != 4 && i != 9)).collect();
                assert_eq!(out, want, "width {width}");
            }
        }
    }

    /// Row 0 panics on the helper while the caller is held in row 1: the
    /// panic surfaces on the caller only after row 1 ends, and the helper
    /// runs the next region.
    #[test]
    fn a_panic_on_a_helper_is_re_raised_after_every_row_and_the_crew_survives() {
        let mut crew = Crew::new(2);
        let caller = std::thread::current().id();
        let (panicked, row_1_done) = (Barrier::new(2), AtomicUsize::new(0));
        let result = catch_unwind(AssertUnwindSafe(|| {
            crew.for_each_row(0..2, |_, _| {
                if std::thread::current().id() == caller {
                    panicked.wait();
                    row_1_done.store(1, Ordering::SeqCst);
                } else {
                    struct Signal<'a>(&'a Barrier);
                    impl Drop for Signal<'_> {
                        fn drop(&mut self) {
                            self.0.wait();
                        }
                    }
                    let _signal = Signal(&panicked);
                    panic!("helper row fails");
                }
            });
        }));
        let payload = result.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper row fails"));
        assert_eq!(row_1_done.load(Ordering::SeqCst), 1);

        let helper_rows = AtomicUsize::new(0);
        let barrier = Barrier::new(2);
        crew.for_each_row(0..2, |_, _| {
            barrier.wait();
            if std::thread::current().id() != caller {
                helper_rows.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(helper_rows.load(Ordering::SeqCst), 1);
    }

    /// The caller's row panics while a helper is still inside its row: the
    /// panic reaches the caller only once that row has ended.
    #[test]
    fn a_panic_waits_for_the_rows_still_running() {
        let mut crew = Crew::new(2);
        let caller = std::thread::current().id();
        let (both_in, helper_done) = (Barrier::new(2), AtomicUsize::new(0));
        let result = catch_unwind(AssertUnwindSafe(|| {
            crew.for_each_row(0..2, |_, _| {
                both_in.wait();
                if std::thread::current().id() == caller {
                    panic!("caller row fails");
                }
                // Not for correctness: it only widens the window in which a
                // region that did not wait would be caught out.
                std::thread::sleep(std::time::Duration::from_millis(30));
                helper_done.store(1, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err());
        assert_eq!(helper_done.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "row 2 fails")]
    fn for_each_row_re_raises_the_first_panic() {
        Crew::new(3).for_each_row(0..5, |i, _| {
            if i >= 2 {
                panic!("row {i} fails");
            }
        });
    }

    proptest! {
        #[test]
        fn every_row_is_visited_exactly_once(rows in 0usize..70, width in 0usize..12) {
            prop_assert_eq!(visit(&mut Crew::new(width), rows), vec![1; rows]);
        }
    }
}
