//! Host execution: a scoped parallel-for over macroblock rows.
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
//! Regions are plain [`std::thread::scope`] fan-outs: the caller is one of
//! the workers, helpers borrow the caller's data and are joined before the
//! region returns. There is no pool to configure and no state between
//! regions. Regions must not be nested — a row kernel runs serially. An
//! inter frame opens four: INT, ME, SME and the R\* row pass
//! ([`crate::recon::code_inter_row`], whose working lines are per thread).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Threads a region runs on: the cores this process may use (affinity mask
/// and cgroup quota included), read once — the query parses cgroup files,
/// too slow for several regions per QCIF frame.
pub fn width() -> usize {
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

/// Run `kernel(index, row)` for every item of `rows` on [`width`] threads.
/// A panic in any row is re-raised on the caller once every other row has
/// finished.
pub fn for_each_row<T: Send>(rows: impl IntoIterator<Item = T>, kernel: impl Fn(usize, T) + Sync) {
    let panics = for_each_row_with(width(), rows, kernel);
    if let Some(first) = panics.into_iter().next() {
        resume_unwind(first.payload);
    }
}

/// [`for_each_row`] on an explicit number of threads, reporting panicked
/// rows (ascending) instead of re-raising them: every row that did not
/// panic has run to completion, a panicked row's output is unspecified.
/// The framework uses it to attribute a panic to a device band; nothing
/// else should pick a width other than [`width`] — the parameter exists so
/// tests can show the output does not depend on it.
#[must_use = "a panicked row's output is unspecified"]
pub fn for_each_row_with<T: Send>(
    width: usize,
    rows: impl IntoIterator<Item = T>,
    kernel: impl Fn(usize, T) + Sync,
) -> Vec<RowPanic> {
    let slots: Vec<Mutex<Option<T>>> = rows.into_iter().map(|r| Mutex::new(Some(r))).collect();
    // Relaxed: the counter hands out indices and publishes nothing — the
    // slots are filled before the scope spawns a thread, and each slot's
    // own lock orders its hand-over.
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
    std::thread::scope(|s| {
        for _ in 1..width.min(slots.len()) {
            s.spawn(work);
        }
        work();
    });
    let mut panics = panics
        .into_inner()
        .expect("nothing panics while holding the list");
    panics.sort_by_key(|p| p.row);
    panics
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Barrier;

    /// Run a region that marks each row's own cell; returns the cells.
    fn visit(rows: usize, width: usize) -> Vec<u32> {
        let mut seen = vec![0u32; rows];
        let panics = for_each_row_with(width, seen.iter_mut(), |_, cell| *cell += 1);
        assert!(panics.is_empty());
        seen
    }

    #[test]
    fn edge_shapes_visit_every_row_once() {
        for (rows, width) in [(0, 4), (1, 8), (3, 8), (9, 1), (9, 0), (45, 2), (18, 3)] {
            assert_eq!(visit(rows, width), vec![1; rows], "{rows} rows on {width}");
        }
    }

    #[test]
    fn rows_get_their_own_index_and_item() {
        let mut out = vec![usize::MAX; 23];
        for_each_row(out.iter_mut(), |i, cell| *cell = i * i);
        assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
    }

    /// Both threads must be inside a row at once for the barrier to open:
    /// the region really runs `width` rows concurrently, the caller included.
    #[test]
    fn caller_and_helper_run_rows_concurrently() {
        let barrier = Barrier::new(2);
        let mut out = [0u8; 2];
        let panics = for_each_row_with(2, out.iter_mut(), |_, cell| {
            barrier.wait();
            *cell = 1;
        });
        assert!(panics.is_empty());
        assert_eq!(out, [1, 1]);
    }

    #[test]
    fn a_panicking_row_is_reported_and_the_rest_complete() {
        for width in [1, 2, 3, 8] {
            let mut out = vec![0u32; 11];
            let panics = for_each_row_with(width, out.iter_mut(), |i, cell| {
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

    #[test]
    #[should_panic(expected = "row 2 fails")]
    fn for_each_row_re_raises_the_first_panic() {
        for_each_row(0..5, |i, _| {
            if i >= 2 {
                panic!("row {i} fails");
            }
        });
    }

    proptest! {
        #[test]
        fn every_row_is_visited_exactly_once(rows in 0usize..70, width in 0usize..12) {
            prop_assert_eq!(visit(rows, width), vec![1; rows]);
        }
    }
}
