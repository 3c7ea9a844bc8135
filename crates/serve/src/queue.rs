//! Bounded admission queue.
//!
//! Admission control is the first of the daemon's two backpressure layers
//! (the second is the in-flight credit cap in the supervisor): a submit
//! that arrives while the queue holds `capacity` jobs is refused with the
//! typed [`ServeError::QueueFull`] rather than buffered without bound, so a
//! producer storm degrades into fast, attributable rejections instead of
//! unbounded memory growth and silently growing latency.

use crate::job::JobSpec;
use crate::ServeError;
use std::collections::VecDeque;

/// FIFO of admitted-but-not-yet-dispatched jobs.
#[derive(Debug)]
pub struct JobQueue {
    items: VecDeque<JobSpec>,
    capacity: usize,
}

impl JobQueue {
    /// A queue holding at most `capacity` jobs (at least one).
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            items: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admit a job, or refuse it with the typed queue-full error.
    pub fn admit(&mut self, job: JobSpec) -> Result<(), ServeError> {
        if self.items.len() >= self.capacity {
            return Err(ServeError::QueueFull {
                depth: self.items.len(),
                capacity: self.capacity,
            });
        }
        self.items.push_back(job);
        Ok(())
    }

    /// Take the oldest admitted job.
    pub fn pop(&mut self) -> Option<JobSpec> {
        self.items.pop_front()
    }

    /// The queued jobs, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &JobSpec> {
        self.items.iter()
    }

    /// Queued-job count.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: &str) -> JobSpec {
        JobSpec {
            id: id.into(),
            input: "i.y4m".into(),
            output: "o.y4m".into(),
            ..JobSpec::default()
        }
    }

    #[test]
    fn admits_in_fifo_order() {
        let mut q = JobQueue::new(4);
        q.admit(job("a")).unwrap();
        q.admit(job("b")).unwrap();
        assert_eq!(q.pop().unwrap().id, "a");
        assert_eq!(q.pop().unwrap().id, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn rejects_at_high_watermark_with_typed_error() {
        let mut q = JobQueue::new(2);
        q.admit(job("a")).unwrap();
        q.admit(job("b")).unwrap();
        let err = q.admit(job("c")).unwrap_err();
        assert_eq!(
            err,
            ServeError::QueueFull {
                depth: 2,
                capacity: 2
            }
        );
        // Rejected done records carry the rendered error.
        assert_eq!(err.to_string(), "queue full: 2 queued >= high watermark 2");
        assert_eq!(q.len(), 2, "rejected job must not be buffered");
        // Popping one re-opens admission.
        q.pop().unwrap();
        q.admit(job("c")).unwrap();
    }

    #[test]
    fn zero_sizes_are_clamped_sane() {
        let mut q = JobQueue::new(0);
        q.admit(job("a")).unwrap();
        assert_eq!(
            q.admit(job("b")).unwrap_err(),
            ServeError::QueueFull {
                depth: 1,
                capacity: 1
            }
        );
    }
}
