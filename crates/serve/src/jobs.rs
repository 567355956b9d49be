//! Asynchronous profiling jobs: clients submit a workload, get a job id
//! back immediately, and poll its state while dedicated runner threads
//! chew through the queue. Profiling is the only slow operation in the
//! service (seconds, versus microseconds for a cached prediction), so it
//! is the only thing that goes through the queue.

use rppm::WorkloadHandle;
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Lifecycle of one profiling job.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Waiting for a runner thread.
    Queued,
    /// A runner is profiling (or coalescing onto an in-flight run).
    Running,
    /// Profile resident in the cache; predictions now take the fast path.
    Done {
        /// Workload name the profile is stored under.
        workload: String,
    },
    /// The profiling run panicked or the workload was invalid.
    Failed {
        /// One-line diagnostic.
        error: String,
    },
}

impl JobState {
    fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
        }
    }
}

/// Counts per state, for `/stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobCounts {
    /// Jobs waiting for a runner.
    pub queued: usize,
    /// Jobs being profiled right now.
    pub running: usize,
    /// Jobs that completed since the queue was created (cumulative, so it
    /// never drops when an old state is forgotten).
    pub done: usize,
    /// Jobs that failed since the queue was created (cumulative).
    pub failed: usize,
}

/// Finished (`done`/`failed`) job states kept for polling. Beyond this the
/// oldest finished state is forgotten, and polling its id answers 404.
/// Queued and running jobs are never forgotten.
const MAX_FINISHED: usize = 1024;

#[derive(Default)]
struct Inner {
    next_id: u64,
    states: HashMap<u64, JobState>,
    /// Ids of the finished states still held, oldest first.
    finished: VecDeque<u64>,
    queue: VecDeque<(u64, WorkloadHandle)>,
    done: usize,
    failed: usize,
    shutdown: bool,
}

/// A submit/poll queue of profiling jobs, drained by runner threads.
#[derive(Default)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue").finish_non_exhaustive()
    }
}

impl JobQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a profiling job for `workload` and returns its id.
    pub fn submit(&self, workload: WorkloadHandle) -> u64 {
        let mut inner = self.inner.lock().expect("job queue lock");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.states.insert(id, JobState::Queued);
        inner.queue.push_back((id, workload));
        drop(inner);
        self.ready.notify_one();
        id
    }

    /// Blocks until a job is available (returning it marked `Running`) or
    /// the queue shuts down (returning `None`). Runner threads loop on
    /// this.
    pub fn next_job(&self) -> Option<(u64, WorkloadHandle)> {
        let mut inner = self.inner.lock().expect("job queue lock");
        loop {
            if let Some((id, handle)) = inner.queue.pop_front() {
                inner.states.insert(id, JobState::Running);
                return Some((id, handle));
            }
            if inner.shutdown {
                return None;
            }
            inner = self.ready.wait(inner).expect("job queue lock");
        }
    }

    /// Records a finished job's outcome, forgetting the oldest finished
    /// state once more than `MAX_FINISHED` are held.
    pub fn finish(&self, id: u64, outcome: Result<String, String>) {
        let mut inner = self.inner.lock().expect("job queue lock");
        let state = match outcome {
            Ok(workload) => {
                inner.done += 1;
                JobState::Done { workload }
            }
            Err(error) => {
                inner.failed += 1;
                JobState::Failed { error }
            }
        };
        inner.states.insert(id, state);
        inner.finished.push_back(id);
        while inner.finished.len() > MAX_FINISHED {
            if let Some(old) = inner.finished.pop_front() {
                inner.states.remove(&old);
            }
        }
    }

    /// The state of job `id`, if it exists.
    pub fn state(&self, id: u64) -> Option<JobState> {
        self.inner
            .lock()
            .expect("job queue lock")
            .states
            .get(&id)
            .cloned()
    }

    /// Per-state job counts: queued and running from the live states,
    /// done and failed from cumulative counters.
    pub fn counts(&self) -> JobCounts {
        let inner = self.inner.lock().expect("job queue lock");
        let mut c = JobCounts {
            done: inner.done,
            failed: inner.failed,
            ..JobCounts::default()
        };
        for s in inner.states.values() {
            match s {
                JobState::Queued => c.queued += 1,
                JobState::Running => c.running += 1,
                JobState::Done { .. } | JobState::Failed { .. } => {}
            }
        }
        c
    }

    /// Wakes every runner and makes [`JobQueue::next_job`] return `None`
    /// once the queue drains.
    pub fn shutdown(&self) {
        self.inner.lock().expect("job queue lock").shutdown = true;
        self.ready.notify_all();
    }
}

/// The `/jobs/<id>` response document.
pub fn job_doc(id: u64, state: &JobState) -> Value {
    let mut fields = vec![
        ("job".to_string(), Value::U64(id)),
        (
            "state".to_string(),
            Value::String(state.label().to_string()),
        ),
    ];
    match state {
        JobState::Done { workload } => {
            fields.push(("workload".into(), Value::String(workload.clone())));
        }
        JobState::Failed { error } => {
            fields.push(("error".into(), Value::String(error.clone())));
        }
        _ => {}
    }
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rppm::Session;

    #[test]
    fn submit_poll_finish_cycle() {
        let q = JobQueue::new();
        let session = Session::builder().jobs(1).build();
        let w = session.workload("nn").expect("catalog");
        let id = q.submit(w);
        assert!(matches!(q.state(id), Some(JobState::Queued)));
        let (got, _handle) = q.next_job().expect("queued job");
        assert_eq!(got, id);
        assert!(matches!(q.state(id), Some(JobState::Running)));
        q.finish(id, Ok("nn".into()));
        assert!(matches!(q.state(id), Some(JobState::Done { .. })));
        assert_eq!(q.counts().done, 1);
        assert!(q.state(id + 1).is_none());
        q.shutdown();
        assert!(q.next_job().is_none());
    }

    #[test]
    fn finished_states_are_bounded() {
        let q = JobQueue::new();
        let session = Session::builder().jobs(1).build();
        let w = session.workload("nn").expect("catalog");
        let n = MAX_FINISHED + 10;
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            let id = q.submit(w.clone());
            let (got, _handle) = q.next_job().expect("queued job");
            q.finish(got, Ok("nn".into()));
            ids.push(id);
        }
        assert!(q.inner.lock().expect("job queue lock").states.len() <= MAX_FINISHED);
        assert!(q.state(ids[0]).is_none(), "the oldest state is forgotten");
        assert!(matches!(q.state(ids[n - 1]), Some(JobState::Done { .. })));
        assert_eq!(q.counts().done, n);
    }

    #[test]
    fn job_doc_carries_outcome() {
        let done = job_doc(
            3,
            &JobState::Done {
                workload: "nn".into(),
            },
        );
        assert_eq!(
            serde_json::to_string(&done).unwrap(),
            r#"{"job":3,"state":"done","workload":"nn"}"#
        );
        let failed = job_doc(
            4,
            &JobState::Failed {
                error: "boom".into(),
            },
        );
        assert!(serde_json::to_string(&failed).unwrap().contains("boom"));
    }
}
