//! Synchronization events.
//!
//! RPPM's profiler hooks the pthread/OpenMP library calls that delimit
//! inter-synchronization epochs (Section III-A of the paper). Our trace IR
//! carries the same events as first-class items in each thread's stream.
//!
//! Condition variables deserve care: in the paper, whether a thread actually
//! calls `pthread_cond_wait` is timing-dependent, so source-level *markers*
//! flag every point where a thread *may* wait. Our IR takes the equivalent
//! route: condition-variable synchronization appears as semantic operations
//! ([`SyncOp::Produce`], [`SyncOp::Consume`], and barriers flagged
//! `via_cond`), i.e. the trace records the marker — the possibility of
//! waiting — and the timing domains (simulator / symbolic execution) decide
//! who actually waits.

use serde::{Deserialize, Serialize};

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }

        impl From<$name> for u32 {
            fn from(v: $name) -> u32 {
                v.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", stringify!($name).chars().next().unwrap_or('#'), self.0)
            }
        }

        impl $name {
            /// Returns the raw index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

id_newtype!(
    /// Identifies a thread within a [`crate::Program`] (0 is the main thread).
    ThreadId
);
id_newtype!(
    /// Identifies a barrier object.
    BarrierId
);
id_newtype!(
    /// Identifies a mutex object (critical section).
    MutexId
);
id_newtype!(
    /// Identifies a condition-variable object.
    CondId
);
id_newtype!(
    /// Identifies a producer/consumer queue implemented with a condition
    /// variable.
    QueueId
);
id_newtype!(
    /// Identifies a reader-writer lock object.
    ///
    /// Reader-writer events are trace-format version 2: traces containing
    /// them cannot be serialized as version-1 artifacts.
    RwLockId
);
id_newtype!(
    /// Identifies a counting semaphore object.
    ///
    /// Semaphore events are trace-format version 2: traces containing them
    /// cannot be serialized as version-1 artifacts.
    SemId
);

/// A synchronization event in a thread's dynamic stream.
///
/// Each variant corresponds to a library call the paper's profiler tracks
/// (`pthread_create`, `pthread_join`, `pthread_mutex_lock`/`unlock`,
/// `gomp_team_barrier_wait`, `pthread_cond_wait`/`broadcast` + manual
/// markers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncOp {
    /// The executing thread creates (unblocks) `child`.
    Create {
        /// Thread being created.
        child: ThreadId,
    },
    /// The executing thread waits until `child` has finished its stream.
    Join {
        /// Thread being joined.
        child: ThreadId,
    },
    /// All participating threads wait for each other at barrier `id`.
    Barrier {
        /// Barrier object.
        id: BarrierId,
        /// Whether the barrier is implemented with a condition variable
        /// (recognized via markers, Section III-A); affects only how the
        /// profiler classifies the event for Table III, not its semantics.
        via_cond: bool,
    },
    /// Enter the critical section guarded by mutex `id`.
    Lock {
        /// Mutex object.
        id: MutexId,
    },
    /// Leave the critical section guarded by mutex `id`.
    Unlock {
        /// Mutex object.
        id: MutexId,
    },
    /// Producer side of a condition variable: make `count` items available in
    /// `queue` and broadcast.
    Produce {
        /// Queue (condition variable) identifier.
        queue: QueueId,
        /// Number of items produced.
        count: u32,
    },
    /// Consumer side of a condition variable: take one item from `queue`,
    /// waiting if none is available (this is the paper's `CondMarker` — the
    /// *possibility* of waiting).
    Consume {
        /// Queue (condition variable) identifier.
        queue: QueueId,
    },
    /// Acquire reader-writer lock `id` (`pthread_rwlock_rdlock` /
    /// `wrlock`). Readers share the lock; a writer is exclusive. Grants are
    /// FIFO by arrival (writers are not starved by late readers).
    ///
    /// Trace-format version 2.
    RwLock {
        /// Reader-writer lock object.
        id: RwLockId,
        /// `true` for a writer (exclusive) acquisition.
        write: bool,
    },
    /// Release reader-writer lock `id` (one reader share, or the writer).
    ///
    /// Trace-format version 2.
    RwUnlock {
        /// Reader-writer lock object.
        id: RwLockId,
    },
    /// Decrement semaphore `id` (`sem_wait`), blocking while its count is
    /// zero.
    ///
    /// Trace-format version 2.
    SemWait {
        /// Semaphore object.
        id: SemId,
    },
    /// Increment semaphore `id` by `count` (`sem_post`), waking blocked
    /// waiters.
    ///
    /// Trace-format version 2.
    SemPost {
        /// Semaphore object.
        id: SemId,
        /// Number of permits released.
        count: u32,
    },
}

impl SyncOp {
    /// Minimum trace-format version able to carry this event: version 1
    /// for the paper's original event set, version 2 for reader-writer
    /// locks and semaphores.
    pub fn min_format_version(&self) -> u32 {
        match self {
            SyncOp::RwLock { .. }
            | SyncOp::RwUnlock { .. }
            | SyncOp::SemWait { .. }
            | SyncOp::SemPost { .. } => 2,
            _ => 1,
        }
    }
}

impl std::fmt::Display for SyncOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncOp::Create { child } => write!(f, "create({child})"),
            SyncOp::Join { child } => write!(f, "join({child})"),
            SyncOp::Barrier { id, via_cond } => {
                if *via_cond {
                    write!(f, "barrier({id}, cond)")
                } else {
                    write!(f, "barrier({id})")
                }
            }
            SyncOp::Lock { id } => write!(f, "lock({id})"),
            SyncOp::Unlock { id } => write!(f, "unlock({id})"),
            SyncOp::Produce { queue, count } => write!(f, "produce({queue}, {count})"),
            SyncOp::Consume { queue } => write!(f, "consume({queue})"),
            SyncOp::RwLock { id, write } => {
                if *write {
                    write!(f, "rwlock({id}, write)")
                } else {
                    write!(f, "rwlock({id}, read)")
                }
            }
            SyncOp::RwUnlock { id } => write!(f, "rwunlock({id})"),
            SyncOp::SemWait { id } => write!(f, "sem_wait({id})"),
            SyncOp::SemPost { id, count } => write!(f, "sem_post({id}, {count})"),
        }
    }
}

/// Dynamic synchronization-event mix: counts by [`SyncOp`] kind.
///
/// The one tally of synchronization events. The profiler folds a
/// profile's events through it for Table III ([`SyncMix::table3`]) and the
/// simulator's self-profiling probe records every event it executes. The
/// version-2 events fold into their closest version-1 kin, so the mix
/// keeps the paper's event set: reader-writer locks are critical
/// sections, semaphores are produce/consume pairs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyncMix {
    /// Thread creations.
    pub creates: u64,
    /// Thread joins.
    pub joins: u64,
    /// Plain barrier waits.
    pub barriers: u64,
    /// Condition-variable-implemented barrier waits.
    pub cond_barriers: u64,
    /// Mutex and reader-writer lock acquisitions.
    pub locks: u64,
    /// Mutex and reader-writer lock releases.
    pub unlocks: u64,
    /// Queue produce events and semaphore posts.
    pub produces: u64,
    /// Queue consume events and semaphore waits.
    pub consumes: u64,
}

impl SyncMix {
    /// Counts one event.
    pub fn record(&mut self, op: &SyncOp) {
        match op {
            SyncOp::Create { .. } => self.creates += 1,
            SyncOp::Join { .. } => self.joins += 1,
            SyncOp::Barrier {
                via_cond: false, ..
            } => self.barriers += 1,
            SyncOp::Barrier { via_cond: true, .. } => self.cond_barriers += 1,
            SyncOp::Lock { .. } | SyncOp::RwLock { .. } => self.locks += 1,
            SyncOp::Unlock { .. } | SyncOp::RwUnlock { .. } => self.unlocks += 1,
            SyncOp::Produce { .. } | SyncOp::SemPost { .. } => self.produces += 1,
            SyncOp::Consume { .. } | SyncOp::SemWait { .. } => self.consumes += 1,
        }
    }

    /// Adds another mix into this one.
    pub fn add(&mut self, other: &SyncMix) {
        self.creates += other.creates;
        self.joins += other.joins;
        self.barriers += other.barriers;
        self.cond_barriers += other.cond_barriers;
        self.locks += other.locks;
        self.unlocks += other.unlocks;
        self.produces += other.produces;
        self.consumes += other.consumes;
    }

    /// The paper's Table III categories: `(critical sections, barriers,
    /// condition-variable events)`. A critical section counts once, at its
    /// acquisition; thread creation and joining are not reported.
    pub fn table3(&self) -> (u64, u64, u64) {
        (
            self.locks,
            self.barriers,
            self.cond_barriers + self.produces + self.consumes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_conversions_round_trip() {
        let t: ThreadId = 3u32.into();
        assert_eq!(u32::from(t), 3);
        assert_eq!(t.index(), 3);
        assert_eq!(format!("{t}"), "T3");
    }

    /// The Table III view of a single event.
    fn table3_of(op: SyncOp) -> (u64, u64, u64) {
        let mut mix = SyncMix::default();
        mix.record(&op);
        mix.table3()
    }

    #[test]
    fn table3_categories() {
        assert_eq!(table3_of(SyncOp::Lock { id: MutexId(0) }), (1, 0, 0));
        assert_eq!(
            table3_of(SyncOp::Barrier {
                id: BarrierId(0),
                via_cond: false
            }),
            (0, 1, 0)
        );
        assert_eq!(
            table3_of(SyncOp::Barrier {
                id: BarrierId(0),
                via_cond: true
            }),
            (0, 0, 1)
        );
        assert_eq!(table3_of(SyncOp::Consume { queue: QueueId(0) }), (0, 0, 1));
        assert_eq!(table3_of(SyncOp::Create { child: ThreadId(1) }), (0, 0, 0));
    }

    #[test]
    fn display_nonempty() {
        let ops = [
            SyncOp::Create { child: ThreadId(1) },
            SyncOp::Join { child: ThreadId(1) },
            SyncOp::Barrier {
                id: BarrierId(2),
                via_cond: true,
            },
            SyncOp::Lock { id: MutexId(3) },
            SyncOp::Unlock { id: MutexId(3) },
            SyncOp::Produce {
                queue: QueueId(4),
                count: 2,
            },
            SyncOp::Consume { queue: QueueId(4) },
            SyncOp::RwLock {
                id: RwLockId(5),
                write: false,
            },
            SyncOp::RwLock {
                id: RwLockId(5),
                write: true,
            },
            SyncOp::RwUnlock { id: RwLockId(5) },
            SyncOp::SemWait { id: SemId(6) },
            SyncOp::SemPost {
                id: SemId(6),
                count: 2,
            },
        ];
        for op in ops {
            assert!(!format!("{op}").is_empty());
        }
    }

    #[test]
    fn v2_ops_classified() {
        let rd = SyncOp::RwLock {
            id: RwLockId(0),
            write: false,
        };
        let wr = SyncOp::RwLock {
            id: RwLockId(0),
            write: true,
        };
        let un = SyncOp::RwUnlock { id: RwLockId(0) };
        let sw = SyncOp::SemWait { id: SemId(0) };
        let sp = SyncOp::SemPost {
            id: SemId(0),
            count: 1,
        };
        // Acquisitions are critical sections (a release closes the same
        // one); semaphore posts and waits are condition-variable events.
        assert_eq!(table3_of(rd), (1, 0, 0));
        assert_eq!(table3_of(un), (0, 0, 0));
        assert_eq!(table3_of(sw), (0, 0, 1));
        assert_eq!(table3_of(sp), (0, 0, 1));
        for op in [rd, wr, un, sw, sp] {
            assert_eq!(op.min_format_version(), 2);
        }
        assert_eq!(
            SyncOp::Lock { id: MutexId(0) }.min_format_version(),
            1,
            "original event set stays version 1"
        );
    }

    #[test]
    fn serde_round_trip() {
        let op = SyncOp::Produce {
            queue: QueueId(9),
            count: 3,
        };
        let json = serde_json::to_string(&op).unwrap();
        let back: SyncOp = serde_json::from_str(&json).unwrap();
        assert_eq!(op, back);
    }
}
