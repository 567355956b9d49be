//! Whole-program representation.

use crate::block::BlockSpec;
use crate::sync::{SyncOp, ThreadId};
use serde::{Deserialize, Serialize};

/// One element of a thread's script: either a parametric instruction block or
/// a synchronization event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Segment {
    /// A block of micro-ops (expanded lazily).
    Block(BlockSpec),
    /// A synchronization event.
    Sync(SyncOp),
}

/// The full (static) script of one thread.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ThreadScript {
    /// Ordered segments executed by the thread.
    pub segments: Vec<Segment>,
}

impl ThreadScript {
    /// Total micro-ops across all blocks.
    pub fn total_ops(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Block(b) => b.ops as u64,
                Segment::Sync(_) => 0,
            })
            .sum()
    }

    /// Number of synchronization events.
    pub fn sync_count(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s, Segment::Sync(_)))
            .count()
    }

    /// Iterates over the synchronization events in order.
    pub fn sync_ops(&self) -> impl Iterator<Item = &SyncOp> {
        self.segments.iter().filter_map(|s| match s {
            Segment::Sync(op) => Some(op),
            Segment::Block(_) => None,
        })
    }
}

/// A multi-threaded workload: one [`ThreadScript`] per thread.
///
/// Thread 0 is the main thread (it exists at program start); every other
/// thread starts executing only after a [`SyncOp::Create`] event for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Workload name (benchmark identifier).
    pub name: String,
    /// Per-thread scripts, indexed by [`ThreadId`].
    pub threads: Vec<ThreadScript>,
}

impl Program {
    /// Creates an empty program with `n_threads` empty scripts.
    pub fn new(name: impl Into<String>, n_threads: usize) -> Self {
        Program {
            name: name.into(),
            threads: vec![ThreadScript::default(); n_threads],
        }
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Approximate heap + inline size in bytes — what a memory-bounded
    /// profile cache accounts a resident program at.
    pub fn approx_bytes(&self) -> u64 {
        let segment_bytes = |s: &Segment| {
            std::mem::size_of::<Segment>()
                + match s {
                    Segment::Block(b) => {
                        (b.addr.capacity() + b.store_addr.capacity())
                            * std::mem::size_of::<(crate::pattern::AddressPattern, f64)>()
                    }
                    Segment::Sync(_) => 0,
                }
        };
        self.threads
            .iter()
            .map(|t| {
                std::mem::size_of::<ThreadScript>()
                    + t.segments.iter().map(segment_bytes).sum::<usize>()
            })
            .sum::<usize>() as u64
            + (self.name.capacity() + std::mem::size_of::<Self>()) as u64
    }

    /// The script of `thread`.
    ///
    /// # Panics
    ///
    /// Panics if the thread does not exist.
    pub fn script(&self, thread: ThreadId) -> &ThreadScript {
        &self.threads[thread.index()]
    }

    /// Total dynamic micro-ops across all threads.
    pub fn total_ops(&self) -> u64 {
        self.threads.iter().map(ThreadScript::total_ops).sum()
    }

    /// Smallest trace-format schema version able to carry this program:
    /// the maximum of [`SyncOp::min_format_version`] over every sync event
    /// (1 for programs without reader-writer locks or semaphores).
    pub fn format_version(&self) -> u32 {
        self.threads
            .iter()
            .flat_map(ThreadScript::sync_ops)
            .map(SyncOp::min_format_version)
            .fold(1, u32::max)
    }

    /// Validates structural invariants:
    ///
    /// * the main thread exists (a program has at least one thread);
    /// * every other thread with segments is created, and no thread is
    ///   created twice (an empty thread nothing creates is an unused slot);
    /// * every creator is main or a thread main creates, directly or not;
    /// * every join names main or a created thread;
    /// * lock/unlock events are balanced and well-nested per thread;
    /// * barrier, queue and mutex identifiers are used consistently;
    /// * every block expands: at least one branch site, a loop period of at
    ///   least 1, a periodic pattern of 1 to 64 bits, and at least one line
    ///   in every address-pattern region.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] describing the first violation found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let n = self.threads.len();
        if n == 0 {
            return Err(ProgramError::NoThreads);
        }
        let mut created = vec![0usize; n];
        let mut creator = vec![ThreadId(0); n];
        for (tid, script) in self.threads.iter().enumerate() {
            let mut held: Vec<u32> = Vec::new();
            let mut held_rw: Vec<u32> = Vec::new();
            for (index, seg) in script.segments.iter().enumerate() {
                if let Segment::Block(block) = seg {
                    if let Some(detail) = block.defect() {
                        return Err(ProgramError::InvalidBlock {
                            thread: ThreadId(tid as u32),
                            segment: index,
                            detail,
                        });
                    }
                }
                if let Segment::Sync(op) = seg {
                    match op {
                        SyncOp::Create { child } => {
                            if child.index() >= n {
                                return Err(ProgramError::UnknownThread {
                                    by: ThreadId(tid as u32),
                                    target: *child,
                                });
                            }
                            if child.index() == 0 {
                                return Err(ProgramError::MainThreadCreated);
                            }
                            created[child.index()] += 1;
                            creator[child.index()] = ThreadId(tid as u32);
                        }
                        SyncOp::Join { child } if child.index() >= n => {
                            return Err(ProgramError::UnknownThread {
                                by: ThreadId(tid as u32),
                                target: *child,
                            });
                        }
                        SyncOp::Lock { id } => held.push(id.0),
                        // Not a match guard: the pop must happen on every
                        // Unlock, and a guard would hide that state change.
                        #[allow(clippy::collapsible_match)]
                        SyncOp::Unlock { id } => {
                            if held.pop() != Some(id.0) {
                                return Err(ProgramError::UnbalancedLock {
                                    thread: ThreadId(tid as u32),
                                });
                            }
                        }
                        SyncOp::RwLock { id, .. } => held_rw.push(id.0),
                        #[allow(clippy::collapsible_match)]
                        SyncOp::RwUnlock { id } => {
                            if held_rw.pop() != Some(id.0) {
                                return Err(ProgramError::UnbalancedRwLock {
                                    thread: ThreadId(tid as u32),
                                });
                            }
                        }
                        _ => {}
                    }
                }
            }
            if !held.is_empty() {
                return Err(ProgramError::UnbalancedLock {
                    thread: ThreadId(tid as u32),
                });
            }
            if !held_rw.is_empty() {
                return Err(ProgramError::UnbalancedRwLock {
                    thread: ThreadId(tid as u32),
                });
            }
        }
        for (t, &c) in created.iter().enumerate().skip(1) {
            if c > 1 {
                return Err(ProgramError::CreatedTwice {
                    thread: ThreadId(t as u32),
                });
            }
            if c == 0 && !self.threads[t].segments.is_empty() {
                return Err(ProgramError::NeverCreated {
                    thread: ThreadId(t as u32),
                });
            }
        }
        // Each created thread has one creator now, so walking the creates
        // down from main visits every thread that runs exactly once.
        let mut runs = vec![false; n];
        let mut next = vec![0];
        while let Some(t) = next.pop() {
            runs[t] = true;
            next.extend(self.threads[t].sync_ops().filter_map(|op| match op {
                SyncOp::Create { child } => Some(child.index()),
                _ => None,
            }));
        }
        for (t, script) in self.threads.iter().enumerate() {
            if created[t] > 0 && !runs[t] {
                return Err(ProgramError::CreatorNeverRuns {
                    thread: ThreadId(t as u32),
                    creator: creator[t],
                });
            }
            for op in script.sync_ops() {
                if let SyncOp::Join { child } = *op {
                    if !runs[child.index()] {
                        return Err(ProgramError::JoinsUncreated {
                            by: ThreadId(t as u32),
                            target: child,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Structural validation error for a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program has no threads, so not even the main thread runs.
    NoThreads,
    /// A create/join referenced a thread index that does not exist.
    UnknownThread {
        /// Thread issuing the event.
        by: ThreadId,
        /// Missing target thread.
        target: ThreadId,
    },
    /// Something tried to create the main thread.
    MainThreadCreated,
    /// A thread has work but no creating event.
    NeverCreated {
        /// The orphan thread.
        thread: ThreadId,
    },
    /// A thread is created more than once.
    CreatedTwice {
        /// The doubly-created thread.
        thread: ThreadId,
    },
    /// A thread's creator neither is main nor is created, directly or not,
    /// by main (e.g. two threads that only create each other).
    CreatorNeverRuns {
        /// The thread that never starts.
        thread: ThreadId,
        /// Its creator, which never runs either.
        creator: ThreadId,
    },
    /// A thread joins a thread that is never created.
    JoinsUncreated {
        /// The joining thread.
        by: ThreadId,
        /// The thread it waits for.
        target: ThreadId,
    },
    /// Mismatched or badly nested lock/unlock events.
    UnbalancedLock {
        /// Offending thread.
        thread: ThreadId,
    },
    /// Mismatched or badly nested rwlock/rwunlock events.
    UnbalancedRwLock {
        /// Offending thread.
        thread: ThreadId,
    },
    /// A block whose parameters its expansion cannot use.
    InvalidBlock {
        /// Thread whose script holds the block.
        thread: ThreadId,
        /// The block's index in that script's segments.
        segment: usize,
        /// What is wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::NoThreads => {
                write!(
                    f,
                    "the program has no threads (thread 0 is the main thread)"
                )
            }
            ProgramError::UnknownThread { by, target } => {
                write!(f, "thread {by} references unknown thread {target}")
            }
            ProgramError::MainThreadCreated => write!(f, "main thread cannot be created"),
            ProgramError::NeverCreated { thread } => {
                write!(f, "thread {thread} has work but is never created")
            }
            ProgramError::CreatedTwice { thread } => {
                write!(f, "thread {thread} is created more than once")
            }
            ProgramError::CreatorNeverRuns { thread, creator } => {
                write!(
                    f,
                    "thread {thread} is created by thread {creator}, which never runs"
                )
            }
            ProgramError::JoinsUncreated { by, target } => {
                write!(
                    f,
                    "thread {by} joins thread {target}, which is never created"
                )
            }
            ProgramError::UnbalancedLock { thread } => {
                write!(
                    f,
                    "unbalanced or badly nested lock/unlock in thread {thread}"
                )
            }
            ProgramError::UnbalancedRwLock { thread } => {
                write!(
                    f,
                    "unbalanced or badly nested rwlock/rwunlock in thread {thread}"
                )
            }
            ProgramError::InvalidBlock {
                thread,
                segment,
                detail,
            } => write!(f, "thread {thread}, segment {segment}: {detail}"),
        }
    }
}

impl std::error::Error for ProgramError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{BarrierId, MutexId};

    fn block(ops: u32) -> Segment {
        Segment::Block(BlockSpec::new(ops, 1))
    }

    #[test]
    fn total_ops_sums_blocks() {
        let mut p = Program::new("t", 2);
        p.threads[0].segments = vec![
            block(100),
            Segment::Sync(SyncOp::Create { child: ThreadId(1) }),
            block(50),
        ];
        p.threads[1].segments = vec![block(25)];
        assert_eq!(p.total_ops(), 175);
        assert_eq!(p.threads[0].total_ops(), 150);
        assert_eq!(p.threads[0].sync_count(), 1);
    }

    #[test]
    fn validate_ok_for_simple_program() {
        let mut p = Program::new("t", 2);
        p.threads[0].segments = vec![
            block(10),
            Segment::Sync(SyncOp::Create { child: ThreadId(1) }),
            Segment::Sync(SyncOp::Join { child: ThreadId(1) }),
        ];
        p.threads[1].segments = vec![block(10)];
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_catches_orphan_thread() {
        let mut p = Program::new("t", 2);
        p.threads[0].segments = vec![block(10)];
        p.threads[1].segments = vec![block(10)];
        assert_eq!(
            p.validate(),
            Err(ProgramError::NeverCreated {
                thread: ThreadId(1)
            })
        );
    }

    #[test]
    fn validate_catches_double_create() {
        let mut p = Program::new("t", 2);
        p.threads[0].segments = vec![
            Segment::Sync(SyncOp::Create { child: ThreadId(1) }),
            Segment::Sync(SyncOp::Create { child: ThreadId(1) }),
        ];
        p.threads[1].segments = vec![block(10)];
        assert_eq!(
            p.validate(),
            Err(ProgramError::CreatedTwice {
                thread: ThreadId(1)
            })
        );
    }

    #[test]
    fn validate_catches_threads_that_could_never_start() {
        let create = |c| Segment::Sync(SyncOp::Create { child: ThreadId(c) });
        // A thread created twice is an error even with no segments.
        let mut p = Program::new("t", 2);
        p.threads[0].segments = vec![create(1), create(1)];
        let twice = ProgramError::CreatedTwice {
            thread: ThreadId(1),
        };
        assert_eq!(p.validate(), Err(twice));
        // Each is created once, but neither creator runs.
        let mut p = Program::new("t", 3);
        p.threads[1].segments = vec![create(2), block(10)];
        p.threads[2].segments = vec![create(1)];
        let never_runs = ProgramError::CreatorNeverRuns {
            thread: ThreadId(1),
            creator: ThreadId(2),
        };
        assert_eq!(p.validate(), Err(never_runs));
        // An unused slot is fine until something joins it; joining main is
        // fine.
        let mut p = Program::new("t", 3);
        p.threads[0].segments = vec![create(1), block(10)];
        p.threads[1].segments = vec![Segment::Sync(SyncOp::Join { child: ThreadId(0) })];
        assert_eq!(p.validate(), Ok(()));
        p.threads[0]
            .segments
            .push(Segment::Sync(SyncOp::Join { child: ThreadId(2) }));
        let uncreated = ProgramError::JoinsUncreated {
            by: ThreadId(0),
            target: ThreadId(2),
        };
        assert_eq!(p.validate(), Err(uncreated));
    }

    #[test]
    fn validate_catches_unbalanced_locks() {
        let mut p = Program::new("t", 1);
        p.threads[0].segments = vec![Segment::Sync(SyncOp::Lock { id: MutexId(0) })];
        assert_eq!(
            p.validate(),
            Err(ProgramError::UnbalancedLock {
                thread: ThreadId(0)
            })
        );
    }

    #[test]
    fn validate_catches_blocks_expansion_cannot_use() {
        use crate::pattern::{AddressPattern, BranchPattern, Region};
        fn region(lines: u64) -> Region {
            Region { base: 0, lines }
        }
        let base = BlockSpec::new(10, 1).addr(AddressPattern::stream(region(4)), 1.0);
        let with = |breakage: fn(&mut BlockSpec)| {
            let mut spec = base.clone();
            breakage(&mut spec);
            spec
        };
        let cases = [
            (with(|b| b.n_sites = 0), "at least one branch site"),
            (
                with(|b| b.branch = BranchPattern::Loop { period: 0 }),
                "period 0",
            ),
            (
                with(|b| b.branch = BranchPattern::Periodic { bits: 1, len: 0 }),
                "length 0 not in 1..=64",
            ),
            (
                with(|b| b.branch = BranchPattern::Periodic { bits: 1, len: 65 }),
                "length 65 not in 1..=64",
            ),
            (
                with(|b| b.addr = vec![(AddressPattern::stream(region(0)), 1.0)]),
                "zero lines",
            ),
            (
                with(|b| b.store_addr = vec![(AddressPattern::Random { region: region(0) }, 1.0)]),
                "zero lines",
            ),
        ];
        for (spec, message) in cases {
            let mut p = Program::new("t", 1);
            p.threads[0].segments = vec![block(10), Segment::Block(spec)];
            let err = p.validate().unwrap_err();
            assert!(
                matches!(
                    err,
                    ProgramError::InvalidBlock {
                        thread: ThreadId(0),
                        segment: 1,
                        ..
                    }
                ),
                "{err:?}"
            );
            assert!(err.to_string().contains(message), "{err}");
        }
        let mut fine = BlockSpec::new(10, 1).addr(AddressPattern::stream(region(1)), 1.0);
        fine.branch = BranchPattern::Loop { period: 1 };
        let mut p = Program::new("t", 1);
        p.threads[0].segments = vec![Segment::Block(fine)];
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_bad_nesting() {
        let mut p = Program::new("t", 1);
        p.threads[0].segments = vec![
            Segment::Sync(SyncOp::Lock { id: MutexId(0) }),
            Segment::Sync(SyncOp::Lock { id: MutexId(1) }),
            Segment::Sync(SyncOp::Unlock { id: MutexId(0) }),
            Segment::Sync(SyncOp::Unlock { id: MutexId(1) }),
        ];
        assert!(matches!(
            p.validate(),
            Err(ProgramError::UnbalancedLock { .. })
        ));
    }

    #[test]
    fn validate_catches_unknown_thread() {
        let mut p = Program::new("t", 1);
        p.threads[0].segments = vec![Segment::Sync(SyncOp::Create { child: ThreadId(5) })];
        assert!(matches!(
            p.validate(),
            Err(ProgramError::UnknownThread { .. })
        ));
    }

    #[test]
    fn validate_catches_unbalanced_rwlocks() {
        use crate::sync::RwLockId;
        let mut p = Program::new("t", 1);
        p.threads[0].segments = vec![Segment::Sync(SyncOp::RwLock {
            id: RwLockId(0),
            write: true,
        })];
        assert_eq!(
            p.validate(),
            Err(ProgramError::UnbalancedRwLock {
                thread: ThreadId(0)
            })
        );
    }

    #[test]
    fn format_version_tracks_v2_ops() {
        use crate::sync::SemId;
        let mut p = Program::new("t", 1);
        p.threads[0].segments = vec![block(10), Segment::Sync(SyncOp::Lock { id: MutexId(0) })];
        assert_eq!(p.format_version(), 1);
        p.threads[0]
            .segments
            .push(Segment::Sync(SyncOp::Unlock { id: MutexId(0) }));
        p.threads[0].segments.push(Segment::Sync(SyncOp::SemPost {
            id: SemId(0),
            count: 1,
        }));
        assert_eq!(p.format_version(), 2);
    }

    #[test]
    fn sync_ops_iterates_in_order() {
        let mut p = Program::new("t", 1);
        p.threads[0].segments = vec![
            Segment::Sync(SyncOp::Barrier {
                id: BarrierId(0),
                via_cond: false,
            }),
            block(5),
            Segment::Sync(SyncOp::Barrier {
                id: BarrierId(1),
                via_cond: false,
            }),
        ];
        let ids: Vec<u32> = p.threads[0]
            .sync_ops()
            .map(|op| match op {
                SyncOp::Barrier { id, .. } => id.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn error_display_nonempty() {
        let errors: Vec<ProgramError> = vec![
            ProgramError::UnknownThread {
                by: ThreadId(0),
                target: ThreadId(9),
            },
            ProgramError::MainThreadCreated,
            ProgramError::NeverCreated {
                thread: ThreadId(1),
            },
            ProgramError::CreatedTwice {
                thread: ThreadId(1),
            },
            ProgramError::UnbalancedLock {
                thread: ThreadId(0),
            },
            ProgramError::UnbalancedRwLock {
                thread: ThreadId(0),
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
