//! The application profile: RPPM's "collect once, predict many" artifact.
//!
//! An epoch's ILP and MLP curves are interpolated in [`crate::curves`].

use rppm_branch_model::BranchProfile;
use rppm_statstack::ReuseHistogram;
use rppm_trace::op::NUM_OP_CLASSES;
use rppm_trace::{OpClass, SyncMix, SyncOp};
use serde::{Deserialize, Serialize};

/// Microarchitecture-independent statistics of one thread over one
/// inter-synchronization epoch.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EpochProfile {
    /// Micro-ops executed in the epoch.
    pub ops: u64,
    /// Instruction mix (indexed by [`OpClass::index`]).
    pub mix: [u64; NUM_OP_CLASSES],
    /// ILP curves from micro-trace analysis: `ilp[k]` is the
    /// `(window size, achievable IPC)` curve with loads costing
    /// [`crate::microtrace::LOAD_LAT_GRID`]`[k]` cycles.
    pub ilp: Vec<Vec<(u32, f64)>>,
    /// MLP structure: `(window size, mean independent trailing loads)`.
    pub mlp: Vec<(u32, f64)>,
    /// Branch predictability profile.
    pub branch: BranchProfile,
    /// Mean dependence-chain latency feeding branches (`c_res`).
    pub branch_depth: f64,
    /// Mean loads on the critical dependence path feeding a branch.
    pub branch_slice_loads: f64,
    /// Private (per-thread) reuse-distance histogram → L1/L2 miss rates.
    pub private_rd: ReuseHistogram,
    /// Global (interleaved) reuse-distance histogram → shared LLC miss rate.
    pub global_rd: ReuseHistogram,
    /// Data accesses in the epoch.
    pub accesses: u64,
    /// Stores in the epoch.
    pub stores: u64,
    /// Instruction-line reuse-distance histogram → L1I miss rate.
    pub icache_rd: ReuseHistogram,
    /// Instruction-line fetches (code-line transitions).
    pub code_fetches: u64,
}

impl EpochProfile {
    /// Approximate heap + inline size in bytes (cache memory-budget
    /// accounting; see `ProfileCache`).
    pub fn approx_bytes(&self) -> u64 {
        let ilp: usize = self
            .ilp
            .iter()
            .map(|c| std::mem::size_of::<Vec<(u32, f64)>>() + c.capacity() * 16)
            .sum();
        std::mem::size_of::<Self>() as u64
            + ilp as u64
            + (self.mlp.capacity() * 16) as u64
            + self.private_rd.approx_bytes()
            + self.global_rd.approx_bytes()
            + self.icache_rd.approx_bytes()
    }

    /// Loads in the epoch.
    pub fn loads(&self) -> u64 {
        self.mix[OpClass::Load.index()]
    }

    /// Dynamic branches in the epoch.
    pub fn branches(&self) -> u64 {
        self.mix[OpClass::Branch.index()]
    }

    /// Fraction of ops in `class`.
    pub fn mix_fraction(&self, class: OpClass) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.mix[class.index()] as f64 / self.ops as f64
        }
    }
}

/// Profile of one thread: alternating epochs and synchronization events.
///
/// The stream structure is `epochs[0], events[0], epochs[1], events[1], …,
/// events[n-1], epochs[n]` — always `epochs.len() == events.len() + 1`
/// (epochs may be empty when two events are adjacent).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ThreadProfile {
    /// Per-epoch statistics.
    pub epochs: Vec<EpochProfile>,
    /// Synchronization events separating the epochs.
    pub events: Vec<SyncOp>,
}

impl ThreadProfile {
    /// Total micro-ops across epochs.
    pub fn total_ops(&self) -> u64 {
        self.epochs.iter().map(|e| e.ops).sum()
    }

    /// Structural invariant check.
    pub fn is_consistent(&self) -> bool {
        self.epochs.len() == self.events.len() + 1
    }

    /// Approximate heap + inline size in bytes (cache memory-budget
    /// accounting).
    pub fn approx_bytes(&self) -> u64 {
        self.epochs
            .iter()
            .map(EpochProfile::approx_bytes)
            .sum::<u64>()
            + (self.events.capacity() * std::mem::size_of::<SyncOp>()) as u64
            + std::mem::size_of::<Self>() as u64
    }
}

/// How a condition variable is used, recognized from the profile
/// (Section III-A of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CondVarUsage {
    /// All-but-one threads wait and any thread can release: a barrier.
    Barrier {
        /// Barrier identifier.
        id: u32,
        /// Number of participating threads.
        participants: u32,
    },
    /// A fixed producer set broadcasts items consumed by a disjoint consumer
    /// set.
    ProducerConsumer {
        /// Queue identifier.
        queue: u32,
        /// Producer thread indices.
        producers: Vec<u32>,
        /// Consumer thread indices.
        consumers: Vec<u32>,
    },
    /// Producers and consumers overlap or roles are unclear; modeled
    /// conservatively as producer/consumer.
    Mixed {
        /// Queue identifier.
        queue: u32,
    },
}

/// The complete application profile: the one-time-cost artifact from which
/// performance on any multicore configuration can be predicted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplicationProfile {
    /// Workload name.
    pub name: String,
    /// Per-thread profiles (index = thread id; thread 0 is the main thread).
    pub threads: Vec<ThreadProfile>,
}

impl ApplicationProfile {
    /// Number of threads profiled.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Total micro-ops across all threads.
    pub fn total_ops(&self) -> u64 {
        self.threads.iter().map(ThreadProfile::total_ops).sum()
    }

    /// Checks structural invariants of every thread profile.
    pub fn is_consistent(&self) -> bool {
        self.threads.iter().all(ThreadProfile::is_consistent)
    }

    /// Approximate heap + inline size in bytes — what a memory-bounded
    /// `ProfileCache` accounts a resident profile at.
    pub fn approx_bytes(&self) -> u64 {
        self.threads
            .iter()
            .map(ThreadProfile::approx_bytes)
            .sum::<u64>()
            + (self.name.capacity() + std::mem::size_of::<Self>()) as u64
    }

    /// Dynamic synchronization-event counts by paper category (Table III):
    /// `(critical sections, barriers, condition-variable events)`, see
    /// [`SyncMix::table3`].
    pub fn sync_event_counts(&self) -> (u64, u64, u64) {
        let mut mix = SyncMix::default();
        for ev in self.threads.iter().flat_map(|th| &th.events) {
            mix.record(ev);
        }
        mix.table3()
    }

    /// Recognizes how each condition variable is used, per the paper's
    /// classification rules: a condition variable where all-but-one threads
    /// may wait and any thread releases is a barrier; disjoint producer and
    /// consumer thread sets form a producer-consumer relationship.
    pub fn classify_cond_vars(&self) -> Vec<CondVarUsage> {
        use std::collections::BTreeMap;
        let mut cond_barriers: BTreeMap<u32, std::collections::BTreeSet<u32>> = BTreeMap::new();
        let mut producers: BTreeMap<u32, std::collections::BTreeSet<u32>> = BTreeMap::new();
        let mut consumers: BTreeMap<u32, std::collections::BTreeSet<u32>> = BTreeMap::new();
        for (tid, th) in self.threads.iter().enumerate() {
            for ev in &th.events {
                match ev {
                    SyncOp::Barrier { id, via_cond: true } => {
                        cond_barriers.entry(id.0).or_default().insert(tid as u32);
                    }
                    SyncOp::Produce { queue, .. } => {
                        producers.entry(queue.0).or_default().insert(tid as u32);
                    }
                    SyncOp::Consume { queue } => {
                        consumers.entry(queue.0).or_default().insert(tid as u32);
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        for (id, parts) in cond_barriers {
            out.push(CondVarUsage::Barrier {
                id,
                participants: parts.len() as u32,
            });
        }
        let queues: std::collections::BTreeSet<u32> =
            producers.keys().chain(consumers.keys()).copied().collect();
        for q in queues {
            let p = producers.get(&q).cloned().unwrap_or_default();
            let c = consumers.get(&q).cloned().unwrap_or_default();
            if !p.is_empty() && !c.is_empty() && p.is_disjoint(&c) {
                out.push(CondVarUsage::ProducerConsumer {
                    queue: q,
                    producers: p.into_iter().collect(),
                    consumers: c.into_iter().collect(),
                });
            } else {
                out.push(CondVarUsage::Mixed { queue: q });
            }
        }
        out
    }

    /// Serializes the profile to JSON (the on-disk "profile once" artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("profile serialization cannot fail")
    }

    /// Deserializes a profile from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error for malformed input.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::interp_curve;
    use crate::GridLogs;
    use rppm_trace::{BarrierId, QueueId, ThreadId};

    fn epoch(ops: u64) -> EpochProfile {
        EpochProfile {
            ops,
            ..Default::default()
        }
    }

    #[test]
    fn thread_profile_consistency() {
        let tp = ThreadProfile {
            epochs: vec![epoch(10), epoch(20)],
            events: vec![SyncOp::Barrier {
                id: BarrierId(0),
                via_cond: false,
            }],
        };
        assert!(tp.is_consistent());
        assert_eq!(tp.total_ops(), 30);

        let bad = ThreadProfile {
            epochs: vec![epoch(10)],
            events: vec![SyncOp::Barrier {
                id: BarrierId(0),
                via_cond: false,
            }],
        };
        assert!(!bad.is_consistent());
    }

    #[test]
    fn interp_curve_basics() {
        let logs = GridLogs::new();
        let at = |curve: &[(u32, f64)], w: u32| {
            let w = f64::from(w);
            interp_curve(curve, &logs, w, w.ln())
        };
        let curve = vec![(16u32, 2.0), (64, 4.0), (256, 4.0)];
        assert_eq!(at(&curve, 8), Some(2.0)); // clamp below
        assert_eq!(at(&curve, 16), Some(2.0));
        assert_eq!(at(&curve, 256), Some(4.0));
        assert_eq!(at(&curve, 1024), Some(4.0)); // clamp above
        let mid = at(&curve, 32).expect("interpolates");
        assert!(mid > 2.0 && mid < 4.0, "mid {mid}");
        assert_eq!(at(&[], 32), None);
    }

    #[test]
    fn mix_fractions() {
        let mut e = epoch(100);
        e.mix[OpClass::Load.index()] = 25;
        e.mix[OpClass::Branch.index()] = 10;
        assert_eq!(e.loads(), 25);
        assert_eq!(e.branches(), 10);
        assert!((e.mix_fraction(OpClass::Load) - 0.25).abs() < 1e-12);
        assert_eq!(epoch(0).mix_fraction(OpClass::Load), 0.0);
    }

    #[test]
    fn sync_event_counts_by_category() {
        let profile = ApplicationProfile {
            name: "t".into(),
            threads: vec![ThreadProfile {
                epochs: vec![epoch(1); 6],
                events: vec![
                    SyncOp::Lock { id: 0.into() },
                    SyncOp::Unlock { id: 0.into() },
                    SyncOp::Barrier {
                        id: BarrierId(0),
                        via_cond: false,
                    },
                    SyncOp::Barrier {
                        id: BarrierId(1),
                        via_cond: true,
                    },
                    SyncOp::Produce {
                        queue: QueueId(0),
                        count: 1,
                    },
                ],
            }],
        };
        let (cs, bar, cond) = profile.sync_event_counts();
        assert_eq!(cs, 1, "only Lock counts as a critical section");
        assert_eq!(bar, 1);
        assert_eq!(cond, 2);
    }

    #[test]
    fn classify_producer_consumer() {
        let mk_events = |evs: Vec<SyncOp>| ThreadProfile {
            epochs: vec![epoch(1); evs.len() + 1],
            events: evs,
        };
        let profile = ApplicationProfile {
            name: "t".into(),
            threads: vec![
                mk_events(vec![SyncOp::Produce {
                    queue: QueueId(3),
                    count: 2,
                }]),
                mk_events(vec![SyncOp::Consume { queue: QueueId(3) }]),
                mk_events(vec![SyncOp::Barrier {
                    id: BarrierId(7),
                    via_cond: true,
                }]),
            ],
        };
        let usage = profile.classify_cond_vars();
        assert!(usage.contains(&CondVarUsage::Barrier {
            id: 7,
            participants: 1
        }));
        assert!(usage.contains(&CondVarUsage::ProducerConsumer {
            queue: 3,
            producers: vec![0],
            consumers: vec![1],
        }));
    }

    #[test]
    fn classify_mixed_roles() {
        let profile = ApplicationProfile {
            name: "t".into(),
            threads: vec![ThreadProfile {
                epochs: vec![epoch(1); 3],
                events: vec![
                    SyncOp::Produce {
                        queue: QueueId(1),
                        count: 1,
                    },
                    SyncOp::Consume { queue: QueueId(1) },
                ],
            }],
        };
        assert_eq!(
            profile.classify_cond_vars(),
            vec![CondVarUsage::Mixed { queue: 1 }]
        );
        let _ = ThreadId(0);
    }

    #[test]
    fn json_round_trip() {
        let profile = ApplicationProfile {
            name: "rt".into(),
            threads: vec![ThreadProfile {
                epochs: vec![epoch(42)],
                events: vec![],
            }],
        };
        let json = profile.to_json();
        let back = ApplicationProfile::from_json(&json).expect("parses");
        assert_eq!(profile, back);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(ApplicationProfile::from_json("not json").is_err());
    }
}
