//! Simulator self-profiling: cheap dynamic counters behind a zero-cost hook.
//!
//! The golden simulator is itself an interpreter — a dispatch loop over
//! dynamic micro-ops — so it profits from the same profile-guided
//! optimization playbook as any bytecode VM: count what actually executes,
//! then reorder the dispatch hot-first and fuse the dominant op sequences
//! into superinstructions. This module is the measurement half of that loop.
//!
//! A [`SimProbe`] is threaded through the engine's run loop. The default
//! [`NoProbe`] has empty inline methods, so `simulate()` monomorphizes to
//! exactly the unprobed code — profiling is zero-cost when off. A
//! [`ProfileCollector`] records per-[`OpClass`] execution frequencies, the
//! dynamic op-*pair* histogram (the superinstruction candidates), the
//! synchronization-event mix, and per-thread dispatch-batch shapes, and
//! folds them into a [`SimProfile`] that serializes to deterministic JSON —
//! committed under `results/` so the optimization stays data-driven and
//! regression-visible.

use rppm_trace::op::NUM_OP_CLASSES;
use rppm_trace::{MicroOp, OpClass, SyncMix, SyncOp};

/// Observation hook for the simulation engine's dispatch loop.
///
/// Every consumed op batch and synchronization event is reported. All
/// methods have empty default bodies; [`NoProbe`] relies on them so the
/// probed engine compiles down to the unprobed one.
pub trait SimProbe {
    /// Called after the engine dispatched `ops` (a consumed prefix of a
    /// trace block) on `thread`.
    #[inline]
    fn on_ops(&mut self, thread: usize, ops: &[MicroOp]) {
        let _ = (thread, ops);
    }

    /// Called when `thread` consumes the synchronization event `op`
    /// (before it blocks or resumes other threads).
    #[inline]
    fn on_sync(&mut self, thread: usize, op: &SyncOp) {
        let _ = (thread, op);
    }

    /// Called once per thread after the whole program finished, with the
    /// core's dispatch statistics: total dispatch actions taken and how
    /// many of them were fused superinstruction pairs.
    #[inline]
    fn on_thread_finish(&mut self, thread: usize, dispatches: u64, fused_pairs: u64) {
        let _ = (thread, dispatches, fused_pairs);
    }
}

/// The disabled probe: every hook is an empty `#[inline]` default, so the
/// engine generic over it is exactly as fast as one with no hooks at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProbe;

impl SimProbe for NoProbe {}

/// Per-thread dispatch-batch shape statistics.
///
/// A *run* is one uninterrupted op batch handed to the core model (a
/// consumed prefix of a zero-copy trace block, bounded by block ends, sync
/// events and quantum expiry) — exactly the unit the superinstruction
/// fuser works within.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ThreadShape {
    /// Micro-ops dispatched on this thread.
    pub ops: u64,
    /// Dispatch batches (runs) observed.
    pub runs: u64,
    /// Longest single run in ops.
    pub longest_run: u64,
    /// Synchronization events consumed.
    pub syncs: u64,
}

/// Aggregated self-profile of one (or many merged) simulation runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimProfile {
    /// Executed micro-ops per [`OpClass`] (indexed by [`OpClass::index`]).
    pub op_freq: [u64; NUM_OP_CLASSES],
    /// Dynamic op-pair histogram: `pairs[a][b]` counts op of class `b`
    /// immediately following class `a` on the same thread. Adjacency is
    /// tracked across dispatch batches and reset at synchronization events
    /// (a sync breaks any fusion opportunity).
    pub pairs: [[u64; NUM_OP_CLASSES]; NUM_OP_CLASSES],
    /// Synchronization-event mix.
    pub sync: SyncMix,
    /// Per-thread dispatch-batch shapes.
    pub threads: Vec<ThreadShape>,
    /// Dispatch actions taken by the cores (a fused pair is one action).
    pub dispatches: u64,
    /// Superinstruction pairs handled in a single dispatch.
    pub fused_pairs: u64,
}

impl Default for SimProfile {
    fn default() -> Self {
        SimProfile {
            op_freq: [0; NUM_OP_CLASSES],
            pairs: [[0; NUM_OP_CLASSES]; NUM_OP_CLASSES],
            sync: SyncMix::default(),
            threads: Vec::new(),
            dispatches: 0,
            fused_pairs: 0,
        }
    }
}

impl SimProfile {
    /// Total executed micro-ops.
    pub fn total_ops(&self) -> u64 {
        self.op_freq.iter().sum()
    }

    /// Fraction of ops retired through a fused pair dispatch.
    pub fn fused_fraction(&self) -> f64 {
        let ops = self.total_ops();
        if ops == 0 {
            0.0
        } else {
            (2 * self.fused_pairs) as f64 / ops as f64
        }
    }

    /// Dispatch reduction achieved by fusion: `1 - dispatches / ops`.
    pub fn dispatch_reduction(&self) -> f64 {
        let ops = self.total_ops();
        if ops == 0 {
            0.0
        } else {
            1.0 - self.dispatches as f64 / ops as f64
        }
    }

    /// The `n` most frequent dynamic op pairs, most frequent first.
    /// Zero-count pairs are omitted; ties break in class-index order so the
    /// listing is deterministic.
    pub fn top_pairs(&self, n: usize) -> Vec<(OpClass, OpClass, u64)> {
        let mut v: Vec<(OpClass, OpClass, u64)> = Vec::new();
        for (a, row) in self.pairs.iter().enumerate() {
            for (b, &count) in row.iter().enumerate() {
                if count > 0 {
                    v.push((OpClass::ALL[a], OpClass::ALL[b], count));
                }
            }
        }
        v.sort_by(|x, y| {
            y.2.cmp(&x.2)
                .then(x.0.index().cmp(&y.0.index()))
                .then(x.1.index().cmp(&y.1.index()))
        });
        v.truncate(n);
        v
    }

    /// Folds another profile into this one (catalog-wide aggregation).
    /// Thread shapes merge index-wise.
    pub fn merge(&mut self, other: &SimProfile) {
        for (a, b) in self.op_freq.iter_mut().zip(other.op_freq.iter()) {
            *a += b;
        }
        for (ra, rb) in self.pairs.iter_mut().zip(other.pairs.iter()) {
            for (a, b) in ra.iter_mut().zip(rb.iter()) {
                *a += b;
            }
        }
        self.sync.add(&other.sync);
        if self.threads.len() < other.threads.len() {
            self.threads
                .resize(other.threads.len(), ThreadShape::default());
        }
        for (t, o) in self.threads.iter_mut().zip(other.threads.iter()) {
            t.ops += o.ops;
            t.runs += o.runs;
            t.longest_run = t.longest_run.max(o.longest_run);
            t.syncs += o.syncs;
        }
        self.dispatches += other.dispatches;
        self.fused_pairs += other.fused_pairs;
    }

    /// Serializes the profile to a deterministic JSON object (stable key
    /// order, zero-count pairs omitted).
    pub fn to_json_string(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1024);
        s.push('{');
        let _ = write!(s, "\"ops\":{}", self.total_ops());
        let _ = write!(s, ",\"dispatches\":{}", self.dispatches);
        let _ = write!(s, ",\"fused_pairs\":{}", self.fused_pairs);
        s.push_str(",\"op_freq\":{");
        for (k, class) in OpClass::ALL.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{class}\":{}", self.op_freq[k]);
        }
        s.push('}');
        s.push_str(",\"pairs\":[");
        let mut first = true;
        for (a, row) in self.pairs.iter().enumerate() {
            for (b, &count) in row.iter().enumerate() {
                if count > 0 {
                    if !first {
                        s.push(',');
                    }
                    first = false;
                    let _ = write!(
                        s,
                        "{{\"first\":\"{}\",\"second\":\"{}\",\"count\":{count}}}",
                        OpClass::ALL[a],
                        OpClass::ALL[b]
                    );
                }
            }
        }
        s.push(']');
        let m = &self.sync;
        let _ = write!(
            s,
            ",\"sync\":{{\"creates\":{},\"joins\":{},\"barriers\":{},\"cond_barriers\":{},\
             \"locks\":{},\"unlocks\":{},\"produces\":{},\"consumes\":{}}}",
            m.creates,
            m.joins,
            m.barriers,
            m.cond_barriers,
            m.locks,
            m.unlocks,
            m.produces,
            m.consumes
        );
        s.push_str(",\"threads\":[");
        for (k, t) in self.threads.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"ops\":{},\"runs\":{},\"longest_run\":{},\"syncs\":{}}}",
                t.ops, t.runs, t.longest_run, t.syncs
            );
        }
        s.push_str("]}");
        s
    }
}

/// A [`SimProbe`] that accumulates a [`SimProfile`].
#[derive(Debug, Default)]
pub struct ProfileCollector {
    profile: SimProfile,
    /// Class index of the previous op on each thread (`NUM_OP_CLASSES` =
    /// none: start of thread or just past a sync event).
    last: Vec<u8>,
}

impl ProfileCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    fn shape(&mut self, thread: usize) -> &mut ThreadShape {
        if self.profile.threads.len() <= thread {
            self.profile
                .threads
                .resize(thread + 1, ThreadShape::default());
            self.last.resize(thread + 1, NUM_OP_CLASSES as u8);
        }
        &mut self.profile.threads[thread]
    }

    /// Consumes the collector, returning the accumulated profile.
    pub fn into_profile(self) -> SimProfile {
        self.profile
    }
}

impl SimProbe for ProfileCollector {
    fn on_ops(&mut self, thread: usize, ops: &[MicroOp]) {
        if ops.is_empty() {
            return;
        }
        let shape = self.shape(thread);
        shape.ops += ops.len() as u64;
        shape.runs += 1;
        shape.longest_run = shape.longest_run.max(ops.len() as u64);
        let mut prev = self.last[thread] as usize;
        for op in ops {
            let c = op.class.index();
            self.profile.op_freq[c] += 1;
            if prev < NUM_OP_CLASSES {
                self.profile.pairs[prev][c] += 1;
            }
            prev = c;
        }
        self.last[thread] = prev as u8;
    }

    fn on_sync(&mut self, thread: usize, op: &SyncOp) {
        self.shape(thread).syncs += 1;
        self.last[thread] = NUM_OP_CLASSES as u8;
        self.profile.sync.record(op);
    }

    fn on_thread_finish(&mut self, thread: usize, dispatches: u64, fused_pairs: u64) {
        self.shape(thread);
        self.profile.dispatches += dispatches;
        self.profile.fused_pairs += fused_pairs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(class: OpClass) -> MicroOp {
        MicroOp::compute(class, 0, 0)
    }

    #[test]
    fn collector_counts_freq_and_pairs() {
        let mut c = ProfileCollector::new();
        c.on_ops(
            0,
            &[op(OpClass::IntAlu), op(OpClass::IntAlu), op(OpClass::Load)],
        );
        // Adjacency chains across batches on the same thread...
        c.on_ops(0, &[op(OpClass::Store)]);
        // ...but not across threads.
        c.on_ops(1, &[op(OpClass::Branch)]);
        let p = c.into_profile();
        assert_eq!(p.total_ops(), 5);
        assert_eq!(p.op_freq[OpClass::IntAlu.index()], 2);
        assert_eq!(p.pairs[OpClass::IntAlu.index()][OpClass::IntAlu.index()], 1);
        assert_eq!(p.pairs[OpClass::IntAlu.index()][OpClass::Load.index()], 1);
        assert_eq!(p.pairs[OpClass::Load.index()][OpClass::Store.index()], 1);
        let branch_row: u64 = p.pairs.iter().map(|r| r[OpClass::Branch.index()]).sum();
        assert_eq!(branch_row, 0, "first op of a thread has no predecessor");
        assert_eq!(p.threads.len(), 2);
        assert_eq!(p.threads[0].runs, 2);
        assert_eq!(p.threads[0].longest_run, 3);
    }

    #[test]
    fn sync_resets_adjacency_and_counts_mix() {
        let mut c = ProfileCollector::new();
        c.on_ops(0, &[op(OpClass::IntAlu)]);
        c.on_sync(
            0,
            &SyncOp::Barrier {
                id: rppm_trace::BarrierId(0),
                via_cond: false,
            },
        );
        c.on_ops(0, &[op(OpClass::IntAlu)]);
        let p = c.into_profile();
        assert_eq!(p.sync.barriers, 1);
        assert_eq!(p.threads[0].syncs, 1);
        assert_eq!(
            p.pairs[OpClass::IntAlu.index()][OpClass::IntAlu.index()],
            0,
            "sync must break adjacency"
        );
    }

    #[test]
    fn top_pairs_sorted_and_deterministic() {
        let mut p = SimProfile::default();
        p.pairs[0][6] = 10;
        p.pairs[6][0] = 10;
        p.pairs[3][4] = 99;
        let top = p.top_pairs(2);
        assert_eq!(top[0], (OpClass::FpAdd, OpClass::FpMul, 99));
        // Tie at 10: class-index order picks (IntAlu, Load) first.
        assert_eq!(top[1], (OpClass::IntAlu, OpClass::Load, 10));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SimProfile::default();
        a.op_freq[0] = 5;
        a.dispatches = 5;
        a.threads.push(ThreadShape {
            ops: 5,
            runs: 1,
            longest_run: 5,
            syncs: 0,
        });
        let mut b = SimProfile::default();
        b.op_freq[0] = 3;
        b.fused_pairs = 1;
        b.dispatches = 2;
        b.threads = vec![ThreadShape::default(), ThreadShape::default()];
        a.merge(&b);
        assert_eq!(a.op_freq[0], 8);
        assert_eq!(a.dispatches, 7);
        assert_eq!(a.fused_pairs, 1);
        assert_eq!(a.threads.len(), 2);
    }

    #[test]
    fn json_is_deterministic_and_parseable_shape() {
        let mut c = ProfileCollector::new();
        c.on_ops(0, &[op(OpClass::IntAlu), op(OpClass::Load)]);
        c.on_thread_finish(0, 2, 0);
        let p = c.into_profile();
        let s = p.to_json_string();
        assert_eq!(s, p.to_json_string());
        assert!(s.starts_with("{\"ops\":2,"));
        assert!(s.contains("\"op_freq\":{\"int\":1,"));
        assert!(s.contains("\"first\":\"int\",\"second\":\"load\",\"count\":1"));
        assert!(s.contains("\"sync\":{\"creates\":0,"));
        assert!(s.ends_with("]}"));
    }

    #[test]
    fn noprobe_is_inert() {
        let mut p = NoProbe;
        p.on_ops(0, &[op(OpClass::IntAlu)]);
        p.on_sync(
            0,
            &SyncOp::Lock {
                id: rppm_trace::MutexId(0),
            },
        );
        p.on_thread_finish(0, 1, 0);
    }
}
