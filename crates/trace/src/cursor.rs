//! Streaming traversal of a thread's dynamic instruction stream.
//!
//! A [`ThreadCursor`] expands the parametric blocks of one [`ThreadScript`]
//! into micro-ops on the fly, one cache-sized chunk at a time, and lends
//! each chunk out as a zero-copy slice. It is the one way the profiler and
//! both simulator engines walk a workload: they peek a run of ops or the
//! next synchronization event, execute it, and say how far they got.

use crate::block::BlockExpander;
use crate::op::MicroOp;
use crate::program::{Segment, ThreadScript};
use crate::sync::SyncOp;

/// Micro-ops expanded per refill of the cursor's buffer.
///
/// 1024 ops x 32 B/op = 32 KB — one chunk stays resident in the host L1/L2
/// while the simulator walks it. Whole-block expansion of the multi-ten-
/// thousand-op epoch blocks real workloads use writes hundreds of KB per
/// block; with eight thread cursors interleaved per scheduling quantum that
/// round-trips every op through host DRAM between expansion and simulation.
const EXPAND_CHUNK: usize = 1024;

/// A zero-copy view of the next run of items under a [`ThreadCursor`].
///
/// `BlockItem::Ops` borrows a *run of unconsumed micro-ops* of the current
/// block directly from the cursor's expansion buffer: consumers iterate the
/// slice in a tight loop and then tell the cursor how far they got with
/// [`ThreadCursor::consume_ops`]. The run covers at most one expansion
/// chunk, so a large block is lent as several successive slices.
#[derive(Debug, PartialEq)]
pub enum BlockItem<'c> {
    /// A run of unconsumed micro-ops of the current block (never empty).
    Ops(&'c [MicroOp]),
    /// A synchronization event (consume with
    /// [`ThreadCursor::consume_sync`]).
    Sync(SyncOp),
}

/// Streaming cursor over one thread's dynamic stream.
///
/// Blocks of a [`ThreadScript`] are expanded deterministically in
/// cache-sized chunks (`EXPAND_CHUNK` ops) into an internal buffer, so
/// traversing a multi-million-op thread costs O(chunk) memory. The stream
/// is walked with [`ThreadCursor::peek_block`], which lends out a run of
/// unconsumed micro-ops as a slice or the pending synchronization event,
/// and [`ThreadCursor::consume_ops`] / [`ThreadCursor::consume_sync`],
/// which advance past them.
///
/// # Example
///
/// ```
/// use rppm_trace::{BlockItem, BlockSpec, Program, Segment, ThreadCursor};
///
/// let mut p = Program::new("demo", 1);
/// p.threads[0].segments = vec![Segment::Block(BlockSpec::new(3, 1))];
/// let mut cur = ThreadCursor::new(&p.threads[0]);
/// let mut ops = 0;
/// while let Some(item) = cur.peek_block() {
///     match item {
///         BlockItem::Ops(run) => {
///             let n = run.len();
///             ops += n;
///             cur.consume_ops(n);
///         }
///         BlockItem::Sync(_) => cur.consume_sync(),
///     }
/// }
/// assert_eq!(ops, 3);
/// ```
#[derive(Debug)]
pub struct ThreadCursor<'p> {
    script: &'p ThreadScript,
    seg: usize,
    /// Streaming expander for `segments[seg]`, carried across chunk refills.
    expander: Option<BlockExpander<'p>>,
    buf: Vec<MicroOp>,
    buf_pos: usize,
    /// Whether `buf` holds an unconsumed chunk of `segments[seg]`.
    filled: bool,
    ops_consumed: u64,
}

impl<'p> ThreadCursor<'p> {
    /// Creates a cursor positioned at the start of `script`.
    pub fn new(script: &'p ThreadScript) -> Self {
        ThreadCursor {
            script,
            seg: 0,
            expander: None,
            buf: Vec::new(),
            buf_pos: 0,
            filled: false,
            ops_consumed: 0,
        }
    }

    /// Skips empty blocks and materializes the current chunk if needed.
    fn ensure(&mut self) {
        let script = self.script;
        loop {
            match script.segments.get(self.seg) {
                Some(Segment::Block(b)) => {
                    if b.ops == 0 {
                        self.seg += 1;
                        self.filled = false;
                        continue;
                    }
                    if !self.filled {
                        let e = self.expander.get_or_insert_with(|| b.expander());
                        self.buf.clear();
                        self.buf_pos = 0;
                        e.expand_chunk(&mut self.buf, EXPAND_CHUNK);
                        self.filled = true;
                    }
                    return;
                }
                Some(Segment::Sync(_)) | None => return,
            }
        }
    }

    /// Returns a run of unconsumed micro-ops of the current block as a
    /// borrowed slice, the pending synchronization event, or `None` at end
    /// of stream.
    ///
    /// An `Ops` slice is never empty, but may cover only part of the block
    /// (one expansion chunk); the following peek lends the next run. Consume
    /// it (fully or partially) with [`ThreadCursor::consume_ops`]; consume a
    /// `Sync` item with [`ThreadCursor::consume_sync`]. Peeking repeatedly
    /// without consuming returns the same view.
    pub fn peek_block(&mut self) -> Option<BlockItem<'_>> {
        self.ensure();
        match self.script.segments.get(self.seg) {
            Some(Segment::Block(_)) => Some(BlockItem::Ops(&self.buf[self.buf_pos..])),
            Some(Segment::Sync(op)) => Some(BlockItem::Sync(*op)),
            None => None,
        }
    }

    /// Advances past `n` micro-ops of the current block.
    ///
    /// `n` must not exceed the length of the `Ops` slice the latest
    /// [`ThreadCursor::peek_block`] returned; consuming the whole slice
    /// moves the cursor to the next run.
    pub fn consume_ops(&mut self, n: usize) {
        debug_assert!(
            self.filled && self.buf_pos + n <= self.buf.len(),
            "consume_ops({n}) without a matching peek_block"
        );
        self.ops_consumed += n as u64;
        self.buf_pos += n;
        if self.buf_pos >= self.buf.len() {
            self.filled = false;
            // Advance to the next segment only once the expander is drained;
            // otherwise the next ensure() refills the buffer with the
            // block's next chunk.
            if self.expander.as_ref().is_none_or(|e| e.remaining() == 0) {
                self.expander = None;
                self.seg += 1;
            }
        }
    }

    /// Advances past the pending synchronization event.
    ///
    /// Must only be called after [`ThreadCursor::peek_block`] returned
    /// [`BlockItem::Sync`].
    pub fn consume_sync(&mut self) {
        debug_assert!(
            matches!(self.script.segments.get(self.seg), Some(Segment::Sync(_))),
            "consume_sync without a pending sync event"
        );
        self.seg += 1;
        self.filled = false;
    }

    /// Number of micro-ops consumed so far.
    pub fn ops_consumed(&self) -> u64 {
        self.ops_consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockSpec;
    use crate::sync::{BarrierId, SyncOp};

    fn script(items: Vec<Segment>) -> ThreadScript {
        ThreadScript { segments: items }
    }

    fn barrier() -> Segment {
        Segment::Sync(SyncOp::Barrier {
            id: BarrierId(0),
            via_cond: false,
        })
    }

    /// Walks the whole stream, consuming every run in full.
    fn drain(c: &mut ThreadCursor<'_>) -> (Vec<MicroOp>, Vec<SyncOp>) {
        let mut ops = Vec::new();
        let mut syncs = Vec::new();
        while let Some(item) = c.peek_block() {
            match item {
                BlockItem::Ops(run) => {
                    assert!(!run.is_empty(), "Ops runs are never empty");
                    ops.extend_from_slice(run);
                    let n = run.len();
                    c.consume_ops(n);
                }
                BlockItem::Sync(op) => {
                    syncs.push(op);
                    c.consume_sync();
                }
            }
        }
        (ops, syncs)
    }

    #[test]
    fn walks_ops_then_sync() {
        let s = script(vec![
            Segment::Block(BlockSpec::new(2, 1)),
            barrier(),
            Segment::Block(BlockSpec::new(1, 2)),
        ]);
        let mut c = ThreadCursor::new(&s);
        let (ops, syncs) = drain(&mut c);
        assert_eq!(ops.len(), 3);
        assert_eq!(syncs.len(), 1);
        assert_eq!(c.peek_block(), None);
        assert_eq!(c.ops_consumed(), 3);
    }

    #[test]
    fn empty_script_is_at_end() {
        let s = script(vec![]);
        let mut c = ThreadCursor::new(&s);
        assert_eq!(c.peek_block(), None);
        assert_eq!(c.ops_consumed(), 0);
    }

    #[test]
    fn zero_op_blocks_are_skipped() {
        let s = script(vec![Segment::Block(BlockSpec::new(0, 1)), barrier()]);
        let mut c = ThreadCursor::new(&s);
        assert!(matches!(c.peek_block(), Some(BlockItem::Sync(_))));
        c.consume_sync();
        assert_eq!(c.peek_block(), None);
    }

    #[test]
    fn trailing_zero_block_still_ends() {
        let s = script(vec![barrier(), Segment::Block(BlockSpec::new(0, 1))]);
        let mut c = ThreadCursor::new(&s);
        c.consume_sync();
        assert_eq!(c.peek_block(), None);
    }

    #[test]
    fn stream_matches_direct_expansion() {
        let blocks = [
            BlockSpec::new(100, 9).loads(0.2).branches(0.1),
            BlockSpec::new(33, 4),
            BlockSpec::new(7, 5),
        ];
        let direct: Vec<MicroOp> = blocks.iter().flat_map(BlockSpec::expand).collect();
        let s = script(vec![
            Segment::Block(blocks[0].clone()),
            barrier(),
            Segment::Block(blocks[1].clone()),
            Segment::Block(blocks[2].clone()),
        ]);
        let (streamed, syncs) = drain(&mut ThreadCursor::new(&s));
        assert_eq!(streamed, direct);
        assert_eq!(syncs.len(), 1);
    }

    #[test]
    fn peek_block_lends_remaining_ops() {
        let s = script(vec![Segment::Block(BlockSpec::new(10, 1)), barrier()]);
        let mut c = ThreadCursor::new(&s);
        let Some(BlockItem::Ops(ops)) = c.peek_block() else {
            panic!("expected ops");
        };
        assert_eq!(ops.len(), 10);
        c.consume_ops(4);
        let Some(BlockItem::Ops(rest)) = c.peek_block() else {
            panic!("expected remaining ops");
        };
        assert_eq!(rest.len(), 6);
        c.consume_ops(6);
        assert_eq!(c.ops_consumed(), 10);
        assert!(matches!(c.peek_block(), Some(BlockItem::Sync(_))));
        c.consume_sync();
        assert_eq!(c.peek_block(), None);
    }

    #[test]
    fn partial_consume_splits_blocks_consistently() {
        let b = BlockSpec::new(50, 3).loads(0.3);
        let direct = b.expand();
        let s = script(vec![Segment::Block(b)]);
        let mut c = ThreadCursor::new(&s);
        let mut streamed = Vec::new();
        // Consume in ragged chunks (1, 2, 3, ... ops at a time).
        let mut chunk = 1;
        while let Some(BlockItem::Ops(ops)) = c.peek_block() {
            let take = chunk.min(ops.len());
            streamed.extend_from_slice(&ops[..take]);
            c.consume_ops(take);
            chunk += 1;
        }
        assert_eq!(streamed, direct);
        assert_eq!(c.peek_block(), None);
    }

    #[test]
    fn chunked_block_streams_identically() {
        // Block larger than one expansion chunk: the cursor must lend it as
        // several runs whose concatenation equals the direct expansion.
        let b = BlockSpec::new(EXPAND_CHUNK as u32 * 3 + 17, 11)
            .loads(0.3)
            .stores(0.1)
            .branches(0.1);
        let direct = b.expand();
        let s = script(vec![Segment::Block(b), barrier()]);
        let mut c = ThreadCursor::new(&s);
        let mut streamed = Vec::new();
        let mut runs = 0;
        while let Some(BlockItem::Ops(ops)) = c.peek_block() {
            assert!(ops.len() <= EXPAND_CHUNK);
            streamed.extend_from_slice(ops);
            let n = ops.len();
            c.consume_ops(n);
            runs += 1;
        }
        assert!(runs >= 4, "expected several chunk runs, got {runs}");
        assert_eq!(streamed, direct);
        assert_eq!(c.ops_consumed(), direct.len() as u64);
        assert!(matches!(c.peek_block(), Some(BlockItem::Sync(_))));
    }

    #[test]
    fn consecutive_blocks_both_stream() {
        let s = script(vec![
            Segment::Block(BlockSpec::new(10, 1)),
            Segment::Block(BlockSpec::new(20, 2)),
        ]);
        let (ops, syncs) = drain(&mut ThreadCursor::new(&s));
        assert_eq!(ops.len(), 30);
        assert!(syncs.is_empty());
    }
}
