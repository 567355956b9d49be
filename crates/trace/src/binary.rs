//! Versioned binary streaming trace container (`RPT1`).
//!
//! The JSON interchange format ([`crate::file`]) is the human-auditable way
//! to move traces between tools; this module is its high-volume sibling: a
//! compact, length-prefixed binary container designed to be **streamed** —
//! written and read section by section, so neither side ever materializes
//! more than one section of the trace in memory. At op-level stream sizes
//! (the multi-GB traces the roadmap targets) that is the difference between
//! "works" and "OOM".
//!
//! # Layout
//!
//! ```text
//! magic    4 bytes   "RPT1"
//! version  varint    container schema version (1, 2 or 3)
//! sections repeated  [tag: varint][len: varint][payload: len bytes]
//! ```
//!
//! Three section kinds exist in every version:
//!
//! | tag | name   | payload |
//! |-----|--------|---------|
//! | 1   | header | workload name (varint length + UTF-8), thread count (varint) |
//! | 2   | ops    | thread id (varint), segment count (varint), segment records |
//! | 3   | end    | total segment count across all ops sections (varint) |
//!
//! Version 3 adds three *op-stream* section kinds carrying the recorded
//! raw [`MicroOp`](crate::MicroOp) stream (see [`crate::ops`] for their
//! payload encodings and the recorder):
//!
//! | tag | name    | payload |
//! |-----|---------|---------|
//! | 4   | op-run  | thread id (varint), op count (varint), encoded micro-ops |
//! | 5   | op-sync | thread id (varint), one encoded synchronization event |
//! | 6   | op-meta | op-section count, total ops, total syncs, per-thread op counts (varints) |
//!
//! The header section must come first, exactly once; the end section must
//! come last and is followed by nothing (trailing bytes are rejected). A
//! file that stops before its end section is reliably detected as
//! [`TraceFileError::Truncated`] — every section is length-prefixed, so a
//! partial write can never be misread as a complete trace.
//!
//! These rules, and the per-section checks (thread ids in range, no empty
//! segment or `op-run` sections, no excess bytes in the fixed-layout
//! sections, op-stream totals that match the `op-meta` section, an end
//! count that matches the segments), are applied by one section walker,
//! [`TraceReader`]. Every reader goes through it — [`read_program_any`],
//! [`read_program_stream`], [`import_program_binary`] and
//! [`container_info`] — so a container gets one verdict whichever reader
//! sees it. No reader decodes the recorded micro-ops; the profiler and the
//! simulators execute the program sections.
//!
//! Segment records use **varint** (LEB128) encoding for integers and
//! **delta + zigzag** encoding for the address-like fields that grow
//! monotonically across a thread's stream: data-region base addresses,
//! instruction-line bases (PCs) and branch-site bases are each encoded as
//! the signed difference from the previous value *in the same thread*.
//! Model fractions/probabilities are stored as 8-byte little-endian IEEE
//! doubles (their bit patterns do not compress under varint). In versions
//! 1 and 2 the per-thread delta state persists across sections, so a long
//! thread split over many ops sections costs nothing extra; version 3
//! resets it at every section boundary instead, which costs a few bytes
//! per section. The reset is part of the version-3 format and is kept for
//! compatibility with the files already written; readers reset
//! symmetrically.
//!
//! # Versioning policy
//!
//! Same contract as the JSON format: within a version the container only
//! changes additively (new segment tags bump the version, because an old
//! reader cannot skip content it does not understand and still guarantee a
//! faithful program). Readers accept versions 1 through
//! [`BINARY_TRACE_VERSION`]; newer files fail with
//! [`TraceFileError::UnsupportedVersion`]. Writers emit the *smallest*
//! version able to carry the program — a trace without version-2 events
//! (reader-writer locks, semaphores) is byte-identical to what a version-1
//! tool would have written, and version 3 is only emitted when op streams
//! are recorded. The version-2 segment tags are rejected as
//! [`TraceFileError::Corrupt`] when they appear in a stream that declares
//! version 1, and the version-3 op-stream section tags are rejected the
//! same way in streams declaring version 1 or 2.
//!
//! # Example
//!
//! ```
//! use rppm_trace::{export_program_binary, import_program_binary};
//! use rppm_trace::{BlockSpec, ProgramBuilder};
//!
//! let mut b = ProgramBuilder::new("demo", 2);
//! b.spawn_workers();
//! b.thread(1u32).block(BlockSpec::new(1_000, 7).loads(0.2));
//! b.join_workers();
//! let program = b.build();
//!
//! let bytes = export_program_binary(&program).expect("serializes");
//! assert_eq!(&bytes[..4], b"RPT1");
//! let back = import_program_binary(&bytes).expect("round-trips");
//! assert_eq!(program, back);
//! ```

use crate::block::BlockSpec;
use crate::file::{self, TraceFileError};
use crate::pattern::{AddressPattern, BranchPattern, Region};
use crate::program::{Program, Segment, ThreadScript};
use crate::sync::SyncOp;
use std::io::{Read, Write};
use std::path::Path;

/// The four magic bytes opening every binary trace file.
pub const BINARY_TRACE_MAGIC: [u8; 4] = *b"RPT1";

/// Newest container schema version this build understands. Readers accept
/// versions `1..=BINARY_TRACE_VERSION`; whole-program writers emit the
/// smallest version able to carry the program (see
/// [`Program::format_version`]).
pub const BINARY_TRACE_VERSION: u32 = 3;

/// First container version that resets delta chains at every section
/// boundary and may carry op-stream sections.
pub(crate) const OPS_MIN_VERSION: u32 = 3;

/// Maximum segments buffered into one ops section before the writer
/// flushes. Bounds writer and reader memory to O(section), not O(program).
const SECTION_SEGMENTS: u64 = 256;

/// Upper bound on a declared section payload size. A corrupt length prefix
/// must not make the reader allocate unbounded memory.
const MAX_SECTION_BYTES: u64 = 1 << 26; // 64 MiB

/// Upper bound on a declared thread count, for the same reason: the reader
/// allocates per-thread state up front, and a corrupt header must not turn
/// that into an unbounded allocation.
const MAX_THREADS: u64 = 1 << 20;

const TAG_HEADER: u64 = 1;
const TAG_OPS: u64 = 2;
const TAG_END: u64 = 3;
// Version-3 op-stream section tags; invalid in streams declaring 1 or 2.
pub(crate) const TAG_OP_RUN: u64 = 4;
pub(crate) const TAG_OP_SYNC: u64 = 5;
pub(crate) const TAG_OP_META: u64 = 6;

const SEG_BLOCK: u8 = 0;
const SEG_CREATE: u8 = 1;
const SEG_JOIN: u8 = 2;
const SEG_BARRIER: u8 = 3;
const SEG_LOCK: u8 = 4;
const SEG_UNLOCK: u8 = 5;
const SEG_PRODUCE: u8 = 6;
const SEG_CONSUME: u8 = 7;
// Version-2 segment tags; invalid in a stream that declares version 1.
const SEG_RWLOCK: u8 = 8;
const SEG_RWUNLOCK: u8 = 9;
const SEG_SEMWAIT: u8 = 10;
const SEG_SEMPOST: u8 = 11;

/// Smallest container version able to carry `seg`.
fn segment_min_version(seg: &Segment) -> u32 {
    match seg {
        Segment::Block(_) => 1,
        Segment::Sync(op) => op.min_format_version(),
    }
}

const ADDR_STREAM: u8 = 0;
const ADDR_RANDOM: u8 = 1;
const ADDR_HOT: u8 = 2;

const BRANCH_LOOP: u8 = 0;
const BRANCH_BERNOULLI: u8 = 1;
const BRANCH_PERIODIC: u8 = 2;

// ---------------------------------------------------------------------------
// varint / zigzag primitives

pub(crate) fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes `new` as a zigzag delta against `prev` (wrapping, so the full
/// `u64` domain round-trips) and updates `prev`.
pub(crate) fn push_delta(buf: &mut Vec<u8>, prev: &mut u64, new: u64) {
    push_varint(buf, zigzag(new.wrapping_sub(*prev) as i64));
    *prev = new;
}

fn push_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

// ---------------------------------------------------------------------------
// Per-thread delta state (shared by writer and reader so they stay in sync)

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DeltaState {
    region_base: u64,
    code_base: u64,
    site_base: u64,
}

// ---------------------------------------------------------------------------
// Segment encoding

fn encode_region(buf: &mut Vec<u8>, d: &mut DeltaState, r: &Region) {
    push_delta(buf, &mut d.region_base, r.base);
    push_varint(buf, r.lines);
}

fn encode_addr_pattern(buf: &mut Vec<u8>, d: &mut DeltaState, p: &AddressPattern) {
    match p {
        AddressPattern::Stream {
            region,
            stride,
            repeats_per_line,
            start,
        } => {
            buf.push(ADDR_STREAM);
            encode_region(buf, d, region);
            push_varint(buf, *stride);
            push_varint(buf, *repeats_per_line as u64);
            push_varint(buf, *start);
        }
        AddressPattern::Random { region } => {
            buf.push(ADDR_RANDOM);
            encode_region(buf, d, region);
        }
        AddressPattern::Hot {
            region,
            hot_lines,
            p_hot,
        } => {
            buf.push(ADDR_HOT);
            encode_region(buf, d, region);
            push_varint(buf, *hot_lines);
            push_f64(buf, *p_hot);
        }
    }
}

fn encode_branch_pattern(buf: &mut Vec<u8>, p: &BranchPattern) {
    match p {
        BranchPattern::Loop { period } => {
            buf.push(BRANCH_LOOP);
            push_varint(buf, *period as u64);
        }
        BranchPattern::Bernoulli { p_taken } => {
            buf.push(BRANCH_BERNOULLI);
            push_f64(buf, *p_taken);
        }
        BranchPattern::Periodic { bits, len } => {
            buf.push(BRANCH_PERIODIC);
            push_varint(buf, *bits);
            buf.push(*len);
        }
    }
}

pub(crate) fn encode_segment(buf: &mut Vec<u8>, d: &mut DeltaState, seg: &Segment) {
    match seg {
        Segment::Block(b) => {
            buf.push(SEG_BLOCK);
            push_varint(buf, b.ops as u64);
            push_varint(buf, b.seed);
            for f in [
                b.f_load,
                b.f_store,
                b.f_branch,
                b.f_fp_add,
                b.f_fp_mul,
                b.f_fp_div,
                b.f_int_mul,
                b.f_int_div,
                b.p_dep,
                b.dep_mean,
                b.p_dep2,
                b.p_load_chain,
            ] {
                push_f64(buf, f);
            }
            push_varint(buf, b.n_sites as u64);
            push_delta(buf, &mut d.site_base, b.site_base as u64);
            push_varint(buf, b.code_lines);
            push_delta(buf, &mut d.code_base, b.code_base);
            push_varint(buf, b.addr.len() as u64);
            for (p, w) in &b.addr {
                encode_addr_pattern(buf, d, p);
                push_f64(buf, *w);
            }
            push_varint(buf, b.store_addr.len() as u64);
            for (p, w) in &b.store_addr {
                encode_addr_pattern(buf, d, p);
                push_f64(buf, *w);
            }
            encode_branch_pattern(buf, &b.branch);
        }
        Segment::Sync(op) => match op {
            SyncOp::Create { child } => {
                buf.push(SEG_CREATE);
                push_varint(buf, child.0 as u64);
            }
            SyncOp::Join { child } => {
                buf.push(SEG_JOIN);
                push_varint(buf, child.0 as u64);
            }
            SyncOp::Barrier { id, via_cond } => {
                buf.push(SEG_BARRIER);
                push_varint(buf, id.0 as u64);
                buf.push(*via_cond as u8);
            }
            SyncOp::Lock { id } => {
                buf.push(SEG_LOCK);
                push_varint(buf, id.0 as u64);
            }
            SyncOp::Unlock { id } => {
                buf.push(SEG_UNLOCK);
                push_varint(buf, id.0 as u64);
            }
            SyncOp::Produce { queue, count } => {
                buf.push(SEG_PRODUCE);
                push_varint(buf, queue.0 as u64);
                push_varint(buf, *count as u64);
            }
            SyncOp::Consume { queue } => {
                buf.push(SEG_CONSUME);
                push_varint(buf, queue.0 as u64);
            }
            SyncOp::RwLock { id, write } => {
                buf.push(SEG_RWLOCK);
                push_varint(buf, id.0 as u64);
                buf.push(*write as u8);
            }
            SyncOp::RwUnlock { id } => {
                buf.push(SEG_RWUNLOCK);
                push_varint(buf, id.0 as u64);
            }
            SyncOp::SemWait { id } => {
                buf.push(SEG_SEMWAIT);
                push_varint(buf, id.0 as u64);
            }
            SyncOp::SemPost { id, count } => {
                buf.push(SEG_SEMPOST);
                push_varint(buf, id.0 as u64);
                push_varint(buf, *count as u64);
            }
        },
    }
}

// ---------------------------------------------------------------------------
// Streaming writer

/// Streaming binary trace writer.
///
/// Segments are appended one at a time with [`TraceWriter::write_segment`]
/// and flushed to the underlying sink in bounded, length-prefixed sections —
/// the whole program never exists in memory at once. [`TraceWriter::finish`]
/// seals the container with an end section carrying the total segment
/// count, which lets readers distinguish a complete trace from one cut off
/// at a section boundary.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    version: u32,
    num_threads: u32,
    deltas: Vec<DeltaState>,
    cur_thread: u32,
    buf: Vec<u8>,
    buf_segments: u64,
    total_segments: u64,
}

fn stream_err(context: &str, source: std::io::Error) -> TraceFileError {
    TraceFileError::Stream {
        context: context.to_string(),
        source,
    }
}

impl<W: Write> TraceWriter<W> {
    /// Starts a version-1 binary trace: writes the magic, version and
    /// header section. The container version is fixed at construction (it
    /// is the first thing on the wire), so streams that will carry
    /// version-2 events (reader-writer locks, semaphores) must be opened
    /// with [`TraceWriter::with_version`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError::Stream`] if the sink rejects the write.
    pub fn new(sink: W, name: &str, num_threads: u32) -> Result<Self, TraceFileError> {
        Self::with_version(sink, name, num_threads, 1)
    }

    /// Starts a binary trace with an explicit container `version`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError::Unserializable`] if `version` is outside
    /// `1..=BINARY_TRACE_VERSION`, and [`TraceFileError::Stream`] if the
    /// sink rejects the write.
    pub fn with_version(
        mut sink: W,
        name: &str,
        num_threads: u32,
        version: u32,
    ) -> Result<Self, TraceFileError> {
        if !(1..=BINARY_TRACE_VERSION).contains(&version) {
            return Err(TraceFileError::Unserializable {
                detail: format!(
                    "cannot write container version {version}; this build writes versions \
                     1 through {BINARY_TRACE_VERSION}"
                ),
            });
        }
        let mut head = Vec::with_capacity(16 + name.len());
        head.extend_from_slice(&BINARY_TRACE_MAGIC);
        push_varint(&mut head, version as u64);
        let mut payload = Vec::with_capacity(8 + name.len());
        push_varint(&mut payload, name.len() as u64);
        payload.extend_from_slice(name.as_bytes());
        push_varint(&mut payload, num_threads as u64);
        push_varint(&mut head, TAG_HEADER);
        push_varint(&mut head, payload.len() as u64);
        head.extend_from_slice(&payload);
        sink.write_all(&head)
            .map_err(|e| stream_err("writing the container header", e))?;
        Ok(TraceWriter {
            sink,
            version,
            num_threads,
            deltas: vec![DeltaState::default(); num_threads as usize],
            cur_thread: 0,
            buf: Vec::new(),
            buf_segments: 0,
            total_segments: 0,
        })
    }

    /// Container version this stream was opened with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Appends one segment of `thread`'s stream.
    ///
    /// Threads may be written in any order (each thread switch flushes the
    /// pending section), but segments of one thread must arrive in stream
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError::Corrupt`] if `thread` is outside the
    /// declared thread count, [`TraceFileError::Unserializable`] if the
    /// segment needs a newer container version than the stream was opened
    /// with, and [`TraceFileError::Stream`] on sink I/O failure.
    pub fn write_segment(&mut self, thread: u32, seg: &Segment) -> Result<(), TraceFileError> {
        if thread >= self.num_threads {
            return Err(TraceFileError::Corrupt {
                detail: format!(
                    "segment written for thread {thread}, but the header declares only \
                     {} threads",
                    self.num_threads
                ),
            });
        }
        let needs = segment_min_version(seg);
        if needs > self.version {
            return Err(TraceFileError::Unserializable {
                detail: format!(
                    "segment requires container version {needs} (reader-writer locks and \
                     semaphores are version-2 events), but this stream was opened as \
                     version {}; open the writer with TraceWriter::with_version",
                    self.version
                ),
            });
        }
        if thread != self.cur_thread || self.buf_segments >= SECTION_SEGMENTS {
            self.flush_section()?;
            self.cur_thread = thread;
        }
        encode_segment(&mut self.buf, &mut self.deltas[thread as usize], seg);
        self.buf_segments += 1;
        self.total_segments += 1;
        Ok(())
    }

    /// Appends a whole thread script (convenience over
    /// [`TraceWriter::write_segment`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TraceWriter::write_segment`].
    pub fn write_script(
        &mut self,
        thread: u32,
        script: &ThreadScript,
    ) -> Result<(), TraceFileError> {
        for seg in &script.segments {
            self.write_segment(thread, seg)?;
        }
        Ok(())
    }

    fn flush_section(&mut self) -> Result<(), TraceFileError> {
        if self.buf_segments == 0 {
            return Ok(());
        }
        let mut head = Vec::with_capacity(24);
        let mut prefix = Vec::with_capacity(12);
        push_varint(&mut prefix, self.cur_thread as u64);
        push_varint(&mut prefix, self.buf_segments);
        push_varint(&mut head, TAG_OPS);
        push_varint(&mut head, (prefix.len() + self.buf.len()) as u64);
        head.extend_from_slice(&prefix);
        self.sink
            .write_all(&head)
            .map_err(|e| stream_err("writing an ops section header", e))?;
        self.sink
            .write_all(&self.buf)
            .map_err(|e| stream_err("writing an ops section payload", e))?;
        self.buf.clear();
        self.buf_segments = 0;
        // Version 3 restarts the delta chain at every section boundary
        // (readers reset symmetrically).
        if self.version >= OPS_MIN_VERSION {
            self.deltas[self.cur_thread as usize] = DeltaState::default();
        }
        Ok(())
    }

    /// Writes one raw section (flushing any pending segment section first).
    /// Used by [`crate::ops`] for the version-3 op-stream sections, which
    /// are not counted as program segments.
    pub(crate) fn write_raw_section(
        &mut self,
        tag: u64,
        payload: &[u8],
    ) -> Result<(), TraceFileError> {
        self.flush_section()?;
        let mut head = Vec::with_capacity(16);
        push_varint(&mut head, tag);
        push_varint(&mut head, payload.len() as u64);
        self.sink
            .write_all(&head)
            .map_err(|e| stream_err("writing a raw section header", e))?;
        self.sink
            .write_all(payload)
            .map_err(|e| stream_err("writing a raw section payload", e))?;
        Ok(())
    }

    /// Flushes pending segments, writes the end section, and returns the
    /// underlying sink.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError::Stream`] on sink I/O failure.
    pub fn finish(mut self) -> Result<W, TraceFileError> {
        self.flush_section()?;
        let mut payload = Vec::with_capacity(12);
        push_varint(&mut payload, self.total_segments);
        let mut head = Vec::with_capacity(16);
        push_varint(&mut head, TAG_END);
        push_varint(&mut head, payload.len() as u64);
        head.extend_from_slice(&payload);
        self.sink
            .write_all(&head)
            .map_err(|e| stream_err("writing the end section", e))?;
        self.sink
            .flush()
            .map_err(|e| stream_err("flushing the trace", e))?;
        Ok(self.sink)
    }
}

// ---------------------------------------------------------------------------
// Section payload decoding

struct Bytes<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Bytes<'a> {
    fn new(b: &'a [u8]) -> Self {
        Bytes { b, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn u8(&mut self, context: &str) -> Result<u8, TraceFileError> {
        if self.pos >= self.b.len() {
            return Err(TraceFileError::Truncated {
                context: context.to_string(),
            });
        }
        let v = self.b[self.pos];
        self.pos += 1;
        Ok(v)
    }

    fn varint(&mut self, context: &str) -> Result<u64, TraceFileError> {
        let mut v: u64 = 0;
        for shift in 0..10u32 {
            let byte = self.u8(context)?;
            if shift == 9 && byte > 1 {
                return Err(TraceFileError::VarintOverrun {
                    context: context.to_string(),
                });
            }
            v |= ((byte & 0x7F) as u64) << (7 * shift);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(TraceFileError::VarintOverrun {
            context: context.to_string(),
        })
    }

    fn varint_u32(&mut self, context: &str) -> Result<u32, TraceFileError> {
        let v = self.varint(context)?;
        u32::try_from(v).map_err(|_| TraceFileError::Corrupt {
            detail: format!("{context}: value {v} does not fit in 32 bits"),
        })
    }

    fn f64(&mut self, context: &str) -> Result<f64, TraceFileError> {
        if self.remaining() < 8 {
            return Err(TraceFileError::Truncated {
                context: context.to_string(),
            });
        }
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.b[self.pos..self.pos + 8]);
        self.pos += 8;
        let v = f64::from_bits(u64::from_le_bytes(bytes));
        if !v.is_finite() {
            return Err(TraceFileError::Corrupt {
                detail: format!("{context}: non-finite float"),
            });
        }
        Ok(v)
    }

    fn delta(&mut self, prev: &mut u64, context: &str) -> Result<u64, TraceFileError> {
        let d = unzigzag(self.varint(context)?);
        *prev = prev.wrapping_add(d as u64);
        Ok(*prev)
    }
}

fn decode_region(b: &mut Bytes<'_>, d: &mut DeltaState) -> Result<Region, TraceFileError> {
    let base = b.delta(&mut d.region_base, "a region base address")?;
    let lines = b.varint("a region extent")?;
    if lines == 0 {
        return Err(TraceFileError::Corrupt {
            detail: "region with zero lines".to_string(),
        });
    }
    Ok(Region { base, lines })
}

fn decode_addr_pattern(
    b: &mut Bytes<'_>,
    d: &mut DeltaState,
) -> Result<AddressPattern, TraceFileError> {
    match b.u8("an address-pattern tag")? {
        ADDR_STREAM => Ok(AddressPattern::Stream {
            region: decode_region(b, d)?,
            stride: b.varint("a stream stride")?,
            repeats_per_line: b.varint_u32("stream repeats-per-line")?,
            start: b.varint("a stream start offset")?,
        }),
        ADDR_RANDOM => Ok(AddressPattern::Random {
            region: decode_region(b, d)?,
        }),
        ADDR_HOT => Ok(AddressPattern::Hot {
            region: decode_region(b, d)?,
            hot_lines: b.varint("a hot-set size")?,
            p_hot: b.f64("a hot-set probability")?,
        }),
        t => Err(TraceFileError::Corrupt {
            detail: format!("unknown address-pattern tag {t}"),
        }),
    }
}

fn decode_branch_pattern(b: &mut Bytes<'_>) -> Result<BranchPattern, TraceFileError> {
    match b.u8("a branch-pattern tag")? {
        BRANCH_LOOP => Ok(BranchPattern::Loop {
            period: b.varint_u32("a loop period")?,
        }),
        BRANCH_BERNOULLI => Ok(BranchPattern::Bernoulli {
            p_taken: b.f64("a taken probability")?,
        }),
        BRANCH_PERIODIC => {
            let bits = b.varint("periodic pattern bits")?;
            let len = b.u8("a periodic pattern length")?;
            if !(1..=64).contains(&len) {
                return Err(TraceFileError::Corrupt {
                    detail: format!("periodic branch pattern length {len} not in 1..=64"),
                });
            }
            Ok(BranchPattern::Periodic { bits, len })
        }
        t => Err(TraceFileError::Corrupt {
            detail: format!("unknown branch-pattern tag {t}"),
        }),
    }
}

fn decode_segment(
    b: &mut Bytes<'_>,
    d: &mut DeltaState,
    version: u32,
) -> Result<Segment, TraceFileError> {
    let tag = b.u8("a segment tag")?;
    if tag >= SEG_RWLOCK && version < 2 {
        return Err(TraceFileError::Corrupt {
            detail: format!(
                "segment tag {tag} requires container version 2, but the stream declares \
                 version {version}"
            ),
        });
    }
    let seg = match tag {
        SEG_BLOCK => {
            let ops = b.varint_u32("a block op count")?;
            let seed = b.varint("a block seed")?;
            const FLOAT_FIELDS: [&str; 12] = [
                "block field f_load",
                "block field f_store",
                "block field f_branch",
                "block field f_fp_add",
                "block field f_fp_mul",
                "block field f_fp_div",
                "block field f_int_mul",
                "block field f_int_div",
                "block field p_dep",
                "block field dep_mean",
                "block field p_dep2",
                "block field p_load_chain",
            ];
            let mut f = [0.0f64; 12];
            for (i, slot) in f.iter_mut().enumerate() {
                *slot = b.f64(FLOAT_FIELDS[i])?;
            }
            let n_sites = b.varint_u32("a block site count")?;
            let site_base = b.delta(&mut d.site_base, "a branch-site base")?;
            let site_base = u32::try_from(site_base).map_err(|_| TraceFileError::Corrupt {
                detail: format!("branch-site base {site_base} does not fit in 32 bits"),
            })?;
            let code_lines = b.varint("a code footprint")?;
            let code_base = b.delta(&mut d.code_base, "a code-line base")?;
            let n_addr = b.varint("an address-pattern count")?;
            let mut addr = Vec::with_capacity(n_addr.min(64) as usize);
            for _ in 0..n_addr {
                let p = decode_addr_pattern(b, d)?;
                let w = b.f64("an address-pattern weight")?;
                addr.push((p, w));
            }
            let n_store = b.varint("a store-pattern count")?;
            let mut store_addr = Vec::with_capacity(n_store.min(64) as usize);
            for _ in 0..n_store {
                let p = decode_addr_pattern(b, d)?;
                let w = b.f64("a store-pattern weight")?;
                store_addr.push((p, w));
            }
            let branch = decode_branch_pattern(b)?;
            Segment::Block(BlockSpec {
                ops,
                seed,
                f_load: f[0],
                f_store: f[1],
                f_branch: f[2],
                f_fp_add: f[3],
                f_fp_mul: f[4],
                f_fp_div: f[5],
                f_int_mul: f[6],
                f_int_div: f[7],
                p_dep: f[8],
                dep_mean: f[9],
                p_dep2: f[10],
                p_load_chain: f[11],
                addr,
                store_addr,
                branch,
                n_sites,
                site_base,
                code_lines,
                code_base,
            })
        }
        SEG_CREATE => Segment::Sync(SyncOp::Create {
            child: b.varint_u32("a created thread id")?.into(),
        }),
        SEG_JOIN => Segment::Sync(SyncOp::Join {
            child: b.varint_u32("a joined thread id")?.into(),
        }),
        SEG_BARRIER => Segment::Sync(SyncOp::Barrier {
            id: b.varint_u32("a barrier id")?.into(),
            via_cond: b.u8("a barrier cond flag")? != 0,
        }),
        SEG_LOCK => Segment::Sync(SyncOp::Lock {
            id: b.varint_u32("a mutex id")?.into(),
        }),
        SEG_UNLOCK => Segment::Sync(SyncOp::Unlock {
            id: b.varint_u32("a mutex id")?.into(),
        }),
        SEG_PRODUCE => Segment::Sync(SyncOp::Produce {
            queue: b.varint_u32("a queue id")?.into(),
            count: b.varint_u32("a produce count")?,
        }),
        SEG_CONSUME => Segment::Sync(SyncOp::Consume {
            queue: b.varint_u32("a queue id")?.into(),
        }),
        SEG_RWLOCK => Segment::Sync(SyncOp::RwLock {
            id: b.varint_u32("a rwlock id")?.into(),
            write: b.u8("a rwlock write flag")? != 0,
        }),
        SEG_RWUNLOCK => Segment::Sync(SyncOp::RwUnlock {
            id: b.varint_u32("a rwlock id")?.into(),
        }),
        SEG_SEMWAIT => Segment::Sync(SyncOp::SemWait {
            id: b.varint_u32("a semaphore id")?.into(),
        }),
        SEG_SEMPOST => Segment::Sync(SyncOp::SemPost {
            id: b.varint_u32("a semaphore id")?.into(),
            count: b.varint_u32("a post count")?,
        }),
        t => {
            return Err(TraceFileError::Corrupt {
                detail: format!("unknown segment tag {t}"),
            })
        }
    };
    Ok(seg)
}

// ---------------------------------------------------------------------------
// Section rules

/// What [`SectionRules::check`] found a section to be.
#[derive(Debug)]
enum Section {
    /// A program (tag-2) section for `thread` holding `count` segment
    /// records, which start `head` bytes into its payload.
    Segments {
        thread: u32,
        count: u64,
        head: usize,
    },
    /// A version-3 op-stream section (tags 4–6), checked and tallied.
    OpStream,
    /// The end section: nothing may follow it.
    End,
}

/// Op-stream totals declared by an `op-meta` section.
#[derive(Debug, PartialEq)]
struct OpMeta {
    runs: u64,
    ops: u64,
    syncs: u64,
    per_thread: Vec<u64>,
}

/// The structural rules of an `RPT1` section sequence, in one place.
///
/// [`TraceReader`], the one section walker, passes every whole section
/// payload through here. Of a program (tag-2) or `op-run` payload the
/// rules read only the thread and count; the segment records that follow a
/// program section's count are checked by the segment decoder.
#[derive(Debug)]
struct SectionRules {
    version: u32,
    name: String,
    num_threads: u32,
    /// Segments declared across the program sections so far.
    segments: u64,
    /// Op-stream tallies: `op-run` sections, ops per thread, sync events.
    run_sections: u64,
    per_thread_ops: Vec<u64>,
    syncs: u64,
    meta: Option<OpMeta>,
}

impl SectionRules {
    /// Starts a container of `version` from its first section, which must
    /// be the header.
    fn new(version: u32, tag: u64, payload: &[u8]) -> Result<Self, TraceFileError> {
        if tag != TAG_HEADER {
            return Err(TraceFileError::Corrupt {
                detail: format!("first section has tag {tag}, expected header (tag {TAG_HEADER})"),
            });
        }
        let mut b = Bytes::new(payload);
        let name_len = b.varint("the workload name length")?;
        if name_len > b.remaining() as u64 {
            return Err(TraceFileError::Truncated {
                context: "the workload name".to_string(),
            });
        }
        let name_bytes = &payload[b.pos..b.pos + name_len as usize];
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| TraceFileError::Corrupt {
                detail: "workload name is not valid UTF-8".to_string(),
            })?
            .to_string();
        b.pos += name_len as usize;
        let num_threads = b.varint_u32("the thread count")?;
        if num_threads as u64 > MAX_THREADS {
            return Err(TraceFileError::Corrupt {
                detail: format!("header declares {num_threads} threads (limit {MAX_THREADS})"),
            });
        }
        Ok(SectionRules {
            version,
            name,
            num_threads,
            segments: 0,
            run_sections: 0,
            per_thread_ops: vec![0; num_threads as usize],
            syncs: 0,
            meta: None,
        })
    }

    /// Whether any op-stream section has been seen.
    fn has_op_stream(&self) -> bool {
        self.meta.is_some() || self.run_sections > 0 || self.syncs > 0
    }

    fn in_range(&self, thread: u32, kind: &str) -> Result<u32, TraceFileError> {
        if thread >= self.num_threads {
            return Err(TraceFileError::Corrupt {
                detail: format!(
                    "{kind} section for thread {thread}, but the header declares only {} \
                     threads",
                    self.num_threads
                ),
            });
        }
        Ok(thread)
    }

    fn no_excess(b: &Bytes<'_>, what: &str) -> Result<(), TraceFileError> {
        match b.remaining() {
            0 => Ok(()),
            n => Err(TraceFileError::Corrupt {
                detail: format!("{n} excess bytes at the end of {what}"),
            }),
        }
    }

    /// Checks one section after the header and tallies it.
    fn check(&mut self, tag: u64, payload: &[u8]) -> Result<Section, TraceFileError> {
        if (TAG_OP_RUN..=TAG_OP_META).contains(&tag) && self.version < OPS_MIN_VERSION {
            return Err(TraceFileError::Corrupt {
                detail: format!(
                    "op-stream section tag {tag} requires container version 3, but the \
                     stream declares version {}",
                    self.version
                ),
            });
        }
        let mut b = Bytes::new(payload);
        match tag {
            TAG_HEADER => Err(TraceFileError::Corrupt {
                detail: "duplicate header section".to_string(),
            }),
            TAG_OPS => {
                let thread = self.in_range(b.varint_u32("an ops-section thread id")?, "ops")?;
                let count = b.varint("an ops-section segment count")?;
                if count == 0 {
                    return Err(TraceFileError::Corrupt {
                        detail: "empty segment section".to_string(),
                    });
                }
                self.segments += count;
                Ok(Section::Segments {
                    thread,
                    count,
                    head: b.pos,
                })
            }
            TAG_OP_RUN => {
                let thread = self.in_range(b.varint_u32("an op-run thread id")?, "op-run")?;
                let ops = b.varint("an op-run op count")?;
                if ops == 0 {
                    return Err(TraceFileError::Corrupt {
                        detail: "empty op-run section".to_string(),
                    });
                }
                self.per_thread_ops[thread as usize] += ops;
                self.run_sections += 1;
                Ok(Section::OpStream)
            }
            TAG_OP_SYNC => {
                self.in_range(b.varint_u32("an op-sync thread id")?, "op-sync")?;
                match decode_segment(&mut b, &mut DeltaState::default(), self.version)? {
                    Segment::Sync(_) => {}
                    Segment::Block(_) => {
                        return Err(TraceFileError::Corrupt {
                            detail: "op-sync section does not hold a sync event".to_string(),
                        })
                    }
                }
                Self::no_excess(&b, "an op-sync section")?;
                self.syncs += 1;
                Ok(Section::OpStream)
            }
            TAG_OP_META => {
                if self.meta.is_some() {
                    return Err(TraceFileError::Corrupt {
                        detail: "duplicate op-meta section".to_string(),
                    });
                }
                let runs = b.varint("the op-meta run-section count")?;
                let ops = b.varint("the op-meta total op count")?;
                let syncs = b.varint("the op-meta total sync count")?;
                let per_thread = (0..self.num_threads)
                    .map(|_| b.varint("an op-meta per-thread op count"))
                    .collect::<Result<_, _>>()?;
                Self::no_excess(&b, "the op-meta section")?;
                self.meta = Some(OpMeta {
                    runs,
                    ops,
                    syncs,
                    per_thread,
                });
                Ok(Section::OpStream)
            }
            TAG_END => {
                let declared = b.varint("the end-section segment count")?;
                Self::no_excess(&b, "the end section")?;
                if declared != self.segments {
                    return Err(TraceFileError::Corrupt {
                        detail: format!(
                            "trace declares {declared} segments, but its sections carry {}",
                            self.segments
                        ),
                    });
                }
                if let Some(meta) = &self.meta {
                    let counted = OpMeta {
                        runs: self.run_sections,
                        ops: self.per_thread_ops.iter().sum(),
                        syncs: self.syncs,
                        per_thread: self.per_thread_ops.clone(),
                    };
                    if *meta != counted {
                        return Err(TraceFileError::Corrupt {
                            detail: format!(
                                "op-meta section disagrees with the op sections (meta: {} runs \
                                 / {} ops / {} syncs; sections: {} runs / {} ops / {} syncs)",
                                meta.runs,
                                meta.ops,
                                meta.syncs,
                                counted.runs,
                                counted.ops,
                                counted.syncs
                            ),
                        });
                    }
                }
                Ok(Section::End)
            }
            _ => Err(TraceFileError::Corrupt {
                detail: format!("unknown section tag {tag}"),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming reader

/// Streaming binary trace reader, and the one `RPT1` section walker.
///
/// Validates the magic, version and header on construction, then yields
/// `(thread, segment)` pairs one at a time from [`TraceReader::next_segment`]
/// while holding at most one section in memory. [`TraceReader::read_program`]
/// is the convenience that drains the stream into a validated [`Program`].
/// Every reader in this crate, [`container_info`] included, walks a
/// container's sections through it.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    source: R,
    rules: SectionRules,
    /// `(sections, payload bytes)` seen so far, indexed by `tag - 1`.
    tally: [(u64, u64); 6],
    deltas: Vec<DeltaState>,
    section: Vec<u8>,
    section_pos: usize,
    section_thread: u32,
    section_remaining: u64,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a binary trace stream, validating magic, version and header.
    ///
    /// # Errors
    ///
    /// [`TraceFileError::BadMagic`] if the stream does not start with
    /// `RPT1`, [`TraceFileError::UnsupportedVersion`] for versions this
    /// build cannot read, [`TraceFileError::Truncated`] /
    /// [`TraceFileError::Corrupt`] for malformed headers, and
    /// [`TraceFileError::Stream`] for I/O failures.
    pub fn new(mut source: R) -> Result<Self, TraceFileError> {
        let mut magic = [0u8; 4];
        read_exact_or(&mut source, &mut magic, "the RPT1 magic")?;
        if magic != BINARY_TRACE_MAGIC {
            return Err(TraceFileError::BadMagic { found: magic });
        }
        let version = read_varint(&mut source, "the container version")?;
        if !(1..=BINARY_TRACE_VERSION as u64).contains(&version) {
            return Err(TraceFileError::UnsupportedVersion {
                found: version,
                supported: BINARY_TRACE_VERSION,
            });
        }
        let (tag, payload) = read_section(&mut source, "the header section")?;
        let rules = SectionRules::new(version as u32, tag, &payload)?;
        let mut tally = [(0, 0); 6];
        tally[0] = (1, payload.len() as u64);
        Ok(TraceReader {
            source,
            deltas: vec![DeltaState::default(); rules.num_threads as usize],
            rules,
            tally,
            section: Vec::new(),
            section_pos: 0,
            section_thread: 0,
            section_remaining: 0,
            done: false,
        })
    }

    /// Container version declared by the stream.
    pub fn version(&self) -> u32 {
        self.rules.version
    }

    /// Workload name recorded in the header.
    pub fn name(&self) -> &str {
        &self.rules.name
    }

    /// Thread count recorded in the header.
    pub fn num_threads(&self) -> u32 {
        self.rules.num_threads
    }

    /// The section loop: reads the next section, checks and tallies it,
    /// and after the end section rejects any trailing byte.
    fn next_section(&mut self) -> Result<(Section, Vec<u8>), TraceFileError> {
        let (tag, payload) = read_section(&mut self.source, "the next section")?;
        let section = self.rules.check(tag, &payload)?;
        // `check` accepts only tags 2 through 6.
        let tally = &mut self.tally[tag as usize - 1];
        tally.0 += 1;
        tally.1 += payload.len() as u64;
        if let Section::End = section {
            let mut probe = [0u8; 1];
            let n = self
                .source
                .read(&mut probe)
                .map_err(|e| stream_err("probing for trailing data", e))?;
            if n != 0 {
                return Err(TraceFileError::Corrupt {
                    detail: "trailing data after the end section".to_string(),
                });
            }
            self.done = true;
        }
        Ok((section, payload))
    }

    /// Yields the next `(thread, segment)` pair, or `None` once the end
    /// section has been reached and verified.
    ///
    /// # Errors
    ///
    /// Any binary-format failure: truncation, varint overruns, unknown
    /// tags, segment-count mismatches, trailing data, or I/O errors.
    pub fn next_segment(&mut self) -> Result<Option<(u32, Segment)>, TraceFileError> {
        while self.section_remaining == 0 {
            if self.done {
                return Ok(None);
            }
            // Op-stream sections record the expanded micro-ops beside the
            // program; the rules checked their structure, and the program
            // needs nothing else from them.
            if let (
                Section::Segments {
                    thread,
                    count,
                    head,
                },
                payload,
            ) = self.next_section()?
            {
                if self.rules.version >= OPS_MIN_VERSION {
                    self.deltas[thread as usize] = DeltaState::default();
                }
                self.section_thread = thread;
                self.section_remaining = count;
                self.section_pos = head;
                self.section = payload;
            }
        }
        let mut b = Bytes::new(&self.section);
        b.pos = self.section_pos;
        let seg = decode_segment(
            &mut b,
            &mut self.deltas[self.section_thread as usize],
            self.rules.version,
        )?;
        self.section_pos = b.pos;
        self.section_remaining -= 1;
        if self.section_remaining == 0 && b.remaining() != 0 {
            return Err(TraceFileError::Corrupt {
                detail: format!(
                    "{} excess bytes at the end of an ops section",
                    b.remaining()
                ),
            });
        }
        Ok(Some((self.section_thread, seg)))
    }

    /// Drains the stream into a structurally validated [`Program`].
    ///
    /// # Errors
    ///
    /// Propagates every [`TraceReader::next_segment`] failure plus
    /// [`TraceFileError::InvalidProgram`] from validation.
    pub fn read_program(mut self) -> Result<Program, TraceFileError> {
        let mut program = Program::new(self.rules.name.clone(), self.rules.num_threads as usize);
        while let Some((thread, seg)) = self.next_segment()? {
            program.threads[thread as usize].segments.push(seg);
        }
        program.validate().map_err(TraceFileError::InvalidProgram)?;
        Ok(program)
    }
}

// ---------------------------------------------------------------------------
// Container inspection

/// Per-tag summary of an `RPT1` container's sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionSummary {
    /// Section tag value.
    pub tag: u64,
    /// Human-readable tag name (`"header"`, `"segments"`, `"op-run"`, ...).
    pub label: &'static str,
    /// Number of sections carrying this tag.
    pub count: u64,
    /// Total payload bytes across those sections (headers excluded).
    pub bytes: u64,
}

/// What `rppm trace-info` prints: the structural inventory of one `RPT1`
/// container, gathered without decoding segment records or micro-ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerInfo {
    /// Container format version (1–3).
    pub version: u32,
    /// Workload name from the header.
    pub name: String,
    /// Thread count from the header.
    pub num_threads: u32,
    /// Size of the file in bytes.
    pub file_bytes: u64,
    /// Per-tag section summaries, in tag order (absent tags omitted).
    pub sections: Vec<SectionSummary>,
    /// Total program segments across the tag-2 sections.
    pub segments: u64,
    /// Total recorded micro-ops across the op-run sections.
    pub recorded_ops: u64,
    /// Total recorded sync events across the op-sync sections.
    pub recorded_syncs: u64,
    /// Whether the container carries a recorded op stream (any op-stream
    /// section).
    pub has_op_stream: bool,
}

const TAG_LABELS: [&str; 6] = ["header", "segments", "end", "op-run", "op-sync", "op-meta"];

/// Walks the `RPT1` container at `path` through [`TraceReader`]'s section
/// loop and reports its structure. Applies every rule the program readers
/// apply, but decodes no segment records and no micro-ops. Works on every
/// container version.
///
/// # Errors
///
/// [`TraceFileError::Io`] if the file cannot be opened, and the reader's
/// typed errors ([`TraceFileError::BadMagic`],
/// [`TraceFileError::UnsupportedVersion`], [`TraceFileError::Truncated`],
/// [`TraceFileError::Corrupt`], ...) on malformed containers.
pub fn container_info(path: impl AsRef<Path>) -> Result<ContainerInfo, TraceFileError> {
    let path = path.as_ref();
    let io_err = |source| TraceFileError::Io {
        path: path.to_path_buf(),
        source,
    };
    let file = std::fs::File::open(path).map_err(io_err)?;
    let file_bytes = file.metadata().map_err(io_err)?.len();
    let mut reader = TraceReader::new(std::io::BufReader::new(file))?;
    while !reader.done {
        reader.next_section()?;
    }
    let sections = (1..)
        .zip(TAG_LABELS)
        .zip(reader.tally)
        .filter(|&(_, (count, _))| count > 0)
        .map(|((tag, label), (count, bytes))| SectionSummary {
            tag,
            label,
            count,
            bytes,
        })
        .collect();
    let rules = reader.rules;
    Ok(ContainerInfo {
        version: rules.version,
        has_op_stream: rules.has_op_stream(),
        recorded_ops: rules.per_thread_ops.iter().sum(),
        recorded_syncs: rules.syncs,
        segments: rules.segments,
        name: rules.name,
        num_threads: rules.num_threads,
        file_bytes,
        sections,
    })
}

fn read_exact_or<R: Read>(
    source: &mut R,
    buf: &mut [u8],
    context: &str,
) -> Result<(), TraceFileError> {
    source.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceFileError::Truncated {
                context: context.to_string(),
            }
        } else {
            stream_err(context, e)
        }
    })
}

fn read_varint<R: Read>(source: &mut R, context: &str) -> Result<u64, TraceFileError> {
    let mut v: u64 = 0;
    for shift in 0..10u32 {
        let mut byte = [0u8; 1];
        read_exact_or(source, &mut byte, context)?;
        let byte = byte[0];
        if shift == 9 && byte > 1 {
            return Err(TraceFileError::VarintOverrun {
                context: context.to_string(),
            });
        }
        v |= ((byte & 0x7F) as u64) << (7 * shift);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(TraceFileError::VarintOverrun {
        context: context.to_string(),
    })
}

fn read_section<R: Read>(source: &mut R, context: &str) -> Result<(u64, Vec<u8>), TraceFileError> {
    let tag = read_varint(source, context)?;
    let len = read_varint(source, "a section length")?;
    if len > MAX_SECTION_BYTES {
        return Err(TraceFileError::Corrupt {
            detail: format!("section declares {len} bytes (limit {MAX_SECTION_BYTES})"),
        });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or(source, &mut payload, "a section payload")?;
    Ok((tag, payload))
}

// ---------------------------------------------------------------------------
// Whole-program conveniences

/// Streams `program`'s canonical `RPT1` encoding, at the smallest version
/// able to carry it, into `sink` and returns the sink. Fails only when the
/// sink does.
pub(crate) fn write_program_to<W: Write>(program: &Program, sink: W) -> Result<W, TraceFileError> {
    let mut w = TraceWriter::with_version(
        sink,
        &program.name,
        program.threads.len() as u32,
        program.format_version(),
    )?;
    for (t, script) in program.threads.iter().enumerate() {
        w.write_script(t as u32, script)?;
    }
    w.finish()
}

/// Serializes `program` into an in-memory `RPT1` byte buffer.
///
/// # Errors
///
/// Never fails for in-memory sinks in practice; the `Result` mirrors the
/// streaming API.
pub fn export_program_binary(program: &Program) -> Result<Vec<u8>, TraceFileError> {
    write_program_to(program, Vec::new())
}

/// Parses an in-memory `RPT1` byte buffer into a validated [`Program`].
///
/// # Errors
///
/// Every binary-format failure ([`TraceFileError::BadMagic`],
/// [`TraceFileError::Truncated`], [`TraceFileError::VarintOverrun`],
/// [`TraceFileError::Corrupt`], [`TraceFileError::UnsupportedVersion`],
/// [`TraceFileError::InvalidProgram`]).
pub fn import_program_binary(bytes: &[u8]) -> Result<Program, TraceFileError> {
    TraceReader::new(bytes)?.read_program()
}

/// Writes `program` to `path` as a binary trace, streaming section by
/// section through a buffered writer.
///
/// # Errors
///
/// Propagates [`TraceFileError::Io`] (with the path) and streaming
/// failures.
pub fn write_program_binary(
    program: &Program,
    path: impl AsRef<Path>,
) -> Result<(), TraceFileError> {
    let path = path.as_ref();
    let io_err = |source| TraceFileError::Io {
        path: path.to_path_buf(),
        source,
    };
    let file = std::fs::File::create(path).map_err(io_err)?;
    write_program_to(program, std::io::BufWriter::new(file))?;
    Ok(())
}

/// Reads a trace file in either format, auto-detected by magic bytes:
/// files opening with `RPT1` parse as binary, everything else as JSON.
///
/// # Errors
///
/// Propagates [`TraceFileError::Io`] (with the path) and the selected
/// format's import failures.
pub fn read_program_any(path: impl AsRef<Path>) -> Result<Program, TraceFileError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|source| TraceFileError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    sniff_and_read(std::io::BufReader::new(file), path)
}

/// Reads a trace in either format from an arbitrary byte stream (e.g. an
/// HTTP request body or an in-memory buffer), auto-detected by magic bytes
/// like [`read_program_any`]: streams opening with `RPT1` parse section by
/// section through [`TraceReader`] — the binary path never buffers the
/// whole body — and everything else is read to the end and parsed as JSON.
/// Callers are responsible for bounding the stream (e.g. `Read::take`); a
/// truncated stream surfaces as a typed [`TraceFileError`], never a panic.
///
/// # Errors
///
/// [`TraceFileError::Io`] (with the synthetic path `<stream>`) on read
/// failures, and the selected format's import failures.
pub fn read_program_stream(source: impl Read) -> Result<Program, TraceFileError> {
    sniff_and_read(source, Path::new("<stream>"))
}

/// The body of both sniffing readers; `path` names `source` in I/O errors.
fn sniff_and_read(mut source: impl Read, path: &Path) -> Result<Program, TraceFileError> {
    let io_err = |source| TraceFileError::Io {
        path: path.to_path_buf(),
        source,
    };
    let mut magic = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match source.read(&mut magic[got..]).map_err(io_err)? {
            0 => break,
            n => got += n,
        }
    }
    if magic[..got] == BINARY_TRACE_MAGIC {
        return TraceReader::new(std::io::Cursor::new(magic).chain(source))?.read_program();
    }
    let mut text = Vec::from(&magic[..got]);
    source.read_to_end(&mut text).map_err(io_err)?;
    let text = String::from_utf8(text).map_err(|_| TraceFileError::NotATraceFile {
        detail: "input is neither an RPT1 binary trace nor UTF-8 JSON".to_string(),
    })?;
    file::import_program(&text)
}

/// Whether `path`'s extension conventionally denotes the binary container
/// (`.rpt` / `.bin`). Writers use this to pick an *output* format; readers
/// never trust extensions — they sniff the magic bytes instead (see
/// [`read_program_any`]).
pub fn has_binary_extension(path: impl AsRef<Path>) -> bool {
    matches!(
        path.as_ref().extension().and_then(|e| e.to_str()),
        Some("rpt") | Some("bin")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::file::{export_program, program_fingerprint};

    fn sample() -> Program {
        let mut b = ProgramBuilder::new("bin-sample", 3);
        let r = b.alloc_region(4096);
        let bar = b.alloc_barrier();
        let m = b.alloc_mutex();
        let q = b.alloc_queue();
        b.spawn_workers();
        b.thread(0u32).produce(q, 2);
        for t in 1..3u32 {
            b.thread(t)
                .consume(q)
                .block(
                    BlockSpec::new(700, 3 + t as u64)
                        .loads(0.3)
                        .stores(0.05)
                        .branches(0.12)
                        .addr(AddressPattern::stream(r.chunk(t as u64 - 1, 2)), 1.0)
                        .addr(AddressPattern::hot(r, 64, 0.8), 0.5)
                        .store_addr(AddressPattern::random(r), 1.0)
                        .branch_pattern(BranchPattern::periodic(0b1011, 4))
                        .sites(3),
                )
                .lock(m)
                .block(BlockSpec::new(48, 1))
                .unlock(m)
                .barrier(bar);
        }
        b.join_workers();
        b.build()
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut b = Bytes::new(&buf);
            assert_eq!(b.varint("test").unwrap(), v);
            assert_eq!(b.remaining(), 0);
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn delta_round_trips_across_full_domain() {
        let values = [0u64, 10, 5, u64::MAX, 1, u64::MAX - 3];
        let mut buf = Vec::new();
        let mut prev = 0u64;
        for &v in &values {
            push_delta(&mut buf, &mut prev, v);
        }
        let mut b = Bytes::new(&buf);
        let mut prev = 0u64;
        for &v in &values {
            assert_eq!(b.delta(&mut prev, "test").unwrap(), v);
        }
    }

    #[test]
    fn stream_reader_detects_both_formats() {
        let p = sample();
        let bin = export_program_binary(&p).unwrap();
        assert_eq!(read_program_stream(&bin[..]).unwrap(), p);
        let json = export_program(&p).unwrap();
        assert_eq!(read_program_stream(json.as_bytes()).unwrap(), p);
    }

    #[test]
    fn stream_reader_rejects_truncated_and_garbage_input() {
        let p = sample();
        let bin = export_program_binary(&p).unwrap();
        for cut in [0, 2, 5, bin.len() / 2, bin.len() - 1] {
            assert!(
                read_program_stream(&bin[..cut]).is_err(),
                "truncation at {cut} must be a typed error"
            );
        }
        assert!(read_program_stream(&b"\xff\xfe\x00\x01garbage"[..]).is_err());
        assert!(read_program_stream(&b"not json at all"[..]).is_err());
    }

    #[test]
    fn binary_round_trips_program() {
        let p = sample();
        let bytes = export_program_binary(&p).unwrap();
        assert_eq!(&bytes[..4], b"RPT1");
        let back = import_program_binary(&bytes).unwrap();
        assert_eq!(p, back);
        // Canonical: re-export is byte-identical.
        assert_eq!(bytes, export_program_binary(&back).unwrap());
    }

    #[test]
    fn binary_is_denser_than_json() {
        let p = sample();
        let json = export_program(&p).unwrap();
        let bin = export_program_binary(&p).unwrap();
        assert!(
            bin.len() * 3 < json.len(),
            "binary {} bytes vs json {} bytes",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn fingerprint_is_container_independent() {
        let p = sample();
        let via_bin = import_program_binary(&export_program_binary(&p).unwrap()).unwrap();
        assert_eq!(program_fingerprint(&p), program_fingerprint(&via_bin));
    }

    #[test]
    fn streaming_reader_yields_segments_in_thread_order() {
        let p = sample();
        let bytes = export_program_binary(&p).unwrap();
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.name(), "bin-sample");
        assert_eq!(reader.num_threads(), 3);
        let mut per_thread: Vec<Vec<Segment>> = vec![Vec::new(); 3];
        while let Some((t, seg)) = reader.next_segment().unwrap() {
            per_thread[t as usize].push(seg);
        }
        for (t, segs) in per_thread.iter().enumerate() {
            assert_eq!(segs, &p.threads[t].segments, "thread {t}");
        }
    }

    #[test]
    fn writer_flushes_bounded_sections() {
        // A single thread with far more segments than one section holds.
        let mut p = Program::new("many", 1);
        for k in 0..(SECTION_SEGMENTS * 3 + 17) {
            p.threads[0]
                .segments
                .push(Segment::Block(BlockSpec::new(1, k)));
        }
        let bytes = export_program_binary(&p).unwrap();
        let back = import_program_binary(&bytes).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn file_round_trip_and_auto_detect() {
        let dir = std::env::temp_dir().join("rppm-binary-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = sample();

        let bin_path = dir.join("sample.rpt");
        write_program_binary(&p, &bin_path).unwrap();
        assert_eq!(read_program_any(&bin_path).unwrap(), p);

        let json_path = dir.join("sample.json");
        crate::file::write_program(&p, &json_path).unwrap();
        assert_eq!(read_program_any(&json_path).unwrap(), p);
    }

    fn sample_v2() -> Program {
        let mut b = ProgramBuilder::new("bin-v2", 2);
        let rw = b.alloc_rwlock();
        let s = b.alloc_sem();
        b.spawn_workers();
        b.thread(0u32)
            .rw_lock(rw, true)
            .block(BlockSpec::new(64, 9))
            .rw_unlock(rw)
            .sem_post(s, 3);
        b.thread(1u32).sem_wait(s).rw_lock(rw, false).rw_unlock(rw);
        b.join_workers();
        b.build()
    }

    #[test]
    fn v2_programs_round_trip_at_version_2() {
        let p = sample_v2();
        let bytes = export_program_binary(&p).unwrap();
        // Version varint immediately follows the 4-byte magic.
        assert_eq!(bytes[4], 2);
        let back = import_program_binary(&bytes).unwrap();
        assert_eq!(p, back);
        // Canonical: re-export is byte-identical.
        assert_eq!(bytes, export_program_binary(&back).unwrap());
    }

    #[test]
    fn v1_programs_still_written_as_version_1() {
        let bytes = export_program_binary(&sample()).unwrap();
        assert_eq!(bytes[4], 1);
    }

    #[test]
    fn v1_writer_rejects_v2_segments() {
        let mut w = TraceWriter::new(Vec::new(), "x", 1).unwrap();
        let seg = Segment::Sync(SyncOp::SemWait { id: 0u32.into() });
        let err = w.write_segment(0, &seg).unwrap_err();
        assert!(
            matches!(err, TraceFileError::Unserializable { .. }),
            "{err}"
        );
    }

    #[test]
    fn v2_tags_in_v1_stream_are_corrupt() {
        let mut bytes = export_program_binary(&sample_v2()).unwrap();
        assert_eq!(bytes[4], 2);
        bytes[4] = 1; // lie about the container version
        let err = import_program_binary(&bytes).unwrap_err();
        assert!(matches!(err, TraceFileError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("version 2"), "{err}");
    }

    #[test]
    fn writer_rejects_unknown_versions() {
        for v in [0u32, BINARY_TRACE_VERSION + 1] {
            let err = TraceWriter::with_version(Vec::new(), "x", 1, v).unwrap_err();
            assert!(
                matches!(err, TraceFileError::Unserializable { .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn reader_rejects_future_versions() {
        let mut bytes = export_program_binary(&sample()).unwrap();
        bytes[4] = (BINARY_TRACE_VERSION + 1) as u8;
        let err = import_program_binary(&bytes).unwrap_err();
        assert!(
            matches!(err, TraceFileError::UnsupportedVersion { .. }),
            "{err}"
        );
    }

    #[test]
    fn v3_program_stream_round_trips_with_section_delta_reset() {
        // A version-3 stream resets the delta chain at every section
        // boundary; writer and reader must stay in sync across many
        // sections of one thread.
        let mut p = Program::new("v3-many", 2);
        for k in 0..(SECTION_SEGMENTS + 40) {
            let mut b = BlockSpec::new(1, k);
            b.code_base = k * 977;
            p.threads[0].segments.push(Segment::Block(b));
        }
        p.threads[0].segments.push(Segment::Sync(SyncOp::Create {
            child: crate::sync::ThreadId(1),
        }));
        p.threads[1]
            .segments
            .push(Segment::Block(BlockSpec::new(1, 7)));
        let mut w = TraceWriter::with_version(Vec::new(), &p.name, 2, 3).unwrap();
        for (t, script) in p.threads.iter().enumerate() {
            w.write_script(t as u32, script).unwrap();
        }
        let bytes = w.finish().unwrap();
        assert_eq!(bytes[4], 3);
        let back = import_program_binary(&bytes).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn op_stream_tags_in_v2_stream_are_corrupt() {
        // Hand-build a v2 stream containing an op-run section: readers must
        // reject the tag, not skip it silently.
        let mut w = TraceWriter::with_version(Vec::new(), "x", 1, 2).unwrap();
        w.write_raw_section(TAG_OP_RUN, &[0, 0]).unwrap();
        let bytes = w.finish().unwrap();
        let err = import_program_binary(&bytes).unwrap_err();
        assert!(matches!(err, TraceFileError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("version 3"), "{err}");
    }

    #[test]
    fn writer_rejects_out_of_range_thread() {
        let mut w = TraceWriter::new(Vec::new(), "x", 2).unwrap();
        let seg = Segment::Block(BlockSpec::new(1, 1));
        let err = w.write_segment(2, &seg).unwrap_err();
        assert!(matches!(err, TraceFileError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn empty_program_round_trips() {
        let p = Program::new("empty", 2);
        let bytes = export_program_binary(&p).unwrap();
        assert_eq!(import_program_binary(&bytes).unwrap(), p);
    }
}
