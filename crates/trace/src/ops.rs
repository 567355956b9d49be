//! Recording the expanded micro-op stream into `RPT1` files.
//!
//! The rest of the crate treats a workload as parametric block
//! specifications that are *expanded* into micro-ops on every traversal.
//! This module can also **record** that expansion: [`record_ops`] writes
//! the program sections of a version-3 `RPT1` container (see
//! [`crate::binary`]) followed by the expanded [`MicroOp`] stream in
//! op-stream sections (tags 4–6), for tools that consume raw micro-ops.
//! The profiler and both simulators always execute the program by
//! expansion; every reader takes the program sections and checks the
//! op-stream sections' structure without decoding their ops (see
//! [`crate::binary`], which also holds [`crate::container_info`], the
//! section inventory `rppm trace-info` prints).
//!
//! # Layout of the op-stream sections
//!
//! | tag | name      | payload |
//! |-----|-----------|---------|
//! | 4   | `op-run`  | thread varint, op count varint, encoded micro-ops |
//! | 5   | `op-sync` | thread varint, one encoded sync event |
//! | 6   | `op-meta` | run-section count, total ops, total syncs, per-thread op counts |
//!
//! Each micro-op encodes as one class/outcome byte (`class.index() |
//! taken << 7`), two varint dependence distances, and three
//! zigzag-delta-coded address fields (`line`, `code_line`, `site`) whose
//! delta chains restart at every run-section boundary. Like the reset of
//! the version-3 program sections, the restart is part of the format and
//! is kept for compatibility with the files already written.
//!
//! # Entry points
//!
//! [`write_program_ops`] / [`export_program_ops`] / [`record_ops`] record a
//! program *and* its expanded op stream into one container (what
//! `rppm convert --to ops` calls).

use std::fs::File;
use std::io::Write;
use std::path::Path;

use crate::binary::{
    encode_segment, push_delta, push_varint, DeltaState, TraceWriter, OPS_MIN_VERSION, TAG_OP_META,
    TAG_OP_RUN, TAG_OP_SYNC,
};
use crate::cursor::{BlockItem, ThreadCursor};
use crate::file::TraceFileError;
use crate::op::MicroOp;
use crate::program::{Program, Segment};
use crate::sync::SyncOp;

/// Target number of micro-ops per `op-run` section.
///
/// Runs are also split at every sync boundary, so this is an upper target,
/// not an exact size. 4096 ops × ~10 encoded bytes keeps sections well
/// under the container's section-size limit while amortizing the
/// per-section header and delta-chain restart.
const OP_RUN_OPS: u64 = 4096;

// ---------------------------------------------------------------------------
// Per-op encoding

/// Delta-chain state for the three address-like fields of a micro-op.
///
/// Reset at every `op-run` section boundary, as the version-3 format
/// requires.
#[derive(Debug, Clone, Copy, Default)]
struct OpDelta {
    line: u64,
    code_line: u64,
    site: u64,
}

fn encode_op(buf: &mut Vec<u8>, d: &mut OpDelta, op: &MicroOp) {
    buf.push(op.class.index() as u8 | ((op.taken as u8) << 7));
    push_varint(buf, op.src1 as u64);
    push_varint(buf, op.src2 as u64);
    push_delta(buf, &mut d.line, op.line);
    push_delta(buf, &mut d.code_line, op.code_line);
    push_delta(buf, &mut d.site, op.site as u64);
}

// ---------------------------------------------------------------------------
// Recording

/// Records `program` **and** its fully expanded micro-op stream into a
/// version-3 `RPT1` container written to `sink`, returning the sink.
///
/// The container holds the ordinary program sections first (so every
/// existing reader still works on it), followed by the op-stream sections:
/// per-thread runs of encoded micro-ops split at sync boundaries and at
/// roughly 4096-op targets, explicit sync-event sections, and a final
/// `op-meta` section with totals. Threads are recorded sequentially, one
/// expansion chunk at a time — memory stays bounded regardless of trace
/// size.
///
/// # Errors
///
/// [`TraceFileError::InvalidProgram`] if the program fails validation, and
/// [`TraceFileError::Stream`] on sink I/O failure.
pub fn record_ops<W: Write>(program: &Program, sink: W) -> Result<W, TraceFileError> {
    program.validate().map_err(TraceFileError::InvalidProgram)?;
    let n = program.num_threads();
    let mut w = TraceWriter::with_version(sink, &program.name, n as u32, OPS_MIN_VERSION)?;
    for (t, script) in program.threads.iter().enumerate() {
        w.write_script(t as u32, script)?;
    }

    let mut run_sections = 0u64;
    let mut total_syncs = 0u64;
    let mut per_thread = vec![0u64; n];
    let mut payload = Vec::new();
    let mut opbuf = Vec::new();
    for (t, script) in program.threads.iter().enumerate() {
        let mut cur = ThreadCursor::new(script);
        let mut delta = OpDelta::default();
        let mut run_ops = 0u64;
        loop {
            enum Step {
                Ops(usize),
                Sync(SyncOp),
                End,
            }
            let step = match cur.peek_block() {
                Some(BlockItem::Ops(ops)) => {
                    for op in ops {
                        encode_op(&mut opbuf, &mut delta, op);
                    }
                    run_ops += ops.len() as u64;
                    Step::Ops(ops.len())
                }
                Some(BlockItem::Sync(op)) => Step::Sync(op),
                None => Step::End,
            };
            match step {
                Step::Ops(k) => {
                    cur.consume_ops(k);
                    if run_ops >= OP_RUN_OPS {
                        flush_run(&mut w, t as u64, &mut opbuf, &mut run_ops, &mut delta)?;
                        run_sections += 1;
                    }
                }
                Step::Sync(op) => {
                    if run_ops > 0 {
                        flush_run(&mut w, t as u64, &mut opbuf, &mut run_ops, &mut delta)?;
                        run_sections += 1;
                    }
                    payload.clear();
                    push_varint(&mut payload, t as u64);
                    encode_segment(&mut payload, &mut DeltaState::default(), &Segment::Sync(op));
                    w.write_raw_section(TAG_OP_SYNC, &payload)?;
                    total_syncs += 1;
                    cur.consume_sync();
                }
                Step::End => {
                    if run_ops > 0 {
                        flush_run(&mut w, t as u64, &mut opbuf, &mut run_ops, &mut delta)?;
                        run_sections += 1;
                    }
                    break;
                }
            }
        }
        per_thread[t] = cur.ops_consumed();
    }

    payload.clear();
    push_varint(&mut payload, run_sections);
    push_varint(&mut payload, per_thread.iter().sum());
    push_varint(&mut payload, total_syncs);
    for c in &per_thread {
        push_varint(&mut payload, *c);
    }
    w.write_raw_section(TAG_OP_META, &payload)?;
    w.finish()
}

fn flush_run<W: Write>(
    w: &mut TraceWriter<W>,
    thread: u64,
    opbuf: &mut Vec<u8>,
    run_ops: &mut u64,
    delta: &mut OpDelta,
) -> Result<(), TraceFileError> {
    let mut payload = Vec::with_capacity(opbuf.len() + 12);
    push_varint(&mut payload, thread);
    push_varint(&mut payload, *run_ops);
    payload.extend_from_slice(opbuf);
    w.write_raw_section(TAG_OP_RUN, &payload)?;
    opbuf.clear();
    *run_ops = 0;
    *delta = OpDelta::default();
    Ok(())
}

/// [`record_ops`] into an in-memory byte buffer.
///
/// # Errors
///
/// Same failure modes as [`record_ops`].
pub fn export_program_ops(program: &Program) -> Result<Vec<u8>, TraceFileError> {
    record_ops(program, Vec::new())
}

/// [`record_ops`] into the file at `path` (buffered).
///
/// # Errors
///
/// [`TraceFileError::Io`] if the file cannot be created, plus the
/// [`record_ops`] failure modes.
pub fn write_program_ops(program: &Program, path: impl AsRef<Path>) -> Result<(), TraceFileError> {
    let path = path.as_ref();
    let file = File::create(path).map_err(|e| TraceFileError::Io {
        path: path.to_path_buf(),
        source: e,
    })?;
    record_ops(program, std::io::BufWriter::new(file))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{container_info, import_program_binary, write_program_binary};
    use crate::block::BlockSpec;
    use std::path::PathBuf;

    fn tmp_path(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("rppm-ops-{}-{tag}-{n}.rpt", std::process::id()))
    }

    fn demo_program() -> Program {
        let mut p = Program::new("ops-demo", 2);
        p.threads[0]
            .segments
            .push(Segment::Sync(SyncOp::Create { child: 1.into() }));
        for k in 0..5u64 {
            let mut b0 = BlockSpec::new(1500, 11 + k)
                .loads(0.25)
                .stores(0.05)
                .branches(0.1);
            b0.code_base = k * 977;
            p.threads[0].segments.push(Segment::Block(b0));
            p.threads[1].segments.push(Segment::Block(
                BlockSpec::new(900, 23 + k).deps(0.4, 3.0).branches(0.2),
            ));
        }
        p.threads[0]
            .segments
            .push(Segment::Sync(SyncOp::Join { child: 1.into() }));
        p.validate().unwrap();
        p
    }

    #[test]
    fn plain_binary_has_no_op_stream() {
        let p = demo_program();
        let path = tmp_path("plain");
        write_program_binary(&p, &path).unwrap();
        let info = container_info(&path).unwrap();
        assert!(!info.has_op_stream);
        assert_eq!(info.recorded_ops, 0);
        assert_eq!(info.version, p.format_version());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn container_info_reports_op_sections() {
        let p = demo_program();
        let path = tmp_path("info");
        write_program_ops(&p, &path).unwrap();
        let info = container_info(&path).unwrap();
        assert_eq!(info.version, 3);
        assert_eq!(info.name, "ops-demo");
        assert_eq!(info.num_threads, 2);
        assert!(info.has_op_stream);
        assert_eq!(info.recorded_ops, p.total_ops());
        assert_eq!(info.recorded_syncs, 2);
        assert_eq!(info.file_bytes, std::fs::metadata(&path).unwrap().len());
        let tags: Vec<u64> = info.sections.iter().map(|s| s.tag).collect();
        assert_eq!(tags, vec![1, 2, 3, 4, 5, 6]);
        assert!(info.sections.iter().all(|s| s.count > 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_op_run_section_is_corrupt() {
        let mut w = TraceWriter::with_version(Vec::new(), "x", 1, 3).unwrap();
        let mut payload = Vec::new();
        push_varint(&mut payload, 0); // thread
        push_varint(&mut payload, 0); // zero ops
        w.write_raw_section(TAG_OP_RUN, &payload).unwrap();
        let bytes = w.finish().unwrap();
        let path = tmp_path("emptyrun");
        std::fs::write(&path, &bytes).unwrap();
        let is_empty_run = |err: &TraceFileError| matches!(err, TraceFileError::Corrupt { detail } if detail.contains("empty op-run"));
        let err = container_info(&path).unwrap_err();
        assert!(
            is_empty_run(&err),
            "expected empty-op-run Corrupt, got {err:?}"
        );
        let err = import_program_binary(&bytes).unwrap_err();
        assert!(
            is_empty_run(&err),
            "expected empty-op-run Corrupt, got {err:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
