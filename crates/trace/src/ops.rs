//! Recording the expanded micro-op stream into `RPT1` files, and reading
//! containers section by section.
//!
//! The rest of the crate treats a workload as parametric block
//! specifications that are *expanded* into micro-ops on every traversal.
//! This module can also **record** that expansion: [`record_ops`] writes
//! the program sections of a version-3 `RPT1` container (see
//! [`crate::binary`]) followed by the expanded [`MicroOp`] stream in
//! op-stream sections (tags 4–6), for tools that consume raw micro-ops.
//! The profiler and both simulators always execute the program by
//! expansion; every reader takes the program sections and checks the
//! op-stream sections' structure without decoding their ops.
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
//! delta chains restart at every run-section boundary, so every section
//! decodes independently.
//!
//! # Entry points
//!
//! * [`write_program_ops`] / [`export_program_ops`] / [`record_ops`] —
//!   record a program *and* its expanded op stream into one container
//!   (what `rppm convert --to ops` calls).
//! * [`container_info`] — inspect any `RPT1` container (all versions)
//!   without decoding payloads: per-section byte counts, totals, versions.
//! * [`read_program_sections`] — decode just the program (tag-2) sections,
//!   in parallel for version-3 files, from a memory-mapped file.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use crate::binary::{
    decode_segment, encode_segment, push_delta, push_varint, read_program_binary, Bytes,
    DeltaState, Section, SectionRules, TraceWriter, BINARY_TRACE_MAGIC, BINARY_TRACE_VERSION,
    MAX_SECTION_BYTES, OPS_MIN_VERSION, SECTION_SEGMENTS, TAG_END, TAG_HEADER, TAG_OPS,
    TAG_OP_META, TAG_OP_RUN, TAG_OP_SYNC,
};
use crate::cursor::{BlockItem, ThreadCursor};
use crate::file::TraceFileError;
use crate::op::MicroOp;
use crate::par::parallel_map;
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
/// Reset at every `op-run` section boundary, so each section decodes on
/// its own.
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

// ---------------------------------------------------------------------------
// Random-access section source (mmap where available, pread fallback)

#[cfg(unix)]
mod mm {
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    const MAP_FAILED: isize = -1;

    /// A read-only private mapping of a whole file.
    pub(super) struct Map {
        ptr: *mut c_void,
        len: usize,
    }

    // The mapping is immutable for its whole lifetime (PROT_READ) and the
    // pointer is owned: sharing &Map across decode threads is sound.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        /// Maps `len` bytes of `file`, or `None` if the kernel refuses
        /// (callers then fall back to `pread`).
        pub(super) fn new(file: &std::fs::File, len: usize) -> Option<Map> {
            if len == 0 {
                return None;
            }
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.is_null() || ptr as isize == MAP_FAILED {
                None
            } else {
                Some(Map { ptr, len })
            }
        }

        pub(super) fn bytes(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }

    impl std::fmt::Debug for Map {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Map").field("len", &self.len).finish()
        }
    }
}

/// Positional-read fallback used when `mmap` is unavailable or declined.
#[derive(Debug)]
struct FileSource {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<File>,
    len: u64,
}

impl FileSource {
    fn read_into(&self, off: u64, len: usize, out: &mut Vec<u8>) -> Result<(), TraceFileError> {
        out.clear();
        out.resize(len, 0);
        let res;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            res = self.file.read_exact_at(out, off);
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = self.file.lock().unwrap();
            res = f.seek(SeekFrom::Start(off)).and_then(|_| f.read_exact(out));
        }
        res.map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                TraceFileError::Truncated {
                    context: "a section payload".to_string(),
                }
            } else {
                crate::binary::stream_err("reading a trace section", e)
            }
        })
    }
}

/// Random-access byte source for one `RPT1` file.
///
/// `slice` is zero-copy (mmap only); `read_into` works on every backing.
#[derive(Debug)]
enum SectionSource {
    #[cfg(unix)]
    Mmap(mm::Map),
    File(FileSource),
}

impl SectionSource {
    fn open(path: &Path) -> Result<Self, TraceFileError> {
        let io_err = |e| TraceFileError::Io {
            path: path.to_path_buf(),
            source: e,
        };
        let file = File::open(path).map_err(io_err)?;
        let len = file.metadata().map_err(io_err)?.len();
        #[cfg(unix)]
        if len > 0 && len <= usize::MAX as u64 {
            if let Some(map) = mm::Map::new(&file, len as usize) {
                return Ok(SectionSource::Mmap(map));
            }
        }
        Ok(SectionSource::File(FileSource {
            #[cfg(unix)]
            file,
            #[cfg(not(unix))]
            file: std::sync::Mutex::new(file),
            len,
        }))
    }

    fn len(&self) -> u64 {
        match self {
            #[cfg(unix)]
            SectionSource::Mmap(m) => m.bytes().len() as u64,
            SectionSource::File(f) => f.len,
        }
    }

    /// Borrows `len` bytes at `off` without copying; `None` when the
    /// backing cannot lend (non-mmap) or the range is out of bounds.
    fn slice(&self, off: u64, len: usize) -> Option<&[u8]> {
        match self {
            #[cfg(unix)]
            SectionSource::Mmap(m) => {
                let b = m.bytes();
                let off = usize::try_from(off).ok()?;
                b.get(off..off.checked_add(len)?)
            }
            SectionSource::File(_) => None,
        }
    }

    fn read_into(&self, off: u64, len: usize, out: &mut Vec<u8>) -> Result<(), TraceFileError> {
        match self {
            #[cfg(unix)]
            SectionSource::Mmap(_) => match self.slice(off, len) {
                Some(b) => {
                    out.clear();
                    out.extend_from_slice(b);
                    Ok(())
                }
                None => Err(TraceFileError::Truncated {
                    context: "a section payload".to_string(),
                }),
            },
            SectionSource::File(f) => f.read_into(off, len, out),
        }
    }
}

// ---------------------------------------------------------------------------
// Container scan (section index; payloads are read only as far as the
// section rules need)

/// Reference to one program (tag-2) section.
#[derive(Debug, Clone, Copy)]
struct ProgRef {
    thread: u32,
    count: u64,
    off: u64,
    len: u64,
    /// Bytes of the thread/count prefix inside the payload.
    head: usize,
}

#[derive(Debug)]
struct Scan {
    rules: SectionRules,
    file_bytes: u64,
    prog_sections: Vec<ProgRef>,
    /// `(count, payload bytes)` indexed by `tag - 1` for tags 1–6.
    tag_stats: [(u64, u64); 6],
}

fn varint_at(
    src: &SectionSource,
    pos: &mut u64,
    context: &str,
    scratch: &mut Vec<u8>,
) -> Result<u64, TraceFileError> {
    let take = src.len().saturating_sub(*pos).min(10) as usize;
    src.read_into(*pos, take, scratch)?;
    let mut b = Bytes::new(scratch);
    let v = b.varint(context)?;
    *pos += (take - b.remaining()) as u64;
    Ok(v)
}

/// Walks every section of the container through the shared
/// [`SectionRules`] and builds the section index. Program and `op-run`
/// payloads are *not* decoded — only their small thread/count prefixes
/// are read — so a scan of a multi-gigabyte trace touches a few bytes per
/// section.
fn scan(src: &SectionSource) -> Result<Scan, TraceFileError> {
    let file_bytes = src.len();
    let mut scratch = Vec::new();
    if file_bytes < 4 {
        return Err(TraceFileError::Truncated {
            context: "the RPT1 magic".to_string(),
        });
    }
    src.read_into(0, 4, &mut scratch)?;
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&scratch);
    if magic != BINARY_TRACE_MAGIC {
        return Err(TraceFileError::BadMagic { found: magic });
    }
    let mut pos = 4u64;
    let version = varint_at(src, &mut pos, "the container version", &mut scratch)?;
    if !(1..=BINARY_TRACE_VERSION as u64).contains(&version) {
        return Err(TraceFileError::UnsupportedVersion {
            found: version,
            supported: BINARY_TRACE_VERSION,
        });
    }

    let mut rules: Option<SectionRules> = None;
    let mut prog_sections = Vec::new();
    let mut tag_stats = [(0, 0); 6];
    loop {
        if pos >= file_bytes {
            return Err(TraceFileError::Truncated {
                context: "the end section".to_string(),
            });
        }
        let tag = varint_at(src, &mut pos, "a section tag", &mut scratch)?;
        let len = varint_at(src, &mut pos, "a section length", &mut scratch)?;
        if len > MAX_SECTION_BYTES {
            return Err(TraceFileError::Corrupt {
                detail: format!("section declares {len} bytes (limit {MAX_SECTION_BYTES})"),
            });
        }
        let off = pos;
        if len > file_bytes - off {
            return Err(TraceFileError::Truncated {
                context: "a section payload".to_string(),
            });
        }
        pos = off + len;
        if (1..=6).contains(&tag) {
            let e = &mut tag_stats[(tag - 1) as usize];
            e.0 += 1;
            e.1 += len;
        }
        let window = if tag == TAG_OPS || tag == TAG_OP_RUN {
            len.min(20)
        } else {
            len
        };
        src.read_into(off, window as usize, &mut scratch)?;
        let Some(rules) = rules.as_mut() else {
            rules = Some(SectionRules::new(version as u32, tag, &scratch)?);
            continue;
        };
        match rules.check(tag, &scratch)? {
            Section::Segments {
                thread,
                count,
                head,
            } => prog_sections.push(ProgRef {
                thread,
                count,
                off,
                len,
                head,
            }),
            Section::OpStream => {}
            Section::End => break,
        }
    }
    if pos != file_bytes {
        return Err(TraceFileError::Corrupt {
            detail: format!("{} trailing bytes after the end section", file_bytes - pos),
        });
    }
    Ok(Scan {
        rules: rules.expect("the loop ends only after the end section"),
        file_bytes,
        prog_sections,
        tag_stats,
    })
}

// ---------------------------------------------------------------------------
// Program decode from the section index (parallel for version 3)

fn decode_prog_sections(
    src: &SectionSource,
    s: &Scan,
    jobs: usize,
) -> Result<Program, TraceFileError> {
    let version = s.rules.version;
    debug_assert!(version >= OPS_MIN_VERSION);
    let n = s.prog_sections.len();
    let decoded = parallel_map(jobs, n, |i| {
        let r = s.prog_sections[i];
        let mut owned = Vec::new();
        let bytes = match src.slice(r.off, r.len as usize) {
            Some(b) => b,
            None => {
                src.read_into(r.off, r.len as usize, &mut owned)?;
                owned.as_slice()
            }
        };
        let mut b = Bytes::new(bytes);
        b.pos = r.head;
        let mut d = DeltaState::default();
        let mut segs = Vec::with_capacity(r.count.min(SECTION_SEGMENTS) as usize);
        for _ in 0..r.count {
            segs.push(decode_segment(&mut b, &mut d, version)?);
        }
        if b.remaining() != 0 {
            return Err(TraceFileError::Corrupt {
                detail: format!(
                    "{} excess bytes at the end of an ops section",
                    b.remaining()
                ),
            });
        }
        Ok(segs)
    });
    let mut program = Program::new(s.rules.name.clone(), s.rules.num_threads as usize);
    for (i, segs) in decoded.into_iter().enumerate() {
        let thread = s.prog_sections[i].thread as usize;
        program.threads[thread].segments.extend(segs?);
    }
    program.validate().map_err(TraceFileError::InvalidProgram)?;
    Ok(program)
}

/// Reads just the program from an `RPT1` file, decoding the program
/// sections of a version-3 container **in parallel** across `jobs` threads
/// (version-3 sections restart their delta chains, so each decodes
/// independently). Version-1/2 containers fall back to the sequential
/// streaming reader.
///
/// # Errors
///
/// The same failure modes as [`read_program_binary`].
pub fn read_program_sections(
    path: impl AsRef<Path>,
    jobs: usize,
) -> Result<Program, TraceFileError> {
    let path = path.as_ref();
    let src = SectionSource::open(path)?;
    let s = scan(&src)?;
    if s.rules.version < OPS_MIN_VERSION {
        drop(src);
        return read_program_binary(path);
    }
    decode_prog_sections(&src, &s, jobs)
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
/// container, gathered by a scan that never decodes op or segment payloads.
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

fn tag_label(tag: u64) -> &'static str {
    match tag {
        TAG_HEADER => "header",
        TAG_OPS => "segments",
        TAG_END => "end",
        TAG_OP_RUN => "op-run",
        TAG_OP_SYNC => "op-sync",
        TAG_OP_META => "op-meta",
        _ => "unknown",
    }
}

/// Scans the `RPT1` container at `path` and reports its structure without
/// decoding any program or op payloads. Works on every container version.
///
/// # Errors
///
/// [`TraceFileError::Io`] if the file cannot be opened, and the scan's
/// typed errors ([`TraceFileError::BadMagic`],
/// [`TraceFileError::UnsupportedVersion`], [`TraceFileError::Truncated`],
/// [`TraceFileError::Corrupt`], ...) on malformed containers.
pub fn container_info(path: impl AsRef<Path>) -> Result<ContainerInfo, TraceFileError> {
    let src = SectionSource::open(path.as_ref())?;
    let s = scan(&src)?;
    let sections = s
        .tag_stats
        .iter()
        .enumerate()
        .filter(|(_, &(count, _))| count > 0)
        .map(|(i, &(count, bytes))| SectionSummary {
            tag: i as u64 + 1,
            label: tag_label(i as u64 + 1),
            count,
            bytes,
        })
        .collect();
    let rules = s.rules;
    Ok(ContainerInfo {
        version: rules.version,
        has_op_stream: rules.has_op_stream(),
        recorded_ops: rules.per_thread_ops.iter().sum(),
        recorded_syncs: rules.syncs,
        segments: rules.segments,
        name: rules.name,
        num_threads: rules.num_threads,
        file_bytes: s.file_bytes,
        sections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{import_program_binary, write_program_binary};
    use crate::block::BlockSpec;
    use crate::file::program_fingerprint;
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
    fn read_program_sections_round_trips() {
        let p = demo_program();
        let ops_path = tmp_path("sections-v3");
        write_program_ops(&p, &ops_path).unwrap();
        let q = read_program_sections(&ops_path, 4).unwrap();
        assert_eq!(program_fingerprint(&q), program_fingerprint(&p));
        std::fs::remove_file(&ops_path).unwrap();

        let bin_path = tmp_path("sections-v1");
        write_program_binary(&p, &bin_path).unwrap();
        let q = read_program_sections(&bin_path, 4).unwrap();
        assert_eq!(program_fingerprint(&q), program_fingerprint(&p));
        std::fs::remove_file(&bin_path).unwrap();
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
