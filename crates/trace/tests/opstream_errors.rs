//! Version-3 containers (program sections plus a recorded op stream) must
//! be as hostile-input-proof as the base container (mirroring
//! `import_errors.rs`): every prefix truncation yields the same typed error
//! from every reader, plain containers report no op stream, and a
//! malformed op or segment section, or a byte after the end section, gets
//! the same typed error whichever reader sees it.

use rppm_trace::{
    container_info, export_program_ops, import_program_binary, read_program_any,
    read_program_stream, AddressPattern, BlockSpec, Program, ProgramBuilder, TraceFileError,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn tmp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rppm-opstream-test-{}-{tag}-{seq}.rpt",
        std::process::id()
    ))
}

/// Removes the temp file even when an assertion unwinds mid-test.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A small program exercising every synchronization kind the builder
/// offers, so the recorded sync sections cover the whole `SyncOp` surface.
fn rich_program() -> Program {
    let mut b = ProgramBuilder::new("rich", 3);
    let bar = b.alloc_barrier();
    let mx = b.alloc_mutex();
    let q = b.alloc_queue();
    let rw = b.alloc_rwlock();
    let sem = b.alloc_sem();
    let reg = b.alloc_region(256);
    b.spawn_workers();
    for t in 0..3u32 {
        b.thread(t)
            .block(
                BlockSpec::new(96 + t, 11 + t as u64)
                    .loads(0.25)
                    .stores(0.05)
                    .branches(0.1)
                    .addr(AddressPattern::stream(reg), 1.0),
            )
            .barrier(bar)
            .lock(mx)
            .unlock(mx)
            .rw_lock(rw, t == 0)
            .rw_unlock(rw)
            .block(BlockSpec::new(64, 90 + t as u64));
    }
    b.thread(0u32).produce(q, 2).sem_post(sem, 2);
    b.thread(1u32).consume(q).sem_wait(sem);
    b.thread(2u32).consume(q).sem_wait(sem);
    b.join_workers();
    b.build()
}

/// Every reader of a whole container, by name: the sniffing readers over a
/// path and over a byte stream, the in-memory binary reader and the
/// trace-info scan.
fn read_all(path: &Path, bytes: &[u8]) -> Vec<(&'static str, Result<(), TraceFileError>)> {
    vec![
        ("read_program_any", read_program_any(path).map(drop)),
        ("read_program_stream", read_program_stream(bytes).map(drop)),
        (
            "import_program_binary",
            import_program_binary(bytes).map(drop),
        ),
        ("container_info", container_info(path).map(drop)),
    ]
}

#[test]
fn truncated_op_stream_is_detected_at_every_cut() {
    let bytes = export_program_ops(&rich_program()).expect("record");
    let path = tmp_path("truncate");
    let _guard = TempFile(path.clone());
    // Every proper prefix must fail with a typed error — never Ok, never a
    // panic — through every reader, and with the same error once the RPT1
    // magic is whole.
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).expect("write prefix");
        let mut first: Option<(&str, String)> = None;
        for (reader, result) in read_all(&path, &bytes[..cut]) {
            let err = match result {
                Err(e) => e,
                Ok(()) => panic!("cut at {cut}: {reader} accepted a truncated container"),
            };
            let typed = match err {
                TraceFileError::Truncated { .. }
                | TraceFileError::BadMagic { .. }
                | TraceFileError::Corrupt { .. } => true,
                // Too short to hold the RPT1 magic: the sniffing readers
                // parse it as JSON instead.
                TraceFileError::Json { .. } | TraceFileError::NotATraceFile { .. } => cut < 4,
                _ => false,
            };
            assert!(typed, "cut at {cut}: {reader} got {err:?}");
            if cut >= 4 {
                let err = format!("{err:?}");
                let (first_reader, first_err) = first.get_or_insert((reader, err.clone()));
                assert_eq!(
                    &err, first_err,
                    "cut at {cut}: {reader} and {first_reader} disagree"
                );
            }
        }
    }
    // The full file reads everywhere.
    std::fs::write(&path, &bytes).expect("write full");
    for (reader, result) in read_all(&path, &bytes) {
        result.unwrap_or_else(|e| panic!("{reader} rejected the full container: {e}"));
    }
}

#[test]
fn plain_container_reports_no_op_stream() {
    let program = rich_program();
    let path = tmp_path("plain");
    let _guard = TempFile(path.clone());
    rppm_trace::write_program_binary(&program, &path).expect("write v1");
    let info = container_info(&path).expect("scan");
    assert!(!info.has_op_stream);
    assert_eq!((info.recorded_ops, info.recorded_syncs), (0, 0));
    assert_eq!(read_program_any(&path).expect("import"), program);
}

// ---------------------------------------------------------------------------
// Hand-edited containers

fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A container's `(tag, payload)` sections, in file order.
type Sections = Vec<(u64, Vec<u8>)>;

/// Splits a container into its version and sections.
fn split(bytes: &[u8]) -> (u64, Sections) {
    assert_eq!(&bytes[..4], b"RPT1");
    let mut pos = 4;
    let version = read_varint(bytes, &mut pos);
    let mut sections = Vec::new();
    while pos < bytes.len() {
        let tag = read_varint(bytes, &mut pos);
        let len = read_varint(bytes, &mut pos) as usize;
        sections.push((tag, bytes[pos..pos + len].to_vec()));
        pos += len;
    }
    (version, sections)
}

fn join(version: u64, sections: &Sections) -> Vec<u8> {
    let mut out = b"RPT1".to_vec();
    push_varint(&mut out, version);
    for (tag, payload) in sections {
        push_varint(&mut out, *tag);
        push_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(payload);
    }
    out
}

/// Replaces the leading varint of the first section tagged `tag`.
fn patch_first_varint(sections: &mut Sections, tag: u64, f: impl Fn(u64) -> u64) {
    let (_, payload) = sections
        .iter_mut()
        .find(|(t, _)| *t == tag)
        .expect("section present");
    let mut pos = 0;
    let v = read_varint(payload, &mut pos);
    let mut patched = Vec::new();
    push_varint(&mut patched, f(v));
    patched.extend_from_slice(&payload[pos..]);
    *payload = patched;
}

/// Inserts a section just before the end section.
fn insert_before_end(sections: &mut Sections, tag: u64, payload: Vec<u8>) {
    let end = sections.len() - 1;
    assert_eq!(sections[end].0, TAG_END, "the end section comes last");
    sections.insert(end, (tag, payload));
}

const TAG_OPS: u64 = 2;
const TAG_END: u64 = 3;
const TAG_OP_RUN: u64 = 4;
const TAG_OP_META: u64 = 6;

#[test]
fn malformed_sections_get_one_error_from_every_reader() {
    let mut b = ProgramBuilder::new("four", 4);
    let bar = b.alloc_barrier();
    b.spawn_workers();
    for t in 0..4u32 {
        b.thread(t)
            .block(BlockSpec::new(300 + t, 7 + t as u64).loads(0.2))
            .barrier(bar);
    }
    b.join_workers();
    let clean = export_program_ops(&b.build()).expect("record");
    let (version, sections) = split(&clean);
    assert_eq!(join(version, &sections), clean, "split/join round-trips");

    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    let mut s = sections.clone();
    patch_first_varint(&mut s, TAG_OP_META, |runs| runs + 1);
    cases.push(("op-meta run count off by one", join(version, &s)));
    let mut s = sections.clone();
    patch_first_varint(&mut s, TAG_OP_RUN, |_| 99);
    cases.push(("op-run section for thread 99", join(version, &s)));
    let mut s = sections.clone();
    insert_before_end(&mut s, TAG_OP_RUN, vec![0, 0]);
    cases.push(("empty op-run section", join(version, &s)));
    let mut s = sections.clone();
    insert_before_end(&mut s, TAG_OPS, vec![0, 0]);
    cases.push(("empty segment section", join(version, &s)));
    let mut s = sections.clone();
    s.last_mut().expect("end section").1.push(0);
    assert_eq!(s.last().expect("end section").0, TAG_END);
    cases.push(("excess byte in the end section", join(version, &s)));
    let mut trailing = clean.clone();
    trailing.push(0);
    cases.push(("one byte after the end section", trailing));

    let path = tmp_path("malformed");
    let _guard = TempFile(path.clone());
    for (case, bytes) in cases {
        std::fs::write(&path, &bytes).expect("write case");
        let details: Vec<(&str, String)> = read_all(&path, &bytes)
            .into_iter()
            .map(|(reader, result)| match result {
                Err(TraceFileError::Corrupt { detail }) => (reader, detail),
                other => panic!("{case}: {reader} returned {other:?}, expected Corrupt"),
            })
            .collect();
        let first = &details[0].1;
        for (reader, detail) in &details {
            assert_eq!(
                detail, first,
                "{case}: {reader} and {} disagree",
                details[0].0
            );
        }
    }
}
