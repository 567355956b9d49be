//! Versioned on-disk trace interchange format.
//!
//! A trace file is the serialized form of a [`Program`]: the same
//! microarchitecture-independent information an external profiler (a
//! Pin-tool, a DynamoRIO client, a hand-written harness) would record from a
//! native execution — per-thread op streams described parametrically, the
//! synchronization-event sequence, address patterns and branch-outcome
//! patterns. Exporting and re-importing a program is lossless: the imported
//! program profiles and predicts bit-identically to the original.
//!
//! # Envelope
//!
//! Every trace file is a JSON object with exactly this envelope:
//!
//! ```json
//! {
//!   "format": "rppm-trace",
//!   "version": 1,
//!   "program": { "name": "...", "threads": [ { "segments": [ ... ] } ] }
//! }
//! ```
//!
//! * `format` must be the literal string `"rppm-trace"`; anything else is
//!   rejected as [`TraceFileError::NotATraceFile`].
//! * `version` is the schema version this file was written with. Importers
//!   accept versions 1 through [`TRACE_VERSION`]; newer files fail with
//!   [`TraceFileError::UnsupportedVersion`] rather than being misread.
//!   Exporters write the *smallest* version able to carry the program
//!   ([`Program::format_version`]), so traces without version-2 events
//!   (reader-writer locks, semaphores) stay byte-identical to what a
//!   version-1 tool would have written.
//! * `program` is the [`Program`] body. Each thread's `segments` hold
//!   `{"Block": {...}}` instruction blocks ([`crate::BlockSpec`], all fields
//!   required) and `{"Sync": {...}}` synchronization events
//!   ([`crate::SyncOp`] variants such as `{"Barrier": {"id": 0,
//!   "via_cond": false}}`).
//!
//! # Versioning policy
//!
//! Within a version the schema only changes additively (new optional
//! content); any change that alters the meaning or shape of existing fields
//! bumps [`TRACE_VERSION`]. Old readers therefore never silently misread new
//! files: they fail with an actionable [`TraceFileError::UnsupportedVersion`].
//!
//! # Example
//!
//! ```
//! use rppm_trace::{export_program, import_program, BlockSpec, ProgramBuilder};
//!
//! let mut b = ProgramBuilder::new("demo", 2);
//! b.spawn_workers();
//! b.thread(1u32).block(BlockSpec::new(1_000, 7).loads(0.2));
//! b.join_workers();
//! let program = b.build();
//!
//! let text = export_program(&program).expect("serializes");
//! let back = import_program(&text).expect("round-trips");
//! assert_eq!(program, back);
//! ```

use crate::program::{Program, ProgramError};
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};

/// The `format` tag every trace file must carry.
pub const TRACE_FORMAT: &str = "rppm-trace";

/// Newest schema version this build understands. [`import_program`]
/// accepts versions `1..=TRACE_VERSION`; [`export_program`] writes the
/// smallest version able to carry the program.
pub const TRACE_VERSION: u32 = 2;

/// Everything that can go wrong exporting or importing a trace file.
///
/// Every variant renders an actionable message: what was wrong, where, and —
/// where it helps — what would have been accepted instead.
#[derive(Debug)]
pub enum TraceFileError {
    /// Reading or writing the file failed.
    Io {
        /// File being accessed.
        path: PathBuf,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// The file is not syntactically valid JSON (truncated, mis-quoted, ...).
    Json {
        /// Parser diagnostic.
        detail: String,
    },
    /// The JSON is valid but is not an rppm trace file (wrong or missing
    /// `format` tag, or the top level is not an object).
    NotATraceFile {
        /// What was found instead.
        detail: String,
    },
    /// The file declares a schema version this build cannot read.
    UnsupportedVersion {
        /// Version declared by the file.
        found: u64,
        /// Version this build supports.
        supported: u32,
    },
    /// The `program` body does not match the schema (missing field, unknown
    /// sync-event kind, wrong type, ...).
    Schema {
        /// Deserializer diagnostic.
        detail: String,
    },
    /// The program parsed but violates structural invariants (orphan
    /// threads, unbalanced locks, ...).
    InvalidProgram(ProgramError),
    /// The program cannot be serialized (a non-finite float snuck into a
    /// block specification).
    Unserializable {
        /// Serializer diagnostic.
        detail: String,
    },
    /// A binary trace does not start with the `RPT1` magic bytes.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// A binary trace ended mid-structure (cut-off section, half a varint,
    /// missing end section, ...).
    Truncated {
        /// What was being read when the stream ran out.
        context: String,
    },
    /// A varint in a binary trace is overlong (more than 10 bytes, or a
    /// tenth byte overflowing 64 bits).
    VarintOverrun {
        /// What was being read when the overrun was detected.
        context: String,
    },
    /// A binary trace is structurally corrupt (unknown tag, count
    /// mismatch, trailing data, out-of-range value, ...).
    Corrupt {
        /// What is wrong.
        detail: String,
    },
    /// A streaming binary read or write failed at the I/O layer (no file
    /// path is available for a generic stream).
    Stream {
        /// What was being transferred.
        context: String,
        /// Underlying I/O error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io { path, source } => {
                write!(f, "cannot access trace file `{}`: {source}", path.display())
            }
            TraceFileError::Json { detail } => {
                write!(f, "trace file is not valid JSON: {detail}")
            }
            TraceFileError::NotATraceFile { detail } => write!(
                f,
                "not an rppm trace file ({detail}); expected a JSON object with \
                 \"format\": \"{TRACE_FORMAT}\""
            ),
            TraceFileError::UnsupportedVersion { found, supported } => write!(
                f,
                "trace file uses schema version {found}, but this build reads only \
                 versions 1 through {supported}; re-export the trace with a matching tool"
            ),
            TraceFileError::Schema { detail } => {
                write!(
                    f,
                    "trace file `program` does not match the schema: {detail}"
                )
            }
            TraceFileError::InvalidProgram(e) => {
                write!(f, "trace file parsed but the program is invalid: {e}")
            }
            TraceFileError::Unserializable { detail } => {
                write!(f, "program cannot be serialized: {detail}")
            }
            TraceFileError::BadMagic { found } => write!(
                f,
                "not an RPT1 binary trace: file starts with bytes {found:02X?} instead of \
                 the magic \"RPT1\"; convert the trace with `trace_convert` or export it \
                 with a matching tool"
            ),
            TraceFileError::Truncated { context } => write!(
                f,
                "binary trace is truncated: the stream ended while reading {context}; \
                 the file was cut off mid-write"
            ),
            TraceFileError::VarintOverrun { context } => write!(
                f,
                "binary trace is corrupt: overlong varint while reading {context}; \
                 the bytes at this position are not a valid RPT1 stream"
            ),
            TraceFileError::Corrupt { detail } => {
                write!(f, "binary trace is corrupt: {detail}")
            }
            TraceFileError::Stream { context, source } => {
                write!(f, "binary trace I/O failed while {context}: {source}")
            }
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io { source, .. } | TraceFileError::Stream { source, .. } => {
                Some(source)
            }
            TraceFileError::InvalidProgram(e) => Some(e),
            _ => None,
        }
    }
}

/// Serializes `program` as versioned trace-file text.
///
/// # Errors
///
/// Returns [`TraceFileError::Unserializable`] if the program contains a
/// non-finite float (JSON cannot express it).
pub fn export_program(program: &Program) -> Result<String, TraceFileError> {
    let envelope = Value::Object(vec![
        (
            "format".to_string(),
            Value::String(TRACE_FORMAT.to_string()),
        ),
        (
            "version".to_string(),
            Value::U64(program.format_version() as u64),
        ),
        ("program".to_string(), program.to_value()),
    ]);
    serde_json::to_string(&envelope).map_err(|e| TraceFileError::Unserializable {
        detail: e.to_string(),
    })
}

/// Parses trace-file text back into a validated [`Program`].
///
/// # Errors
///
/// Returns the first failure encountered, in checking order: [`Json`]
/// (syntax), [`NotATraceFile`] (envelope), [`UnsupportedVersion`],
/// [`Schema`] (program body), [`InvalidProgram`] (structural validation).
///
/// [`Json`]: TraceFileError::Json
/// [`NotATraceFile`]: TraceFileError::NotATraceFile
/// [`UnsupportedVersion`]: TraceFileError::UnsupportedVersion
/// [`Schema`]: TraceFileError::Schema
/// [`InvalidProgram`]: TraceFileError::InvalidProgram
pub fn import_program(text: &str) -> Result<Program, TraceFileError> {
    let value: Value = serde_json::from_str(text).map_err(|e| TraceFileError::Json {
        detail: e.to_string(),
    })?;
    let entries = value
        .as_object()
        .ok_or_else(|| TraceFileError::NotATraceFile {
            detail: "top level is not a JSON object".to_string(),
        })?;

    let format = match Value::get(entries, "format") {
        None => {
            return Err(TraceFileError::NotATraceFile {
                detail: "missing field `format`".to_string(),
            })
        }
        Some(v) => v.as_str().ok_or_else(|| TraceFileError::NotATraceFile {
            detail: format!("field `format` must be a string, found {}", json_kind(v)),
        })?,
    };
    if format != TRACE_FORMAT {
        return Err(TraceFileError::NotATraceFile {
            detail: format!("`format` is \"{format}\""),
        });
    }

    let version = match Value::get(entries, "version") {
        None => {
            return Err(TraceFileError::NotATraceFile {
                detail: "missing field `version`".to_string(),
            })
        }
        Some(v) => v.as_u64().ok_or_else(|| TraceFileError::NotATraceFile {
            detail: format!(
                "field `version` must be a non-negative integer, found {}",
                json_kind(v)
            ),
        })?,
    };
    if !(1..=TRACE_VERSION as u64).contains(&version) {
        return Err(TraceFileError::UnsupportedVersion {
            found: version,
            supported: TRACE_VERSION,
        });
    }

    let body = Value::get(entries, "program").ok_or_else(|| TraceFileError::Schema {
        detail: "missing field `program`".to_string(),
    })?;
    let program = Program::from_value(body).map_err(|e| TraceFileError::Schema {
        detail: e.to_string(),
    })?;
    let needs = program.format_version();
    if (needs as u64) > version {
        return Err(TraceFileError::Schema {
            detail: format!(
                "file declares schema version {version} but contains events that require \
                 version {needs} (reader-writer locks or semaphores)"
            ),
        });
    }
    program.validate().map_err(TraceFileError::InvalidProgram)?;
    Ok(program)
}

/// Writes `program` to `path` as a trace file.
///
/// # Errors
///
/// Propagates [`export_program`] failures and I/O errors (with the path).
pub fn write_program(program: &Program, path: impl AsRef<Path>) -> Result<(), TraceFileError> {
    let path = path.as_ref();
    let text = export_program(program)?;
    std::fs::write(path, text).map_err(|source| TraceFileError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Human-readable kind of a JSON value, for error messages.
fn json_kind(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::U64(_) | Value::I64(_) => "an integer",
        Value::F64(_) => "a float",
        Value::String(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    }
}

/// Stable content fingerprint of a program: FNV-1a over its canonical
/// `RPT1` encoding (the bytes [`crate::export_program_binary`] returns,
/// hashed as the writer streams them). The encoding is lossless and
/// canonical, so two programs share a fingerprint exactly when they export
/// identically, whichever container they came from — used to key profile
/// caches for imported traces.
pub fn program_fingerprint(program: &Program) -> u64 {
    crate::binary::write_program_to(program, Fnv(0xCBF2_9CE4_8422_2325))
        .expect("a hash sink accepts every write")
        .0
}

/// A 64-bit FNV-1a hash fed as an [`std::io::Write`] sink.
struct Fnv(u64);

impl std::io::Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1_0000_0000_01B3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockSpec;
    use crate::builder::ProgramBuilder;
    use crate::pattern::AddressPattern;

    fn sample() -> Program {
        let mut b = ProgramBuilder::new("sample", 3);
        let r = b.alloc_region(2048);
        let bar = b.alloc_barrier();
        let m = b.alloc_mutex();
        let q = b.alloc_queue();
        b.spawn_workers();
        b.thread(0u32).produce(q, 2);
        for t in 1..3u32 {
            b.thread(t)
                .consume(q)
                .block(
                    BlockSpec::new(500, 9 + t as u64)
                        .loads(0.3)
                        .branches(0.1)
                        .addr(AddressPattern::hot(r, 64, 0.8), 1.0),
                )
                .lock(m)
                .block(BlockSpec::new(32, 1))
                .unlock(m)
                .barrier(bar);
        }
        b.join_workers();
        b.build()
    }

    #[test]
    fn export_import_round_trips() {
        let p = sample();
        let text = export_program(&p).unwrap();
        let back = import_program(&text).unwrap();
        assert_eq!(p, back);
        // Re-exporting the import is byte-identical (canonical form).
        assert_eq!(text, export_program(&back).unwrap());
    }

    #[test]
    fn envelope_carries_format_and_version() {
        // A program without version-2 events is written as version 1, so
        // existing traces stay byte-identical across the format bump.
        let text = export_program(&sample()).unwrap();
        assert!(text.starts_with(&format!("{{\"format\":\"{TRACE_FORMAT}\",\"version\":1,")));
    }

    fn sample_v2() -> Program {
        let mut b = crate::builder::ProgramBuilder::new("v2-demo", 2);
        let rw = b.alloc_rwlock();
        let s = b.alloc_sem();
        b.spawn_workers();
        b.thread(0u32)
            .rw_lock(rw, true)
            .block(BlockSpec::new(100, 3))
            .rw_unlock(rw)
            .sem_post(s, 1);
        b.thread(1u32).sem_wait(s).rw_lock(rw, false).rw_unlock(rw);
        b.join_workers();
        b.build()
    }

    #[test]
    fn v2_programs_round_trip_at_version_2() {
        let p = sample_v2();
        let text = export_program(&p).unwrap();
        assert!(text.starts_with(&format!("{{\"format\":\"{TRACE_FORMAT}\",\"version\":2,")));
        let back = import_program(&text).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn v2_events_in_v1_file_are_rejected() {
        let p = sample_v2();
        let text = export_program(&p).unwrap();
        let lied = text.replacen("\"version\":2", "\"version\":1", 1);
        let err = import_program(&lied).unwrap_err();
        assert!(matches!(err, TraceFileError::Schema { .. }), "{err}");
        assert!(err.to_string().contains("version 2"), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("rppm-trace-file-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.json");
        let p = sample();
        write_program(&p, &path).unwrap();
        assert_eq!(crate::read_program_any(&path).unwrap(), p);
    }

    #[test]
    fn missing_file_reports_path() {
        let err = crate::read_program_any("/nonexistent/trace.json").unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, TraceFileError::Io { .. }), "{msg}");
        assert!(msg.contains("/nonexistent/trace.json"), "{msg}");
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        use crate::program::{Segment, ThreadScript};
        use crate::sync::SyncOp;
        let p = sample();
        assert_eq!(program_fingerprint(&p), program_fingerprint(&sample()));
        // Thread 1 runs consume, block, lock, block, unlock, barrier.
        fn block(q: &mut Program) -> &mut BlockSpec {
            match &mut q.threads[1].segments[1] {
                Segment::Block(b) => b,
                other => panic!("expected a block, found {other:?}"),
            }
        }
        let changes = |what: &str, edit: &dyn Fn(&mut Program)| {
            let mut q = p.clone();
            edit(&mut q);
            assert_ne!(program_fingerprint(&p), program_fingerprint(&q), "{what}");
        };
        changes("name", &|q| q.name = "renamed".to_string());
        changes("thread count", &|q| q.threads.push(ThreadScript::default()));
        changes("block seed", &|q| block(q).seed ^= 1);
        changes("f64 fraction, one ulp", &|q| {
            let b = block(q);
            b.f_load = f64::from_bits(b.f_load.to_bits() + 1);
        });
        changes("sync id", &|q| match &mut q.threads[1].segments[5] {
            Segment::Sync(SyncOp::Barrier { id, .. }) => id.0 += 1,
            other => panic!("expected a barrier, found {other:?}"),
        });
    }

    #[test]
    fn errors_render_actionable_messages() {
        let errors = [
            import_program("{").unwrap_err(),
            import_program("[1,2]").unwrap_err(),
            import_program("{\"format\":\"other\",\"version\":1}").unwrap_err(),
            import_program(&format!("{{\"format\":\"{TRACE_FORMAT}\",\"version\":99}}"))
                .unwrap_err(),
            import_program(&format!("{{\"format\":\"{TRACE_FORMAT}\",\"version\":1}}"))
                .unwrap_err(),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
