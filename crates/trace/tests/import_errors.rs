//! Malformed trace files must yield typed, actionable errors — never a
//! panic. Each test corrupts one aspect of a known-good file (JSON
//! interchange or `RPT1` binary) and asserts the importer reports the
//! matching [`TraceFileError`] variant.

use rppm_trace::{
    export_program, export_program_binary, import_program, import_program_binary,
    read_program_stream, BlockSpec, Program, ProgramBuilder, ProgramError, TraceFileError,
    BINARY_TRACE_VERSION, TRACE_FORMAT, TRACE_VERSION,
};

fn good_file() -> String {
    let mut b = ProgramBuilder::new("victim", 2);
    let bar = b.alloc_barrier();
    b.spawn_workers();
    for t in 0..2u32 {
        b.thread(t)
            .block(BlockSpec::new(256, 5 + t as u64).loads(0.2).branches(0.1))
            .barrier(bar);
    }
    b.join_workers();
    export_program(&b.build()).expect("good program serializes")
}

#[test]
fn wrong_schema_version_is_rejected() {
    // A program without version-2 events serializes as version 1; claim a
    // version newer than anything this build reads.
    let future = TRACE_VERSION + 1;
    let text = good_file().replace("\"version\":1", &format!("\"version\":{future}"));
    match import_program(&text) {
        Err(TraceFileError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, future as u64);
            assert_eq!(supported, TRACE_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn non_integer_version_is_rejected() {
    let text = good_file().replace("\"version\":1", "\"version\":\"one\"");
    match import_program(&text) {
        Err(e @ TraceFileError::NotATraceFile { .. }) => {
            // Mistyped must read differently from absent: the field *is*
            // present, just the wrong type.
            let msg = e.to_string();
            assert!(msg.contains("must be a non-negative integer"), "{msg}");
            assert!(msg.contains("a string"), "{msg}");
        }
        other => panic!("expected NotATraceFile, got {other:?}"),
    }
}

#[test]
fn truncated_file_is_a_json_error() {
    let text = good_file();
    for cut in [1, text.len() / 3, text.len() - 1] {
        let err = import_program(&text[..cut]).unwrap_err();
        assert!(
            matches!(err, TraceFileError::Json { .. }),
            "cut at {cut}: expected Json error, got {err:?}"
        );
    }
}

#[test]
fn unknown_sync_event_kind_is_a_schema_error() {
    let text = good_file().replace("\"Barrier\"", "\"Rendezvous\"");
    match import_program(&text) {
        Err(TraceFileError::Schema { detail }) => {
            assert!(
                detail.contains("Rendezvous"),
                "diagnostic should name the unknown kind: {detail}"
            );
        }
        other => panic!("expected Schema error, got {other:?}"),
    }
}

#[test]
fn missing_block_field_is_a_schema_error() {
    // Drop every block's `seed` field (name plus value plus the comma).
    let text = good_file()
        .replace("\"seed\":5,", "")
        .replace("\"seed\":6,", "");
    match import_program(&text) {
        Err(TraceFileError::Schema { detail }) => {
            assert!(
                detail.contains("seed"),
                "diagnostic should name the field: {detail}"
            );
        }
        other => panic!("expected Schema error, got {other:?}"),
    }
}

#[test]
fn wrong_format_tag_is_rejected() {
    let text = good_file().replace(TRACE_FORMAT, "someone-elses-trace");
    match import_program(&text) {
        Err(TraceFileError::NotATraceFile { detail }) => {
            assert!(detail.contains("someone-elses-trace"), "{detail}");
        }
        other => panic!("expected NotATraceFile, got {other:?}"),
    }
}

#[test]
fn non_object_top_level_is_rejected() {
    for text in ["[]", "42", "\"rppm-trace\"", "null"] {
        assert!(
            matches!(
                import_program(text),
                Err(TraceFileError::NotATraceFile { .. })
            ),
            "{text}"
        );
    }
}

#[test]
fn structurally_invalid_program_is_rejected() {
    // A worker thread with segments but no Create event: parses fine,
    // fails validation.
    let text = format!(
        "{{\"format\":\"{TRACE_FORMAT}\",\"version\":{TRACE_VERSION},\"program\":\
         {{\"name\":\"orphan\",\"threads\":[{{\"segments\":[]}},\
         {{\"segments\":[{{\"Sync\":{{\"Consume\":{{\"queue\":0}}}}}}]}}]}}}}"
    );
    match import_program(&text) {
        Err(TraceFileError::InvalidProgram(e)) => {
            assert!(e.to_string().contains("never created"), "{e}");
        }
        other => panic!("expected InvalidProgram, got {other:?}"),
    }
}

#[test]
fn program_without_threads_is_rejected_by_every_reader() {
    // Not even a main thread: JSON and RPT1, buffered and streamed, refuse
    // it at import, before anything tries to profile it.
    let text = format!(
        "{{\"format\":\"{TRACE_FORMAT}\",\"version\":{TRACE_VERSION},\"program\":\
         {{\"name\":\"empty\",\"threads\":[]}}}}"
    );
    let bytes = export_program_binary(&Program::new("empty", 0)).expect("writer does not validate");
    for (reader, result) in [
        ("json", import_program(&text)),
        ("json stream", read_program_stream(text.as_bytes())),
        ("rpt1", import_program_binary(&bytes)),
        ("rpt1 stream", read_program_stream(&bytes[..])),
    ] {
        match result {
            Err(TraceFileError::InvalidProgram(ProgramError::NoThreads)) => {}
            other => panic!("{reader}: expected InvalidProgram(NoThreads), got {other:?}"),
        }
    }
    let message = import_program(&text).unwrap_err().to_string();
    assert!(message.contains("no threads"), "{message}");
}

/// Sets one field of a block that expansion cannot use.
type Breakage = fn(&mut BlockSpec);

/// A two-thread program whose worker block has one expansion-breaking
/// field, set by `breakage`.
fn broken_block_program(breakage: Breakage) -> Program {
    let mut b = ProgramBuilder::new("broken-block", 2);
    let r = b.alloc_region(64);
    b.spawn_workers();
    b.thread(1u32).block(
        BlockSpec::new(256, 3)
            .loads(0.2)
            .branches(0.1)
            .addr(rppm_trace::AddressPattern::stream(r), 1.0),
    );
    b.join_workers();
    let mut program = b.build();
    for seg in &mut program.threads[1].segments {
        if let rppm_trace::Segment::Block(block) = seg {
            breakage(block);
        }
    }
    program
}

#[test]
fn blocks_expansion_cannot_use_are_rejected_by_every_reader() {
    use rppm_trace::{AddressPattern, BranchPattern, Region};
    const ZERO: Region = Region { base: 0, lines: 0 };
    // Fields both containers carry: every reader, buffered and streamed,
    // refuses them at validation instead of panicking in expansion.
    let both: [(&str, Breakage); 2] = [
        ("branch site", |b| b.n_sites = 0),
        ("period 0", |b| b.branch = BranchPattern::Loop { period: 0 }),
    ];
    for (message, breakage) in both {
        let program = broken_block_program(breakage);
        let text = export_program(&program).expect("writer does not validate");
        let bytes = export_program_binary(&program).expect("writer does not validate");
        for (reader, result) in [
            ("json", import_program(&text)),
            ("json stream", read_program_stream(text.as_bytes())),
            ("rpt1", import_program_binary(&bytes)),
            ("rpt1 stream", read_program_stream(&bytes[..])),
        ] {
            match result {
                Err(TraceFileError::InvalidProgram(e @ ProgramError::InvalidBlock { .. })) => {
                    assert!(e.to_string().contains(message), "{reader}: {e}");
                }
                other => panic!("{reader}: expected InvalidBlock, got {other:?}"),
            }
        }
    }
    // Fields the RPT1 decoder already refuses as corrupt: JSON refuses
    // them at validation.
    let json_only: [(&str, Breakage); 3] = [
        ("zero lines", |b| {
            b.addr = vec![(AddressPattern::stream(ZERO), 1.0)]
        }),
        ("zero lines", |b| {
            b.store_addr = vec![(AddressPattern::Random { region: ZERO }, 1.0)]
        }),
        ("length 0 not in 1..=64", |b| {
            b.branch = BranchPattern::Periodic { bits: 1, len: 0 }
        }),
    ];
    for (message, breakage) in json_only {
        let program = broken_block_program(breakage);
        let text = export_program(&program).expect("writer does not validate");
        for (reader, result) in [
            ("json", import_program(&text)),
            ("json stream", read_program_stream(text.as_bytes())),
        ] {
            match result {
                Err(TraceFileError::InvalidProgram(e @ ProgramError::InvalidBlock { .. })) => {
                    assert!(e.to_string().contains(message), "{reader}: {e}");
                }
                other => panic!("{reader}: expected InvalidBlock, got {other:?}"),
            }
        }
        let bytes = export_program_binary(&program).expect("writer does not validate");
        for (reader, result) in [
            ("rpt1", import_program_binary(&bytes)),
            ("rpt1 stream", read_program_stream(&bytes[..])),
        ] {
            assert!(
                matches!(result, Err(TraceFileError::Corrupt { .. })),
                "{reader}: {result:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// RPT1 binary container

fn good_binary() -> Vec<u8> {
    let mut b = ProgramBuilder::new("bin-victim", 2);
    let bar = b.alloc_barrier();
    let r = b.alloc_region(1024);
    b.spawn_workers();
    for t in 0..2u32 {
        b.thread(t)
            .block(
                BlockSpec::new(256, 5 + t as u64)
                    .loads(0.2)
                    .branches(0.1)
                    .addr(rppm_trace::AddressPattern::stream(r), 1.0),
            )
            .barrier(bar);
    }
    b.join_workers();
    export_program_binary(&b.build()).expect("good program serializes")
}

#[test]
fn bad_magic_is_rejected_with_found_bytes() {
    let mut bytes = good_binary();
    bytes[..4].copy_from_slice(b"NOPE");
    match import_program_binary(&bytes) {
        Err(TraceFileError::BadMagic { found }) => {
            assert_eq!(&found, b"NOPE");
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }
    // The auto-detecting entry point treats non-RPT1 bytes as JSON, which
    // these are not either — still a typed error, never a panic.
    assert!(read_program_stream(&bytes[..]).is_err());
}

#[test]
fn binary_unsupported_version_is_rejected() {
    let mut bytes = good_binary();
    // The version varint sits right after the 4 magic bytes; a program
    // without version-2 events is written as version 1 (one byte, 0x01).
    // Claim version 9 instead.
    assert_eq!(bytes[4], 1);
    bytes[4] = 9;
    match import_program_binary(&bytes) {
        Err(TraceFileError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 9);
            assert_eq!(supported, BINARY_TRACE_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn truncated_binary_is_detected_at_every_cut() {
    let bytes = good_binary();
    // Cut the stream at every prefix length: each must fail with a typed
    // error (Truncated for almost all cuts; never Ok, never a panic).
    for cut in 0..bytes.len() {
        let err = import_program_binary(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(
                err,
                TraceFileError::Truncated { .. }
                    | TraceFileError::BadMagic { .. }
                    | TraceFileError::Corrupt { .. }
            ),
            "cut at {cut}: got {err:?}"
        );
    }
}

#[test]
fn truncated_section_is_reported() {
    let bytes = good_binary();
    // Drop the final end section plus a few payload bytes: the reader
    // must report what it was reading when the stream ran out.
    let err = import_program_binary(&bytes[..bytes.len() - 6]).unwrap_err();
    match err {
        TraceFileError::Truncated { context } => {
            assert!(!context.is_empty(), "context must say what was cut off");
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn header_name_overrunning_its_section_is_truncated_not_a_panic() {
    // A crafted header whose declared name length fits the payload total
    // but overruns the bytes remaining after the length varint itself.
    let mut bytes = Vec::from(*b"RPT1");
    bytes.push(BINARY_TRACE_VERSION as u8);
    bytes.push(1); // header tag
    bytes.push(3); // section length: 3 bytes
    bytes.extend_from_slice(&[0x03, b'a', b'b']); // name_len 3, only 2 bytes left
    match import_program_binary(&bytes) {
        Err(TraceFileError::Truncated { context }) => {
            assert!(context.contains("name"), "{context}");
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn implausible_thread_count_is_rejected_before_allocating() {
    // num_threads = u32::MAX must fail fast, not attempt a giant
    // per-thread state allocation.
    let mut bytes = Vec::from(*b"RPT1");
    bytes.push(BINARY_TRACE_VERSION as u8);
    bytes.push(1); // header tag
    let name = [0x01, b'x']; // name_len 1, "x"
    let threads = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F]; // varint u32::MAX
    bytes.push((name.len() + threads.len()) as u8); // section length
    bytes.extend_from_slice(&name);
    bytes.extend_from_slice(&threads);
    match import_program_binary(&bytes) {
        Err(TraceFileError::Corrupt { detail }) => {
            assert!(detail.contains("threads"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn varint_overrun_is_detected() {
    // A version varint of ten 0xFF continuation bytes overruns 64 bits.
    let mut bytes = Vec::from(*b"RPT1");
    bytes.extend_from_slice(&[0xFF; 10]);
    match import_program_binary(&bytes) {
        Err(TraceFileError::VarintOverrun { context }) => {
            assert!(!context.is_empty());
        }
        other => panic!("expected VarintOverrun, got {other:?}"),
    }
}

#[test]
fn trailing_garbage_after_end_section_is_rejected() {
    let mut bytes = good_binary();
    bytes.extend_from_slice(b"junk");
    match import_program_binary(&bytes) {
        Err(TraceFileError::Corrupt { detail }) => {
            assert!(detail.contains("trailing"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn oversized_section_length_is_rejected_without_allocation() {
    // A corrupt length prefix claiming an enormous section must fail fast
    // instead of attempting the allocation.
    let mut bytes = Vec::from(*b"RPT1");
    bytes.push(BINARY_TRACE_VERSION as u8);
    bytes.push(1); // header tag
                   // varint for u64::MAX / 2: way beyond the section cap.
    bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]);
    match import_program_binary(&bytes) {
        Err(TraceFileError::Corrupt { detail }) => {
            assert!(detail.contains("section"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn structurally_invalid_binary_program_is_rejected() {
    // Encode an orphan-worker program directly through the writer: it
    // parses fine but fails Program::validate on import.
    let mut p = rppm_trace::Program::new("orphan", 2);
    p.threads[1]
        .segments
        .push(rppm_trace::Segment::Block(BlockSpec::new(8, 1)));
    let bytes = export_program_binary(&p).expect("writer does not validate");
    match import_program_binary(&bytes) {
        Err(TraceFileError::InvalidProgram(e)) => {
            assert!(e.to_string().contains("never created"), "{e}");
        }
        other => panic!("expected InvalidProgram, got {other:?}"),
    }
}

#[test]
fn every_binary_error_message_is_actionable() {
    let mut bad_magic = good_binary();
    bad_magic[0] = b'X';
    let mut versioned = good_binary();
    versioned[4] = 42;
    let truncated = &good_binary()[..10];
    let cases = [
        import_program_binary(&bad_magic).unwrap_err().to_string(),
        import_program_binary(&versioned).unwrap_err().to_string(),
        import_program_binary(truncated).unwrap_err().to_string(),
    ];
    assert!(cases[0].contains("RPT1"), "{}", cases[0]);
    assert!(cases[1].contains("42"), "{}", cases[1]);
    for msg in cases {
        assert!(msg.len() > 20, "too terse: {msg}");
    }
}

#[test]
fn every_error_message_is_actionable() {
    // The user-facing contract: messages say what to fix.
    let cases = [
        import_program("").unwrap_err().to_string(),
        import_program("{\"format\":\"x\",\"version\":1}")
            .unwrap_err()
            .to_string(),
        import_program(&format!("{{\"format\":\"{TRACE_FORMAT}\",\"version\":7}}"))
            .unwrap_err()
            .to_string(),
    ];
    assert!(cases[1].contains(TRACE_FORMAT), "{}", cases[1]);
    assert!(
        cases[2].contains("version 7") || cases[2].contains("version"),
        "{}",
        cases[2]
    );
    for msg in cases {
        assert!(msg.len() > 20, "too terse: {msg}");
    }
}
