//! Integration tests for the `rppm::Session` facade and the unified
//! `rppm::Error`: the profile-once contract as observable library
//! behaviour, and error-cause preservation through `source()`.

use rppm::core::{PreparedProfile, ProfileKey};
use rppm::prelude::*;
use rppm::trace::{BlockSpec, Program, ProgramBuilder, ProgramError, Segment, TraceFileError};
use std::error::Error as StdError;
use std::sync::{Arc, Barrier};

/// The acceptance-criterion test: two predictions on different machine
/// configurations profile the workload exactly once — measured both at
/// the cache that did the profiling and through the session facade.
#[test]
fn two_predictions_profile_exactly_once() {
    let session = Session::builder().jobs(2).build();

    let base = session
        .workload("hotspot")
        .expect("catalog")
        .scale(0.02)
        .seed(1)
        .profile()
        .predict(&DesignPoint::Base.config());
    let big = session
        .workload("hotspot")
        .expect("catalog")
        .scale(0.02)
        .seed(1)
        .profile()
        .predict(&DesignPoint::Big.config());

    assert!(base.total_cycles > 0.0 && big.total_cycles > 0.0);
    assert_ne!(base.total_cycles.to_bits(), big.total_cycles.to_bits());
    assert_eq!(
        session.cache().profiles_collected(),
        1,
        "exactly one profile() call for two predictions"
    );
    assert_eq!(session.profiles_collected(), 1);
    assert_eq!(session.cache_hits(), 1);
}

/// One profiling run, one preparation: concurrent `predict`,
/// `predict_sweep`, `predict_batch` and `prepared()` callers on one key all
/// evaluate through the same cached `PreparedProfile`, and agree.
#[test]
fn concurrent_predictions_share_one_preparation() {
    let session = Session::builder().jobs(2).build();
    let configs: Vec<MachineConfig> = DesignPoint::ALL.iter().map(|d| d.config()).collect();
    let start = Barrier::new(4);
    let (prepared, totals): (Vec<Arc<PreparedProfile>>, Vec<Vec<u64>>) = std::thread::scope(|s| {
        let threads: Vec<_> = (0..4)
            .map(|caller| {
                let (session, configs, start) = (&session, &configs, &start);
                s.spawn(move || {
                    start.wait();
                    let handle = session
                        .workload("hotspot")
                        .expect("catalog")
                        .scale(0.02)
                        .seed(1)
                        .profile();
                    let totals: Vec<f64> = match caller {
                        0 => configs
                            .iter()
                            .map(|c| handle.predict(c).total_cycles)
                            .collect(),
                        1 => handle
                            .predict_sweep(configs)
                            .iter()
                            .map(|p| p.total_cycles)
                            .collect(),
                        2 => handle.predict_batch(configs),
                        _ => {
                            let mut batch = handle.prepared().batched();
                            configs.iter().map(|c| batch.eval(c)).collect()
                        }
                    };
                    let bits = totals.iter().map(|t| t.to_bits()).collect();
                    (Arc::clone(handle.prepared()), bits)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("caller panicked"))
            .unzip()
    });
    assert!(prepared.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
    assert!(totals.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(session.profiles_collected(), 1);
    assert_eq!(session.cache_hits(), 3);
}

/// Evicting a workload drops its preparation with its profile; profiling
/// it again prepares it exactly once more, and the byte account tracks
/// the resident entries (preparations included).
#[test]
fn reprofiling_an_evicted_workload_prepares_it_once_more() {
    let session = Session::builder()
        .jobs(1)
        .cache_budget(rppm::CacheBudget::entries(1))
        .build();
    let hotspot = || {
        session
            .workload("hotspot")
            .expect("catalog")
            .scale(0.02)
            .seed(1)
            .profile()
    };
    let first = hotspot();
    let key = ProfileKey::generated("hotspot", 0.02, 1);
    let entry = session.cache().peek(&key).expect("resident");
    assert_eq!(session.cache().resident_bytes(), entry.approx_bytes());
    assert!(entry.approx_bytes() > entry.program.approx_bytes() + entry.profile.approx_bytes());

    session
        .workload("nn")
        .expect("catalog")
        .scale(0.02)
        .seed(1)
        .profile();
    assert_eq!(session.cache_evictions(), 1);
    assert!(session.cache().peek(&key).is_none());

    let start = Barrier::new(3);
    let again: Vec<_> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    hotspot()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("caller panicked"))
            .collect()
    });
    assert_eq!(session.profiles_collected(), 3, "one more profiling run");
    assert!(again
        .windows(2)
        .all(|w| Arc::ptr_eq(w[0].prepared(), w[1].prepared())));
    assert!(!Arc::ptr_eq(first.prepared(), again[0].prepared()));
    let config = DesignPoint::Base.config();
    assert_eq!(
        first.predict(&config).total_cycles.to_bits(),
        again[0].predict(&config).total_cycles.to_bits()
    );
    let entry = session.cache().peek(&key).expect("resident again");
    assert_eq!(session.cache().resident_bytes(), entry.approx_bytes());
}

/// Different scales (or seeds) are different workloads: no false sharing.
#[test]
fn distinct_params_profile_separately() {
    let session = Session::new();
    let w = session.workload("nn").expect("catalog");
    w.clone().scale(0.02).seed(1).profile();
    w.clone().scale(0.03).seed(1).profile();
    w.scale(0.02).seed(2).profile();
    assert_eq!(session.profiles_collected(), 3);
    assert_eq!(session.cache_hits(), 0);
}

/// The session facade and the stateless free functions are the same
/// model: bit-identical predictions.
#[test]
fn session_matches_free_functions() {
    let session = Session::new();
    let handle = session
        .workload("lud")
        .expect("catalog")
        .scale(0.02)
        .seed(1)
        .profile();

    let bench = rppm::workloads::by_name("lud").expect("catalog");
    let program = bench.build(&WorkloadParams {
        scale: 0.02,
        seed: 1,
    });
    let prof = profile(&program);
    for dp in DesignPoint::ALL {
        let config = dp.config();
        assert_eq!(
            handle.predict(&config).total_cycles.to_bits(),
            predict(&prof, &config).total_cycles.to_bits()
        );
    }
}

#[test]
fn unknown_workload_error_displays_and_has_no_source() {
    let err = Session::new().workload("not-a-benchmark").unwrap_err();
    assert!(matches!(err, rppm::Error::UnknownWorkload { .. }));
    let msg = err.to_string();
    assert!(msg.contains("not-a-benchmark"), "message names it: {msg}");
    assert!(msg.lines().count() == 1, "one-line message: {msg}");
    assert!(err.source().is_none());
}

#[test]
fn trace_error_preserves_source_for_missing_file() {
    let err = Session::new()
        .import("/definitely/not/a/real/trace.json")
        .unwrap_err();
    assert!(matches!(err, rppm::Error::Trace(_)));
    let source = err.source().expect("trace cause preserved");
    let trace: &TraceFileError = source.downcast_ref().expect("is a TraceFileError");
    // ...and the chain continues into the raw I/O error.
    assert!(matches!(trace, TraceFileError::Io { .. }));
    let io: &std::io::Error = trace.source().expect("io cause").downcast_ref().unwrap();
    assert_eq!(io.kind(), std::io::ErrorKind::NotFound);
}

#[test]
fn trace_error_preserves_source_for_corrupt_content() {
    let dir = std::env::temp_dir().join("rppm-session-api-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.rpt");
    std::fs::write(&path, b"this is not a trace file at all").unwrap();
    let err = Session::new().import(&path).unwrap_err();
    let trace: &TraceFileError = err
        .source()
        .expect("cause preserved")
        .downcast_ref()
        .expect("is a TraceFileError");
    // Sniffed as JSON (no RPT1 magic) and rejected by the parser.
    assert!(
        matches!(trace, TraceFileError::Json { .. }),
        "got {trace:?}"
    );
}

#[test]
fn invalid_program_error_preserves_source() {
    // A thread with work but no creating event is structurally invalid.
    let mut program = Program::new("orphan", 2);
    program.threads[1]
        .segments
        .push(Segment::Block(BlockSpec::new(100, 1)));
    let err = Session::new().program(program).unwrap_err();
    assert!(matches!(err, rppm::Error::InvalidProgram(_)));
    assert!(err.to_string().starts_with("invalid program:"));
    let source: &ProgramError = err
        .source()
        .expect("program cause preserved")
        .downcast_ref()
        .expect("is a ProgramError");
    assert!(matches!(source, ProgramError::NeverCreated { .. }));
    // The same violation surfaces identically from the builder API.
    let mut b = ProgramBuilder::new("orphan", 2);
    b.thread(1u32).block(BlockSpec::new(100, 1));
    let builder_err: rppm::Error = b.try_build().unwrap_err().into();
    assert_eq!(builder_err.to_string(), err.to_string());
}

#[test]
fn program_without_threads_is_an_invalid_program() {
    // Adopted in memory or imported from a file, a program with no threads
    // is refused up front instead of reaching the profiler.
    let err = Session::new().program(Program::new("x", 0)).unwrap_err();
    assert!(
        matches!(err, rppm::Error::InvalidProgram(ProgramError::NoThreads)),
        "got {err:?}"
    );
    let dir = std::env::temp_dir().join("rppm-session-api-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("no-threads.json");
    let text = "{\"format\":\"rppm-trace\",\"version\":1,\
                \"program\":{\"name\":\"empty\",\"threads\":[]}}";
    std::fs::write(&path, text).unwrap();
    let err = Session::new().import(&path).unwrap_err();
    assert!(
        matches!(
            err,
            rppm::Error::Trace(TraceFileError::InvalidProgram(ProgramError::NoThreads))
        ),
        "got {err:?}"
    );
}

#[test]
fn io_error_preserves_source() {
    let err = rppm::Error::Io {
        path: "/tmp/some/path".into(),
        source: std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
    };
    assert!(err.to_string().contains("/tmp/some/path"));
    let io: &std::io::Error = err
        .source()
        .expect("io cause preserved")
        .downcast_ref()
        .expect("is an io::Error");
    assert_eq!(io.kind(), std::io::ErrorKind::PermissionDenied);
}

/// A valid custom program adopted via `Session::program` profiles and
/// predicts like any import, and is fingerprint-deduped against an
/// equivalent imported trace.
#[test]
fn adopted_programs_share_fingerprints_with_imports() {
    let mut b = ProgramBuilder::new("adopted", 2);
    b.spawn_workers();
    b.thread(1u32).block(BlockSpec::new(2_000, 3).loads(0.2));
    b.join_workers();
    let program = b.build();
    let json = rppm::trace::export_program(&program).expect("exports");

    let dir = std::env::temp_dir().join("rppm-session-api-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("adopted.json");
    std::fs::write(&path, json).unwrap();

    let session = Session::new();
    let fingerprint = rppm::trace::program_fingerprint(&program);
    let adopted = session.program(program).expect("valid");
    assert_eq!(adopted.fingerprint(), Some(fingerprint));
    adopted.profile();
    let imported = session.import(&path).expect("imports");
    assert_eq!(imported.fingerprint(), Some(fingerprint));
    imported.profile();
    assert_eq!(session.workload("kmeans").unwrap().fingerprint(), None);
    assert_eq!(
        session.profiles_collected(),
        1,
        "adopted program and its exported twin share one profile"
    );
    assert_eq!(session.cache_hits(), 1);
}
