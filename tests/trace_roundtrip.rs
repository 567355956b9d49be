//! Trace interchange round-trip properties: for arbitrary programs,
//! `export -> import` — through the JSON format, the `RPT1` binary
//! container, the version-3 op-stream container, and chained conversions
//! between them — reproduces the program, its one-time profile, and every
//! design-point prediction bit for bit.

use proptest::prelude::*;
use rppm::prelude::*;
use rppm::trace::{
    export_program, export_program_binary, export_program_ops, import_program,
    import_program_binary, read_program_stream, AddressPattern, BlockSpec, BranchPattern,
};

/// Builds a structurally valid multi-threaded program from sampled scalars:
/// thread count, epochs, block size, instruction mix, address/branch
/// pattern selectors and the synchronization idiom (barrier, critical
/// section, or producer/consumer queue).
#[allow(clippy::too_many_arguments)] // one scalar per sampled strategy
fn arb_program(
    threads: usize,
    epochs: u32,
    ops: u32,
    loads: f64,
    chain: f64,
    pattern_sel: u32,
    sync_sel: u32,
    seed: u64,
) -> Program {
    let mut b = ProgramBuilder::new("arb", threads);
    let hot = b.alloc_region(512);
    let big = b.alloc_region(8192);
    let bar = b.alloc_barrier();
    let m = b.alloc_mutex();
    let q = b.alloc_queue();
    b.spawn_workers();
    for e in 0..epochs {
        if sync_sel % 3 == 2 && threads > 1 {
            b.thread(0u32).produce(q, threads as u32 - 1);
        }
        for t in 0..threads as u32 {
            if sync_sel % 3 == 2 && t > 0 {
                b.thread(t).consume(q);
            }
            let mut spec = BlockSpec::new(ops, seed ^ ((t as u64) << 32) ^ e as u64)
                .loads(loads)
                .stores(loads / 4.0)
                .branches(0.1)
                .load_chain(chain)
                .deps(0.4, 3.0);
            spec = match (pattern_sel + t + e) % 3 {
                0 => spec.addr(
                    AddressPattern::stream(big.chunk(t as u64, threads as u64)),
                    1.0,
                ),
                1 => spec.addr(AddressPattern::hot(big, 128, 0.75), 1.0),
                _ => spec
                    .addr(AddressPattern::random(hot), 0.5)
                    .addr(AddressPattern::strided(big, 4), 0.5),
            };
            spec = match (pattern_sel + e) % 3 {
                0 => spec.branch_pattern(BranchPattern::loop_every(16)),
                1 => spec.branch_pattern(BranchPattern::bernoulli(0.6)),
                _ => spec
                    .branch_pattern(BranchPattern::periodic(0b1011, 4))
                    .sites(2),
            };
            b.thread(t).block(spec);
            match sync_sel % 3 {
                0 => {
                    b.thread(t).barrier(bar);
                }
                1 => {
                    b.thread(t)
                        .lock(m)
                        .block(BlockSpec::new(32, seed ^ 0xC5))
                        .unlock(m);
                }
                _ => {}
            }
        }
    }
    b.join_workers();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// export -> import is the identity on programs, and the imported
    /// program profiles and predicts bit-identically on every design
    /// point.
    #[test]
    fn export_import_preserves_profile_and_predictions(
        threads in 2usize..5,
        epochs in 1u32..4,
        ops in 500u32..3_000,
        loads in 0.05f64..0.4,
        chain in 0.0f64..0.3,
        pattern_sel in 0u32..9,
        sync_sel in 0u32..9,
        seed in 0u64..1_000,
    ) {
        let program = arb_program(threads, epochs, ops, loads, chain, pattern_sel, sync_sel, seed);
        let text = export_program(&program).expect("arbitrary programs serialize");
        let imported = import_program(&text).expect("own exports import");
        prop_assert_eq!(&program, &imported);

        let original = profile(&program);
        let roundtripped = profile(&imported);
        prop_assert_eq!(&original, &roundtripped);

        for dp in DesignPoint::ALL {
            let a = predict(&original, &dp.config());
            let b = predict(&roundtripped, &dp.config());
            prop_assert_eq!(
                a.total_cycles.to_bits(),
                b.total_cycles.to_bits(),
                "prediction diverged on {}", dp
            );
        }

        // Canonical form: exporting the import is byte-identical.
        prop_assert_eq!(text, export_program(&imported).expect("re-exports"));
    }

    /// Chained conversion JSON -> binary -> JSON is the identity, and every
    /// container — JSON, RPT1 and the op-stream container that
    /// `rppm convert --to ops` writes — profiles and predicts
    /// bit-identically. This is the trace_convert contract: a trace may hop
    /// between formats any number of times without drifting.
    #[test]
    fn json_binary_json_chain_is_bit_identical(
        threads in 2usize..5,
        epochs in 1u32..4,
        ops in 500u32..3_000,
        loads in 0.05f64..0.4,
        chain in 0.0f64..0.3,
        pattern_sel in 0u32..9,
        sync_sel in 0u32..9,
        seed in 0u64..1_000,
    ) {
        let program = arb_program(threads, epochs, ops, loads, chain, pattern_sel, sync_sel, seed);

        // JSON -> program -> binary -> program -> JSON.
        let json1 = export_program(&program).expect("serializes");
        let from_json = import_program(&json1).expect("imports");
        let bin = export_program_binary(&from_json).expect("binary serializes");
        let from_bin = import_program_binary(&bin).expect("binary imports");
        let json2 = export_program(&from_bin).expect("re-serializes");
        prop_assert_eq!(&json1, &json2, "JSON -> binary -> JSON must be the identity");
        prop_assert_eq!(&program, &from_bin);

        // Binary is canonical too: re-exporting its import is byte-identical.
        prop_assert_eq!(&bin, &export_program_binary(&from_bin).expect("re-exports"));

        // The op-stream container carries the same program beside its
        // recorded micro-ops.
        let ops = export_program_ops(&from_bin).expect("records");
        let from_ops = read_program_stream(&ops[..]).expect("op-stream container imports");
        prop_assert_eq!(&program, &from_ops);

        // All three containers carry the same profile and predictions, bit
        // for bit.
        let p_json = profile(&from_json);
        let p_bin = profile(&from_bin);
        let p_ops = profile(&from_ops);
        prop_assert_eq!(&p_json, &p_bin);
        prop_assert_eq!(&p_json, &p_ops);
        for dp in DesignPoint::ALL {
            let a = predict(&p_json, &dp.config());
            for (p, container) in [(&p_bin, "RPT1"), (&p_ops, "op-stream")] {
                let b = predict(p, &dp.config());
                prop_assert_eq!(
                    a.total_cycles.to_bits(),
                    b.total_cycles.to_bits(),
                    "prediction diverged between JSON and {} on {}", container, dp
                );
            }
        }
    }
}

/// The committed, externally written example file imports, profiles,
/// predicts, and round-trips — proof the schema is writable by hand and
/// not just by our own exporter.
#[test]
fn committed_example_trace_round_trips() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join("traces")
        .join("mini.json");
    let text = std::fs::read_to_string(&path).expect("committed example exists");
    let program = import_program(&text).expect("example file conforms to the schema");
    assert_eq!(program.name, "mini-external");
    assert_eq!(program.num_threads(), 2);
    assert!(program.total_ops() > 0);

    let prof = profile(&program);
    let pred = predict(&prof, &DesignPoint::Base.config());
    assert!(pred.total_cycles.is_finite() && pred.total_cycles > 0.0);

    let re_exported = export_program(&program).expect("serializes");
    let re_imported = import_program(&re_exported).expect("round-trips");
    assert_eq!(program, re_imported);
    assert_eq!(
        profile(&re_imported),
        prof,
        "re-imported trace must profile identically"
    );
}

/// The committed binary twin of the example trace imports identically to
/// its JSON source — this pins the `RPT1` encoding itself: any change to
/// the on-disk byte layout breaks this test and must come with a container
/// version bump (and a regenerated example).
#[test]
fn committed_binary_example_matches_json_twin() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join("traces");
    let json = rppm::trace::read_program_any(dir.join("mini.json")).expect("json twin imports");
    let bin = rppm::trace::read_program_any(dir.join("mini.rpt")).expect("binary twin imports");
    assert_eq!(
        json, bin,
        "the two committed containers must carry one program"
    );
    assert_eq!(
        rppm::trace::program_fingerprint(&json),
        rppm::trace::program_fingerprint(&bin)
    );
    // The committed bytes are exactly what the current encoder produces.
    let bytes = std::fs::read(dir.join("mini.rpt")).expect("committed binary exists");
    assert_eq!(
        bytes,
        export_program_binary(&json).expect("re-encodes"),
        "RPT1 byte layout changed: bump BINARY_TRACE_VERSION and regenerate \
         examples/traces/mini.rpt with trace_convert"
    );

    // The version-3 twin (`rppm convert mini.json mini.ops.rpt --to ops`)
    // carries the same program beside its recorded op stream, and its
    // bytes pin the op-stream writer the same way.
    let ops = rppm::trace::read_program_any(dir.join("mini.ops.rpt")).expect("v3 twin imports");
    assert_eq!(
        json, ops,
        "the op-stream container must carry the same program"
    );
    let bytes = std::fs::read(dir.join("mini.ops.rpt")).expect("committed v3 container exists");
    assert_eq!(
        bytes,
        export_program_ops(&json).expect("records"),
        "op-stream byte layout changed: bump BINARY_TRACE_VERSION and regenerate \
         examples/traces/mini.ops.rpt with `rppm convert --to ops`"
    );
}
