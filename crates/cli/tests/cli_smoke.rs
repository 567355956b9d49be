//! Smoke tests for the unified `rppm` binary: help/usage text for every
//! subcommand, correct exit codes, one-line user errors (no panics, no
//! backtraces), and a tiny end-to-end report/convert/import round trip.

use std::process::{Command, Output};

fn rppm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rppm"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn rppm")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts `out` is a user-error exit: status 2 and a single `error:` line
/// on stderr (plus optional usage text), never a panic/backtrace.
fn assert_user_error(out: &Output, needle: &str) {
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(out));
    let err = stderr(out);
    let first = err.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("error: "),
        "first stderr line is the error: {err}"
    );
    assert!(err.contains(needle), "mentions `{needle}`: {err}");
    assert!(!err.contains("panicked"), "no panic: {err}");
    assert!(!err.contains("RUST_BACKTRACE"), "no backtrace hint: {err}");
}

#[test]
fn top_level_help_lists_every_subcommand() {
    for args in [vec!["--help"], vec!["help"], vec![]] {
        let out = rppm(&args);
        assert_eq!(out.status.code(), Some(0));
        let text = stdout(&out);
        for cmd in [
            "report", "run-all", "import", "convert", "dse", "serve", "load-gen", "golden", "bench",
        ] {
            assert!(text.contains(cmd), "help lists `{cmd}`: {text}");
        }
    }
}

#[test]
fn top_level_help_names_every_report() {
    // The names `rppm report --help` lists, one per line of its table.
    let usage = stdout(&rppm(&["report", "--help"]));
    let table = usage
        .split("reports (and their optional positional arguments):\n")
        .nth(1)
        .and_then(|rest| rest.split("\n\n").next())
        .expect("report usage lists its reports");
    let reports: Vec<&str> = table
        .lines()
        .filter(|line| !line.starts_with("   "))
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    assert_eq!(reports.len(), 11, "{reports:?}");
    // The names `rppm help` gives for `report <name>`.
    let help = stdout(&rppm(&["help"]));
    let listed = help
        .split("print one report:")
        .nth(1)
        .and_then(|rest| rest.split("\n  run-all").next())
        .expect("help describes `report <name>`");
    let listed: Vec<&str> = listed
        .split(|c: char| c == '|' || c.is_whitespace())
        .filter(|name| !name.is_empty())
        .collect();
    for report in &reports {
        assert!(
            listed.contains(report),
            "`rppm help` omits {report}: {listed:?}"
        );
    }
}

#[test]
fn every_subcommand_prints_usage_on_help() {
    for (args, needle) in [
        (["report", "--help"], "usage: rppm report"),
        (["run-all", "--help"], "usage: rppm run-all"),
        (["import", "--help"], "usage: rppm import"),
        (["convert", "--help"], "usage: rppm convert"),
        (["dse", "--help"], "usage: rppm dse"),
        (["serve", "--help"], "usage: rppm serve"),
        (["load-gen", "--help"], "usage: rppm load-gen"),
        (["golden", "--help"], "usage: rppm golden diff"),
        (["bench", "--help"], "usage: rppm bench guard"),
    ] {
        let out = rppm(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(
            stdout(&out).contains(needle),
            "{args:?} usage text: {}",
            stdout(&out)
        );
    }
}

#[test]
fn unknown_command_and_flags_exit_2_with_usage() {
    let out = rppm(&["frobnicate"]);
    assert_user_error(&out, "unknown command `frobnicate`");
    assert!(stderr(&out).contains("usage: rppm"), "reprints usage");

    let out = rppm(&["report", "--frobnicate"]);
    assert_user_error(&out, "unknown flag `--frobnicate`");

    let out = rppm(&["report"]);
    assert_user_error(&out, "missing report name");

    let out = rppm(&["report", "nosuch"]);
    assert_user_error(&out, "unknown report `nosuch`");

    let out = rppm(&["report", "fig4", "not-a-number"]);
    assert_user_error(&out, "cannot parse `not-a-number`");

    // Surplus positionals are rejected, not silently dropped.
    let out = rppm(&["report", "table4", "0.5"]);
    assert_user_error(&out, "unexpected argument `0.5`");
    let out = rppm(&["report", "table2", "1.0", "junk"]);
    assert_user_error(&out, "unexpected argument `junk`");

    let out = rppm(&["golden", "explode"]);
    assert_user_error(&out, "unknown golden action `explode`");

    let out = rppm(&["dse"]);
    assert_user_error(&out, "missing the workload name");
    let out = rppm(&["dse", "nosuch", "--tiny"]);
    assert_user_error(&out, "unknown workload `nosuch`");
    let out = rppm(&["dse", "kmeans", "--bound", "2.0"]);
    assert_user_error(&out, "not in [0, 1)");

    let out = rppm(&["bench"]);
    assert_user_error(&out, "missing bench action");

    // Options nothing would read are rejected, not silently ignored.
    let out = rppm(&["sim-profile", "hotspot", "--jobs", "3"]);
    assert_user_error(&out, "unknown flag `--jobs`");
    let out = rppm(&[
        "import",
        "../../examples/traces/mini.rpt",
        "--scale",
        "7",
        "--seed",
        "3",
    ]);
    assert_user_error(&out, "--scale only applies to --export");
    let out = rppm(&["report", "table4", "--jobs", "3"]);
    assert_user_error(&out, "report `table4` does not take --jobs");
    let out = rppm(&[
        "report",
        "table1",
        "1000",
        "--machine",
        "../../examples/machines/small.machine",
    ]);
    assert_user_error(&out, "report `table1` does not take --machine");
    let exported = std::env::temp_dir().join("rppm-cli-smoke-never-written.json");
    let out = rppm(&[
        "import",
        "--export",
        "nn",
        exported.to_str().unwrap(),
        "--scale",
        "0.02",
        "--jobs",
        "3",
    ]);
    assert_user_error(&out, "--jobs only applies to importing trace files");
    assert!(!exported.exists(), "a rejected export writes nothing");
}

#[test]
fn numeric_flag_values_are_validated_not_panicked_on() {
    // `--jobs 0` would deadlock a worker pool; every subcommand that
    // accepts it rejects zero up front with exit 2.
    for argv in [
        vec!["serve", "--jobs", "0"],
        vec!["load-gen", "--jobs=0"],
        vec!["dse", "kmeans", "--tiny", "--jobs", "0"],
    ] {
        let out = rppm(&argv);
        assert_user_error(&out, "--jobs must be at least 1, got 0");
    }
    let out = rppm(&["serve", "--workers", "0"]);
    assert_user_error(&out, "--workers must be at least 1, got 0");
    let out = rppm(&["serve", "--runners=0"]);
    assert_user_error(&out, "--runners must be at least 1, got 0");

    // Malformed numerics in the `--flag=value` spelling are one-line
    // exit-2 errors naming the flag, never a parse panic.
    let out = rppm(&["serve", "--max-entries=lots"]);
    assert_user_error(&out, "--max-entries: cannot parse `lots`");
    let out = rppm(&["serve", "--max-bytes=-1"]);
    assert_user_error(&out, "--max-bytes: cannot parse `-1`");
    let out = rppm(&["load-gen", "--requests=many"]);
    assert_user_error(&out, "--requests: cannot parse `many`");
    let out = rppm(&["dse", "kmeans", "--tiny", "--bound=fast"]);
    assert_user_error(&out, "--bound: cannot parse `fast`");
}

#[test]
fn user_errors_are_one_line_typed_messages() {
    // Missing trace file: the rppm::Error Display, not a panic.
    let out = rppm(&["import", "/definitely/not/here.json"]);
    assert_user_error(&out, "cannot access trace file");

    // Unknown workload on export.
    let out = rppm(&["import", "--export", "nosuch", "/tmp/x.json"]);
    assert_user_error(&out, "unknown workload `nosuch`");

    // Bad magic / corrupt content.
    let dir = std::env::temp_dir().join("rppm-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "{ not json").unwrap();
    let out = rppm(&["import", garbage.to_str().unwrap()]);
    assert_user_error(&out, "not valid JSON");

    // A well-formed trace of a program with no threads: refused at import
    // in one line, before the profiler sees it.
    let threadless = dir.join("threadless.json");
    std::fs::write(
        &threadless,
        r#"{"format":"rppm-trace","version":1,"program":{"name":"empty","threads":[]}}"#,
    )
    .unwrap();
    let out = rppm(&["import", threadless.to_str().unwrap()]);
    assert_user_error(&out, "no threads");
    assert_eq!(stderr(&out).lines().count(), 1, "{}", stderr(&out));

    // A block its expansion cannot use (a loop period of 0), as JSON and
    // as RPT1: one line, exit 2, never a panic.
    let mini = std::fs::read_to_string("../../examples/traces/mini.json").unwrap();
    let loopless = mini.replacen("\"period\": 16", "\"period\": 0", 1);
    assert_ne!(loopless, mini);
    let loopless_json = dir.join("loopless.json");
    std::fs::write(&loopless_json, &loopless).unwrap();
    let mut program = rppm::trace::import_program(&mini).unwrap();
    for seg in &mut program.threads[0].segments {
        if let rppm::trace::Segment::Block(block) = seg {
            block.branch = rppm::trace::BranchPattern::Loop { period: 0 };
        }
    }
    let loopless_rpt = dir.join("loopless.rpt");
    std::fs::write(
        &loopless_rpt,
        rppm::trace::export_program_binary(&program).unwrap(),
    )
    .unwrap();
    for file in [&loopless_json, &loopless_rpt] {
        let out = rppm(&["import", file.to_str().unwrap()]);
        assert_user_error(&out, "period 0");
        assert_eq!(stderr(&out).lines().count(), 1, "{}", stderr(&out));
    }
    let out = rppm(&[
        "convert",
        loopless_json.to_str().unwrap(),
        dir.join("loopless2.rpt").to_str().unwrap(),
    ]);
    assert_user_error(&out, "period 0");

    // Missing bench capture.
    let out = rppm(&["bench", "guard", "/definitely/not/fresh.json"]);
    assert_user_error(&out, "cannot read");
}

#[test]
fn traces_whose_threads_could_never_start_are_user_errors() {
    use rppm::trace::{Segment, SyncOp, ThreadId, ThreadScript};
    // Each used to pass validation and panic the profiler: an empty
    // thread created twice, two threads that only create each other, and
    // a join of an empty thread nothing creates.
    let create = |c| Segment::Sync(SyncOp::Create { child: ThreadId(c) });
    let mini = std::fs::read_to_string("../../examples/traces/mini.json").unwrap();
    let base = rppm::trace::import_program(&mini).unwrap();
    let mut twice = base.clone();
    twice.threads.push(ThreadScript::default());
    twice.threads[0]
        .segments
        .splice(0..0, [create(2), create(2)]);
    let mut cycle = base.clone();
    cycle.threads.push(ThreadScript {
        segments: vec![create(3)],
    });
    cycle.threads.push(ThreadScript {
        segments: vec![create(2)],
    });
    let mut join = base;
    join.threads.push(ThreadScript::default());
    join.threads[0]
        .segments
        .push(Segment::Sync(SyncOp::Join { child: ThreadId(2) }));
    let dir = std::env::temp_dir().join("rppm-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, program, needle) in [
        ("twice", &twice, "created more than once"),
        ("cycle", &cycle, "which never runs"),
        ("join", &join, "which is never created"),
    ] {
        let json = dir.join(format!("never-starts-{name}.json"));
        std::fs::write(&json, rppm::trace::export_program(program).unwrap()).unwrap();
        let rpt = dir.join(format!("never-starts-{name}.rpt"));
        std::fs::write(&rpt, rppm::trace::export_program_binary(program).unwrap()).unwrap();
        for file in [&json, &rpt] {
            let out = rppm(&["import", file.to_str().unwrap()]);
            assert_user_error(&out, needle);
            assert_eq!(stderr(&out).lines().count(), 1, "{}", stderr(&out));
        }
    }
}

#[test]
fn report_prints_a_table_and_convert_round_trips() {
    // table4 is static (no workload runs): instant and deterministic.
    let out = rppm(&["report", "table4"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("Table IV"), "table4 header: {text}");

    // Export a tiny workload, convert JSON -> binary -> JSON, import it.
    let dir = std::env::temp_dir().join("rppm-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("roundtrip.json");
    let rpt = dir.join("roundtrip.rpt");
    let json2 = dir.join("roundtrip2.json");
    let export = rppm(&[
        "import",
        "--export",
        "nn",
        json.to_str().unwrap(),
        "--scale",
        "0.02",
    ]);
    assert_eq!(export.status.code(), Some(0), "{}", stderr(&export));
    assert!(stdout(&export).contains("exported `nn`"));

    let conv = rppm(&["convert", json.to_str().unwrap(), rpt.to_str().unwrap()]);
    assert_eq!(conv.status.code(), Some(0), "{}", stderr(&conv));
    assert!(stdout(&conv).contains("-> "));
    let back = rppm(&["convert", rpt.to_str().unwrap(), json2.to_str().unwrap()]);
    assert_eq!(back.status.code(), Some(0), "{}", stderr(&back));
    assert_eq!(
        std::fs::read(&json).unwrap(),
        std::fs::read(&json2).unwrap(),
        "JSON -> RPT1 -> JSON is byte-identical"
    );

    // The JSON and RPT1 twins are one trace: one profiling run, counted by
    // the session that did it.
    let import = rppm(&[
        "import",
        json.to_str().unwrap(),
        rpt.to_str().unwrap(),
        "--jobs",
        "2",
    ]);
    assert_eq!(import.status.code(), Some(0), "{}", stderr(&import));
    let text = stdout(&import);
    assert_eq!(
        text.lines().last(),
        Some("2 trace file(s), 1 profiling run(s)"),
        "{text}"
    );
}

/// The model reads no environment: its calibration constants are explicit
/// parameters, so setting the `RPPM_*` calibration variables to
/// non-default values leaves a prediction run byte-identical.
#[test]
fn import_ignores_calibration_environment() {
    const VARS: [(&str, &str); 5] = [
        ("RPPM_KAPPA", "1.0"),
        ("RPPM_MLP_EFF", "1.0"),
        ("RPPM_MLP_CAP", "1.0"),
        ("RPPM_NO_EXPOSURE", "1"),
        ("RPPM_NO_CHAIN_BOUND", "1"),
    ];
    let run = |with_vars: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_rppm"));
        cmd.args(["import", "../../examples/traces/mini.rpt"])
            .current_dir(env!("CARGO_MANIFEST_DIR"));
        for (k, v) in VARS {
            if with_vars {
                cmd.env(k, v);
            } else {
                cmd.env_remove(k);
            }
        }
        let out = cmd.output().expect("spawn rppm");
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        stdout(&out)
    };
    let plain = run(false);
    assert!(plain.contains("RPPM cycles"), "{plain}");
    assert_eq!(run(true), plain);
}

/// `rppm trace-info` prints the committed example containers exactly so.
#[test]
fn trace_info_output_is_pinned() {
    const EXPECTED: &str = "\
examples/traces/mini.rpt: RPT1 v1 `mini-external`, 2 threads, 435 bytes
  program segments: 7; op stream: none (plain program container)
  tag 1 header         1 section            15 bytes
  tag 2 segments       2 sections          404 bytes
  tag 3 end            1 section             1 bytes

examples/traces/mini.ops.rpt: RPT1 v3 `mini-external`, 2 threads, 13824 bytes
  program segments: 7; op stream: 2064 recorded ops, 4 sync events
  tag 1 header         1 section            15 bytes
  tag 2 segments       2 sections          404 bytes
  tag 3 end            1 section             1 bytes
  tag 4 op-run         3 sections        13350 bytes
  tag 5 op-sync        4 sections           12 bytes
  tag 6 op-meta        1 section             8 bytes
";
    let out = Command::new(env!("CARGO_BIN_EXE_rppm"))
        .args([
            "trace-info",
            "examples/traces/mini.rpt",
            "examples/traces/mini.ops.rpt",
        ])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("spawn rppm");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), EXPECTED);
}

#[test]
fn dse_sweeps_the_tiny_space_with_twins() {
    // The tiny 12-point space keeps this an actual smoke test; --json and
    // the text rendering must agree on the headline numbers.
    let out = rppm(&["dse", "nn", "--tiny", "--scale", "0.02", "--jobs", "2"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("swept 12 of 12 design points"), "{text}");
    assert!(text.contains("Pareto frontier"), "{text}");

    let out = rppm(&[
        "dse", "nn", "--tiny", "--scale", "0.02", "--jobs", "2", "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let json = stdout(&out);
    assert!(json.contains("\"points\":12"), "{json}");
    assert!(json.contains("\"frontier\":"), "{json}");

    // Constraints that eliminate everything are a typed user error.
    let out = rppm(&[
        "dse",
        "nn",
        "--tiny",
        "--scale",
        "0.02",
        "--max-area",
        "0.0001",
    ]);
    assert_user_error(&out, "no feasible design point");

    // --best-only reports pruning counters on the same space.
    let out = rppm(&[
        "dse",
        "nn",
        "--tiny",
        "--scale",
        "0.02",
        "--best-only",
        "--jobs",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("pruned without evaluation"));
}

#[test]
fn machine_flag_swaps_the_design_and_rejects_malformed_files() {
    // The committed base preset is the default config, so --machine with
    // it must be byte-identical to not passing the flag at all.
    let base = "../../examples/machines/base.machine";
    let plain = rppm(&[
        "dse", "nn", "--tiny", "--scale", "0.02", "--jobs", "2", "--json",
    ]);
    assert_eq!(plain.status.code(), Some(0), "stderr: {}", stderr(&plain));
    let with_machine = rppm(&[
        "dse",
        "nn",
        "--tiny",
        "--scale",
        "0.02",
        "--jobs",
        "2",
        "--json",
        "--machine",
        base,
    ]);
    assert_eq!(
        with_machine.status.code(),
        Some(0),
        "stderr: {}",
        stderr(&with_machine)
    );
    assert_eq!(
        stdout(&plain),
        stdout(&with_machine),
        "--machine base.machine must equal the built-in default"
    );

    // sim-profile reports the machine's own name from the file.
    let out = rppm(&[
        "sim-profile",
        "nn",
        "--scale",
        "0.02",
        "--machine",
        "../../examples/machines/small.machine",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("@ small"), "{}", stdout(&out));
    // So does the sim_profile report.
    let out = rppm(&[
        "report",
        "sim_profile",
        "0.005",
        "--machine",
        "../../examples/machines/small.machine",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("small design point"),
        "{}",
        stdout(&out)
    );

    // A malformed machine file is a one-line exit-2 error on every
    // subcommand taking the flag — with the parser's line diagnostic.
    let dir = std::env::temp_dir().join("rppm-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let broken = dir.join("broken.machine");
    std::fs::write(
        &broken,
        "rppm-machine v1\n[machine]\nname = broken\ncores = four\n",
    )
    .unwrap();
    let broken = broken.to_str().unwrap();
    for args in [
        vec!["report", "fig4", "0.02", "--machine", broken],
        vec!["dse", "nn", "--tiny", "--machine", broken],
        vec!["sim-profile", "nn", "--machine", broken],
    ] {
        let out = rppm(&args);
        assert_user_error(&out, "bad value for `cores`");
    }

    // A missing machine file carries the path.
    let out = rppm(&["dse", "nn", "--tiny", "--machine", "/no/such.machine"]);
    assert_user_error(&out, "/no/such.machine");
}

#[test]
fn golden_diff_detects_drift_against_perturbed_baseline() {
    // Against a bogus golden dir every baseline is missing: exit 1.
    let empty = std::env::temp_dir().join("rppm-cli-smoke-empty-golden");
    std::fs::create_dir_all(&empty).unwrap();
    let delta = std::env::temp_dir().join("rppm-cli-smoke/delta.txt");
    let out = rppm(&[
        "golden",
        "diff",
        "--jobs",
        "2",
        "--golden",
        empty.to_str().unwrap(),
        "--out",
        delta.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "drift exits 1: {}",
        stderr(&out)
    );
    assert!(stdout(&out).contains("missing baseline"));
    assert!(delta.exists(), "delta report always written");
}

#[test]
fn run_all_writes_both_twins_for_every_report() {
    // The contract the run-all smoke in CI relies on: one tiny-scale run
    // writes a non-empty text and JSON twin for every report, profiling
    // each workload once — the JSON and RPT1 twins of one imported trace
    // included.
    let dir = std::env::temp_dir().join(format!("rppm-cli-run-all-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let traces = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/traces");
    let out = Command::new(env!("CARGO_BIN_EXE_rppm"))
        .args(["run-all", "0.02", "0.02", "--jobs", "2"])
        .args(["--import", &format!("{traces}/mini.json")])
        .args(["--import", &format!("{traces}/mini.rpt")])
        .current_dir(&dir)
        .output()
        .expect("spawn rppm");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    for name in [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "fig4",
        "fig5",
        "fig6",
        "ablation",
        "dse",
        "sim_profile",
    ] {
        for ext in ["txt", "json"] {
            let p = dir.join("results").join(format!("{name}.{ext}"));
            let len = std::fs::metadata(&p).map(|m| m.len()).unwrap_or(0);
            assert!(len > 0, "missing or empty {}", p.display());
        }
    }
    // Both twins are report rows; only their profile is shared.
    let fig4 = std::fs::read_to_string(dir.join("results/fig4.txt")).expect("fig4");
    assert_eq!(fig4.matches("mini-external").count(), 2, "{fig4}");
    let err = stderr(&out);
    let summary = err
        .lines()
        .find(|l| l.starts_with("all experiments regenerated"))
        .unwrap_or_else(|| panic!("summary line: {err}"));
    let counts: Vec<&str> = summary
        .split(|c: char| !c.is_ascii_digit())
        .filter(|w| !w.is_empty())
        .collect();
    let n = counts.len();
    assert!(n >= 2, "counts in {summary}");
    assert_eq!(
        counts[n - 2],
        counts[n - 1],
        "one profile() call per workload: {summary}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
