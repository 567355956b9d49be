//! `rppm golden diff|update` — the golden accuracy-regression gate.

use super::{is_help, take_jobs};
use crate::args::{ArgStream, CliError};
use rppm::Session;
use rppm_bench::golden::{self, GOLDEN_RTOL};
use rppm_bench::RunCtx;
use serde_json::Value;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: rppm golden diff [--jobs N] [--golden DIR] [--out FILE]
       rppm golden update [--jobs N] [--golden DIR]

`diff` checks the current tree against the committed baselines (exit 1 on
drift) and always writes the delta report (default results/golden_delta.txt).
`update` regenerates the baselines after an intentional accuracy change.
The baselines (default results/golden/) pin the JSON twins of fig4, table3,
table5, dse, sim_profile and ablation at the golden scale.";

pub fn run(argv: Vec<String>) -> Result<i32, CliError> {
    let mut args = ArgStream::new(argv, USAGE);
    let mut mode: Option<String> = None;
    let mut jobs = rppm::core::default_jobs();
    let mut golden_dir = PathBuf::from("results/golden");
    let mut out_path = PathBuf::from("results/golden_delta.txt");
    while let Some(arg) = args.next() {
        if is_help(&arg) {
            println!("{USAGE}");
            return Ok(0);
        }
        if let Some(n) = take_jobs(&mut args, &arg)? {
            jobs = n;
            continue;
        }
        match arg.as_str() {
            "--golden" => golden_dir = args.value_of(&arg)?.into(),
            "--out" => out_path = args.value_of(&arg)?.into(),
            _ if arg.is_flag() => return Err(args.unknown(&arg)),
            _ if mode.is_none() => mode = Some(arg.into_positional()),
            _ => return Err(args.error(format!("unexpected argument `{}`", arg.into_positional()))),
        }
    }

    let session = Session::builder().jobs(jobs).build();
    let ctx = RunCtx::new(&session);
    match mode.as_deref() {
        Some("update") => update(&golden_dir, &ctx),
        Some("diff") => diff(&golden_dir, &out_path, &ctx),
        Some(other) => Err(args.error(format!(
            "unknown golden action `{other}` (expected diff or update)"
        ))),
        None => Err(args.error("missing golden action (expected diff or update)")),
    }
}

fn write(path: &Path, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| {
        CliError::user(rppm::Error::Io {
            path: path.to_path_buf(),
            source: e,
        })
    })
}

fn update(golden_dir: &Path, ctx: &RunCtx<'_>) -> Result<i32, CliError> {
    std::fs::create_dir_all(golden_dir).map_err(|e| {
        CliError::user(rppm::Error::Io {
            path: golden_dir.to_path_buf(),
            source: e,
        })
    })?;
    for r in &golden::golden_reports(ctx) {
        let path = golden_dir.join(format!("{}.json", r.name));
        let text = serde_json::to_string(&r.json).expect("report JSON serializes");
        write(&path, &text)?;
        eprintln!("updated {}", path.display());
    }
    Ok(0)
}

fn diff(golden_dir: &Path, out_path: &Path, ctx: &RunCtx<'_>) -> Result<i32, CliError> {
    let mut report_text = String::new();
    let mut drifted = false;
    for r in &golden::golden_reports(ctx) {
        let path = golden_dir.join(format!("{}.json", r.name));
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let baseline: Value = serde_json::from_str(&text).map_err(|e| {
                    CliError::user(format!("{} is not valid JSON: {e}", path.display()))
                })?;
                let deltas = golden::diff(&baseline, &r.json, GOLDEN_RTOL);
                drifted |= !deltas.is_empty();
                report_text.push_str(&golden::render_deltas(r.name, &deltas));
            }
            Err(e) => {
                drifted = true;
                report_text.push_str(&format!(
                    "{}: missing baseline {} ({e}); run `rppm golden update`\n",
                    r.name,
                    path.display()
                ));
            }
        }
    }

    if let Some(parent) = out_path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| {
            CliError::user(rppm::Error::Io {
                path: parent.to_path_buf(),
                source: e,
            })
        })?;
    }
    write(out_path, &report_text)?;
    print!("{report_text}");
    eprintln!("delta report written to {}", out_path.display());
    if drifted {
        eprintln!(
            "accuracy drift detected; if intentional, regenerate baselines with \
             `cargo run --release -p rppm-cli -- golden update`"
        );
        return Ok(1);
    }
    Ok(0)
}
