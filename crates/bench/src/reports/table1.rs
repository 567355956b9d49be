//! Table I: accumulating prediction errors in barrier-synchronized
//! applications.
//!
//! A 1M-iteration loop is parallelized over `n` threads with a barrier per
//! round; per-thread inter-barrier predictions carry unbiased uniform noise
//! of ±1/5/10%. Single-threaded errors cancel; multi-threaded errors
//! accumulate as `E[max of n uniforms] = e·(n−1)/(n+1)`.

use super::{arr, obj, Report};
use crate::runner::Row;
use rppm::core::{accumulation_bias, accumulation_error};
use serde_json::Value;

const THREADS: [u32; 5] = [1, 2, 4, 8, 16];
const ERRORS: [f64; 3] = [0.01, 0.05, 0.10];

/// Renders Table I for a loop of `iterations` iterations.
pub fn table1(iterations: u64) -> Report {
    let mut out = String::new();
    out.push_str(&format!(
        "Table I: accumulating prediction errors (loop of {iterations} iterations)\n\n"
    ));
    Row::new()
        .cell(9, "#Threads")
        .rcell(12, "1%")
        .rcell(12, "5%")
        .rcell(12, "10%")
        .line(&mut out);
    out.push_str(&"-".repeat(48));
    out.push('\n');

    let mut measured_rows = Vec::new();
    for threads in THREADS {
        let mut row = Row::new().cell(9, threads);
        let mut cells = Vec::new();
        for (k, &e) in ERRORS.iter().enumerate() {
            let measured = accumulation_error(threads, e, iterations, 0xACC + k as u64);
            row = row.rcell(12, format!("{:.2}%", measured * 100.0));
            cells.push(Value::F64(measured));
        }
        row.line(&mut out);
        measured_rows.push(obj([
            ("threads", Value::U64(threads as u64)),
            ("errors", arr(cells)),
        ]));
    }

    out.push_str("\nClosed form e(n-1)/(n+1) for comparison:\n");
    let mut closed_rows = Vec::new();
    for threads in THREADS {
        let mut row = Row::new().cell(9, threads);
        let mut cells = Vec::new();
        for &e in &ERRORS {
            let bias = accumulation_bias(threads, e);
            row = row.rcell(12, format!("{:.2}%", bias * 100.0));
            cells.push(Value::F64(bias));
        }
        row.line(&mut out);
        closed_rows.push(obj([
            ("threads", Value::U64(threads as u64)),
            ("errors", arr(cells)),
        ]));
    }
    out.push('\n');
    out.push_str("Paper Table I: 2 threads: 0.33/1.67/3.34%; 4: 0.60/3.00/6.01%;\n");
    out.push_str("               8: 0.78/3.89/7.79%; 16: 0.88/4.41/8.83%.\n");

    Report {
        name: "table1",
        text: out,
        json: obj([
            ("iterations", Value::U64(iterations)),
            ("noise_levels", arr(ERRORS.map(Value::F64))),
            ("measured", arr(measured_rows)),
            ("closed_form", arr(closed_rows)),
        ]),
    }
}
