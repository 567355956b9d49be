//! One function per table/figure of the paper.
//!
//! Each report renders the same text `rppm report <name>` prints *and* a
//! machine-readable [`serde_json::Value`] twin, so `rppm run-all` can emit
//! `results/<name>.txt` and `results/<name>.json` side by side without
//! spawning child processes. Reports that run workloads take a [`RunCtx`]:
//! they open their workloads in its [`Session`], whose cache profiles each
//! workload exactly once per session even across reports, and fan out over
//! the session's worker threads.

mod ablation;
mod dse;
mod fig4;
mod fig5;
mod fig6;
mod sim_profile;
mod table1;
mod table2;
mod table3;
mod table4;
mod table5;

pub use ablation::ablation;
pub use dse::dse;
pub use fig4::fig4;
pub use fig5::fig5;
pub use fig6::fig6;
pub use sim_profile::sim_profile;
pub use table1::table1;
pub use table2::table2;
pub use table3::table3;
pub use table4::table4;
pub use table5::table5;

use rppm::trace::{DesignPoint, MachineConfig};
use rppm::workloads::{Benchmark, Params};
use rppm::{Session, WorkloadHandle};
use serde_json::Value;

/// Shared execution context for workload-running reports.
#[derive(Debug)]
pub struct RunCtx<'a> {
    /// The session every report opens its workloads in: each workload is
    /// profiled once per session, not once per report, and plans fan out
    /// over its worker threads ([`Session::jobs`]).
    pub session: &'a Session,
    /// Imported trace files, appended to every workload-running report's
    /// plan so they appear alongside the built-in benchmarks.
    pub imports: Vec<WorkloadHandle>,
    /// The machine configuration single-config reports evaluate (and the
    /// base the `dse` report's space is built around). Defaults to the
    /// paper's base design point; `rppm report --machine FILE` swaps in a
    /// parsed `.machine` description. Reports that are *about* the five
    /// Table IV points (table4, table5) ignore it.
    pub base: MachineConfig,
}

impl<'a> RunCtx<'a> {
    /// Creates a context over `session`.
    pub fn new(session: &'a Session) -> Self {
        RunCtx {
            session,
            imports: Vec::new(),
            base: DesignPoint::Base.config(),
        }
    }

    /// Adds imported traces (opened in the same session) to the context.
    pub fn with_imports(mut self, imports: Vec<WorkloadHandle>) -> Self {
        self.imports = imports;
        self
    }

    /// Sets the machine configuration single-config reports evaluate.
    pub fn with_base(mut self, base: MachineConfig) -> Self {
        self.base = base;
        self
    }

    /// The workload list a report should run: `benches` from the catalog,
    /// generated with `params`, followed by every imported trace.
    pub fn handles(
        &self,
        benches: impl IntoIterator<Item = Benchmark>,
        params: Params,
    ) -> Vec<WorkloadHandle> {
        benches
            .into_iter()
            .map(|b| {
                self.session
                    .workload(b.name)
                    .expect("catalog benchmark")
                    .scale(params.scale)
                    .seed(params.seed)
            })
            .chain(self.imports.iter().cloned())
            .collect()
    }
}

/// A rendered report: the text table plus its machine-readable twin.
#[derive(Debug)]
pub struct Report {
    /// Report name (`table1` … `fig6`, `ablation`) — the `results/` stem.
    pub name: &'static str,
    /// The text rendering (what the standalone binary prints).
    pub text: String,
    /// Machine-readable content, written to `results/<name>.json`.
    pub json: Value,
}

impl Report {
    /// Writes `results/<name>.txt` and `results/<name>.json` under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing either file.
    pub fn write_into(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(dir.join(format!("{}.txt", self.name)), &self.text)?;
        let json = serde_json::to_string(&self.json).expect("report JSON serializes");
        std::fs::write(dir.join(format!("{}.json", self.name)), json)
    }
}

/// Builds a JSON object from `(key, value)` pairs.
pub(crate) fn obj<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Builds a JSON array.
pub(crate) fn arr(items: impl IntoIterator<Item = Value>) -> Value {
    Value::Array(items.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obj_and_arr_build_json() {
        let v = obj([
            ("a", Value::U64(1)),
            ("b", arr([Value::F64(0.5), Value::Null])),
        ]);
        assert_eq!(
            serde_json::to_string(&v).unwrap(),
            r#"{"a":1,"b":[0.5,null]}"#
        );
    }

    #[test]
    fn report_writes_both_files() {
        let dir = std::env::temp_dir().join("rppm-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let r = Report {
            name: "table1",
            text: "hello\n".into(),
            json: Value::U64(7),
        };
        r.write_into(&dir).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("table1.txt")).unwrap(),
            "hello\n"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("table1.json")).unwrap(),
            "7"
        );
    }
}
