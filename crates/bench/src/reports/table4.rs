//! Table IV: the five simulated architecture configurations (equal peak
//! throughput of 10 G ops/s).

use super::{arr, obj, Report};
use crate::runner::Row;
use rppm::trace::DesignPoint;
use serde_json::Value;

/// Renders Table IV.
pub fn table4() -> Report {
    let configs: Vec<_> = DesignPoint::ALL.iter().map(|d| d.config()).collect();
    let mut out = String::new();
    out.push_str("Table IV: simulated architecture configurations\n\n");
    let mut header = Row::new().cell(22, "");
    for c in &configs {
        header = header.rcell(9, &c.name);
    }
    header.line(&mut out);
    out.push_str(&"-".repeat(22 + 11 * configs.len()));
    out.push('\n');

    let row = |label: &str, f: &dyn Fn(&rppm::trace::MachineConfig) -> String| {
        let mut r = Row::new().cell(22, label);
        for c in &configs {
            r = r.rcell(9, f(c));
        }
        r.render() + "\n"
    };
    out.push_str(&row("frequency [GHz]", &|c| format!("{:.2}", c.freq_ghz)));
    out.push_str(&row("dispatch width", &|c| c.dispatch_width.to_string()));
    out.push_str(&row("ROB size", &|c| c.rob_size.to_string()));
    out.push_str(&row("issue queue size", &|c| c.issue_queue.to_string()));
    out.push_str(&row("peak Gops/s", &|c| {
        format!("{:.1}", c.peak_ops_per_second() / 1e9)
    }));
    out.push_str(&row("mem latency [cyc]", &|c| {
        format!("{:.0}", c.mem_latency_cycles())
    }));
    out.push('\n');
    let base = &configs[2];
    out.push_str(&format!(
        "branch predictor   {} B tournament\n",
        base.bpred.size_bytes
    ));
    out.push_str(&format!(
        "L1-I               {} KB, {}-way, private\n",
        base.l1i.size_bytes / 1024,
        base.l1i.assoc
    ));
    out.push_str(&format!(
        "L1-D               {} KB, {}-way, private\n",
        base.l1d.size_bytes / 1024,
        base.l1d.assoc
    ));
    out.push_str(&format!(
        "L2                 {} KB, {}-way, private\n",
        base.l2.size_bytes / 1024,
        base.l2.assoc
    ));
    out.push_str(&format!(
        "LLC                {} MB, {}-way, shared\n",
        base.l3.size_bytes / 1024 / 1024,
        base.l3.assoc
    ));

    let rows = configs
        .iter()
        .map(|c| {
            obj([
                ("name", Value::String(c.name.clone())),
                ("freq_ghz", Value::F64(c.freq_ghz)),
                ("dispatch_width", Value::U64(c.dispatch_width as u64)),
                ("rob_size", Value::U64(c.rob_size as u64)),
                ("issue_queue", Value::U64(c.issue_queue as u64)),
                ("peak_gops", Value::F64(c.peak_ops_per_second() / 1e9)),
                ("mem_latency_cycles", Value::F64(c.mem_latency_cycles())),
            ])
        })
        .collect::<Vec<_>>();

    Report {
        name: "table4",
        text: out,
        json: obj([("configs", arr(rows))]),
    }
}
