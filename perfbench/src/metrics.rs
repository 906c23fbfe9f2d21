//! The metric catalog (names and units, as `BENCHMARK.json` declares
//! them) and the result line.

use std::fmt::Write as _;

use telemetry::Category;

use crate::layers::{CPU_NODES, HANDLERS, NIC_NODES, WIRE_OPS};
use crate::workload::Workload;

/// End-to-end metrics: name, unit, which direction is better, and the
/// share of the parent's median by which it may get worse.
pub const END_TO_END: [(&str, &str, &str, f64); 9] = [
    ("p50_us", "us", "lower", 0.10),
    ("p99_us", "us", "lower", 0.15),
    ("p999_us", "us", "lower", 0.25),
    ("throughput_krps", "krps", "higher", 0.05),
    ("slo_goodput_krps", "krps", "higher", 0.05),
    ("knee_krps", "krps", "higher", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("host_us_per_req", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
];

/// Per-layer metrics with their units, in report order. A node or
/// service a workload does not have reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![("simcore.polls_per_req".into(), "polls/req")];
    for n in CPU_NODES {
        m.push((format!("simcore.cpu_util.{n}"), "ratio"));
    }
    for n in NIC_NODES {
        m.push((format!("simnet.nic_tx_util.{n}"), "ratio"));
    }
    m.push(("simnet.msgs_per_req".into(), "msgs/req"));
    m.push(("simnet.tx_kb_per_req".into(), "KB/req"));
    m.push(("rpclib.calls_per_req".into(), "calls/req"));
    for (name, ..) in HANDLERS {
        m.push((format!("rpclib.handler_us.{name}.p50"), "us"));
        m.push((format!("rpclib.handler_us.{name}.p99"), "us"));
    }
    m.push(("rpclib.retransmits".into(), "count"));
    m.push(("rpclib.timeouts".into(), "count"));
    m.push(("dmnet.cache_hit_ratio".into(), "ratio"));
    m.push(("dmnet.ctrl_msgs_per_req".into(), "msgs/req"));
    m.push(("dmnet.data_msgs_per_req".into(), "msgs/req"));
    for (op, _) in WIRE_OPS {
        m.push((format!("dmnet.wire.{op}_per_req"), "msgs/req"));
    }
    m.push(("dmnet.server_ops_per_req".into(), "ops/req"));
    m.push(("memsim.dm_traffic_kb_per_req".into(), "KB/req"));
    m.push(("memsim.node_traffic_kb_per_req".into(), "KB/req"));
    for op in ["compose", "read_home", "read_user"] {
        m.push((format!("apps.{op}_us.p50"), "us"));
        m.push((format!("apps.{op}_us.p99"), "us"));
    }
    for op in ["transcode", "compress", "share"] {
        m.push((format!("apps.{op}_us.p50"), "us"));
    }
    m.push(("loadgen.followers_ns".into(), "ns"));
    for c in Category::ALL {
        m.push((format!("trace.{}_us", c.label()), "us"));
    }
    m.push(("trace.overhead".into(), "ratio"));
    m.push(("trace.coverage".into(), "ratio"));
    m.push(("fail_frac".into(), "ratio"));
    m
}

/// Whether `s` is a valid metric or workload name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(s: &str) -> bool {
    let b = s.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// The result line: one JSON object with every metric of `catalog`
/// taken from `values`.
///
/// # Panics
/// Panics if a catalog metric has no value or a value is not finite —
/// both are bugs in the benchmark.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalog: &[(String, &str)],
    values: &[(String, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in catalog.iter().enumerate() {
        let v = values
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no value for metric {name}"))
            .1;
        assert!(v.is_finite(), "metric {name} is {v}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// The end-to-end catalog as `(name, unit)` pairs.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n.to_string(), u))
        .collect()
}

/// Workload names, for validation.
pub fn workload_names() -> Vec<&'static str> {
    Workload::ALL.iter().map(|w| w.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_valid_and_unique() {
        let mut names: Vec<String> = end_to_end().into_iter().map(|(n, _)| n).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        names.extend(workload_names().into_iter().map(String::from));
        for n in &names {
            assert!(valid_name(n), "invalid name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate names");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn units_are_valid() {
        for (_, u) in end_to_end().into_iter().chain(per_layer()) {
            assert!(!u.is_empty() && u.len() <= 16, "{u}");
            assert!(u
                .bytes()
                .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c)));
        }
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("simnet.nic_tx_util.sn-b"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("-x"));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared = |n: &str| json.contains(&format!("\"name\": \"{n}\""));
        for (n, u, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (n, u) in per_layer() {
            let entry = format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": ");
            assert!(
                json.contains(&entry),
                "BENCHMARK.json lacks per-layer {n} ({u})"
            );
        }
        for w in workload_names() {
            assert!(declared(w), "BENCHMARK.json lacks workload {w}");
        }
        let entries = json.matches("\"name\": ").count();
        assert_eq!(
            entries,
            END_TO_END.len() + per_layer().len() + workload_names().len(),
            "BENCHMARK.json declares names the benchmark does not report"
        );
    }

    #[test]
    fn result_line_shape() {
        let cat = vec![("a".to_string(), "ms"), ("b.c".to_string(), "count")];
        let vals = vec![("b.c".to_string(), 3.0), ("a".to_string(), 1.25)];
        assert_eq!(
            result_line(true, 10, 0, &cat, &vals),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b.c\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
