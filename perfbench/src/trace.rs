//! The traced run's analysis: roots the benchmark opened per request are
//! harvested from the cluster's tracer while the run goes on (its
//! per-node rings are bounded) and broken down by
//! [`telemetry::analyze_trace`].

use std::collections::HashSet;
use std::time::Duration;

use telemetry::{analyze_trace, Category, SpanKind, Tracer};

/// Largest gap between a trace's category sum and its root span, as a
/// share of the root span.
pub const SUM_TOLERANCE: f64 = 0.01;

/// Per-category totals over every analyzed trace.
#[derive(Clone, Debug, Default)]
pub struct Harvest {
    seen: HashSet<u64>,
    /// Traces analyzed.
    pub analyzed: u64,
    /// Sum of root-span durations, ns.
    pub total_ns: u64,
    /// Sum per [`Category::ALL`] bucket, ns.
    pub by_category: [u64; Category::COUNT],
    /// Traces whose category sum missed the root by more than
    /// [`SUM_TOLERANCE`].
    pub sum_mismatches: u64,
    /// Host time spent harvesting (excluded from the traced run's cost).
    pub host: Duration,
}

impl Harvest {
    /// Analyze every request root in `tracer` not seen before.
    pub fn collect(&mut self, tracer: &Tracer) {
        let t0 = crate::host::now();
        let records = tracer.records();
        let roots: Vec<u64> = records
            .iter()
            .filter(|r| r.parent_id == 0 && r.kind == SpanKind::Request)
            .map(|r| r.trace_id)
            .filter(|id| !self.seen.contains(id))
            .collect();
        for id in roots {
            self.seen.insert(id);
            if let Some(b) = analyze_trace(&records, id) {
                let drift = b.category_sum().abs_diff(b.total_ns) as f64;
                if drift > b.total_ns as f64 * SUM_TOLERANCE {
                    self.sum_mismatches += 1;
                }
                self.analyzed += 1;
                self.total_ns += b.total_ns;
                for (acc, v) in self.by_category.iter_mut().zip(b.by_category) {
                    *acc += v;
                }
            }
        }
        self.host += crate::host::since(t0);
    }

    /// Mean µs per analyzed trace in each category, labelled.
    pub fn mean_us(&self) -> Vec<(&'static str, f64)> {
        let n = self.analyzed.max(1) as f64;
        Category::ALL
            .iter()
            .map(|&c| (c.label(), self.by_category[c.index()] as f64 / n / 1e3))
            .collect()
    }
}
