//! Span statistics read back from the flight recorder
//! (`cmcc::obs::trace`), which the benchmark switches on for its traced
//! run. The recorder's rings are fixed-size, so the workloads drain
//! them into a [`SpanLog`] between batches, while no call is in flight.

use cmcc::obs::trace::{self, TraceKind, TraceOp, TRACE_OP_COUNT};

/// Per-operation span durations and per-tenant covered intervals.
#[derive(Debug, Default)]
pub struct SpanLog {
    /// Every completed span's duration in nanoseconds, per operation.
    durations: Vec<Vec<u64>>,
    /// Sum of the durations of spans not nested in a span of the same
    /// operation, per operation.
    top_ns: Vec<u64>,
    /// `(tenant, start, end)` of every span, for coverage queries.
    intervals: Vec<(u32, u64, u64)>,
    /// Events the rings dropped.
    pub drops: u64,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        SpanLog {
            durations: vec![Vec::new(); TRACE_OP_COUNT],
            top_ns: vec![0; TRACE_OP_COUNT],
            ..SpanLog::default()
        }
    }

    /// Moves every recorded event into the log and clears the rings.
    /// Call only while no traced call is in flight.
    pub fn drain(&mut self) {
        self.drops += trace::total_drops();
        for thread in trace::threads() {
            // Open spans of this thread, innermost last.
            let mut open: Vec<(TraceOp, u64, u32)> = Vec::new();
            for ev in &thread.events {
                let tenant = ev.tenant.unwrap_or(u32::MAX);
                match ev.kind {
                    TraceKind::Begin => open.push((ev.op, ev.ts_ns, tenant)),
                    TraceKind::End => {
                        // Spans need not nest strictly (a lease is held
                        // across the execute it admits): close the
                        // innermost open span of the same operation.
                        let Some(pos) = open.iter().rposition(|o| o.0 == ev.op) else {
                            continue;
                        };
                        let (op, start, tenant) = open.remove(pos);
                        let d = ev.ts_ns.saturating_sub(start);
                        self.durations[op as usize].push(d);
                        if !open.iter().any(|o| o.0 == op) {
                            self.top_ns[op as usize] += d;
                        }
                        self.intervals.push((tenant, start, ev.ts_ns));
                    }
                    _ => {}
                }
            }
        }
        trace::reset_trace();
    }

    /// Durations of every span of `op`.
    pub fn durations(&self, op: TraceOp) -> &[u64] {
        &self.durations[op as usize]
    }

    /// Total time of `op` spans, counting nested same-operation spans
    /// once.
    pub fn total_ns(&self, op: TraceOp) -> u64 {
        self.top_ns[op as usize]
    }

    /// The share of the given `(tenant, start, end)` call intervals that
    /// no span of the same tenant covers.
    pub fn unattributed_frac(&self, calls: &[(u32, u64, u64)]) -> f64 {
        let mut total = 0u64;
        let mut uncovered = 0u64;
        let mut tenants: Vec<u32> = calls.iter().map(|c| c.0).collect();
        tenants.sort_unstable();
        tenants.dedup();
        for tenant in tenants {
            let mut spans: Vec<(u64, u64)> = self
                .intervals
                .iter()
                .filter(|i| i.0 == tenant)
                .map(|i| (i.1, i.2))
                .collect();
            let merged = merge(&mut spans);
            for &(_, start, end) in calls.iter().filter(|c| c.0 == tenant) {
                let covered: u64 = overlap(&merged, start, end);
                total += end - start;
                uncovered += (end - start).saturating_sub(covered);
            }
        }
        if total == 0 {
            0.0
        } else {
            uncovered as f64 / total as f64
        }
    }
}

/// Sorts intervals and merges overlapping ones into a disjoint list.
fn merge(spans: &mut [(u64, u64)]) -> Vec<(u64, u64)> {
    spans.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &(s, e) in spans.iter() {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Length of `[start, end)` covered by the disjoint sorted `merged`.
fn overlap(merged: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let first = merged.partition_point(|&(_, e)| e <= start);
    merged[first..]
        .iter()
        .take_while(|&&(s, _)| s < end)
        .map(|&(s, e)| e.min(end) - s.max(start))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_nested_and_overlapping_spans() {
        let mut spans = vec![(10, 20), (12, 15), (18, 30), (40, 50)];
        let merged = merge(&mut spans);
        assert_eq!(merged, vec![(10, 30), (40, 50)]);
        assert_eq!(overlap(&merged, 0, 100), 30);
        assert_eq!(overlap(&merged, 25, 45), 10);
        assert_eq!(overlap(&merged, 30, 40), 0);
    }

    #[test]
    fn unattributed_share_is_per_tenant() {
        let log = SpanLog {
            intervals: vec![(1, 0, 60), (2, 0, 100)],
            ..SpanLog::new()
        };
        // Tenant 1's call covers 0..100 and only 0..60 is spanned.
        let frac = log.unattributed_frac(&[(1, 0, 100)]);
        assert!((frac - 0.4).abs() < 1e-12);
        assert_eq!(log.unattributed_frac(&[(2, 0, 100)]), 0.0);
    }
}
