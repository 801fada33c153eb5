//! `obs-report` — paper-style time accounting from an `ayd-obs` trace log.
//!
//! The paper decomposes a pattern's wall-clock time into named components
//! (work, checkpoint, verification, re-execution); this module applies the
//! same discipline to the reproduction's own runtime. It parses the JSON-lines
//! format `reproduce --trace-log PATH` writes (one [`ayd_obs::SpanRecord`] per
//! line, stable field order), reconstructs the span trees, and charges every
//! nanosecond of each root span to a named stage:
//!
//! * **request** roots (one per served HTTP request) decompose into
//!   `parse + route + evaluate + render + other`, where each stage is the
//!   span's *exclusive* time (its duration minus its children's), so the
//!   stages sum to the root's duration exactly. `other` is whatever no named
//!   span covered; the coverage column reports `1 - other/total`.
//! * **connection** roots carry the worker-pool queue wait (accept → pickup),
//!   which is deliberately kept separate from per-request service time.
//! * **sweep** spans (CLI sweeps and served sweep jobs) aggregate into one
//!   account: grid cells, emitted rows, worker-chunk CPU time and the
//!   fast/fallback tallies of the warm-started optimiser.

use std::collections::BTreeMap;

use ayd_serve::Json;

use crate::table::TextTable;

/// One span parsed back from a trace log line.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Trace ID (16 lowercase hex digits — the `x-ayd-trace-id` value for
    /// request traces).
    pub trace: String,
    /// Span ID, unique process-wide.
    pub id: u64,
    /// Parent span ID (0 for roots).
    pub parent: u64,
    /// Span name (`request`, `parse`, `sweep`, …).
    pub name: String,
    /// Start offset in nanoseconds since the tracing epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub duration_ns: u64,
    /// The span's key/value fields, as parsed JSON.
    pub fields: Json,
}

impl TraceSpan {
    /// String field by key.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        self.fields.get(key).and_then(Json::as_str)
    }

    /// Numeric field by key, truncated to `u64`.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.fields
            .get(key)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
    }
}

/// Parses a whole trace log (one JSON object per line; blank lines ignored).
pub fn parse_trace_log(text: &str) -> Result<Vec<TraceSpan>, String> {
    let mut spans = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let context = |what: &str| format!("trace line {}: {what}", index + 1);
        let doc = Json::parse(line).map_err(|e| context(&format!("{e}")))?;
        let num = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| context(&format!("missing numeric `{key}`")))
        };
        spans.push(TraceSpan {
            trace: doc
                .get("trace")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            id: num("span")?,
            parent: num("parent")?,
            name: doc
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| context("missing `name`"))?
                .to_string(),
            start_ns: num("start_ns")?,
            duration_ns: num("dur_ns")?,
            fields: doc.get("fields").cloned().unwrap_or(Json::Null),
        });
    }
    Ok(spans)
}

/// Per-endpoint request accounting: exclusive stage times summing (with
/// `other`) to the total exactly.
#[derive(Debug, Clone, Default)]
pub struct EndpointAccount {
    /// Number of request roots charged to this endpoint.
    pub requests: u64,
    /// Total wall-clock of the request roots, ns.
    pub total_ns: u64,
    /// Exclusive time per named stage (`parse`, `route`, `evaluate`,
    /// `render`, …), ns.
    pub stages: BTreeMap<String, u64>,
}

impl EndpointAccount {
    /// Nanoseconds charged to a named stage.
    pub fn stage_ns(&self, stage: &str) -> u64 {
        self.stages.get(stage).copied().unwrap_or(0)
    }

    /// Nanoseconds no named span covered (root exclusive time).
    pub fn other_ns(&self) -> u64 {
        self.total_ns
            .saturating_sub(self.stages.values().sum::<u64>())
    }

    /// Fraction of the total reconstructed into named stages.
    pub fn coverage(&self) -> f64 {
        if self.total_ns == 0 {
            return 1.0;
        }
        1.0 - self.other_ns() as f64 / self.total_ns as f64
    }
}

/// Sweep accounting, summed over every `sweep` span.
#[derive(Debug, Clone, Default)]
pub struct SweepAccount {
    /// Number of `sweep` spans.
    pub sweeps: u64,
    /// Grid cells across those sweeps.
    pub cells: u64,
    /// Rows emitted across those sweeps.
    pub rows: u64,
    /// Wall-clock of the sweep spans, ns.
    pub wall_ns: u64,
    /// Worker chunks executed.
    pub chunks: u64,
    /// Summed chunk durations (CPU time across workers), ns.
    pub chunk_ns: u64,
    /// Warm-started scalar searches answered on the fast path.
    pub fast: u64,
    /// Scalar searches that fell back to the reference search.
    pub fallback: u64,
    /// Evaluation-cache hits.
    pub cache_hits: u64,
    /// Evaluation-cache misses.
    pub cache_misses: u64,
}

/// The full accounting of one trace log.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    /// Request decomposition per endpoint.
    pub endpoints: BTreeMap<String, EndpointAccount>,
    /// Number of `connection` roots seen.
    pub connections: u64,
    /// Total worker-pool queue wait across connections, ns.
    pub queue_wait_ns: u64,
    /// Sweep aggregation.
    pub sweep: SweepAccount,
    /// Total spans parsed.
    pub spans: usize,
}

impl Accounting {
    /// Aggregate coverage over every request root: the fraction of request
    /// wall-clock reconstructed into named stages (the acceptance target is
    /// ≥ 0.99).
    pub fn coverage(&self) -> f64 {
        let total: u64 = self.endpoints.values().map(|a| a.total_ns).sum();
        if total == 0 {
            return 1.0;
        }
        let other: u64 = self.endpoints.values().map(|a| a.other_ns()).sum();
        1.0 - other as f64 / total as f64
    }
}

/// Charges every span of the log to the accounting buckets.
pub fn account(spans: &[TraceSpan]) -> Accounting {
    // Span IDs are process-unique, so one child index serves every trace.
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (index, span) in spans.iter().enumerate() {
        if span.parent != 0 {
            *child_ns.entry(span.parent).or_default() += span.duration_ns;
            children.entry(span.parent).or_default().push(index);
        }
    }
    let exclusive = |span: &TraceSpan| {
        span.duration_ns
            .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0))
    };

    let mut accounting = Accounting {
        spans: spans.len(),
        ..Accounting::default()
    };
    for span in spans {
        match span.name.as_str() {
            "request" if span.parent == 0 => {
                let endpoint = span.field_str("endpoint").unwrap_or("unknown").to_string();
                let account = accounting.endpoints.entry(endpoint).or_default();
                account.requests += 1;
                account.total_ns += span.duration_ns;
                // Depth-first over the request's subtree: every descendant's
                // exclusive time lands on its own name, the root's exclusive
                // remainder is `other`.
                let mut stack: Vec<usize> = children.get(&span.id).cloned().unwrap_or_default();
                while let Some(index) = stack.pop() {
                    let descendant = &spans[index];
                    *account.stages.entry(descendant.name.clone()).or_default() +=
                        exclusive(descendant);
                    if let Some(grandchildren) = children.get(&descendant.id) {
                        stack.extend_from_slice(grandchildren);
                    }
                }
            }
            "connection" if span.parent == 0 => {
                accounting.connections += 1;
                accounting.queue_wait_ns += span.field_u64("queue_wait_ns").unwrap_or(0);
            }
            "sweep" => {
                let account = &mut accounting.sweep;
                account.sweeps += 1;
                account.cells += span.field_u64("cells").unwrap_or(0);
                account.rows += span.field_u64("rows").unwrap_or(0);
                account.wall_ns += span.duration_ns;
                account.fast += span.field_u64("search_fast").unwrap_or(0);
                account.fallback += span.field_u64("search_fallback").unwrap_or(0);
                account.cache_hits += span.field_u64("cache_hits").unwrap_or(0);
                account.cache_misses += span.field_u64("cache_misses").unwrap_or(0);
                for &index in children.get(&span.id).into_iter().flatten() {
                    let child = &spans[index];
                    if child.name == "chunk" {
                        account.chunks += 1;
                        account.chunk_ns += child.duration_ns;
                    }
                }
            }
            _ => {}
        }
    }
    accounting
}

fn seconds(ns: u64) -> String {
    format!("{:.6}", ns as f64 / 1e9)
}

/// Renders the accounting as paper-style text tables (empty sections are
/// omitted; an empty log still yields the summary table).
pub fn render(accounting: &Accounting) -> Vec<TextTable> {
    let mut tables = Vec::new();

    if !accounting.endpoints.is_empty() {
        let mut table = TextTable::new(
            "Request time accounting (seconds; stages are exclusive and sum to total)",
            &[
                "endpoint", "requests", "total", "parse", "route", "evaluate", "render", "other",
                "coverage",
            ],
        );
        let mut all = EndpointAccount::default();
        for (endpoint, account) in &accounting.endpoints {
            all.requests += account.requests;
            all.total_ns += account.total_ns;
            for (stage, ns) in &account.stages {
                *all.stages.entry(stage.clone()).or_default() += ns;
            }
            table.push_row(endpoint_row(endpoint, account));
        }
        if accounting.endpoints.len() > 1 {
            table.push_row(endpoint_row("(all)", &all));
        }
        tables.push(table);
    }

    if accounting.connections > 0 {
        let mut table = TextTable::new(
            "Connection queue wait (accept -> worker pickup; separate from service time)",
            &["connections", "total wait s", "mean wait ms"],
        );
        table.push_row(vec![
            accounting.connections.to_string(),
            seconds(accounting.queue_wait_ns),
            format!(
                "{:.3}",
                accounting.queue_wait_ns as f64 / 1e6 / accounting.connections as f64
            ),
        ]);
        tables.push(table);
    }

    let sweep = &accounting.sweep;
    if sweep.sweeps > 0 {
        let mut table = TextTable::new(
            "Sweep execution",
            &[
                "sweeps",
                "cells",
                "rows",
                "wall s",
                "chunks",
                "chunk cpu s",
                "search fast/fallback",
                "cache hit/miss",
            ],
        );
        table.push_row(vec![
            sweep.sweeps.to_string(),
            sweep.cells.to_string(),
            sweep.rows.to_string(),
            seconds(sweep.wall_ns),
            sweep.chunks.to_string(),
            seconds(sweep.chunk_ns),
            format!("{}/{}", sweep.fast, sweep.fallback),
            format!("{}/{}", sweep.cache_hits, sweep.cache_misses),
        ]);
        tables.push(table);
    }

    let mut summary = TextTable::new(
        "Trace summary",
        &["spans", "request wall s", "stage coverage"],
    );
    let request_total: u64 = accounting.endpoints.values().map(|a| a.total_ns).sum();
    summary.push_row(vec![
        accounting.spans.to_string(),
        seconds(request_total),
        format!("{:.2}%", accounting.coverage() * 100.0),
    ]);
    tables.push(summary);
    tables
}

fn endpoint_row(endpoint: &str, account: &EndpointAccount) -> Vec<String> {
    vec![
        endpoint.to_string(),
        account.requests.to_string(),
        seconds(account.total_ns),
        seconds(account.stage_ns("parse")),
        seconds(account.stage_ns("route")),
        seconds(account.stage_ns("evaluate")),
        seconds(account.stage_ns("render")),
        seconds(account.other_ns()),
        format!("{:.2}%", account.coverage() * 100.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayd_obs::{FieldValue, SpanRecord};

    fn record(
        trace: u64,
        id: u64,
        parent: u64,
        name: &'static str,
        duration_ns: u64,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> SpanRecord {
        SpanRecord {
            trace,
            id,
            parent,
            name,
            start_ns: 0,
            duration_ns,
            fields,
        }
    }

    fn log_of(records: &[SpanRecord]) -> String {
        records
            .iter()
            .map(|r| r.to_json_line())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn stages_are_exclusive_and_sum_to_the_total() {
        // request(1000) > parse(200), route(500) > evaluate(300), render(100):
        // exclusive route = 200, other = 1000 - 200 - 500 - 100 = 200.
        let records = [
            record(
                0xA,
                1,
                0,
                "request",
                1_000,
                vec![("endpoint", FieldValue::Str("optimize".into()))],
            ),
            record(0xA, 2, 1, "parse", 200, vec![]),
            record(0xA, 3, 1, "route", 500, vec![]),
            record(0xA, 4, 3, "evaluate", 300, vec![]),
            record(0xA, 5, 1, "render", 100, vec![]),
        ];
        let spans = parse_trace_log(&log_of(&records)).unwrap();
        assert_eq!(spans.len(), 5);
        let accounting = account(&spans);
        let optimize = &accounting.endpoints["optimize"];
        assert_eq!(optimize.requests, 1);
        assert_eq!(optimize.total_ns, 1_000);
        assert_eq!(optimize.stage_ns("parse"), 200);
        assert_eq!(optimize.stage_ns("route"), 200, "route excludes evaluate");
        assert_eq!(optimize.stage_ns("evaluate"), 300);
        assert_eq!(optimize.stage_ns("render"), 100);
        assert_eq!(optimize.other_ns(), 200);
        let stage_sum: u64 = optimize.stages.values().sum::<u64>() + optimize.other_ns();
        assert_eq!(stage_sum, optimize.total_ns);
        assert!((optimize.coverage() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn connections_and_sweeps_aggregate_separately() {
        let records = [
            record(
                0xB,
                10,
                0,
                "connection",
                5_000,
                vec![("queue_wait_ns", FieldValue::U64(1_500))],
            ),
            record(
                0xC,
                11,
                0,
                "sweep",
                9_000,
                vec![
                    ("cells", FieldValue::U64(16)),
                    ("rows", FieldValue::U64(16)),
                    ("search_fast", FieldValue::U64(30)),
                    ("search_fallback", FieldValue::U64(2)),
                    ("cache_hits", FieldValue::U64(4)),
                    ("cache_misses", FieldValue::U64(12)),
                ],
            ),
            record(0xC, 12, 11, "chunk", 4_000, vec![]),
            record(0xC, 13, 11, "chunk", 3_500, vec![]),
        ];
        let accounting = account(&parse_trace_log(&log_of(&records)).unwrap());
        assert_eq!(accounting.connections, 1);
        assert_eq!(accounting.queue_wait_ns, 1_500);
        let sweep = &accounting.sweep;
        assert_eq!(sweep.sweeps, 1);
        assert_eq!(sweep.cells, 16);
        assert_eq!(sweep.chunks, 2);
        assert_eq!(sweep.chunk_ns, 7_500);
        assert_eq!(sweep.fast, 30);
        assert_eq!(sweep.fallback, 2);
        assert_eq!((sweep.cache_hits, sweep.cache_misses), (4, 12));
        // No request roots: coverage is vacuously full, and render still
        // produces the sweep + summary tables.
        assert_eq!(accounting.coverage(), 1.0);
        let tables = render(&accounting);
        assert_eq!(tables.len(), 3, "queue, sweep and summary tables");
        assert!(
            tables[1].render().contains("| 30/2 "),
            "{}",
            tables[1].render()
        );
    }

    #[test]
    fn malformed_lines_fail_with_the_line_number() {
        let error = parse_trace_log("{\"trace\":\"x\"}\nnot json").unwrap_err();
        assert!(error.starts_with("trace line 1"), "{error}");
        assert!(parse_trace_log("").unwrap().is_empty());
    }
}
