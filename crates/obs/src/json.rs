//! Minimal JSON emission for telemetry snapshots.
//!
//! The workspace has no serialization dependency, so machine-readable
//! output is hand-assembled here: a small string-escaping writer plus
//! one function shaping a [`Snapshot`] into the documented schema. The
//! schema is part of the telemetry contract
//! (DESIGN.md §9):
//!
//! ```json
//! {
//!   "threads": 3,
//!   "counters": {"pipeline.bands": 42, ...},
//!   "gauges": {"scratch.bytes_high_water": 65536, ...},
//!   "histograms": {
//!     "pipeline.band_ns": {
//!       "count": 42, "sum": 123, "min": 1, "max": 9,
//!       "mean": 2.9, "p50": 3, "p90": 7, "p95": 8, "p99": 9,
//!       "buckets": [{"lo": 2, "hi": 3, "count": 40}, ...]   // non-empty only
//!     }, ...
//!   },
//!   "steals_by_victim": [0, 3, ...],   // trailing zeros trimmed
//!   "spans": [{"name": "...", "count": 1, "total_ns": 5,
//!              "mean_ns": 5.0, "children": [...]}, ...]
//! }
//! ```

use crate::span::SpanNode;
use crate::Snapshot;
use std::fmt::Write as _;

/// Escapes `s` for use inside a JSON string literal (quotes excluded).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (finite values only; non-finite
/// become `null`, which JSON has no number for).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn spans_to_json(nodes: &[SpanNode], out: &mut String) {
    out.push('[');
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"mean_ns\":{},\"children\":",
            escape(n.name),
            n.count,
            n.total_ns,
            number(n.mean_ns())
        );
        spans_to_json(&n.children, out);
        out.push('}');
    }
    out.push(']');
}

/// Renders a snapshot as a self-contained JSON document.
pub fn snapshot_to_json(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(out, "{{\"threads\":{},\"counters\":{{", snap.threads);
    for (i, c) in crate::Counter::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", c.name(), snap.counter(*c));
    }
    out.push_str("},\"gauges\":{");
    for (i, g) in crate::Gauge::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", g.name(), snap.gauge(*g));
    }
    out.push_str("},\"histograms\":{");
    for (i, h) in crate::HistId::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let d = snap.hist(*h);
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
             \"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
            h.name(),
            d.count,
            d.sum,
            d.min,
            d.max,
            number(d.mean()),
            d.percentile(50.0),
            d.percentile(90.0),
            d.percentile(95.0),
            d.percentile(99.0),
        );
        let mut first = true;
        for (b, &n) in d.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let (lo, hi) = crate::hist::bucket_bounds(b);
            let _ = write!(out, "{{\"lo\":{lo},\"hi\":{hi},\"count\":{n}}}");
        }
        out.push_str("]}");
    }
    out.push_str("},\"steals_by_victim\":[");
    let last_nonzero = snap
        .steal_victims
        .iter()
        .rposition(|&n| n > 0)
        .map_or(0, |i| i + 1);
    for (i, n) in snap.steal_victims[..last_nonzero].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{n}");
    }
    out.push_str("],\"spans\":");
    spans_to_json(&snap.spans, &mut out);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape(r"a\b"), r"a\\b");
        assert_eq!(escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn number_rejects_non_finite() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    /// A structural well-formedness check without a JSON parser in the
    /// tree: balanced braces/brackets outside strings, balanced quotes.
    pub(crate) fn assert_balanced(json: &str) {
        let mut depth = 0i64;
        let mut in_string = false;
        let mut escaped = false;
        for c in json.chars() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced close in {json}");
        }
        assert_eq!(depth, 0, "unbalanced JSON: {json}");
        assert!(!in_string, "unterminated string in {json}");
    }

    #[test]
    fn snapshot_json_is_well_formed_and_complete() {
        let _g = crate::tests::guard();
        crate::set_enabled(true);
        crate::reset();
        crate::add(crate::Counter::PipelineBands, 7);
        crate::record(crate::HistId::PipelineBandNanos, 1500);
        crate::record_steal(1);
        {
            let _root = crate::span("json_root");
            let _child = crate::span("json_child");
        }
        let snap = crate::snapshot();
        let json = snap.to_json();
        assert_balanced(&json);
        assert!(json.contains("\"pipeline.bands\":7"));
        assert!(json.contains("\"pipeline.band_ns\":{\"count\":1"));
        assert!(json.contains("\"json_root\""));
        assert!(json.contains("\"json_child\""));
        assert!(json.contains("\"steals_by_victim\":[0,1]"));
        crate::set_enabled(false);
    }
}
