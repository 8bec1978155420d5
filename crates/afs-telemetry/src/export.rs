//! Exporters: Prometheus-style text, JSON snapshot, and chrome-trace JSON.
//!
//! All three are hand-rolled string builders (no serde dependency). The
//! chrome-trace output follows the `trace_event` "JSON Array Format" with
//! complete (`"ph": "X"`) events plus one `process_name` metadata event per
//! group, so a `figure6 --spans out.json` file loads directly in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).

use std::fmt::Write as _;

use crate::flight::FlightBundle;
use crate::registry::{Metric, MetricValue};
use crate::span::SpanRecord;

fn escape_json(s: &str, out: &mut String) {
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
}

/// Escapes a Prometheus label *value*: backslash, double quote, and both
/// line terminators. CR has no defined exposition escape, so it borrows
/// the `\r` spelling — line integrity beats round-tripping a control
/// character nothing should contain.
fn escape_prom_value(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
}

/// Coerces a metric or label name into the exposition grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`; labels may not use `:`). Invalid bytes
/// become `_` — an adversarial name degrades, it never corrupts a line.
fn sanitize_name(name: &str, is_label: bool) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = match c {
            'a'..='z' | 'A'..='Z' | '_' => true,
            ':' => !is_label,
            '0'..='9' => i > 0,
            _ => false,
        };
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn label_block(labels: &[(&'static str, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<(String, String)> = Vec::new();
    for (k, v) in labels {
        let key = sanitize_name(k, true);
        // Duplicate label names (possibly via sanitisation collision)
        // would make the block unparseable; first occurrence wins.
        if parts.iter().any(|(existing, _)| *existing == key) {
            continue;
        }
        let mut escaped = String::new();
        escape_prom_value(v, &mut escaped);
        parts.push((key, escaped));
    }
    if let Some((k, v)) = extra {
        parts.push((sanitize_name(k, true), v.to_owned()));
    }
    if parts.is_empty() {
        String::new()
    } else {
        let rendered: Vec<String> = parts.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{{{}}}", rendered.join(","))
    }
}

/// Renders metrics in Prometheus text exposition format. Summaries become
/// `quantile`-labelled samples plus `_count`, `_sum`, and `_max` series.
/// Names are sanitised, label values escaped, and exact-duplicate series
/// (same name and label set) dropped after the first — adversarial inputs
/// degrade into valid exposition text instead of corrupting it.
pub fn prometheus_text(metrics: &[Metric]) -> String {
    let mut out = String::new();
    let mut seen: Vec<String> = Vec::new();
    let emit = |out: &mut String, seen: &mut Vec<String>, series: String, value: String| {
        if seen.contains(&series) {
            return;
        }
        let _ = writeln!(out, "{series} {value}");
        seen.push(series);
    };
    for metric in metrics {
        let name = sanitize_name(&metric.name, false);
        match &metric.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                let series = format!("{name}{}", label_block(&metric.labels, None));
                emit(&mut out, &mut seen, series, v.to_string());
            }
            MetricValue::Summary(snap) => {
                for (q, v) in [
                    ("0.5", snap.p50_ns()),
                    ("0.9", snap.p90_ns()),
                    ("0.99", snap.p99_ns()),
                ] {
                    let series = format!(
                        "{name}{}",
                        label_block(&metric.labels, Some(("quantile", q)))
                    );
                    emit(&mut out, &mut seen, series, v.to_string());
                }
                let plain = label_block(&metric.labels, None);
                for (suffix, v) in [
                    ("_count", snap.count),
                    ("_sum", snap.sum_ns),
                    ("_max", snap.max_ns),
                ] {
                    emit(
                        &mut out,
                        &mut seen,
                        format!("{name}{suffix}{plain}"),
                        v.to_string(),
                    );
                }
            }
        }
    }
    out
}

/// Validity check for Prometheus text exposition output: every non-empty,
/// non-comment line must be `name[{labels}] value` with a grammatical
/// name, well-formed quoted/escaped label values, and a numeric value.
/// The test-side counterpart of the hardening in [`prometheus_text`].
pub fn prometheus_is_valid(text: &str) -> bool {
    text.lines().all(prom_line_is_valid)
}

fn prom_line_is_valid(line: &str) -> bool {
    if line.is_empty() || line.starts_with('#') {
        return true;
    }
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    let name_ok = |b: u8, first: bool| {
        b.is_ascii_alphabetic() || b == b'_' || b == b':' || (!first && b.is_ascii_digit())
    };
    while pos < bytes.len() && name_ok(bytes[pos], pos == 0) {
        pos += 1;
    }
    if pos == 0 {
        return false;
    }
    if bytes.get(pos) == Some(&b'{') {
        pos += 1;
        if bytes.get(pos) != Some(&b'}') {
            loop {
                let start = pos;
                while pos < bytes.len() && name_ok(bytes[pos], pos == start) {
                    pos += 1;
                }
                if pos == start || bytes.get(pos) != Some(&b'=') {
                    return false;
                }
                pos += 1;
                if bytes.get(pos) != Some(&b'"') {
                    return false;
                }
                pos += 1;
                loop {
                    match bytes.get(pos) {
                        Some(b'"') => {
                            pos += 1;
                            break;
                        }
                        Some(b'\\') => match bytes.get(pos + 1) {
                            Some(b'\\' | b'"' | b'n' | b'r') => pos += 2,
                            _ => return false,
                        },
                        Some(b'\n') | None => return false,
                        Some(_) => pos += 1,
                    }
                }
                match bytes.get(pos) {
                    Some(b',') => pos += 1,
                    Some(b'}') => break,
                    _ => return false,
                }
            }
        }
        pos += 1; // consume '}'
    }
    if bytes.get(pos) != Some(&b' ') {
        return false;
    }
    line[pos + 1..].parse::<f64>().is_ok()
}

/// Renders metrics as a JSON object: `{"metrics": [...]}`.
pub fn json_snapshot(metrics: &[Metric]) -> String {
    let mut out = String::from("{\"metrics\":[");
    for (i, metric) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(&metric.name, &mut out);
        out.push_str("\",\"labels\":{");
        let mut emitted: Vec<&'static str> = Vec::new();
        for (k, v) in metric.labels.iter() {
            // A duplicated label key would shadow in any JSON consumer;
            // first occurrence wins, matching the Prometheus exporter.
            if emitted.contains(k) {
                continue;
            }
            if !emitted.is_empty() {
                out.push(',');
            }
            emitted.push(k);
            out.push('"');
            escape_json(k, &mut out);
            out.push_str("\":\"");
            escape_json(v, &mut out);
            out.push('"');
        }
        out.push_str("},");
        match &metric.value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "\"type\":\"counter\",\"value\":{v}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, "\"type\":\"gauge\",\"value\":{v}");
            }
            MetricValue::Summary(s) => {
                let _ = write!(
                    out,
                    "\"type\":\"summary\",\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"mean_ns\":{}",
                    s.count,
                    s.sum_ns,
                    s.p50_ns(),
                    s.p90_ns(),
                    s.p99_ns(),
                    s.max_ns,
                    s.mean_ns()
                );
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Renders span groups as chrome-trace (`trace_event`) JSON. Each group is
/// `(process label, spans)`; the group index becomes the trace `pid` and a
/// `process_name` metadata event names it, so the four strategies show up
/// as four labelled process lanes in a viewer.
pub fn chrome_trace(groups: &[(&str, Vec<SpanRecord>)]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for (pid, (label, spans)) in groups.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        let _ = write!(out, "{pid},\"tid\":0,\"args\":{{\"name\":\"");
        escape_json(label, &mut out);
        out.push_str("\"}}");
        for span in spans {
            out.push_str(",{\"name\":\"");
            escape_json(span.name, &mut out);
            let _ = write!(
                out,
                "\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"trace\":{},\"strategy\":\"",
                span.layer.label(),
                span.start as f64 / 1_000.0,
                span.duration_ns() as f64 / 1_000.0,
                span.thread,
                span.id,
                span.parent,
                span.trace
            );
            escape_json(span.strategy, &mut out);
            out.push_str("\",\"note\":\"");
            escape_json(span.note, &mut out);
            let _ = write!(out, "\",\"bytes\":{}}}}}", span.bytes);
        }
    }
    out.push(']');
    out
}

fn span_record_json(span: &SpanRecord, out: &mut String) {
    let _ = write!(
        out,
        "{{\"id\":{},\"parent\":{},\"trace\":{},\"layer\":\"{}\",\"name\":\"",
        span.id,
        span.parent,
        span.trace,
        span.layer.label()
    );
    escape_json(span.name, out);
    out.push_str("\",\"strategy\":\"");
    escape_json(span.strategy, out);
    out.push_str("\",\"note\":\"");
    escape_json(span.note, out);
    let _ = write!(
        out,
        "\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{},\"thread\":{}}}",
        span.start, span.end, span.bytes, span.thread
    );
}

/// Renders flight-recorder bundles as a JSON object: `{"bundles":[...]}`.
/// Each bundle carries its trigger cause/detail, the frozen recent spans,
/// the open (in-flight) span chain, and the subsystem event rings — the
/// schema `afsh dump` and `AfsWorld::flight_dump` artifacts embed (see
/// `docs/OBSERVABILITY.md`).
pub fn flight_bundles_json(bundles: &[FlightBundle]) -> String {
    let mut out = String::from("{\"bundles\":[");
    for (i, bundle) in bundles.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"seq\":{},\"at_ns\":{},\"cause\":\"",
            bundle.seq, bundle.at_ns
        );
        escape_json(bundle.cause, &mut out);
        out.push_str("\",\"detail\":\"");
        escape_json(&bundle.detail, &mut out);
        out.push_str("\",\"spans\":[");
        for (j, span) in bundle.spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            span_record_json(span, &mut out);
        }
        out.push_str("],\"open\":[");
        for (j, open) in bundle.open.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"",
                open.id, open.parent, open.trace
            );
            escape_json(open.name, &mut out);
            out.push_str("\",\"note\":\"");
            escape_json(open.note, &mut out);
            out.push_str("\"}");
        }
        out.push_str("],\"events\":[");
        for (j, event) in bundle.events.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"at_ns\":{},\"subsystem\":\"", event.at_ns);
            escape_json(event.subsystem, &mut out);
            out.push_str("\",\"message\":\"");
            escape_json(&event.message, &mut out);
            out.push_str("\"}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Whether `input` is one well-formed JSON document — [`crate::json::parse`]
/// accepts it. Guards the exporters against schema rot.
pub fn json_is_valid(input: &str) -> bool {
    crate::json::parse(input).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;
    use crate::span::Layer;

    fn sample_span(id: u64, parent: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            trace: 1,
            layer: Layer::Strategy,
            name: "read",
            strategy: "Process",
            note: "",
            start: 1_000,
            end: 5_500,
            bytes: 512,
            thread: 1,
        }
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        assert!(json_is_valid("{}"));
        assert!(json_is_valid("[]"));
        assert!(json_is_valid(r#"{"a":[1,2.5,-3e2],"b":"x\n","c":null}"#));
        assert!(json_is_valid("  [true, false]  "));
        assert!(!json_is_valid(""));
        assert!(!json_is_valid("{"));
        assert!(!json_is_valid("[1,]"));
        assert!(!json_is_valid(r#"{"a":}"#));
        assert!(!json_is_valid("[1] trailing"));
        assert!(!json_is_valid(r#"{"a" 1}"#));
    }

    #[test]
    fn prometheus_text_renders_all_kinds() {
        let hist = LatencyHistogram::new();
        hist.record(1_000);
        hist.record(2_000);
        let metrics = vec![
            Metric::counter("afs_ops_total", 2).label("strategy", "Process"),
            Metric::gauge("afs_pipe_depth", 7),
            Metric::summary("afs_op_latency_ns", hist.snapshot()).label("op", "read"),
        ];
        let text = prometheus_text(&metrics);
        assert!(text.contains("afs_ops_total{strategy=\"Process\"} 2"));
        assert!(text.contains("afs_pipe_depth 7"));
        assert!(text.contains("afs_op_latency_ns{op=\"read\",quantile=\"0.5\"}"));
        assert!(text.contains("afs_op_latency_ns_count{op=\"read\"} 2"));
        assert!(text.contains("afs_op_latency_ns_sum{op=\"read\"} 3000"));
    }

    #[test]
    fn json_snapshot_is_valid_json() {
        let hist = LatencyHistogram::new();
        hist.record(123);
        let metrics = vec![
            Metric::counter("a_total", 1).label("k", "v\"quoted\""),
            Metric::summary("lat_ns", hist.snapshot()),
        ];
        let json = json_snapshot(&metrics);
        assert!(json_is_valid(&json), "invalid JSON: {json}");
        assert!(json.contains("\"type\":\"summary\""));
    }

    #[test]
    fn chrome_trace_emits_metadata_and_complete_events() {
        let groups = vec![
            ("Process", vec![sample_span(1, 0), sample_span(2, 1)]),
            ("DLL", vec![sample_span(3, 0)]),
        ];
        let json = chrome_trace(&groups);
        assert!(json_is_valid(&json), "invalid JSON: {json}");
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"strategy\""));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"dur\":4.500"));
    }

    #[test]
    fn chrome_trace_of_empty_groups_is_valid() {
        assert!(json_is_valid(&chrome_trace(&[])));
        assert!(json_is_valid(&chrome_trace(&[("x", Vec::new())])));
    }

    #[test]
    fn chrome_trace_carries_trace_and_note_args() {
        let mut span = sample_span(9, 3);
        span.trace = 7;
        span.note = "cause=breaker_open";
        let json = chrome_trace(&[("Thread", vec![span])]);
        assert!(json_is_valid(&json), "invalid JSON: {json}");
        assert!(json.contains("\"trace\":7"));
        assert!(json.contains("\"note\":\"cause=breaker_open\""));
    }

    /// Adversarial corpus shared by the exporter-hardening tests: every
    /// value class the satellite names (newlines, quotes, backslashes,
    /// non-ASCII UTF-8, control bytes, grammar-breaking names).
    const HOSTILE: &[&str] = &[
        "plain",
        "with\nnewline",
        "with\r\nboth",
        "quo\"te",
        "back\\slash",
        "tab\there",
        "ünïcodé 文件 🚀",
        "}injected=\"1\"} 9",
        "a{b=\"c\"}",
        "",
        "\u{1}\u{2}\u{3}",
        "9starts-with-digit",
    ];

    #[test]
    fn prometheus_text_survives_hostile_values() {
        for name in HOSTILE {
            for value in HOSTILE {
                let metrics = vec![
                    Metric::counter(*name, 1).label("file", *value),
                    Metric::gauge(*name, 2).label("file", *value),
                ];
                let text = prometheus_text(&metrics);
                assert!(
                    prometheus_is_valid(&text),
                    "invalid exposition for name={name:?} value={value:?}:\n{text}"
                );
            }
        }
    }

    #[test]
    fn prometheus_text_escapes_rather_than_breaks_lines() {
        let metrics = vec![Metric::counter("evil", 1).label("v", "line1\nline2\"quoted\"\\end")];
        let text = prometheus_text(&metrics);
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("v=\"line1\\nline2\\\"quoted\\\"\\\\end\""));
    }

    #[test]
    fn prometheus_text_sanitizes_names_and_dedupes_duplicates() {
        let metrics = vec![
            Metric::counter("bad name{x=\"1\"}", 1),
            Metric::counter("dup_total", 1).label("k", "v"),
            Metric::counter("dup_total", 999).label("k", "v"),
            Metric::counter("dup_labels", 1)
                .label("k", "first")
                .label("k", "second"),
        ];
        let text = prometheus_text(&metrics);
        assert!(prometheus_is_valid(&text), "invalid:\n{text}");
        assert!(text.contains("bad_name_x__1__ 1"));
        // Duplicate series: first sample wins, second dropped.
        assert_eq!(text.matches("dup_total").count(), 1);
        assert!(text.contains("dup_total{k=\"v\"} 1"));
        // Duplicate label key: first occurrence wins.
        assert!(text.contains("dup_labels{k=\"first\"} 1"));
        assert!(!text.contains("second"));
    }

    #[test]
    fn prometheus_validator_rejects_malformed_lines() {
        assert!(!prometheus_is_valid("no value"));
        assert!(!prometheus_is_valid("name{unterminated=\"x} 1"));
        assert!(!prometheus_is_valid("name{k=\"v\"} not-a-number"));
        assert!(!prometheus_is_valid("{k=\"v\"} 1"));
        assert!(!prometheus_is_valid("name{k=\"bad\\q\"} 1"));
        assert!(prometheus_is_valid("name{k=\"v\"} 1\nplain 2\n# comment"));
    }

    #[test]
    fn json_snapshot_survives_hostile_values() {
        for name in HOSTILE {
            for value in HOSTILE {
                let metrics = vec![
                    Metric::counter(*name, 1).label("file", *value),
                    Metric::summary(*name, LatencyHistogram::new().snapshot())
                        .label("file", *value),
                ];
                let json = json_snapshot(&metrics);
                assert!(
                    json_is_valid(&json),
                    "invalid JSON for name={name:?} value={value:?}:\n{json}"
                );
            }
        }
    }

    /// What `escape_json` writes, the one parser reads back unchanged:
    /// quote, backslash, the named escapes, `\u00XX` control bytes, and
    /// raw multi-byte UTF-8.
    #[test]
    fn hostile_strings_round_trip_through_the_one_parser() {
        let hostile = "q\" b\\ n\n r\r t\t \u{1} \u{1b} é 🦀";
        let doc = crate::json::parse(&json_snapshot(&[
            Metric::counter(hostile, 1).label("file", hostile)
        ]))
        .expect("snapshot parses");
        let metric = &doc.as_object().expect("root")["metrics"]
            .as_array()
            .expect("metrics")[0];
        let metric = metric.as_object().expect("metric");
        assert_eq!(metric["name"].as_str(), Some(hostile));
        assert_eq!(
            metric["labels"].as_object().expect("labels")["file"].as_str(),
            Some(hostile)
        );

        let mut span = sample_span(1, 0);
        span.note = crate::span::intern(hostile);
        let trace = crate::json::parse(&chrome_trace(&[(hostile, vec![span])])).expect("trace");
        let events = trace.as_array().expect("events");
        let arg = |i: usize, key: &str| {
            events[i].as_object().expect("event")["args"]
                .as_object()
                .expect("args")[key]
                .as_str()
                .map(str::to_owned)
        };
        assert_eq!(arg(0, "name").as_deref(), Some(hostile), "process label");
        assert_eq!(arg(1, "note").as_deref(), Some(hostile), "span note");
    }

    #[test]
    fn json_snapshot_dedupes_duplicate_label_keys() {
        let metrics = vec![Metric::counter("m", 1).label("k", "a").label("k", "b")];
        let json = json_snapshot(&metrics);
        assert!(json_is_valid(&json));
        assert_eq!(json.matches("\"k\":").count(), 1);
        assert!(json.contains("\"k\":\"a\""));
    }

    #[test]
    fn chrome_trace_survives_hostile_group_labels() {
        for label in HOSTILE {
            let json = chrome_trace(&[(*label, vec![sample_span(1, 0)])]);
            assert!(json_is_valid(&json), "invalid JSON for label={label:?}");
        }
    }

    #[test]
    fn flight_bundles_render_as_valid_json() {
        let fr = crate::flight::FlightRecorder::new();
        fr.note("net", "breaker opened service=\"fs\"\nline2".to_owned());
        fr.trigger_basic("breaker_open", "service=fs ünïcode".to_owned());
        let json = flight_bundles_json(&fr.bundles());
        assert!(json_is_valid(&json), "invalid JSON: {json}");
        assert!(json.contains("\"cause\":\"breaker_open\""));
        assert!(json.contains("\"subsystem\":\"net\""));
    }
}
