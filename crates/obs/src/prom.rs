//! Prometheus text-format exposition (version 0.0.4) over the global
//! metric registry, plus a structural lint used by tests and CI.
//!
//! Mapping: every registered [`crate::Counter`] becomes a `counter`
//! family named `ipe_<name>_total`; every [`crate::Timer`] becomes a
//! `histogram` family named `ipe_<name>_ns`. A timer's log2 bucket `b`
//! holds observations in `[2^b, 2^(b+1))` nanoseconds, so it is rendered
//! as the cumulative bucket `le="2^(b+1)"`, with `le="+Inf"` equal to
//! `_count` and `_sum` equal to the timer's total nanoseconds. Each
//! timer additionally yields a `gauge` family `ipe_<name>_ns_quantile`
//! with `quantile="0.5"|"0.95"|"0.99"` samples derived from the log2
//! histogram (the quantile is reported as the upper bound of the bucket
//! where the cumulative count crosses the rank, i.e. within 2x of the
//! true value). Callers append service-level gauges via [`Gauge`], which
//! may carry labels; samples of one gauge family render together under a
//! single `# HELP`/`# TYPE` pair.

use crate::metrics::{snapshot_counters, snapshot_timers, TimerSnapshot};
use std::fmt::Write as _;

/// One service-level gauge sample supplied by the caller (e.g. cache
/// bytes). Samples sharing a name form one family; they differ by labels.
#[derive(Clone, Debug)]
pub struct Gauge {
    /// Dotted metric name (mangled like counter/timer names).
    pub name: String,
    /// HELP text of the family (the first sample's text is used).
    pub help: String,
    /// Label pairs, e.g. `("tenant", "acme")`. Names must match
    /// `[a-zA-Z_][a-zA-Z0-9_]*`; values are escaped on render.
    pub labels: Vec<(String, String)>,
    /// Current value.
    pub value: f64,
}

impl Gauge {
    /// An unlabelled gauge.
    pub fn new(name: impl Into<String>, help: impl Into<String>, value: f64) -> Gauge {
        Gauge {
            name: name.into(),
            help: help.into(),
            labels: Vec::new(),
            value,
        }
    }

    /// Adds one label pair.
    pub fn label(mut self, name: impl Into<String>, value: impl Into<String>) -> Gauge {
        self.labels.push((name.into(), value.into()));
        self
    }
}

/// Mangles a dotted registry name into a Prometheus metric name:
/// `service.request` → `ipe_service_request`.
pub fn mangle(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("ipe_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn push_f64(out: &mut String, v: f64) {
    if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// The quantiles derived for every timer family.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

/// Upper bound (ns) of log2 bucket `b`, i.e. `2^(b+1)`.
fn bucket_upper(b: u8) -> u128 {
    1u128 << (b as u32 + 1)
}

/// Derives quantile `q` from a timer's log2 histogram: the upper bound
/// of the bucket where the cumulative count reaches `ceil(q * count)`.
fn derive_quantile(t: &TimerSnapshot, q: f64) -> u128 {
    if t.count == 0 {
        return 0;
    }
    let rank = ((q * t.count as f64).ceil() as u64).clamp(1, t.count);
    let mut cum = 0u64;
    for &(b, n) in &t.buckets {
        cum += n;
        if cum >= rank {
            return bucket_upper(b);
        }
    }
    t.buckets.last().map(|&(b, _)| bucket_upper(b)).unwrap_or(0)
}

/// Renders the full exposition: every registered counter and timer plus
/// the caller's gauges. Returns valid 0.0.4 text ending in a newline.
pub fn render(gauges: &[Gauge]) -> String {
    let mut out = String::with_capacity(4096);
    for c in snapshot_counters() {
        let fam = mangle(c.name) + "_total";
        let _ = writeln!(out, "# HELP {fam} Counter `{}`.", c.name);
        let _ = writeln!(out, "# TYPE {fam} counter");
        let _ = writeln!(out, "{fam} {}", c.value);
    }
    for t in snapshot_timers() {
        let fam = mangle(t.name) + "_ns";
        let _ = writeln!(
            out,
            "# HELP {fam} Duration histogram `{}` in nanoseconds.",
            t.name
        );
        let _ = writeln!(out, "# TYPE {fam} histogram");
        let mut cum = 0u64;
        for &(b, n) in &t.buckets {
            cum += n;
            let _ = writeln!(out, "{fam}_bucket{{le=\"{}\"}} {cum}", bucket_upper(b));
        }
        let _ = writeln!(out, "{fam}_bucket{{le=\"+Inf\"}} {}", t.count);
        let _ = writeln!(out, "{fam}_sum {}", t.total_ns);
        let _ = writeln!(out, "{fam}_count {}", t.count);
        let qfam = fam.clone() + "_quantile";
        let _ = writeln!(
            out,
            "# HELP {qfam} Quantiles of `{}` derived from log2 buckets, nanoseconds.",
            t.name
        );
        let _ = writeln!(out, "# TYPE {qfam} gauge");
        for (q, label) in QUANTILES {
            let _ = writeln!(
                out,
                "{qfam}{{quantile=\"{label}\"}} {}",
                derive_quantile(&t, q)
            );
        }
    }
    // Group samples by family, in order of first appearance: the format
    // wants one HELP/TYPE per family and a family's samples together.
    let mut families: Vec<(String, Vec<&Gauge>)> = Vec::new();
    for g in gauges {
        let fam = mangle(&g.name);
        match families.iter_mut().find(|(f, _)| *f == fam) {
            Some((_, samples)) => samples.push(g),
            None => families.push((fam, vec![g])),
        }
    }
    for (fam, samples) in families {
        let _ = writeln!(out, "# HELP {fam} {}", samples[0].help);
        let _ = writeln!(out, "# TYPE {fam} gauge");
        for g in samples {
            out.push_str(&fam);
            push_labels(&mut out, &g.labels);
            out.push(' ');
            push_f64(&mut out, g.value);
            out.push('\n');
        }
    }
    out
}

/// Writes `{name="value",...}` (nothing for an empty set), escaping
/// backslash, double quote, and newline in values.
fn push_labels(out: &mut String, labels: &[(String, String)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (name, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{name}=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// One parsed sample line: metric name, label pairs, value text.
type Sample<'a> = (&'a str, Vec<(String, String)>, &'a str);

/// Splits a sample line into its name, labels, and value text. A label
/// set must be `{name="value",...}` with well-formed, distinct names and
/// values using only the `\\`, `\"`, `\n` escapes.
fn split_sample(line: &str) -> Result<Sample<'_>, String> {
    let Some(open) = line.find('{') else {
        let (name, value) = line.split_once(' ').ok_or("no value")?;
        return Ok((name, Vec::new(), value.trim()));
    };
    let mut labels: Vec<(String, String)> = Vec::new();
    let mut rest = &line[open + 1..];
    loop {
        if labels.is_empty() {
            if let Some(after) = rest.strip_prefix('}') {
                rest = after;
                break;
            }
        }
        let (name, after) = rest.split_once("=\"").ok_or("label without =\"")?;
        if !valid_label_name(name) {
            return Err(format!("bad label name `{name}`"));
        }
        if labels.iter().any(|(n, _)| n == name) {
            return Err(format!("repeated label `{name}`"));
        }
        let mut value = String::new();
        let mut chars = after.char_indices();
        let end = loop {
            match chars.next().ok_or("unterminated label value")? {
                (i, '"') => break i,
                (_, '\\') => match chars.next().map(|(_, c)| c) {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    _ => return Err("bad escape in label value".to_owned()),
                },
                (_, c) => value.push(c),
            }
        };
        labels.push((name.to_owned(), value));
        rest = &after[end + 1..];
        if let Some(after) = rest.strip_prefix('}') {
            rest = after;
            break;
        }
        rest = rest.strip_prefix(',').ok_or("labels not separated by ,")?;
    }
    Ok((&line[..open], labels, rest.trim()))
}

/// Structural lint of a 0.0.4 exposition. Checks that every sample
/// belongs to a family with exactly one `# HELP` and one `# TYPE` line,
/// that metric names and label sets are well-formed, that histogram
/// buckets are cumulative (monotone nondecreasing in `le` order) and end
/// with `le="+Inf"` equal to the family's `_count`, and that every sample
/// value parses as a number. Returns the list of violations (empty = clean).
pub fn lint(text: &str) -> Result<(), Vec<String>> {
    use std::collections::{BTreeMap, HashMap, HashSet};
    let mut errors: Vec<String> = Vec::new();
    let mut help: HashSet<String> = HashSet::new();
    let mut types: HashMap<String, String> = HashMap::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("# ") else {
            continue;
        };
        if let Some(spec) = rest.strip_prefix("HELP ") {
            if let Some((name, _)) = spec.split_once(' ') {
                if !help.insert(name.to_owned()) {
                    errors.push(format!("`{name}` has a repeated # HELP"));
                }
            }
        } else if let Some(spec) = rest.strip_prefix("TYPE ") {
            if let Some((name, ty)) = spec.split_once(' ') {
                if types
                    .insert(name.to_owned(), ty.trim().to_owned())
                    .is_some()
                {
                    errors.push(format!("`{name}` has a repeated # TYPE"));
                }
            }
        }
    }
    // family → ordered bucket samples, `_count` value.
    let mut buckets: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, labels, value) = match split_sample(line) {
            Ok(sample) => sample,
            Err(why) => {
                errors.push(format!("line {lineno}: {why}: {line}"));
                continue;
            }
        };
        if !valid_metric_name(name) {
            errors.push(format!("line {lineno}: bad metric name `{name}`"));
            continue;
        }
        let Ok(value) = value.parse::<f64>() else {
            errors.push(format!("line {lineno}: non-numeric value in: {line}"));
            continue;
        };
        // Resolve the family: histogram samples use suffixed names.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                let base = name.strip_suffix(suf)?;
                (types.get(base).map(String::as_str) == Some("histogram")).then_some(base)
            })
            .unwrap_or(name);
        if !help.contains(family) {
            errors.push(format!("line {lineno}: `{family}` has no # HELP"));
        }
        let Some(ty) = types.get(family) else {
            errors.push(format!("line {lineno}: `{family}` has no # TYPE"));
            continue;
        };
        if ty == "histogram" {
            if name.ends_with("_bucket") {
                let Some((_, le)) = labels.into_iter().find(|(n, _)| n == "le") else {
                    errors.push(format!("line {lineno}: histogram bucket without le label"));
                    continue;
                };
                buckets
                    .entry(family.to_owned())
                    .or_default()
                    .push((le, value));
            } else if name.ends_with("_count") {
                counts.insert(family.to_owned(), value);
            }
        }
    }
    for (family, series) in &buckets {
        let mut prev = f64::NEG_INFINITY;
        for (le, v) in series {
            if *v < prev {
                errors.push(format!(
                    "histogram `{family}`: bucket le=\"{le}\" value {v} below predecessor {prev}"
                ));
            }
            prev = *v;
        }
        match series.last() {
            Some((le, v)) if le == "+Inf" => {
                let count = counts.get(family).copied();
                if count != Some(*v) {
                    errors.push(format!(
                        "histogram `{family}`: le=\"+Inf\" is {v} but _count is {count:?}"
                    ));
                }
            }
            _ => errors.push(format!(
                "histogram `{family}`: bucket series does not end with le=\"+Inf\""
            )),
        }
    }
    if !text.is_empty() && !text.ends_with('\n') {
        errors.push("exposition does not end with a newline".to_owned());
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mangle_prefixes_and_replaces() {
        assert_eq!(mangle("service.request"), "ipe_service_request");
        assert_eq!(mangle("http.route.complete"), "ipe_http_route_complete");
    }

    #[test]
    fn quantiles_come_from_cumulative_buckets() {
        let t = TimerSnapshot {
            name: "t",
            count: 100,
            total_ns: 0,
            // 50 obs in [2^4, 2^5), 45 in [2^6, 2^7), 5 in [2^9, 2^10).
            buckets: vec![(4, 50), (6, 45), (9, 5)],
        };
        assert_eq!(derive_quantile(&t, 0.5), 32);
        assert_eq!(derive_quantile(&t, 0.95), 128);
        assert_eq!(derive_quantile(&t, 0.99), 1024);
        let empty = TimerSnapshot {
            name: "e",
            count: 0,
            total_ns: 0,
            buckets: vec![],
        };
        assert_eq!(derive_quantile(&empty, 0.5), 0);
    }

    #[test]
    #[cfg_attr(feature = "obs-off", ignore = "metrics compiled out")]
    fn rendered_output_passes_the_lint() {
        crate::counter!("test.prom.hits", 3);
        static T: crate::Timer = crate::Timer::new("test.prom.latency");
        T.record_ns(100);
        T.record_ns(100_000);
        let text = render(&[Gauge::new(
            "test.prom.cache.bytes",
            "Bytes held by the test cache.",
            1234.0,
        )]);
        assert!(text.contains("# TYPE ipe_test_prom_hits_total counter"));
        assert!(text.contains("# TYPE ipe_test_prom_latency_ns histogram"));
        assert!(text.contains("ipe_test_prom_latency_ns_bucket{le=\"+Inf\"}"));
        assert!(text.contains("ipe_test_prom_latency_ns_quantile{quantile=\"0.5\"}"));
        assert!(text.contains("# TYPE ipe_test_prom_cache_bytes gauge"));
        assert!(text.contains("ipe_test_prom_cache_bytes 1234"));
        if let Err(errs) = lint(&text) {
            panic!("lint failed: {errs:?}");
        }
    }

    #[test]
    fn lint_catches_structural_breakage() {
        // Missing HELP.
        let text = "# TYPE a counter\na 1\n";
        assert!(lint(text).is_err());
        // Non-monotone histogram.
        let text = "# HELP h x\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                    h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        let errs = lint(text).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("below predecessor")),
            "{errs:?}"
        );
        // +Inf != _count.
        let text = "# HELP h x\n# TYPE h histogram\n\
                    h_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 5\n";
        let errs = lint(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("+Inf")), "{errs:?}");
        // Clean minimal exposition.
        let text = "# HELP ok x\n# TYPE ok counter\nok 1\n";
        assert!(lint(text).is_ok());
        // Repeated HELP / TYPE for one family.
        let text = "# HELP g x\n# TYPE g gauge\n# HELP g x\ng 1\n";
        let errs = lint(text).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("repeated # HELP")),
            "{errs:?}"
        );
        let text = "# HELP g x\n# TYPE g gauge\n# TYPE g gauge\ng 1\n";
        let errs = lint(text).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("repeated # TYPE")),
            "{errs:?}"
        );
        // Malformed label sets.
        for bad in [
            "g{t=\"a\"",
            "g{t=a} 1",
            "g{1t=\"a\"} 1",
            "g{t=\"a\",t=\"b\"} 1",
            "g{t=\"a\" u=\"b\"} 1",
            "g{t=\"a\",} 1",
            "g{t=\"a\\x\"} 1",
        ] {
            let text = format!("# HELP g x\n# TYPE g gauge\n{bad}\n");
            assert!(lint(&text).is_err(), "{bad}");
        }
        let text = "# HELP g x\n# TYPE g gauge\ng{} 1\ng{t=\"a,}\\\"\",u=\"\"} 2\n";
        assert_eq!(lint(text), Ok(()));
    }

    #[test]
    fn labelled_gauges_share_one_family_header() {
        let text = render(&[
            Gauge::new("test.labelled", "Per-tenant value.", 1.0).label("tenant", "a"),
            Gauge::new("test.other", "Other.", 3.0),
            Gauge::new("test.labelled", "Per-tenant value.", 2.0).label("tenant", "b\"\\\n"),
        ]);
        assert_eq!(
            text.matches("# HELP ipe_test_labelled ").count(),
            1,
            "{text}"
        );
        assert_eq!(
            text.matches("# TYPE ipe_test_labelled ").count(),
            1,
            "{text}"
        );
        assert!(
            text.contains(
                "ipe_test_labelled{tenant=\"a\"} 1\nipe_test_labelled{tenant=\"b\\\"\\\\\\n\"} 2\n"
            ),
            "{text}"
        );
        if let Err(errs) = lint(&text) {
            panic!("lint failed: {errs:?}\n{text}");
        }
    }
}
