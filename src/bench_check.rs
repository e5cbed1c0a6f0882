//! Perf-regression gate over committed `BENCH_*.json` baselines.
//!
//! Each bench smoke (`cargo bench ... -- --json`) writes a single-line
//! JSON report whose top-level `"gate"` object names the throughput
//! metrics CI guards — all oriented so that **bigger is better**
//! (speedups, events per second). [`check_pair`] compares a freshly
//! measured report against the committed baseline metric by metric and
//! flags any that fell below `baseline * (1 - max_regress)`.
//!
//! The workspace vendors no JSON crate, so this module carries a small
//! recursive-descent parser ([`parse`]) covering exactly the JSON the
//! benches emit (objects, arrays, strings with plain escapes, f64
//! numbers, booleans, null).

use std::fmt;
use std::path::Path;

/// A parsed JSON value. Object keys keep file order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`, which covers the benches' ranges).
    Num(f64),
    /// A string (escape sequences decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The decoded string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {pos}",
            char::from(ch),
            pos = *pos
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected '{}' at byte {pos}", char::from(*c))),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("unknown escape '\\{}'", char::from(other))),
                }
            }
            Some(_) => {
                // Copy a run of plain bytes (UTF-8 passes through intact).
                let start = *pos;
                while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
            None => return Err("unterminated string".into()),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

/// One gate metric compared across baseline and fresh reports.
#[derive(Debug, Clone, PartialEq)]
pub struct GateComparison {
    /// Metric name inside the `gate` object.
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// Whether the fresh value fell below the tolerance floor.
    pub regressed: bool,
}

impl GateComparison {
    /// `fresh / baseline` — above 1.0 means the fresh run was faster.
    pub fn ratio(&self) -> f64 {
        self.fresh / self.baseline
    }
}

impl fmt::Display for GateComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} baseline {:>12.2}  fresh {:>12.2}  ({:+.1}%){}",
            self.metric,
            self.baseline,
            self.fresh,
            (self.ratio() - 1.0) * 100.0,
            if self.regressed { "  REGRESSED" } else { "" },
        )
    }
}

/// Extracts the `gate` object's numeric metrics from one report.
fn gate_metrics(doc: &Json, label: &str) -> Result<Vec<(String, f64)>, String> {
    let gate = doc
        .get("gate")
        .ok_or_else(|| format!("{label}: no top-level \"gate\" object"))?;
    let Json::Obj(fields) = gate else {
        return Err(format!("{label}: \"gate\" is not an object"));
    };
    let metrics: Vec<(String, f64)> = fields
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
        .collect();
    if metrics.is_empty() {
        return Err(format!("{label}: \"gate\" has no numeric metrics"));
    }
    Ok(metrics)
}

/// Compares every gate metric of `baseline` against `fresh`.
///
/// All gate metrics are bigger-is-better; a metric regresses when
/// `fresh < baseline * (1 - max_regress)`. Metrics present in the
/// baseline but missing from the fresh report are an error (a renamed
/// gate must update its committed baseline in the same change).
pub fn check_pair(
    baseline_text: &str,
    fresh_text: &str,
    max_regress: f64,
) -> Result<Vec<GateComparison>, String> {
    let base = parse(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let fresh = parse(fresh_text).map_err(|e| format!("fresh: {e}"))?;
    let base_gate = gate_metrics(&base, "baseline")?;
    let fresh_gate = gate_metrics(&fresh, "fresh")?;
    base_gate
        .into_iter()
        .map(|(metric, baseline)| {
            let fresh = fresh_gate
                .iter()
                .find(|(k, _)| *k == metric)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("fresh report lacks gate metric \"{metric}\""))?;
            Ok(GateComparison {
                regressed: fresh < baseline * (1.0 - max_regress),
                metric,
                baseline,
                fresh,
            })
        })
        .collect()
}

/// File-level wrapper around [`check_pair`]: reads both reports and tags
/// errors with the offending path.
pub fn check_files(
    baseline: &Path,
    fresh: &Path,
    max_regress: f64,
) -> Result<Vec<GateComparison>, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    check_pair(&read(baseline)?, &read(fresh)?, max_regress)
        .map_err(|e| format!("{} vs {}: {e}", baseline.display(), fresh.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::Str("a\n\"bA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a":[1,2,{"b":null}],"c":{"d":3.5},"e":[]}"#).unwrap();
        assert_eq!(doc.get("c").unwrap().get("d").unwrap().as_f64(), Some(3.5));
        let Json::Arr(a) = doc.get("a").unwrap() else {
            panic!("a is an array");
        };
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&Json::Null));
        assert_eq!(doc.get("e"), Some(&Json::Arr(vec![])));
    }

    #[test]
    fn quoted_control_characters_round_trip() {
        // `wp_obs::quote` is the one string escaper every JSON emitter
        // uses; its short forms (`\n`, `\t`, `\r`) and `\u00XX` forms
        // must all decode back to the original characters.
        let s: String = (0u32..0x20)
            .filter_map(char::from_u32)
            .chain("\"\\/ trace:a b".chars())
            .collect();
        assert_eq!(parse(&wp_obs::quote(&s)).unwrap(), Json::Str(s));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_real_bench_report() {
        let doc = parse(
            r#"{"bench":"mrc_profile","sampled":[{"rate":0.02,"speedup":14.70}],
               "gate":{"sampled_speedup":14.70,"sampled_events_per_sec":26161247}}"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("gate").unwrap().get("sampled_speedup").unwrap(),
            &Json::Num(14.70)
        );
    }

    #[test]
    fn within_tolerance_passes() {
        let base = r#"{"gate":{"speedup":5.0,"events_per_sec":1000}}"#;
        let fresh = r#"{"gate":{"speedup":4.0,"events_per_sec":990}}"#;
        let cmp = check_pair(base, fresh, 0.25).unwrap();
        assert_eq!(cmp.len(), 2);
        assert!(cmp.iter().all(|c| !c.regressed), "{cmp:?}");
    }

    #[test]
    fn regression_beyond_tolerance_flags() {
        let base = r#"{"gate":{"speedup":5.0}}"#;
        let fresh = r#"{"gate":{"speedup":3.4}}"#; // -32%
        let cmp = check_pair(base, fresh, 0.25).unwrap();
        assert!(cmp[0].regressed);
        assert!(cmp[0].ratio() < 0.75);
    }

    #[test]
    fn improvement_never_flags() {
        let base = r#"{"gate":{"speedup":5.0}}"#;
        let fresh = r#"{"gate":{"speedup":50.0}}"#;
        assert!(!check_pair(base, fresh, 0.25).unwrap()[0].regressed);
    }

    #[test]
    fn missing_gate_or_metric_errors() {
        assert!(check_pair(r#"{"bench":"x"}"#, r#"{"gate":{"a":1}}"#, 0.25).is_err());
        let base = r#"{"gate":{"renamed":1.0}}"#;
        let fresh = r#"{"gate":{"old":1.0}}"#;
        let err = check_pair(base, fresh, 0.25).unwrap_err();
        assert!(err.contains("renamed"), "{err}");
    }
}
