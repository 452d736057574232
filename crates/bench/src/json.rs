//! Minimal JSON support for machine-readable benchmark artifacts.
//!
//! The throughput experiments emit `BENCH_*.json` files that CI validates
//! and the repo tracks over time (the perf trajectory). The container
//! builds offline, so instead of `serde_json` this module implements the
//! small JSON subset those artifacts need: a value tree ([`Json`]), a
//! pretty writer that refuses non-finite numbers, a strict
//! recursive-descent parser, and the schema gate CI runs
//! ([`validate_bench_doc`]: one table of schemas keyed by each document's
//! `experiment` tag, walked by one validator).

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (the writer asserts finiteness).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number value; panics on NaN/infinite input (JSON cannot carry
    /// them, and a benchmark emitting one is a bug worth failing loudly).
    pub fn num(v: f64) -> Json {
        assert!(v.is_finite(), "JSON numbers must be finite, got {v}");
        Json::Num(v)
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse a JSON document (strict: one value, nothing trailing).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    fn write_indented(&self, out: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        const INDENT: &str = "  ";
        match self {
            Json::Null => write!(out, "null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::Num(v) => {
                assert!(v.is_finite(), "JSON numbers must be finite, got {v}");
                if *v == v.trunc() && v.abs() < 1e15 {
                    write!(out, "{}", *v as i64)
                } else {
                    write!(out, "{v}")
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    return write!(out, "[]");
                }
                writeln!(out, "[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(out, "{}", INDENT.repeat(depth + 1))?;
                    item.write_indented(out, depth + 1)?;
                    writeln!(out, "{}", if i + 1 < items.len() { "," } else { "" })?;
                }
                write!(out, "{}]", INDENT.repeat(depth))
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    return write!(out, "{{}}");
                }
                writeln!(out, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    write!(out, "{}", INDENT.repeat(depth + 1))?;
                    write_escaped(out, k)?;
                    write!(out, ": ")?;
                    v.write_indented(out, depth + 1)?;
                    writeln!(out, "{}", if i + 1 < pairs.len() { "," } else { "" })?;
                }
                write!(out, "{}}}", INDENT.repeat(depth))
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_indented(out, 0)
    }
}

fn write_escaped(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(out, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(out, "\\\"")?,
            '\\' => write!(out, "\\\\")?,
            '\n' => write!(out, "\\n")?,
            '\r' => write!(out, "\\r")?,
            '\t' => write!(out, "\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    write!(out, "\"")
}

/// A malformed JSON document, with the byte offset of the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            out,
            "invalid JSON at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let v: f64 = text
            .parse()
            .map_err(|_| self.err(format!("bad number '{text}'")))?;
        if !v.is_finite() {
            return Err(self.err(format!("non-finite number '{text}'")));
        }
        Ok(Json::Num(v))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 character verbatim.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The BENCH schema gates: an experiment is a row of `SCHEMAS`, and one
// walker checks them all, so field rules and error wording cannot drift.
// ---------------------------------------------------------------------------

/// What a required field must hold.
#[derive(Clone, Copy)]
enum Rule {
    Bool,
    Str,
    /// A string from a fixed vocabulary.
    OneOf(&'static [&'static str]),
    /// A finite number > 0.
    Pos,
    /// A finite number ≥ 0 (a count).
    Count,
    /// A finite number in (0, 1).
    Eps,
    /// A recorded gate, with the experiment's floor baked in (`≥ floor`,
    /// and why): an artifact cannot lower its own bar.
    Floor(f64, &'static str),
    /// A recorded gate that must strictly exceed a bound (and why).
    Above(f64, &'static str),
}

type Fields = &'static [(&'static str, Rule)];

/// `(value, gate, when)`: `doc[value] ≥ doc[gate]`, re-enforced on the
/// recorded numbers so a committed artifact that regressed fails CI
/// without re-running the bench.
type Gate = (&'static str, &'static str, When);

#[derive(Clone, Copy, PartialEq)]
enum When {
    /// A machine-speed gate: smoke artifacts are shape-checked only.
    FullRuns,
    /// A structural gate (byte ratios, one protocol over two socket
    /// families): binds on smoke artifacts too.
    Always,
}

/// One experiment's schema: required scalars, recorded gates, and its
/// result table — a non-empty array of entries, each optionally carrying
/// a non-empty `rows` array.
#[derive(Clone, Copy)]
struct Schema {
    tag: &'static str,
    /// Required top-level scalars, beyond [`COMMON`].
    scalars: Fields,
    gates: &'static [Gate],
    table: &'static str,
    /// The string fields naming a table entry (joined with '/').
    key: &'static [&'static str],
    fields: Fields,
    /// Fields of each nested row (empty: the table is flat).
    rows: Fields,
    /// Entry names that must be present.
    must_include: &'static [&'static str],
    /// A top-level string field naming one more required entry.
    include_from: Option<&'static str>,
    /// `(entry, field, gate)`: that entry's `field` must meet `doc[gate]`.
    entry_gate: Option<(&'static str, &'static str, &'static str)>,
}

/// A flat table with no gates: the base every row of [`SCHEMAS`] updates.
const BASE: Schema = Schema {
    tag: "",
    scalars: &[],
    gates: &[],
    table: "",
    key: &[],
    fields: &[],
    rows: &[],
    must_include: &[],
    include_from: None,
    entry_gate: None,
};

/// Scalars every artifact carries.
const COMMON: Fields = &[
    ("smoke", Rule::Bool),
    ("n", Rule::Pos),
    ("kind", Rule::Str),
    ("k", Rule::Pos),
];

use Rule::{Above, Bool, Count, Eps, Floor, OneOf, Pos, Str};

static SCHEMAS: [Schema; 5] = [
    // Sharded throughput. The parted speedup over the sequential Driver is
    // machine-speed, so only full runs are held to it.
    Schema {
        tag: "e16_throughput",
        scalars: &[
            ("eps", Eps),
            ("parted_gate", Floor(5.0, "the S = 8 parted floor")),
            ("parted_speedup", Pos),
        ],
        gates: &[("parted_speedup", "parted_gate", When::FullRuns)],
        table: "streams",
        key: &["stream"],
        fields: &[("stream", Str), ("baseline_updates_per_sec", Pos)],
        rows: &[
            ("mode", OneOf(&["routed", "parted"])),
            ("shards", Pos),
            ("batch", Pos),
            ("updates_per_sec", Pos),
            ("speedup", Pos),
            ("boundary_violations", Count),
            ("messages", Count),
        ],
        ..BASE
    },
    // Pipelined-ingestion overlap: the slow-feed scenario carries the gate,
    // the median of `timings` alternating runs of each mode.
    Schema {
        tag: "e17_pipeline",
        scalars: &[
            ("shards", Pos),
            ("batch", Pos),
            ("overlap_gate", Above(1.0, "else a no-op passes")),
            (
                "timings",
                Floor(5.0, "timed runs of each mode per scenario"),
            ),
        ],
        table: "scenarios",
        key: &["scenario"],
        fields: &[
            ("scenario", Str),
            ("overlap_speedup", Pos),
            ("overlap_speedup_min", Pos),
            ("overlap_speedup_max", Pos),
            ("resolved", Bool),
        ],
        rows: &[
            ("mode", OneOf(&["sync", "pipelined"])),
            ("wall_ms", Pos),
            ("updates_per_sec", Pos),
            ("messages", Count),
            ("boundary_violations", Count),
            ("push_stalls", Count),
            ("pop_waits", Count),
            ("mean_occupancy", Count),
        ],
        must_include: &["slow-feed"],
        entry_gate: Some(("slow-feed", "overlap_speedup", "overlap_gate")),
        ..BASE
    },
    // Keyed-fleet scale: keys × throughput, machine-speed, full runs only.
    Schema {
        tag: "e18_fleet",
        scalars: &[
            ("eps", Eps),
            ("shards", Pos),
            ("batch", Pos),
            ("fleet_cache", Pos),
            ("keys_gate", Floor(1.0e6, "the fleet-scale floor")),
            ("rate_gate", Floor(1.0e7, "updates/sec")),
            ("live_keys", Pos),
            ("steady_updates_per_sec", Pos),
            ("total_bytes", Pos),
            ("key_violations", Count),
        ],
        gates: &[
            ("live_keys", "keys_gate", When::FullRuns),
            ("steady_updates_per_sec", "rate_gate", When::FullRuns),
        ],
        table: "phases",
        key: &["phase"],
        fields: &[
            ("phase", Str),
            ("updates", Pos),
            ("wall_s", Pos),
            ("updates_per_sec", Pos),
            ("boundaries", Count),
            ("key_violations", Count),
        ],
        must_include: &["steady"],
        ..BASE
    },
    // Incremental-checkpoint bytes. The shrink ratio is a property of the
    // delta encoding, not of machine speed: binds on smoke artifacts too.
    Schema {
        tag: "e19_checkpoint",
        scalars: &[
            ("eps", Eps),
            ("shards", Pos),
            ("batch", Pos),
            ("rebase", Count),
            ("shrink_gate", Floor(10.0, "the quiet-stream floor")),
            ("quiet_shrink", Pos),
            ("loud_shrink", Pos),
        ],
        gates: &[("quiet_shrink", "shrink_gate", When::Always)],
        table: "scenarios",
        key: &["scenario"],
        fields: &[
            ("scenario", Str),
            ("updates", Pos),
            ("boundaries", Pos),
            ("bases", Pos),
            ("identity_links", Count),
            ("full_bytes", Pos),
            ("delta_bytes", Pos),
            ("full_bytes_per_boundary", Pos),
            ("delta_bytes_per_boundary", Pos),
            ("shrink", Pos),
        ],
        must_include: &["quiet", "loud"],
        entry_gate: Some(("quiet", "shrink", "shrink_gate")),
        ..BASE
    },
    // Remote socket tax. TCP over UDS is a ratio of two runs of one
    // protocol on one host, not cycles saved, so it binds on smoke
    // artifacts too.
    Schema {
        tag: "e20_remote",
        scalars: &[
            ("eps", Eps),
            ("shards", Pos),
            ("workers", Pos),
            ("batch", Pos),
            ("parity_gate", Floor(0.25, "the TCP/UDS parity floor")),
            ("gate_combo", Str),
            ("tcp_uds_parity", Pos),
            ("local_updates_per_sec", Pos),
        ],
        gates: &[("tcp_uds_parity", "parity_gate", When::Always)],
        table: "combos",
        key: &["transport", "spawn"],
        fields: &[
            ("transport", OneOf(&["uds", "tcp"])),
            ("spawn", OneOf(&["threads", "processes"])),
            ("wall_s", Pos),
            ("updates_per_sec", Pos),
            ("vs_local", Pos),
            ("frames_sent", Pos),
            ("frames_received", Pos),
            ("bytes_sent", Pos),
            ("bytes_received", Pos),
        ],
        include_from: Some("gate_combo"),
        ..BASE
    },
];

/// Check one required field of `j` against its rule.
fn check(j: &Json, (key, rule): (&str, Rule)) -> Result<(), String> {
    let v = j.get(key).ok_or(format!("missing field '{key}'"))?;
    let must = |what: String| Err(format!("field '{key}' must be {what}"));
    match rule {
        Rule::Bool if v.as_bool().is_some() => return Ok(()),
        Rule::Bool => return must("a bool".into()),
        Rule::Str | Rule::OneOf(_) => {
            let Some(s) = v.as_str() else {
                return must("a string".into());
            };
            return match rule {
                Rule::OneOf(words) if !words.contains(&s) => {
                    must(format!("one of {words:?}, got \"{s}\""))
                }
                _ => Ok(()),
            };
        }
        _ => {}
    }
    let Some(x) = v.as_f64() else {
        return must("a number".into());
    };
    match rule {
        Rule::Count if x.is_finite() && x >= 0.0 => Ok(()),
        Rule::Count => must(format!("finite and >= 0, got {x}")),
        _ if !(x.is_finite() && x > 0.0) => must(format!("finite and > 0, got {x}")),
        Rule::Eps if x >= 1.0 => must(format!("< 1, got {x}")),
        Rule::Floor(floor, why) if x < floor => must(format!("at least {floor} ({why}), got {x}")),
        Rule::Above(bound, why) if x <= bound => must(format!("above {bound} ({why}), got {x}")),
        _ => Ok(()),
    }
}

/// A numeric field that [`check`] has already accepted.
fn num(j: &Json, key: &str) -> f64 {
    j.get(key)
        .and_then(Json::as_f64)
        .expect("the schema checks a field before gating on it")
}

/// A required non-empty array field.
fn non_empty<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    let items = j
        .get(key)
        .ok_or(format!("missing field '{key}'"))?
        .as_array()
        .ok_or(format!("field '{key}' must be an array"))?;
    if items.is_empty() {
        return Err(format!("'{key}' must be non-empty"));
    }
    Ok(items)
}

fn walk_table(doc: &Json, t: &Schema) -> Result<(), String> {
    let mut names = Vec::new();
    for (i, entry) in non_empty(doc, t.table)?.iter().enumerate() {
        let at = |e: String| format!("{}[{i}]: {e}", t.table);
        for &f in t.fields {
            check(entry, f).map_err(at)?;
        }
        let parts: Vec<&str> = t
            .key
            .iter()
            .filter_map(|k| entry.get(k)?.as_str())
            .collect();
        let name = parts.join("/");
        if let Some((_, field, gate)) = t.entry_gate.filter(|(gated, ..)| *gated == name) {
            let (x, g) = (num(entry, field), num(doc, gate));
            if x < g {
                let what = t.key[0];
                return Err(at(format!(
                    "{name} {what} {field} {x:.2} is below the gate {g:.2}"
                )));
            }
        }
        names.push(name);
        if t.rows.is_empty() {
            continue;
        }
        for (j, row) in non_empty(entry, "rows").map_err(at)?.iter().enumerate() {
            let at = |e: String| format!("{}[{i}].rows[{j}]: {e}", t.table);
            for &f in t.rows {
                check(row, f).map_err(at)?;
            }
        }
    }
    let named = t.include_from.and_then(|key| doc.get(key)?.as_str());
    for want in t.must_include.iter().copied().chain(named) {
        if !names.iter().any(|name| name == want) {
            return Err(format!("'{}' must include \"{want}\"", t.table));
        }
    }
    Ok(())
}

/// Validate any known `BENCH_*.json` document against the schema its
/// `experiment` tag names (what the `bench_schema` bin runs): shape and
/// finiteness, then the recorded acceptance gates on the recorded
/// numbers. Returns the tag.
pub fn validate_bench_doc(doc: &Json) -> Result<&'static str, String> {
    let tag = doc
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("missing string field 'experiment'")?;
    let schema = SCHEMAS
        .iter()
        .find(|s| s.tag == tag)
        .ok_or(format!("unknown experiment tag \"{tag}\""))?;
    for &f in COMMON.iter().chain(schema.scalars) {
        check(doc, f)?;
    }
    let full_run = doc.get("smoke").and_then(Json::as_bool) == Some(false);
    for &(value, gate, when) in schema.gates {
        let (x, g) = (num(doc, value), num(doc, gate));
        if x < g && (full_run || when == When::Always) {
            return Err(format!("{value} {x} is below the gate {g}"));
        }
    }
    walk_table(doc, schema)?;
    Ok(schema.tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_writer_and_parser() {
        let doc = Json::obj(vec![
            ("name", Json::str("e16 \"quoted\"\nline")),
            ("count", Json::num(42.0)),
            ("rate", Json::num(1.5e6)),
            ("neg", Json::num(-0.25)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "rows",
                Json::Arr(vec![Json::num(1.0), Json::str("x"), Json::Arr(vec![])]),
            ),
            ("empty", Json::obj(vec![])),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("count").unwrap().as_f64(), Some(42.0));
        assert_eq!(
            back.get("name").unwrap().as_str().unwrap(),
            "e16 \"quoted\"\nline"
        );
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::num(42.0).to_string(), "42");
        assert_eq!(Json::num(-7.0).to_string(), "-7");
        assert_eq!(Json::num(0.5).to_string(), "0.5");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_numbers_are_rejected_at_construction() {
        let _ = Json::num(f64::NAN);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\": NaN}",
            "[01x]",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = Json::parse(r#"{"a": [1, -2.5e3, "xA\n"], "b": {"c": null}}"#).unwrap();
        let arr = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("xA\n"));
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Null));
    }

    // The fixtures are the committed artifacts themselves (full runs,
    // printed one `"key": value` pair per line), doctored per case.
    const E16: &str = include_str!("../../../BENCH_e16.json");
    const E17: &str = include_str!("../../../BENCH_e17.json");
    const E18: &str = include_str!("../../../BENCH_e18.json");
    const E19: &str = include_str!("../../../BENCH_e19.json");
    const E20: &str = include_str!("../../../BENCH_e20.json");

    /// `text` with the value of every `"key": …` pair replaced.
    fn set(text: &str, key: &str, value: &str) -> String {
        let key = format!("\"{key}\": ");
        assert!(text.contains(&key), "fixture lacks {key}");
        let lines = text.lines().map(|line| match line.find(&key) {
            Some(at) => {
                let comma = if line.ends_with(',') { "," } else { "" };
                format!("{}{value}{comma}", &line[..at + key.len()])
            }
            None => line.to_string(),
        });
        lines.collect::<Vec<_>>().join("\n")
    }

    /// `text` with the entry named `name` renamed to `to`.
    fn rename(text: &str, name: &str, to: &str) -> String {
        assert!(
            text.contains(&format!("\"{name}\"")),
            "fixture lacks {name}"
        );
        text.replace(&format!("\"{name}\""), &format!("\"{to}\""))
    }

    fn verdict(text: &str) -> Result<&'static str, String> {
        validate_bench_doc(&Json::parse(text).unwrap())
    }

    /// The doctored fixture must be refused, naming `needle`.
    fn refused(text: &str, needle: &str) {
        let err = verdict(text).unwrap_err();
        assert!(err.contains(needle), "wanted {needle:?}, got: {err}");
    }

    #[test]
    fn e16_schema_accepts_the_emitted_shape() {
        assert_eq!(verdict(E16), Ok("e16_throughput"));
        assert_eq!(verdict(&set(E16, "smoke", "true")), Ok("e16_throughput"));
    }

    #[test]
    fn e16_schema_enforces_the_parted_gate_on_full_runs() {
        // A smoke artifact may sit below the gate; a full run may not.
        let below = set(E16, "parted_speedup", "4.2");
        refused(&below, "below the gate");
        assert_eq!(verdict(&set(&below, "smoke", "true")), Ok("e16_throughput"));
        // The artifact cannot weaken its own floor either.
        refused(&set(&below, "parted_gate", "4"), "at least 5");
        // And unknown modes stay rejected.
        refused(&rename(E16, "parted", "turbo"), "turbo");
    }

    #[test]
    fn e16_schema_rejects_missing_and_degenerate_fields() {
        refused(
            &rename(E16, "streams", "streamz"),
            "missing field 'streams'",
        );
        let mut doc = Json::parse(E16).unwrap();
        if let Json::Obj(pairs) = &mut doc {
            pairs.last_mut().unwrap().1 = Json::Arr(vec![]);
        }
        assert!(validate_bench_doc(&doc).unwrap_err().contains("non-empty"));
        // A zero throughput (the "bench crashed instantly" signature).
        refused(&set(E16, "updates_per_sec", "0"), "updates_per_sec");
        // Ill-typed and out-of-domain scalars.
        refused(&set(E16, "smoke", "1"), "a bool");
        refused(&set(E16, "kind", "7"), "a string");
        refused(&set(E16, "n", "\"many\""), "a number");
        refused(&set(E16, "eps", "1"), "< 1");
        refused(&set(E16, "messages", "-1"), ">= 0");
    }

    #[test]
    fn e17_schema_accepts_the_emitted_shape_and_dispatches() {
        assert_eq!(verdict(E17), Ok("e17_pipeline"));
        refused(&rename(E17, "e17_pipeline", "e99_mystery"), "e99_mystery");
        assert!(validate_bench_doc(&Json::obj(vec![])).is_err());
    }

    #[test]
    fn e17_schema_enforces_the_overlap_gate_on_recorded_numbers() {
        // A slow-feed speedup below the document's own gate is a schema
        // failure: the committed artifact cannot regress silently.
        refused(&set(E17, "overlap_speedup", "1.1"), "below the gate");
        // Dropping the gated scenario entirely is also a failure.
        refused(&rename(E17, "slow-feed", "slow-ish"), "slow-feed");
        // Degenerate gate values are rejected.
        refused(&set(E17, "overlap_gate", "1"), "overlap_gate");
        refused(&rename(E17, "pipelined", "overlapped"), "mode");
        // The gated speedup is a median of at least five timings, and
        // its spread is on the record.
        refused(&set(E17, "timings", "1"), "at least 5");
        refused(
            &rename(E17, "overlap_speedup_min", "overlap_floor"),
            "overlap_speedup_min",
        );
        refused(&set(E17, "overlap_speedup_max", "0"), "overlap_speedup_max");
        // Whether the timings agree on a side of 1.0x is on the record.
        refused(&set(E17, "resolved", "1"), "a bool");
    }

    #[test]
    fn e18_schema_accepts_the_emitted_shape_and_dispatches() {
        assert_eq!(verdict(E18), Ok("e18_fleet"));
        assert_eq!(verdict(&set(E18, "smoke", "true")), Ok("e18_fleet"));
    }

    #[test]
    fn e18_schema_enforces_the_keys_and_rate_gates_on_full_runs() {
        // A full run below either gate is a schema failure; the same
        // numbers pass as a smoke run (smoke is shape-checked only).
        refused(&set(E18, "live_keys", "900000"), "live_keys");
        let slow = set(E18, "steady_updates_per_sec", "6000000");
        refused(&slow, "below the gate");
        assert_eq!(verdict(&set(&slow, "smoke", "true")), Ok("e18_fleet"));
        // The recorded gates cannot be weakened below the floors.
        refused(&set(&slow, "rate_gate", "5000000"), "rate_gate");
        refused(&set(E18, "keys_gate", "1000"), "keys_gate");
        // Dropping the gated phase is also a failure.
        refused(&rename(E18, "steady", "steadyish"), "\"steady\"");
    }

    #[test]
    fn e19_schema_accepts_the_emitted_shape_and_dispatches() {
        assert_eq!(verdict(E19), Ok("e19_checkpoint"));
        assert_eq!(verdict(&set(E19, "smoke", "true")), Ok("e19_checkpoint"));
    }

    #[test]
    fn e19_schema_enforces_the_shrink_gate_even_on_smoke_runs() {
        // The shrink gate is structural, so it binds regardless of the
        // smoke flag — unlike the e16/e18 machine-speed gates.
        let starved = set(E19, "quiet_shrink", "3");
        refused(&starved, "below the gate");
        refused(&set(&starved, "smoke", "true"), "below the gate");
        // The recorded gate cannot be weakened below the 10x floor.
        refused(&set(&starved, "shrink_gate", "2"), "shrink_gate");
        // The per-scenario shrink is cross-checked against the gate too,
        // and both named scenarios must be present.
        refused(&set(E19, "shrink", "4"), "quiet scenario");
        refused(&rename(E19, "quiet", "quietish"), "\"quiet\"");
        refused(&rename(E19, "loud", "loudish"), "\"loud\"");
    }

    #[test]
    fn e20_schema_accepts_the_emitted_shape_and_dispatches() {
        assert_eq!(verdict(E20), Ok("e20_remote"));
        assert_eq!(verdict(&set(E20, "smoke", "true")), Ok("e20_remote"));
    }

    #[test]
    fn e20_schema_enforces_the_parity_gate_even_on_smoke_runs() {
        // TCP against UDS on one host is not a machine-speed number, so
        // the gate binds regardless of the smoke flag. 0.001 is what the
        // prefix-then-payload write on a Nagle socket recorded.
        let stalled = set(E20, "tcp_uds_parity", "0.001");
        refused(&stalled, "below the gate");
        refused(&set(&stalled, "smoke", "true"), "below the gate");
        // The recorded gate cannot be weakened below the 0.25 floor.
        refused(&set(&stalled, "parity_gate", "0.0005"), "parity_gate");
        // The gated combo must actually be among the recorded combos.
        refused(&set(E20, "gate_combo", "\"tcp/fibers\""), "tcp/fibers");
        refused(&rename(E20, "threads", "fibers"), "fibers");
    }
}
