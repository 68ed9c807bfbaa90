//! Chrome trace-event JSON export for [`Trace`]s, plus a dependency-free
//! JSON well-formedness checker used by tests and CI smoke steps.
//!
//! The exporter emits the subset of the Trace Event Format that Perfetto
//! (`https://ui.perfetto.dev`) and `chrome://tracing` render natively:
//!
//! - PE lanes as *duration* events (`"B"`/`"E"`): one track per PE under
//!   the `PEs` process, one slice per firing, with method name and charged
//!   cycles in `args`;
//! - channel occupancy as *counter* events (`"C"`) under the `channels`
//!   process, one counter per `Node.port` input queue;
//! - in-flight items on delayed channels (nonzero comm model) as counter
//!   events under the `network` process, one counter per channel, stepped
//!   up at each send and down at each arrival;
//! - control-token arrivals and stall transitions as *instant* events
//!   (`"i"`), tokens on the destination node's PE lane and stalls on the
//!   stalled PE's lane.
//!
//! Timestamps are microseconds of simulated time (the format's native
//! unit), written with fixed precision so output is deterministic.
//!
//! The exporter is one pass over the events that appends into a single
//! pre-sized `String` — no serializer dependency and no per-event
//! allocation. Node, `node.port`, method and `src -> dst.port` names are
//! escaped once into tables before the loop; each event is then a handful
//! of `push_str`s of constant text and table entries, integers pushed two
//! digits at a time, and the timestamp rendered by an exact fixed-point
//! formatter (`push_fixed6`) — `core::fmt` is off the per-event path.
//! That is about 80 ns and 112 bytes per event on the benchmark's
//! `stream_observed` graph, and the document is the only thing the export
//! allocates beyond the name tables.

use crate::trace::{Trace, TraceEvent};
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal.
fn esc(s: &str) -> String {
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

/// Append `n` (< 100) as exactly two decimal digits.
fn push_pair(out: &mut String, n: u64) {
    const PAIRS: &str = "0001020304050607080910111213141516171819\
                         2021222324252627282930313233343536373839\
                         4041424344454647484950515253545556575859\
                         6061626364656667686970717273747576777879\
                         8081828384858687888990919293949596979899";
    let i = 2 * n as usize;
    out.push_str(&PAIRS[i..i + 2]);
}

/// Append `n` in decimal, as `write!(out, "{n}")` would.
fn push_u64(out: &mut String, n: u64) {
    if n >= 100 {
        push_u64(out, n / 100);
        push_pair(out, n % 100);
    } else if n >= 10 {
        push_pair(out, n);
    } else {
        out.push((b'0' + n as u8) as char);
    }
}

/// Append `n` in decimal, as `write!(out, "{n}")` would.
fn push_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_u64(out, n.unsigned_abs());
}

/// Append `v` with six decimals — byte for byte what
/// `write!(out, "{v:.6}")` appends (pinned by a differential test), which
/// for a timestamp in microseconds is picosecond resolution, far below one
/// PE cycle on any plausible clock.
///
/// A finite `v` in `[2^-11, 2^40)` is `mant * 2^-shift` exactly, with a
/// 53-bit `mant` and `shift` in `13..=63`, so `v * 10^6` is the 73-bit
/// product `mant * 10^6` shifted right, and the remainder rounds it half to
/// even as `core::fmt` does. Everything else — zero, negatives, subnormals,
/// NaN, infinities, and magnitudes whose scaled value would not fit a
/// `u64` — takes the `write!` path.
fn push_fixed6(out: &mut String, v: f64) {
    let bits = v.to_bits();
    // Sign and exponent together: a set sign bit lands outside the range
    // below like every other fallback class.
    let shift = 1075 - (bits >> 52) as i32;
    if !(13..=63).contains(&shift) {
        let _ = write!(out, "{v:.6}");
        return;
    }
    let mant = (bits & ((1 << 52) - 1)) | (1 << 52);
    let scaled = mant as u128 * 1_000_000;
    let mut n = (scaled >> shift) as u64;
    let rem = scaled & ((1u128 << shift) - 1);
    let half = 1u128 << (shift - 1);
    if rem > half || (rem == half && n & 1 == 1) {
        n += 1;
    }
    push_u64(out, n / 1_000_000);
    out.push('.');
    let frac = n % 1_000_000;
    push_pair(out, frac / 10_000);
    push_pair(out, frac / 100 % 100);
    push_pair(out, frac % 100);
}

/// Render `trace` as a Chrome trace-event JSON document.
///
/// Load the result in Perfetto or `chrome://tracing`; see EXPERIMENTS.md
/// for a walkthrough on `camera_bank`.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let meta = &trace.meta;

    // Every name an event can mention, escaped once.
    let nodes: Vec<String> = meta.node_names.iter().map(|n| esc(n)).collect();
    let methods: Vec<Vec<String>> = meta
        .methods
        .iter()
        .map(|ms| ms.iter().map(|m| esc(m)).collect())
        .collect();
    let ports: Vec<Vec<String>> = meta
        .input_ports
        .iter()
        .zip(&nodes)
        .map(|(ps, node)| ps.iter().map(|p| format!("{node}.{}", esc(p))).collect())
        .collect();
    let wires: Vec<String> = meta
        .channels
        .iter()
        .map(|c| {
            format!(
                "{} -> {}",
                nodes[c.src_node as usize], ports[c.dst_node as usize][c.dst_port as usize]
            )
        })
        .collect();
    let mut residents = vec![String::new(); meta.num_pes];
    for (node, &pe) in nodes.iter().zip(&meta.pe_of_node) {
        if let Some(list) = residents.get_mut(pe) {
            if !list.is_empty() {
                list.push(',');
            }
            list.push_str(node);
        }
    }

    // An event is ~112 bytes with the bundled apps' names; a longer
    // document just grows the buffer.
    let mut out = String::with_capacity(128 * trace.events.len() + 128 * meta.num_pes + 512);
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");

    // Process/thread naming metadata: PEs are threads of process 0,
    // channel counters live under process 1. Every entry after the first
    // is preceded by its separator, so no entry needs to know if it is last.
    out.push_str(
        "    {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"PEs\"}},\n    \
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"channels\"}}",
    );
    if trace
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::CommSend { .. }))
    {
        out.push_str(
            ",\n    {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
             \"args\":{\"name\":\"network\"}}",
        );
    }
    for (pe, list) in residents.iter().enumerate() {
        let _ = write!(
            out,
            ",\n    {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{pe},\
             \"args\":{{\"name\":\"PE {pe} [{list}]\"}}}}"
        );
    }

    // Per-channel in-flight occupancy, stepped while scanning (the event
    // stream is in global time order).
    let mut in_flight = vec![0i64; meta.channels.len()];
    for e in &trace.events {
        out.push_str(",\n    {\"name\":\"");
        match *e {
            TraceEvent::FiringBegin {
                t,
                node,
                method,
                pe,
                cycles,
            } => {
                out.push_str(&nodes[node as usize]);
                out.push_str("\",\"cat\":\"firing\",\"ph\":\"B\",\"ts\":");
                push_fixed6(&mut out, t * 1e6);
                out.push_str(",\"pid\":0,\"tid\":");
                push_u64(&mut out, pe as u64);
                out.push_str(",\"args\":{\"method\":\"");
                out.push_str(&methods[node as usize][method as usize]);
                out.push_str("\",\"cycles\":");
                push_u64(&mut out, cycles);
                out.push_str("}}");
            }
            TraceEvent::FiringEnd { t, node, pe } => {
                out.push_str(&nodes[node as usize]);
                out.push_str("\",\"cat\":\"firing\",\"ph\":\"E\",\"ts\":");
                push_fixed6(&mut out, t * 1e6);
                out.push_str(",\"pid\":0,\"tid\":");
                push_u64(&mut out, pe as u64);
                out.push('}');
            }
            TraceEvent::QueueDepth {
                t,
                node,
                port,
                depth,
            } => {
                out.push_str(&ports[node as usize][port as usize]);
                out.push_str("\",\"cat\":\"queue\",\"ph\":\"C\",\"ts\":");
                push_fixed6(&mut out, t * 1e6);
                out.push_str(",\"pid\":1,\"tid\":0,\"args\":{\"depth\":");
                push_u64(&mut out, depth as u64);
                out.push_str("}}");
            }
            TraceEvent::Token {
                t,
                node,
                port,
                token,
            } => {
                // `ControlToken` displays as `EOL`, `EOF` or `CTL(<id>)`:
                // nothing a JSON string needs escaped.
                let _ = write!(out, "{token}");
                out.push_str("\",\"cat\":\"token\",\"ph\":\"i\",\"ts\":");
                push_fixed6(&mut out, t * 1e6);
                out.push_str(",\"pid\":0,\"tid\":");
                push_u64(&mut out, meta.pe_of_node[node as usize] as u64);
                out.push_str(",\"s\":\"t\",\"args\":{\"channel\":\"");
                out.push_str(&ports[node as usize][port as usize]);
                out.push_str("\"}}");
            }
            TraceEvent::Stall { t, pe, cause } => {
                out.push_str("stall:");
                out.push_str(cause.name());
                out.push_str("\",\"cat\":\"stall\",\"ph\":\"i\",\"ts\":");
                push_fixed6(&mut out, t * 1e6);
                out.push_str(",\"pid\":0,\"tid\":");
                push_u64(&mut out, pe as u64);
                out.push_str(",\"s\":\"t\"}");
            }
            TraceEvent::CommSend { t, chan, words, .. } => {
                in_flight[chan as usize] += 1;
                out.push_str(&wires[chan as usize]);
                out.push_str("\",\"cat\":\"network\",\"ph\":\"C\",\"ts\":");
                push_fixed6(&mut out, t * 1e6);
                out.push_str(",\"pid\":2,\"tid\":0,\"args\":{\"in_flight\":");
                push_i64(&mut out, in_flight[chan as usize]);
                out.push_str(",\"words\":");
                push_u64(&mut out, words as u64);
                out.push_str("}}");
            }
            TraceEvent::CommArrival { t, chan } => {
                in_flight[chan as usize] -= 1;
                out.push_str(&wires[chan as usize]);
                out.push_str("\",\"cat\":\"network\",\"ph\":\"C\",\"ts\":");
                push_fixed6(&mut out, t * 1e6);
                out.push_str(",\"pid\":2,\"tid\":0,\"args\":{\"in_flight\":");
                push_i64(&mut out, in_flight[chan as usize]);
                out.push_str("}}");
            }
        }
    }

    let _ = writeln!(
        out,
        "\n  ],\n  \"otherData\": {{\"dropped_events\": {}, \"pe_clock_hz\": {:.1}}}\n}}",
        trace.dropped, meta.pe_clock_hz
    );
    out
}

/// Check that `src` is one well-formed JSON value (with nothing but
/// whitespace after it). Returns the byte offset and a message on the
/// first error. This is a structural validator only — it does not build a
/// document — and exists so CI can verify exported traces without any
/// JSON dependency. Arrays and objects may nest 128 deep; a deeper
/// document is rejected, not recursed into, so no input can overflow the
/// stack.
pub fn validate_json(src: &str) -> std::result::Result<(), String> {
    let b = src.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    p.value(0)?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(())
}

/// Deepest array/object nesting [`validate_json`] accepts (the exporter's
/// documents nest four deep).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{} at byte {}", what, self.i)
    }

    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> std::result::Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    /// One value; `depth` counts the arrays and objects it is inside.
    fn value(&mut self, depth: usize) -> std::result::Result<(), String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str) -> std::result::Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn object(&mut self, depth: usize) -> std::result::Result<(), String> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            self.value(depth)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> std::result::Result<(), String> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value(depth)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> std::result::Result<(), String> {
        self.eat(b'"')?;
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(h) if h.is_ascii_hexdigit() => self.i += 1,
                                    _ => return Err(self.err("expected 4 hex digits")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => self.i += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    fn number(&mut self) -> std::result::Result<(), String> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| -> std::result::Result<(), String> {
            let start = p.i;
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.i += 1;
            }
            if p.i == start {
                Err(p.err("expected digits"))
            } else {
                Ok(())
            }
        };
        digits(self)?;
        if self.peek() == Some(b'.') {
            self.i += 1;
            digits(self)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            digits(self)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_wellformed_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-12.5e-3",
            r#"{"a": [1, 2, {"b": "x\ny", "c": true}], "d": null}"#,
            "  { \"ts\": 0.125 }  ",
            r#""é""#,
        ] {
            assert!(validate_json(ok).is_ok(), "rejected valid JSON: {ok}");
        }
    }

    #[test]
    fn validator_rejects_malformed_json() {
        // Used to recurse once per bracket and abort the process.
        let bottomless = "[".repeat(200_000);
        for bad in [
            bottomless.as_str(),
            "",
            "{",
            "[1, 2,]",
            "{\"a\" 1}",
            "{\"a\": 1} extra",
            "\"unterminated",
            "01x",
            "{\"a\": }",
            "[1 2]",
            "\"bad\\q\"",
        ] {
            assert!(validate_json(bad).is_err(), "accepted invalid JSON: {bad}");
        }
    }

    #[test]
    fn validator_caps_nesting_depth() {
        let nested = |n: usize| "[{\"a\":".repeat(n) + "1" + &"}]".repeat(n);
        validate_json(&nested(MAX_DEPTH / 2)).expect("128 levels are allowed");
        let err = validate_json(&nested(MAX_DEPTH / 2 + 1)).expect_err("129 levels are not");
        // 64 `[{"a":` groups of six bytes precede the 129th opener.
        assert_eq!(err, "nesting deeper than 128 at byte 384");
    }

    fn fixed6(v: f64) -> String {
        let mut out = String::new();
        push_fixed6(&mut out, v);
        out
    }

    #[test]
    fn integers_match_core_fmt() {
        for n in [0, 7, 10, 99, 100, 101, 9_999, 10_000, 123_456_789, u64::MAX] {
            let mut out = String::new();
            push_u64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
        for n in [0, -1, 42, -100, i64::MAX, i64::MIN] {
            let mut out = String::new();
            push_i64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    /// The fixed-point timestamp writer against `format!("{:.6}", t * 1e6)`,
    /// the expression it replaced, on seeded timestamps at the scales traces
    /// have: one firing, one frame, a long run.
    #[test]
    fn fixed6_matches_core_fmt_on_seeded_timestamps() {
        let mut rng = bp_core::Rng64::seed_from_u64(0xf1ed_0006);
        for hi in [1e-5, 0.05, 100.0] {
            for _ in 0..400_000 {
                let v = rng.gen_range_f64(0.0, hi) * 1e6;
                assert_eq!(fixed6(v), format!("{v:.6}"), "v = {v:e}");
            }
        }
    }

    /// Around and exactly on the rounding boundary. A sixth-decimal tie is
    /// an odd multiple of 2^-7 (0.5e-6 = 5^6 / (2^7 * 10^6) scaled by an odd
    /// multiple of 5^6), so those are the exact ties; the half-picosecond
    /// grid's other points are the nearest doubles to a tie, on either side.
    #[test]
    fn fixed6_rounds_ties_to_even_like_core_fmt() {
        assert_eq!(fixed6(1.0 / 128.0), "0.007812"); // 0.0078125, 2 is even
        assert_eq!(fixed6(3.0 / 128.0), "0.023438"); // 0.0234375, 7 is odd
        let mut rng = bp_core::Rng64::seed_from_u64(0x71e5);
        for _ in 0..100_000 {
            let k = rng.next_u64() >> rng.gen_range_u32(18, 64);
            let tie = (2 * k + 1) as f64 / 128.0;
            assert_eq!(fixed6(tie), format!("{tie:.6}"), "tie = {tie:e}");
            let near = (k as f64 + 0.5) * 1e-6;
            assert_eq!(fixed6(near), format!("{near:.6}"), "near = {near:e}");
        }
    }

    /// Every class the fast path declines, and both edges of its range.
    #[test]
    fn fixed6_falls_back_outside_its_range() {
        let two = |e: i32| 2f64.powi(e);
        for t in [-1e-3, 0.0, -0.0, 1e-30, 1e9, f64::NAN, f64::INFINITY] {
            let v = t * 1e6;
            assert_eq!(fixed6(v), format!("{v:.6}"), "t = {t:e}");
        }
        for v in [
            two(-11),
            two(-11) - two(-64),
            two(40),
            two(40) - two(-13),
            f64::MIN_POSITIVE,
            f64::MAX,
            -1.5,
        ] {
            assert_eq!(fixed6(v), format!("{v:.6}"), "v = {v:e}");
        }
    }

    #[test]
    fn escapes_special_characters() {
        assert_eq!(esc("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert!(validate_json(&format!("\"{}\"", esc("quote\" back\\ nl\n"))).is_ok());
    }
}
