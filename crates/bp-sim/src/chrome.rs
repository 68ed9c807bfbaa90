//! Chrome trace-event JSON export for [`Trace`]s, plus a dependency-free
//! JSON well-formedness checker ([`validate_json`]) used by `bpc --trace`,
//! tests and CI smoke steps: RFC 8259's grammar, leading zeros refused,
//! checked by one flat loop with a 128-bit stack of open containers and
//! strings scanned eight bytes per `u64` word.
//!
//! The exporter emits the subset of the Trace Event Format that Perfetto
//! (`https://ui.perfetto.dev`) and `chrome://tracing` render natively:
//!
//! - PE lanes as *complete* events (`"X"`: the begin's stamp as `ts` and
//!   the firing's length as `dur`): one track per PE under the `PEs`
//!   process, one slice per firing, with method name and charged cycles
//!   in `args`;
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
//! A firing is written where its end is in the log, as one entry where a
//! `"B"`/`"E"` pair repeated name, category, pid and tid; its `dur` is the
//! difference of the two stamps in integer picoseconds, so `ts + dur` is
//! the end's stamp digit for digit. The document is therefore not sorted
//! by `ts`, which the format does not ask for: Perfetto and
//! `chrome://tracing` sort on load. A firing the log cannot close stays a
//! duration event — an end whose begin a full ring dropped is an `"E"`, a
//! begin still open when the log ends is a `"B"` after the last entry —
//! and so does a pair with a stamp outside `millionths`' range.
//!
//! The exporter is one pass over the events that appends into a single
//! pre-sized `String` — no serializer dependency and no per-event
//! allocation. Node, `node.port`, method and `src -> dst.port` names are
//! escaped once into tables before the loop; each event is then a handful
//! of `push_str`s of constant text and table entries, integers pushed two
//! digits at a time, and the timestamp rendered by an exact fixed-point
//! formatter (`push_fixed6`) — `core::fmt` is off the per-event path.
//! That is about 88 ns and 92 bytes per event on the benchmark's
//! `stream_observed` graph (24–26 ms for its 283 235 events on a 2.1 GHz
//! Xeon, the 6 345 page faults of filling the fresh 26.0 MB buffer
//! included), and the document is the only thing the export allocates
//! beyond the name tables and the open firings. The events come decoded
//! from the trace log, about 6 ns each of that.
//!
//! [`validate_json`] then checks that document in about 24 ms, under 1 ns
//! per byte, where the recursive descent it replaced — which stays in
//! this module's tests as its differential oracle — took about 1.7 ns.

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

/// `v * 10^6` rounded to an integer exactly as `write!(out, "{v:.6}")`
/// rounds its sixth decimal — for a timestamp in microseconds, integer
/// picoseconds — or `None` outside the range computed here.
///
/// A finite `v` in `[2^-11, 2^40)` is `mant * 2^-shift` exactly, with a
/// 53-bit `mant` and `shift` in `13..=63`, so `v * 10^6` is the 73-bit
/// product `mant * 10^6` shifted right, and the remainder rounds it half to
/// even as `core::fmt` does; `+0.0` is zero. Everything else — negatives,
/// `-0.0`, subnormals, NaN, infinities, and magnitudes whose scaled value
/// would not fit a `u64` — is `None`.
fn millionths(v: f64) -> Option<u64> {
    let bits = v.to_bits();
    if bits == 0 {
        return Some(0);
    }
    // Sign and exponent together: a set sign bit lands outside the range
    // below like every other declined class.
    let shift = 1075 - (bits >> 52) as i32;
    if !(13..=63).contains(&shift) {
        return None;
    }
    let mant = (bits & ((1 << 52) - 1)) | (1 << 52);
    let scaled = mant as u128 * 1_000_000;
    let mut n = (scaled >> shift) as u64;
    let rem = scaled & ((1u128 << shift) - 1);
    let half = 1u128 << (shift - 1);
    if rem > half || (rem == half && n & 1 == 1) {
        n += 1;
    }
    Some(n)
}

/// Append `n` millionths as a decimal with six places.
fn push_millionths(out: &mut String, n: u64) {
    push_u64(out, n / 1_000_000);
    out.push('.');
    let frac = n % 1_000_000;
    push_pair(out, frac / 10_000);
    push_pair(out, frac / 100 % 100);
    push_pair(out, frac % 100);
}

/// Append `v` with six decimals — byte for byte what
/// `write!(out, "{v:.6}")` appends (pinned by a differential test), which
/// for a timestamp in microseconds is picosecond resolution, far below one
/// PE cycle on any plausible clock. Only what [`millionths`] declines
/// takes the `write!` path.
fn push_fixed6(out: &mut String, v: f64) {
    match millionths(v) {
        Some(n) => push_millionths(out, n),
        None => {
            let _ = write!(out, "{v:.6}");
        }
    }
}

/// Start the next entry of the `traceEvents` array, up to the opening
/// quote of its name; the first entry is written whole with the header.
fn push_entry(out: &mut String) {
    out.push_str(",\n{\"name\":\"");
}

/// The tail every firing entry shares: its PE lane and its args.
fn push_firing_lane(out: &mut String, pe: u32, method: &str, cycles: u64) {
    out.push_str(",\"pid\":0,\"tid\":");
    push_u64(out, pe as u64);
    out.push_str(",\"args\":{\"method\":\"");
    out.push_str(method);
    out.push_str("\",\"cycles\":");
    push_u64(out, cycles);
    out.push_str("}}");
}

/// A firing's begin as a `"B"` entry.
fn push_begin(out: &mut String, node: &str, method: &str, t: f64, pe: u32, cycles: u64) {
    push_entry(out);
    out.push_str(node);
    out.push_str("\",\"cat\":\"firing\",\"ph\":\"B\",\"ts\":");
    push_fixed6(out, t * 1e6);
    push_firing_lane(out, pe, method, cycles);
}

/// A firing's end as an `"E"` entry.
fn push_end(out: &mut String, node: &str, t: f64, pe: u32) {
    push_entry(out);
    out.push_str(node);
    out.push_str("\",\"cat\":\"firing\",\"ph\":\"E\",\"ts\":");
    push_fixed6(out, t * 1e6);
    out.push_str(",\"pid\":0,\"tid\":");
    push_u64(out, pe as u64);
    out.push('}');
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

    // A record is ~92 bytes of document with the bundled apps' names; a
    // longer document just grows the buffer.
    let mut out = String::with_capacity(128 * trace.events.len() + 128 * meta.num_pes + 512);
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");

    // Process/thread naming metadata: PEs are threads of process 0,
    // channel counters live under process 1. Every entry after the first
    // is preceded by its separator, so no entry needs to know if it is last.
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"PEs\"}},\n\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"channels\"}}",
    );
    if trace.events.comm_sends() > 0 {
        out.push_str(
            ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
             \"args\":{\"name\":\"network\"}}",
        );
    }
    for (pe, list) in residents.iter().enumerate() {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{pe},\
             \"args\":{{\"name\":\"PE {pe} [{list}]\"}}}}"
        );
    }

    // A firing is written at its end, as one complete event ("X") that
    // carries its begin's stamp and its duration; the begin waits on its
    // PE's stack until then. Begin/end pairs nest only for the
    // zero-duration source/const firings recorded while a real firing is
    // in flight on the same PE, so a per-PE stack pairs them correctly. A
    // pair stays a "B" and an "E" when either stamp is outside
    // `millionths`' range, an end's begin was dropped, or a begin is
    // still open when the log ends.
    let mut firings: Vec<Vec<(f64, u32, u32, u64)>> = vec![Vec::new(); meta.num_pes];
    // Per-channel in-flight occupancy, stepped while scanning (the event
    // stream is in global time order).
    let mut in_flight = trace.in_flight_at_start();
    for e in &trace.events {
        match e {
            TraceEvent::FiringBegin {
                t,
                node,
                method,
                pe,
                cycles,
            } => firings[pe as usize].push((t, node, method, cycles)),
            TraceEvent::FiringEnd { t, node, pe } => {
                let Some((t0, begun, method, cycles)) = firings[pe as usize].pop() else {
                    push_end(&mut out, &nodes[node as usize], t, pe);
                    continue;
                };
                let (name, method) = (
                    &nodes[begun as usize],
                    &methods[begun as usize][method as usize],
                );
                match (millionths(t0 * 1e6), millionths(t * 1e6)) {
                    (Some(ts), Some(te)) if begun == node && te >= ts => {
                        push_entry(&mut out);
                        out.push_str(name);
                        out.push_str("\",\"cat\":\"firing\",\"ph\":\"X\",\"ts\":");
                        push_millionths(&mut out, ts);
                        out.push_str(",\"dur\":");
                        push_millionths(&mut out, te - ts);
                        push_firing_lane(&mut out, pe, method, cycles);
                    }
                    _ => {
                        push_begin(&mut out, name, method, t0, pe, cycles);
                        push_end(&mut out, &nodes[node as usize], t, pe);
                    }
                }
            }
            TraceEvent::QueueDepth {
                t,
                node,
                port,
                depth,
            } => {
                push_entry(&mut out);
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
                push_entry(&mut out);
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
                push_entry(&mut out);
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
                push_entry(&mut out);
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
                push_entry(&mut out);
                out.push_str(&wires[chan as usize]);
                out.push_str("\",\"cat\":\"network\",\"ph\":\"C\",\"ts\":");
                push_fixed6(&mut out, t * 1e6);
                out.push_str(",\"pid\":2,\"tid\":0,\"args\":{\"in_flight\":");
                push_i64(&mut out, in_flight[chan as usize]);
                out.push_str("}}");
            }
        }
    }
    for (pe, open) in (0u32..).zip(firings) {
        for (t, node, method, cycles) in open {
            let method = &methods[node as usize][method as usize];
            push_begin(&mut out, &nodes[node as usize], method, t, pe, cycles);
        }
    }

    let _ = writeln!(
        out,
        "\n  ],\n  \"otherData\": {{\"dropped_events\": {}, \"pe_clock_hz\": {:.1}}}\n}}",
        trace.dropped, meta.pe_clock_hz
    );
    out
}

/// Check that `src` is one well-formed JSON value (RFC 8259) with nothing
/// but whitespace around it. Returns a message and the byte offset of the
/// first error. This is a structural validator only — it does not build a
/// document — and exists so CI can verify exported traces without any
/// JSON dependency.
///
/// The grammar is RFC 8259's: objects, arrays, strings with the eight
/// two-character escapes and `\uXXXX` (raw bytes below 0x20 refused),
/// `true` / `false` / `null`, and numbers as `-? int frac? exp?`, where
/// `int` is `0` or a digit run that does not start with `0` — `01`, `-01`
/// and `007` are errors at the leading zero.
///
/// One flat loop, no recursion: the open arrays and objects are a `u128`
/// shift register, one bit per level (set for an object), so the nesting
/// cap of 128 is the size of that stack and a deeper document is an
/// error, not a deeper call stack. Strings are scanned a `u64` word at a
/// time: SWAR masks flag the quotes, backslashes and control bytes of
/// eight bytes at once, and only a byte that needs a closer look is read
/// on its own. Nothing is allocated unless there is an error to report.
/// On the benchmark's `stream_observed` export (26.0 MB, 283 235 events)
/// that is 24–25 ms, about 0.94 ns per byte on a 2.1 GHz Xeon, 0.56× the
/// time of the recursive descent it replaced.
pub fn validate_json(src: &str) -> std::result::Result<(), String> {
    validate(src.as_bytes()).map_err(|(what, at)| format!("{what} at byte {at}"))
}

/// Deepest array/object nesting [`validate_json`] accepts: one bit of its
/// container stack per level (the exporter's documents nest four deep).
const MAX_DEPTH: usize = u128::BITS as usize;

/// A validation error before formatting: what was expected, and where.
type Fault = (&'static str, usize);

fn validate(b: &[u8]) -> std::result::Result<(), Fault> {
    // Bit `k` is set when the container `k` levels out from the innermost
    // open one is an object; `depth` of its bits are live.
    let mut objects = 0u128;
    let mut depth = 0;
    let mut i = 0;
    loop {
        // A value starts at `i`, after optional whitespace.
        i = skip_ws(b, i);
        match b.get(i) {
            Some(&open @ (b'{' | b'[')) => {
                if depth == MAX_DEPTH {
                    return Err(("nesting deeper than 128", i));
                }
                i = skip_ws(b, i + 1);
                // `}` and `]` are two past their openers.
                if b.get(i) != Some(&(open + 2)) {
                    objects = objects << 1 | u128::from(open == b'{');
                    depth += 1;
                    if open == b'{' {
                        i = key(b, i)?;
                    }
                    continue;
                }
                i += 1;
            }
            Some(b'"') => i = string_end(b, i + 1)?,
            Some(&c @ (b't' | b'f' | b'n')) => {
                let (lit, what) = match c {
                    b't' => ("true", "expected 'true'"),
                    b'f' => ("false", "expected 'false'"),
                    _ => ("null", "expected 'null'"),
                };
                if !b[i..].starts_with(lit.as_bytes()) {
                    return Err((what, i));
                }
                i += lit.len();
            }
            Some(b'-' | b'0'..=b'9') => i = number_end(b, i)?,
            _ => return Err(("expected a JSON value", i)),
        }
        // A value ends at `i`: close containers until a `,` starts the
        // next value.
        loop {
            i = skip_ws(b, i);
            if depth == 0 {
                return if i == b.len() {
                    Ok(())
                } else {
                    Err(("trailing data", i))
                };
            }
            let object = objects & 1 == 1;
            let close = if object { b'}' } else { b']' };
            match b.get(i) {
                Some(b',') => {
                    i += 1;
                    if object {
                        i = key(b, i)?;
                    }
                    break;
                }
                Some(&c) if c == close => {
                    i += 1;
                    objects >>= 1;
                    depth -= 1;
                }
                _ if object => return Err(("expected ',' or '}'", i)),
                _ => return Err(("expected ',' or ']'", i)),
            }
        }
    }
}

// `skip_ws`, `key`, `string_end`, `number_end` and `digits_end` are
// `inline(always)`: left to the inliner, the validator measured 1.25–1.4×
// as long on the benchmark's export.

#[inline(always)]
fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while matches!(b.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        i += 1;
    }
    i
}

/// An object member's key and its `:`, from the whitespace before the
/// key; returns the offset just past the `:`.
#[inline(always)]
fn key(b: &[u8], i: usize) -> std::result::Result<usize, Fault> {
    let i = skip_ws(b, i);
    if b.get(i) != Some(&b'"') {
        return Err(("expected '\"'", i));
    }
    let i = skip_ws(b, string_end(b, i + 1)?);
    if b.get(i) != Some(&b':') {
        return Err(("expected ':'", i));
    }
    Ok(i + 1)
}

/// `0x01` in every byte.
const ONES: u64 = u64::from_le_bytes([0x01; 8]);
/// `0x80` in every byte.
const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);

/// The eight bytes at `i`, little-endian, if there are eight.
#[inline]
fn word(b: &[u8], i: usize) -> Option<u64> {
    let w = b.get(i..)?.first_chunk::<8>()?;
    Some(u64::from_le_bytes(*w))
}

/// The high bit of every byte of `w` below `n` (`n <= 0x80`). Bytes above
/// the lowest flagged one may be flagged falsely by its borrow, so only
/// the lowest set bit is meaningful — which is all a scan needs.
#[inline]
fn bytes_below(w: u64, n: u8) -> u64 {
    w.wrapping_sub(ONES * n as u64) & !w & HIGHS
}

/// As [`bytes_below`], for the bytes of `w` equal to `c`.
#[inline]
fn bytes_equal(w: u64, c: u8) -> u64 {
    bytes_below(w ^ (ONES * c as u64), 1)
}

/// The end of the string whose opening quote is just before `i`: the
/// offset past its closing quote.
#[inline(always)]
fn string_end(b: &[u8], mut i: usize) -> std::result::Result<usize, Fault> {
    loop {
        // A word at a time up to the closing quote, or up to the first
        // byte that escapes or is refused. The usual exit — a quote with
        // nothing special before it — is computed from the quote mask
        // alone; the other mask only decides a branch, so it adds no step
        // to the chain from one token's end to the next token's load.
        while let Some(w) = word(b, i) {
            let quote = bytes_equal(w, b'"');
            let other = bytes_equal(w, b'\\') | bytes_below(w, 0x20);
            // `quote ^ (quote - 1)` covers the bits up to the first quote.
            if quote != 0 && other & (quote ^ quote.wrapping_sub(1)) == 0 {
                return Ok(i + (quote.trailing_zeros() / 8) as usize + 1);
            }
            if other != 0 {
                i += (other.trailing_zeros() / 8) as usize;
                break;
            }
            i += 8;
        }
        match b.get(i) {
            Some(b'"') => return Ok(i + 1),
            Some(b'\\') => {
                i += 1;
                match b.get(i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 1,
                    Some(b'u') => {
                        let hex = i + 1..i + 5;
                        if let Some(k) = hex
                            .clone()
                            .find(|&k| !b.get(k).is_some_and(u8::is_ascii_hexdigit))
                        {
                            return Err(("expected 4 hex digits", k));
                        }
                        i = hex.end;
                    }
                    _ => return Err(("bad escape", i)),
                }
            }
            Some(0x00..=0x1f) => return Err(("raw control character in string", i)),
            // A plain byte of the last, shorter-than-a-word stretch.
            Some(_) => i += 1,
            None => return Err(("unterminated string", i)),
        }
    }
}

/// The end of the number starting at `i` (a `-` or a digit).
#[inline(always)]
fn number_end(b: &[u8], mut i: usize) -> std::result::Result<usize, Fault> {
    if b[i] == b'-' {
        i += 1;
    }
    let int = i;
    i = digits_end(b, int)?;
    if b[int] == b'0' && i > int + 1 {
        return Err(("leading zero", int));
    }
    if b.get(i) == Some(&b'.') {
        i = digits_end(b, i + 1)?;
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        i = digits_end(b, i)?;
    }
    Ok(i)
}

/// The end of the run of one or more digits starting at `start`, a byte
/// at a time: an exported trace's runs are one to six digits, where a
/// predicted loop branch costs less than a word mask on the path to the
/// next token (measured: a word-at-a-time digit scan made the benchmark's
/// export take about 1.2× as long to validate).
#[inline(always)]
fn digits_end(b: &[u8], start: usize) -> std::result::Result<usize, Fault> {
    let mut i = start;
    while b.get(i).is_some_and(u8::is_ascii_digit) {
        i += 1;
    }
    if i == start {
        Err(("expected digits", i))
    } else {
        Ok(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recursive-descent validator [`validate_json`] replaced, kept as
    /// its differential oracle (with the leading-zero rule added): one
    /// method per grammar rule, one byte per step.
    fn validate_recursive(src: &str) -> std::result::Result<(), String> {
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
            let int = self.i;
            digits(self)?;
            if self.b[int] == b'0' && self.i > int + 1 {
                self.i = int;
                return Err(self.err("leading zero"));
            }
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

    /// Well-formed documents, each reaching a different rule.
    const ACCEPT: &[&str] = &[
        "{}",
        "[]",
        "null",
        "-12.5e-3",
        r#"{"a": [1, 2, {"b": "x\ny", "c": true}], "d": null}"#,
        "  { \"ts\": 0.125 }  ",
        r#""é""#,
        "0",
        "-0",
        "0.5",
        "0e1",
        "[0,10]",
    ];

    /// Malformed documents, each failing a different rule.
    const REJECT: &[&str] = &[
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
        "01",
        "-01",
        "[00]",
        "{\"a\":007}",
    ];

    #[test]
    fn validator_accepts_wellformed_json() {
        for ok in ACCEPT {
            assert!(validate_json(ok).is_ok(), "rejected valid JSON: {ok}");
        }
    }

    #[test]
    fn validator_rejects_malformed_json() {
        // Used to recurse once per bracket and abort the process.
        let bottomless = "[".repeat(200_000);
        for bad in REJECT.iter().chain([&bottomless.as_str()]) {
            assert!(validate_json(bad).is_err(), "accepted invalid JSON: {bad}");
        }
        assert_eq!(validate_json("-01").unwrap_err(), "leading zero at byte 1");
        assert_eq!(
            validate_json("{\"a\":007}").unwrap_err(),
            "leading zero at byte 5"
        );
    }

    fn assert_same_verdict(doc: &str) {
        assert_eq!(
            validate_json(doc),
            validate_recursive(doc),
            "the validators disagree on {doc:?}"
        );
    }

    /// The fig1b Chrome export under `model`, traced into a ring of `ring`
    /// events (`None`: the default ring, which holds the whole run).
    fn fig1b_export(model: bp_core::CommModel, ring: Option<usize>) -> String {
        use bp_apps::{apps, SLOW, SMALL};
        let app = apps::fig1b(SMALL, SLOW);
        let compiled = bp_compiler::compile(&app.graph, &Default::default()).expect("compile");
        let trace = ring.map_or_else(
            crate::TraceOptions::default,
            crate::TraceOptions::with_capacity,
        );
        let config = crate::SimConfig::new(2).with_comm(model).with_trace(trace);
        let (_, trace, _) = crate::TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
            .expect("instantiate")
            .run_with_artifacts()
            .expect("run");
        chrome_trace_json(&trace.expect("tracing is on"))
    }

    /// The flat validator against the recursive oracle: the same `Result`,
    /// error text and offset included, on the fig1b exports under the zero
    /// and `uniform:64` models, on the hand-written corpus, and on seeded
    /// mutations of both — byte flips, deletions, insertions of JSON's
    /// structural bytes and truncations. The mutated exports are ring-
    /// truncated ones (the last 40 events behind the full header), so each
    /// mutation costs kilobytes, not megabytes.
    #[test]
    fn validator_matches_recursive_oracle_on_exports_and_mutations() {
        let clock = bp_core::MachineSpec::default_eval().pe_clock_hz;
        let models = [
            bp_core::CommModel::zero(),
            bp_core::CommModel::uniform(64.0 / clock, 0.0),
        ];
        let mut seeds: Vec<String> = ACCEPT.iter().chain(REJECT).map(|s| s.to_string()).collect();
        for model in models {
            let full = fig1b_export(model.clone(), None);
            assert_eq!(validate_json(&full), Ok(()));
            assert_same_verdict(&full);
            seeds.push(fig1b_export(model, Some(40)));
        }
        const INSERTS: &[u8] = b"\"{}[],:\\-0e.";
        let mut rng = bp_core::Rng64::seed_from_u64(0x0a11_da7a);
        let (mut mutations, mut accepted) = (0, 0);
        while mutations < 24_000 {
            let mut doc = seeds[rng.gen_index(seeds.len())].clone().into_bytes();
            for _ in 0..1 + rng.gen_index(3) {
                let at = rng.gen_index(doc.len() + 1);
                match rng.gen_index(4) {
                    0 if at < doc.len() => doc[at] ^= 1 << rng.gen_index(8),
                    1 if at < doc.len() => {
                        doc.remove(at);
                    }
                    2 => doc.insert(at, INSERTS[rng.gen_index(INSERTS.len())]),
                    _ => doc.truncate(at),
                }
            }
            // A flip or deletion inside a multi-byte character is not a
            // `&str`; draw again.
            let Ok(doc) = String::from_utf8(doc) else {
                continue;
            };
            mutations += 1;
            accepted += usize::from(validate_json(&doc).is_ok());
            assert_same_verdict(&doc);
        }
        assert!(accepted > 0, "no mutation stayed well-formed");
    }

    /// Every place the word-at-a-time string scan can stop, and the digit
    /// runs beside it: strings and digit runs of 0 to 17 bytes at each
    /// start offset modulo 8, ending at the last byte of the document or
    /// followed by more, with a quote, backslash, control byte, DEL, a
    /// multi-byte character — and, in digit runs, the bytes either side of
    /// `0`..=`9` — at every position.
    #[test]
    fn validator_matches_recursive_oracle_at_every_word_alignment() {
        let mut cases = 0;
        for len in 0..=17 {
            for pad in 0..8 {
                let lead = " ".repeat(pad);
                for (body, specials) in [
                    ("a", &["\"", "\\", "\u{1f}", "\u{7f}", "é"][..]),
                    ("7", &["\"", "\\", "\u{1f}", "\u{7f}", "é", "/", ":"][..]),
                ] {
                    let run = body.repeat(len);
                    let mut runs = vec![run.clone()];
                    for at in 0..len {
                        for s in specials {
                            runs.push(format!("{}{s}{}", &run[..at], &run[at + 1..]));
                        }
                    }
                    for run in &runs {
                        let docs = if body == "a" {
                            [
                                format!("{lead}\"{run}\""),
                                format!("{lead}\"{run}"),
                                format!("{lead}[\"{run}\", 1]"),
                            ]
                        } else {
                            [
                                format!("{lead}{run}"),
                                format!("{lead}-0.{run}"),
                                format!("{lead}[{run}, 1e+{run}]"),
                            ]
                        };
                        for doc in &docs {
                            assert_same_verdict(doc);
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases > 10_000, "{cases} alignment cases");
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
        assert_eq!((millionths(0.0), millionths(-0.0)), (Some(0), None));
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

    /// Nodes `src` and `conv` on one PE, method `run` each.
    fn one_pe_trace(events: &[TraceEvent], dropped: u64) -> Trace {
        Trace {
            meta: crate::TraceMeta {
                node_names: vec!["src".into(), "conv".into()],
                input_ports: vec![vec![], vec![]],
                methods: vec![vec!["run".into()]; 2],
                pe_of_node: vec![0, 0],
                num_pes: 1,
                pe_clock_hz: 1e9,
                channels: vec![],
            },
            events: events.iter().copied().collect(),
            dropped,
        }
    }

    fn begin(t: f64, node: u32, cycles: u64) -> TraceEvent {
        TraceEvent::FiringBegin {
            t,
            node,
            method: 0,
            pe: 0,
            cycles,
        }
    }

    fn end(t: f64, node: u32) -> TraceEvent {
        TraceEvent::FiringEnd { t, node, pe: 0 }
    }

    /// The export's firing entries, in document order.
    fn firing_entries(trace: &Trace) -> Vec<String> {
        let json = chrome_trace_json(trace);
        validate_json(&json).expect("well-formed");
        json.lines()
            .filter(|l| l.contains(r#""cat":"firing""#))
            .map(|l| l.trim_end_matches(',').to_string())
            .collect()
    }

    /// A zero-duration source firing recorded inside a real firing on the
    /// same PE pairs with its own end, so it is written first, at its end,
    /// and its host at the host's end.
    #[test]
    fn nested_zero_duration_firing_is_its_own_complete_event() {
        let trace = one_pe_trace(
            &[
                begin(1e-6, 1, 2000),
                begin(1.5e-6, 0, 0),
                end(1.5e-6, 0),
                end(3e-6, 1),
            ],
            0,
        );
        assert_eq!(
            firing_entries(&trace),
            [
                r#"{"name":"src","cat":"firing","ph":"X","ts":1.500000,"dur":0.000000,"pid":0,"tid":0,"args":{"method":"run","cycles":0}}"#,
                r#"{"name":"conv","cat":"firing","ph":"X","ts":1.000000,"dur":2.000000,"pid":0,"tid":0,"args":{"method":"run","cycles":2000}}"#,
            ]
        );
    }

    /// A pair with a stamp `millionths` declines — here a negative zero
    /// and a time past 2^40 us — is written as its `B` and `E`, both at
    /// the end's place in the log.
    #[test]
    fn pairs_outside_the_fast_range_stay_begin_and_end() {
        let trace = one_pe_trace(
            &[
                begin(-0.0, 0, 5),
                end(1e-6, 0),
                begin(1.0, 1, 7),
                end(2e6, 1),
            ],
            0,
        );
        assert_eq!(
            firing_entries(&trace),
            [
                r#"{"name":"src","cat":"firing","ph":"B","ts":-0.000000,"pid":0,"tid":0,"args":{"method":"run","cycles":5}}"#,
                r#"{"name":"src","cat":"firing","ph":"E","ts":1.000000,"pid":0,"tid":0}"#,
                r#"{"name":"conv","cat":"firing","ph":"B","ts":1000000.000000,"pid":0,"tid":0,"args":{"method":"run","cycles":7}}"#,
                r#"{"name":"conv","cat":"firing","ph":"E","ts":2000000000000.000000,"pid":0,"tid":0}"#,
            ]
        );
    }

    /// An end whose begin the ring dropped is written as an `E` where it
    /// is; a begin still open when the log ends, as a `B` after the log.
    #[test]
    fn unpaired_firings_stay_begin_or_end() {
        let trace = one_pe_trace(
            &[
                end(1e-6, 1),
                begin(2e-6, 0, 3),
                end(3e-6, 0),
                begin(4e-6, 1, 9),
            ],
            1,
        );
        assert_eq!(
            firing_entries(&trace),
            [
                r#"{"name":"conv","cat":"firing","ph":"E","ts":1.000000,"pid":0,"tid":0}"#,
                r#"{"name":"src","cat":"firing","ph":"X","ts":2.000000,"dur":1.000000,"pid":0,"tid":0,"args":{"method":"run","cycles":3}}"#,
                r#"{"name":"conv","cat":"firing","ph":"B","ts":4.000000,"pid":0,"tid":0,"args":{"method":"run","cycles":9}}"#,
            ]
        );
    }

    #[test]
    fn escapes_special_characters() {
        assert_eq!(esc("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert!(validate_json(&format!("\"{}\"", esc("quote\" back\\ nl\n"))).is_ok());
    }
}
