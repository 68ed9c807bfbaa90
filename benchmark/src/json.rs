//! The two JSON literals the benchmark writes: strings and numbers. What it
//! writes is checked with `bp_sim::validate_json`; it reads no JSON.

/// `s` as a JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON: non-finite values have no literal, so they become 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_literals_pass_the_simulators_checker() {
        let nasty = "join_rr \"65\" ports\\\n\ttab \u{1} é";
        let doc = format!(
            "{{\"k\": {}, \"v\": [{}, {}, {}]}}",
            string(nasty),
            number(1.5e-3),
            number(-2.0),
            number(f64::NAN)
        );
        bp_sim::validate_json(&doc).expect("well-formed");
        assert!(doc.ends_with("[0.0015, -2, 0]}"), "{doc}");
    }
}
