//! The numbered port and method names of the plumbing kernels — `in{i}`,
//! `out{i}`, `take{i}` — which the compiler builds for every split, join
//! and replicate it inserts, and the trigger and output lists of their
//! methods. Below the mask width (64 ports) they are borrowed from one
//! `static` table, so a plumbing spec copies no name and allocates no
//! per-method list; wider kernels format theirs. Either way the bytes are
//! the same, which shape keys depend on: they hash names.

use bp_core::method::{MethodCost, MethodSpec, Trigger, TriggerOn};
use bp_core::token::TokenKind;
use bp_core::Name;
use std::borrow::Cow;

/// How many names each row of [`NUMBERED`] holds: the mask width.
const WIDTH: usize = 64;

struct Numbered {
    inputs: [Name; WIDTH],
    outputs: [Name; WIDTH],
    takes: [Name; WIDTH],
    /// `in{i}` on a window.
    data: [Trigger; WIDTH],
    /// `in{i}` on an end of line.
    eol: [Trigger; WIDTH],
    /// `in{i}` on an end of frame.
    eof: [Trigger; WIDTH],
}

const fn on(input: &'static str, on: TriggerOn) -> Trigger {
    Trigger {
        input: Name::Borrowed(input),
        on,
    }
}

macro_rules! numbered {
    ($($i:literal)*) => {
        Numbered {
            inputs: [$(Name::Borrowed(concat!("in", $i))),*],
            outputs: [$(Name::Borrowed(concat!("out", $i))),*],
            takes: [$(Name::Borrowed(concat!("take", $i))),*],
            data: [$(on(concat!("in", $i), TriggerOn::Data)),*],
            eol: [$(on(concat!("in", $i), TriggerOn::Token(TokenKind::EndOfLine))),*],
            eof: [$(on(concat!("in", $i), TriggerOn::Token(TokenKind::EndOfFrame))),*],
        }
    };
}

static NUMBERED: Numbered = numbered!(
    0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
    32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63
);

/// `["out"]`: what every join, buffer, inset and pad method writes.
static OUT: [Name; 1] = [Name::Borrowed("out")];

/// `in` on a window, an end of line, an end of frame: the triggers of a
/// single-input plumbing kernel's three methods.
static IN: [[Trigger; 1]; 3] = [
    [on("in", TriggerOn::Data)],
    [on("in", TriggerOn::Token(TokenKind::EndOfLine))],
    [on("in", TriggerOn::Token(TokenKind::EndOfFrame))],
];

/// `["out"]`, borrowed.
pub(crate) fn out() -> Cow<'static, [Name]> {
    Cow::Borrowed(&OUT)
}

/// `in` on a window: the trigger of a replicate's one method.
pub(crate) fn data_trigger_on_in() -> Cow<'static, [Trigger]> {
    Cow::Borrowed(&IN[0])
}

fn numbered(row: &'static [Name; WIDTH], prefix: &str, i: usize) -> Name {
    match row.get(i) {
        Some(name) => name.clone(),
        None => Name::Owned(format!("{prefix}{i}")),
    }
}

/// `in{i}`.
pub(crate) fn input(i: usize) -> Name {
    numbered(&NUMBERED.inputs, "in", i)
}

/// `out{i}`.
pub(crate) fn output(i: usize) -> Name {
    numbered(&NUMBERED.outputs, "out", i)
}

/// `take{i}`.
pub(crate) fn take(i: usize) -> Name {
    numbered(&NUMBERED.takes, "take", i)
}

/// `out0` … `out{k-1}`, borrowed up to the mask width.
pub(crate) fn outputs(k: usize) -> Cow<'static, [Name]> {
    match NUMBERED.outputs.get(..k) {
        Some(names) => Cow::Borrowed(names),
        None => (0..k).map(output).collect(),
    }
}

/// `in{i}` on a window: the trigger of a join's `take{i}`.
pub(crate) fn data_trigger(i: usize) -> Cow<'static, [Trigger]> {
    match NUMBERED.data.get(i..=i) {
        Some(trigger) => Cow::Borrowed(trigger),
        None => vec![on_input(i, TriggerOn::Data)].into(),
    }
}

/// `in0` … `in{k-1}` all on the same token: the triggers of a join's
/// token synchronizers.
pub(crate) fn token_triggers(k: usize, token: TokenKind) -> Cow<'static, [Trigger]> {
    let row = match token {
        TokenKind::EndOfLine => NUMBERED.eol.get(..k),
        TokenKind::EndOfFrame => NUMBERED.eof.get(..k),
        TokenKind::Custom(_) => None,
    };
    match row {
        Some(triggers) => Cow::Borrowed(triggers),
        None => (0..k)
            .map(|i| on_input(i, TriggerOn::Token(token)))
            .collect(),
    }
}

fn on_input(i: usize, on: TriggerOn) -> Trigger {
    Trigger {
        input: input(i),
        on,
    }
}

/// The three methods of a single-input plumbing kernel (split, buffer,
/// inset, pad), in this order: `data.0` on a window at `in`, costing
/// `data.1` cycles, then `eol` and `eof` on the two automatic tokens there,
/// costing `tokens` cycles each; all three write `outputs`.
pub(crate) fn stream_methods(
    data: (&'static str, u64),
    tokens: u64,
    outputs: Cow<'static, [Name]>,
) -> Vec<MethodSpec> {
    let [on_data, on_eol, on_eof] = &IN;
    let cost = MethodCost::new(tokens, 0);
    vec![
        MethodSpec::new(
            data.0,
            &on_data[..],
            outputs.clone(),
            MethodCost::new(data.1, 0),
        ),
        MethodSpec::new("eol", &on_eol[..], outputs.clone(), cost),
        MethodSpec::new("eof", &on_eof[..], outputs, cost),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_are_the_formatted_names() {
        for i in 0..2 * WIDTH {
            assert_eq!(input(i), format!("in{i}"));
            assert_eq!(output(i), format!("out{i}"));
            assert_eq!(take(i), format!("take{i}"));
            // Borrowed exactly where the table reaches.
            assert_eq!(matches!(output(i), Cow::Borrowed(_)), i < WIDTH);
            let trigger = &data_trigger(i)[0];
            assert_eq!((&*trigger.input, trigger.on), (&*input(i), TriggerOn::Data));
            assert_eq!(matches!(data_trigger(i), Cow::Borrowed(_)), i < WIDTH);
        }
        for k in [1, WIDTH, WIDTH + 1] {
            let names: Vec<Name> = (0..k).map(output).collect();
            assert_eq!(*outputs(k), *names);
            assert_eq!(matches!(outputs(k), Cow::Borrowed(_)), k <= WIDTH);
            for token in [TokenKind::EndOfLine, TokenKind::EndOfFrame] {
                let want: Vec<Trigger> = (0..k)
                    .map(|i| on_input(i, TriggerOn::Token(token)))
                    .collect();
                assert_eq!(*token_triggers(k, token), *want);
            }
        }
    }
}
