//! The numbered port and method names of the plumbing kernels — `in{i}`,
//! `out{i}`, `take{i}` — which the compiler builds for every split, join
//! and replicate it inserts. Below the mask width (64 ports) they are
//! borrowed from one `const` table, so a plumbing spec copies no name;
//! wider kernels format theirs. Either way the bytes are the same, which
//! shape keys depend on: they hash names.

use bp_core::Name;

/// How many names each row of [`NUMBERED`] holds: the mask width.
const WIDTH: usize = 64;

struct Numbered {
    inputs: [&'static str; WIDTH],
    outputs: [&'static str; WIDTH],
    takes: [&'static str; WIDTH],
}

macro_rules! numbered {
    ($($i:literal)*) => {
        Numbered {
            inputs: [$(concat!("in", $i)),*],
            outputs: [$(concat!("out", $i)),*],
            takes: [$(concat!("take", $i)),*],
        }
    };
}

const NUMBERED: Numbered = numbered!(
    0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
    32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63
);

fn numbered(row: &[&'static str; WIDTH], prefix: &str, i: usize) -> Name {
    match row.get(i) {
        Some(name) => Name::Borrowed(name),
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    #[test]
    fn table_names_are_the_formatted_names() {
        for i in 0..2 * WIDTH {
            assert_eq!(input(i), format!("in{i}"));
            assert_eq!(output(i), format!("out{i}"));
            assert_eq!(take(i), format!("take{i}"));
            // Borrowed exactly where the table reaches.
            assert_eq!(matches!(output(i), Cow::Borrowed(_)), i < WIDTH);
        }
    }
}
