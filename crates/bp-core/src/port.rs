//! Kernel input/output parameterization (§II-A).

use crate::geometry::{Dim2, Offset2, Step2};
use std::borrow::Cow;

/// A spec name — of a port, a method, a kernel kind. A string literal is
/// borrowed (`"in".into()` copies nothing) and a `String` built at run time,
/// e.g. by `format!`, is moved in; a borrowed `&str` that is not `'static`
/// needs `.to_owned()`. Names are compared, hashed and printed as their
/// bytes alone, so which of the two a name is never shows.
pub type Name = Cow<'static, str>;

/// Parameterization of a kernel input: window size, step, offset from the
/// window origin to the produced output, and whether the input is
/// *replicated* under parallelization (copied to every replica instead of
/// being split — e.g. convolution coefficients, shown as dashed edges in the
/// paper's figures).
#[derive(Clone, Debug, PartialEq)]
pub struct InputSpec {
    /// Port name, unique within the kernel (resolving the method table
    /// checks it).
    pub name: Name,
    /// Window size consumed per iteration.
    pub size: Dim2,
    /// Window advance per iteration.
    pub step: Step2,
    /// Offset from the window origin to the output sample it produces; used
    /// by the inset analysis for automatic trimming/padding (§III-C).
    pub offset: Offset2,
    /// Replicate (copy) rather than split this input when the kernel is
    /// parallelized.
    pub replicated: bool,
}

impl InputSpec {
    /// A windowed data input with the centered offset (`floor(size/2)`).
    pub fn windowed(name: impl Into<Name>, size: Dim2, step: Step2) -> Self {
        Self {
            name: name.into(),
            size,
            step,
            offset: Offset2::centered(size),
            replicated: false,
        }
    }

    /// A 1×1 streaming input with zero offset — the shape of raw pixel
    /// streams and most point-wise kernels.
    pub fn stream(name: impl Into<Name>) -> Self {
        Self {
            name: name.into(),
            size: Dim2::ONE,
            step: Step2::ONE,
            offset: Offset2::ZERO,
            replicated: false,
        }
    }

    /// A block input that consumes its whole window with no reuse
    /// (step == size), e.g. coefficient loads or histogram merges.
    pub fn block(name: impl Into<Name>, size: Dim2) -> Self {
        Self {
            name: name.into(),
            size,
            step: Step2::new(size.w, size.h),
            offset: Offset2::ZERO,
            replicated: false,
        }
    }

    /// Set the offset explicitly.
    pub fn with_offset(mut self, offset: Offset2) -> Self {
        self.offset = offset;
        self
    }

    /// Mark the input as replicated under parallelization.
    pub fn replicated(mut self) -> Self {
        self.replicated = true;
        self
    }

    /// Halo of the windowed access: `size - step`.
    pub fn halo(&self) -> Dim2 {
        crate::geometry::halo(self.size, self.step)
    }

    /// True if the input changes grain (consumes more than it is fed 1×1) —
    /// i.e. it needs an upstream buffer when fed a finer-grained stream.
    pub fn is_windowed(&self) -> bool {
        self.size != Dim2::ONE || self.step != Step2::ONE
    }
}

/// Parameterization of a kernel output: the block it produces per iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct OutputSpec {
    /// Port name, unique within the kernel (resolving the method table
    /// checks it).
    pub name: Name,
    /// Block size produced per iteration.
    pub size: Dim2,
    /// Output step; equals `size` for the common case of abutting blocks.
    pub step: Step2,
}

impl OutputSpec {
    /// An output producing abutting `size` blocks (step == size).
    pub fn block(name: impl Into<Name>, size: Dim2) -> Self {
        Self {
            name: name.into(),
            size,
            step: Step2::new(size.w, size.h),
        }
    }

    /// A 1×1 streaming output.
    pub fn stream(name: impl Into<Name>) -> Self {
        Self::block(name, Dim2::ONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_input_gets_centered_offset() {
        let i = InputSpec::windowed("in", Dim2::new(5, 5), Step2::ONE);
        assert_eq!(i.offset, Offset2::new(2.0, 2.0));
        assert_eq!(i.halo(), Dim2::new(4, 4));
        assert!(i.is_windowed());
        assert!(!i.replicated);
    }

    #[test]
    fn stream_input_is_unit() {
        let i = InputSpec::stream("in");
        assert_eq!(i.size, Dim2::ONE);
        assert!(!i.is_windowed());
        assert_eq!(i.halo(), Dim2::new(0, 0));
    }

    #[test]
    fn block_input_has_no_reuse() {
        let i = InputSpec::block("coeff", Dim2::new(5, 5)).replicated();
        assert_eq!(i.step, Step2::new(5, 5));
        assert!(i.replicated);
        assert_eq!(i.halo(), Dim2::new(0, 0));
    }

    #[test]
    fn output_block() {
        let o = OutputSpec::block("out", Dim2::new(32, 1));
        assert_eq!(o.step, Step2::new(32, 1));
        let s = OutputSpec::stream("out");
        assert_eq!(s.size, Dim2::ONE);
    }
}
