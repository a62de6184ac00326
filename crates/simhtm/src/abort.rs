//! The abort signal of a simulated hardware transaction.
//!
//! An abort names its reason in the workspace-wide [`AbortCause`]
//! taxonomy, the one the engine's counters, StackTrack's split engine and
//! every metrics snapshot use, so a cause has one name from the engine up.

use st_obs::AbortCause;

/// An aborted transaction, propagated as an error.
///
/// In C, an HTM abort longjmps back to the `XBEGIN` fallback; the idiomatic
/// Rust rendering is an error that unwinds the segment body via `?`, after
/// which the split engine restarts the segment from its last committed
/// state — the same control flow the hardware provides by restoring the
/// register checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort(pub AbortCause);

impl Abort {
    /// Why the transaction aborted.
    pub fn cause(self) -> AbortCause {
        self.0
    }
}

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction aborted: {:?}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cause() {
        assert!(Abort(AbortCause::Capacity).to_string().contains("Capacity"));
    }

    #[test]
    fn cause_roundtrip() {
        for cause in AbortCause::ALL {
            assert_eq!(Abort(cause).cause(), cause);
        }
    }
}
