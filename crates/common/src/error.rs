//! Shared error type for the BLEND workspace.

use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, BlendError>;

/// Errors raised anywhere in the BLEND stack.
///
/// The variants are deliberately coarse: each carries a human-readable
/// message naming the failing component, mirroring how a database surfaces
/// errors to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlendError {
    /// SQL text could not be tokenized or parsed.
    SqlParse(String),
    /// A well-formed query referenced something that does not exist or used
    /// an unsupported construct.
    SqlPlan(String),
    /// A runtime failure while executing a physical plan.
    SqlExec(String),
    /// A discovery plan failed validation (cycle, bad arity, unknown node).
    PlanInvalid(String),
    /// An operator received malformed input (e.g. MC seeker with one column).
    InvalidInput(String),
    /// Index construction failed.
    Index(String),
    /// I/O wrapper (kept as a string so the error stays `Clone + Eq`).
    Io(String),
    /// A request's deadline expired before it finished (while queued,
    /// waiting for admission, or mid-execution).
    Timeout(String),
    /// A request was cancelled cooperatively via its cancellation token.
    Cancelled(String),
    /// The serving tier shed the request: the bounded queue was full.
    Overloaded(String),
    /// A memory reservation failed even after the governor reclaimed what
    /// registered pools (the serving result cache) could give back, or an
    /// OS-level allocation failed. The request's partials were discarded;
    /// the engine stays serviceable.
    MemoryExceeded(String),
}

impl fmt::Display for BlendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlendError::SqlParse(m) => write!(f, "SQL parse error: {m}"),
            BlendError::SqlPlan(m) => write!(f, "SQL planning error: {m}"),
            BlendError::SqlExec(m) => write!(f, "SQL execution error: {m}"),
            BlendError::PlanInvalid(m) => write!(f, "invalid discovery plan: {m}"),
            BlendError::InvalidInput(m) => write!(f, "invalid input: {m}"),
            BlendError::Index(m) => write!(f, "index error: {m}"),
            BlendError::Io(m) => write!(f, "I/O error: {m}"),
            BlendError::Timeout(m) => write!(f, "deadline exceeded: {m}"),
            BlendError::Cancelled(m) => write!(f, "cancelled: {m}"),
            BlendError::Overloaded(m) => write!(f, "overloaded: {m}"),
            BlendError::MemoryExceeded(m) => write!(f, "memory budget exceeded: {m}"),
        }
    }
}

impl std::error::Error for BlendError {}

impl From<std::io::Error> for BlendError {
    fn from(e: std::io::Error) -> Self {
        BlendError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_component_and_message() {
        let e = BlendError::SqlParse("unexpected token `FROM`".into());
        assert_eq!(e.to_string(), "SQL parse error: unexpected token `FROM`");
        let e = BlendError::PlanInvalid("cycle detected".into());
        assert!(e.to_string().contains("cycle detected"));
    }

    #[test]
    fn serving_variants_display_their_component() {
        assert_eq!(
            BlendError::Timeout("queued 5ms past deadline".into()).to_string(),
            "deadline exceeded: queued 5ms past deadline"
        );
        assert_eq!(
            BlendError::Cancelled("client went away".into()).to_string(),
            "cancelled: client went away"
        );
        assert_eq!(
            BlendError::Overloaded("queue full (depth 4)".into()).to_string(),
            "overloaded: queue full (depth 4)"
        );
        assert_eq!(
            BlendError::MemoryExceeded("join_build wanted 64 KiB".into()).to_string(),
            "memory budget exceeded: join_build wanted 64 KiB"
        );
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: BlendError = io.into();
        assert!(matches!(e, BlendError::Io(_)));
        assert!(e.to_string().contains("missing"));
    }
}
