//! The workspace's one log macro, replacing bare `eprintln!` diagnostics.
//!
//! `blend_obs::warn!("worker {} exited early", id)` writes one line,
//! `[WARN module::path] message`, to stderr. It has no level filter: the
//! workspace logs only conditions someone should read (a worker pool that
//! did not shut down cleanly, a malformed setting).

/// Write a warning line to stderr, tagged with the calling module.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        eprintln!("[WARN {}] {}", module_path!(), format_args!($($arg)*))
    };
}
