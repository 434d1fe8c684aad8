//! The workspace's one log macro, replacing bare `eprintln!` diagnostics.
//!
//! `blend_obs::warn!("{name} is malformed")` writes one line,
//! `[WARN module::path] message`, to stderr. It has no level filter: the
//! workspace logs only conditions someone should read (a malformed
//! setting).

/// Write a warning line to stderr, tagged with the calling module.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        eprintln!("[WARN {}] {}", module_path!(), format_args!($($arg)*))
    };
}
