//! The two settings a deployment sizes through the environment, read in
//! one place.
//!
//! | Variable | Effect |
//! |---|---|
//! | `BLEND_THREADS` | Width of the process-wide worker pool ([`ParallelCtx::shared_from_env`](crate::ParallelCtx::shared_from_env)); unset means the machine's available parallelism, `1` the sequential fallback everywhere. |
//! | `BLEND_MEMORY_BUDGET` | Byte budget of the process-wide [`MemoryGovernor`](crate::MemoryGovernor::global); unset or `0` means unbounded. |
//!
//! Both are unsigned integers. A value that is not one (`64MiB`, `-1`,
//! `4.5`) is reported with a warning and replaced by the default instead
//! of being silently dropped. Everything else is configured in code:
//! [`ParallelCtx::with_admission`](crate::ParallelCtx::with_admission),
//! [`MemoryGovernor::with_budget`](crate::MemoryGovernor::with_budget),
//! `ServeConfig`, `blend_simd::force` and `blend_obs::set_enabled`.

use std::sync::OnceLock;

/// Environment variable naming the process-wide worker thread count.
pub const THREADS_ENV: &str = "BLEND_THREADS";

/// Environment variable naming the process-wide byte budget.
pub const MEMORY_ENV: &str = "BLEND_MEMORY_BUDGET";

/// `(threads, memory budget)` from the environment: the thread count
/// clamped to at least 1, and the byte budget with `0` for unbounded. The
/// only place the workspace reads the environment, once per process.
pub(crate) fn from_env() -> (usize, usize) {
    static SETTINGS: OnceLock<(usize, usize)> = OnceLock::new();
    *SETTINGS.get_or_init(|| {
        let read = |name: &str| {
            let raw = std::env::var(name).ok();
            parse_setting(raw.as_deref()).unwrap_or_else(|bad| {
                blend_obs::warn!("{name}={bad:?} is not an unsigned integer; using the default");
                None
            })
        };
        let threads = read(THREADS_ENV)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        (threads.max(1), read(MEMORY_ENV).unwrap_or(0))
    })
}

/// What a raw setting asks for: `Ok(None)` keeps the default (unset or
/// blank), `Ok(Some(n))` is an unsigned integer (surrounding whitespace
/// allowed), and `Err(raw)` is anything else.
fn parse_setting(raw: Option<&str>) -> Result<Option<usize>, &str> {
    let Some(raw) = raw.filter(|v| !v.trim().is_empty()) else {
        return Ok(None);
    };
    raw.trim().parse().map(Some).map_err(|_| raw)
}

#[cfg(test)]
mod tests {
    use super::parse_setting;

    #[test]
    fn settings_parse_unsigned_integers_and_reject_the_rest() {
        assert_eq!(parse_setting(None), Ok(None));
        assert_eq!(parse_setting(Some("")), Ok(None));
        assert_eq!(parse_setting(Some("0")), Ok(Some(0)));
        assert_eq!(parse_setting(Some(" 67108864 ")), Ok(Some(67_108_864)));
        for bad in ["64MiB", "-1", "4.5"] {
            assert_eq!(parse_setting(Some(bad)), Err(bad));
        }
    }
}
