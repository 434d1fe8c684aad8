//! A seeker run's SQL text and an engine to run it on. `seekers::run`
//! renders no text: a plan's `ExecutionReport` carries it
//! (`OpExecution::sql`), and the parity suites spell it here the same way.

use blend::seekers::{seeker_sql, Injected, TID_PLACEHOLDER};
use blend::{Blend, Seeker};
use blend_sql::SqlEngine;

/// The SQL text a run of `seeker` with `injected` on `blend` answers:
/// Listing 1–3's template with the injected fragment, or `""` for a run an
/// empty `In` short-circuits.
pub fn sql_text(blend: &Blend, seeker: &Seeker, k: usize, injected: Option<&Injected>) -> String {
    if injected == Some(&Injected::In(Vec::new())) {
        return String::new();
    }
    let fragment = injected.map_or(String::new(), Injected::fragment);
    seeker_sql(seeker, k, blend.options().h).replace(TID_PLACEHOLDER, &fragment)
}

/// An engine over `blend`'s index with `blend`'s parallel context, so the
/// text runs at the thread count the operator was given.
pub fn engine(blend: &Blend) -> SqlEngine {
    SqlEngine::with_alltables(blend.fact_table()).with_parallel(blend.parallel_ctx())
}
