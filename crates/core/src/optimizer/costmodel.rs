//! Learning-based cost estimation (paper §VII-B).
//!
//! One linear regression per seeker type over the paper's three features —
//! query cardinality, number of columns, and average frequency of the query
//! values in the database (for MC: the *product* of per-column average
//! frequencies, mirroring the join the SQL performs) — plus a bias term.
//! Training samples queries from the installed lake, measures actual
//! runtimes, and fits ordinary least squares. Untrained types fall back to
//! an analytic heuristic so ranking always works.

use std::borrow::Cow;
use std::time::Instant;

use rand::{Rng, SeedableRng};

use blend_common::stats::ols;
use blend_common::text;
use blend_lake::DataLake;
use blend_storage::FactTable;

use crate::plan::Seeker;
use crate::seekers;
use crate::Blend;

/// The paper's three features.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeekerFeatures {
    /// Number of query values (`|Q|`).
    pub cardinality: f64,
    /// Number of columns in `Q`.
    pub n_cols: f64,
    /// Average frequency of query values in the database.
    pub avg_freq: f64,
}

impl SeekerFeatures {
    /// Design-matrix row `[1, |Q|, cols, freq]`.
    pub fn row(&self) -> Vec<f64> {
        vec![1.0, self.cardinality, self.n_cols, self.avg_freq]
    }
}

/// A trained linear model.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// Weights for `[1, |Q|, cols, freq]`.
    pub weights: [f64; 4],
}

impl LinearModel {
    /// Predicted runtime (µs); clamped at zero.
    pub fn predict(&self, f: &SeekerFeatures) -> f64 {
        let r = f.row();
        self.weights
            .iter()
            .zip(&r)
            .map(|(w, x)| w * x)
            .sum::<f64>()
            .max(0.0)
    }
}

/// Per-type model set. `None` = untrained, use the heuristic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostModelSet {
    pub sc: Option<LinearModel>,
    pub kw: Option<LinearModel>,
    pub mc: Option<LinearModel>,
    pub c: Option<LinearModel>,
}

impl CostModelSet {
    fn for_seeker(&self, s: &Seeker) -> &Option<LinearModel> {
        match s {
            Seeker::Sc { .. } => &self.sc,
            Seeker::Kw { .. } => &self.kw,
            Seeker::Mc { .. } => &self.mc,
            Seeker::C { .. } => &self.c,
        }
    }

    /// True when every type has a trained model.
    pub fn fully_trained(&self) -> bool {
        self.sc.is_some() && self.kw.is_some() && self.mc.is_some() && self.c.is_some()
    }
}

/// Compute features against the installed index (exact frequencies from
/// the engine's catalog — postings lengths).
pub fn features(blend: &Blend, seeker: &Seeker) -> SeekerFeatures {
    let fact = &*blend.fact_table();
    match seeker {
        Seeker::Sc { values } => SeekerFeatures {
            cardinality: values.len() as f64,
            n_cols: 1.0,
            avg_freq: freq_of(fact, values.iter()),
        },
        Seeker::Kw { keywords } => SeekerFeatures {
            cardinality: keywords.len() as f64,
            n_cols: 1.0,
            avg_freq: freq_of(fact, keywords.iter()),
        },
        Seeker::Mc { rows } => {
            let arity = rows.first().map_or(0, Vec::len);
            let mut freq_product = 1.0f64;
            for c in 0..arity {
                // Every column's postings are read and combined per row,
                // so frequencies multiply (paper §VII-B).
                freq_product *= freq_of(fact, rows.iter().map(|r| &r[c])).max(1e-3);
            }
            SeekerFeatures {
                cardinality: (rows.len() * arity) as f64,
                n_cols: arity as f64,
                avg_freq: freq_product,
            }
        }
        Seeker::C { keys, .. } => SeekerFeatures {
            cardinality: keys.len() as f64,
            n_cols: 2.0,
            avg_freq: freq_of(fact, keys.iter()),
        },
    }
}

/// Mean postings length of `values`, each normalized (copied only where
/// normalizing changes it) and all looked up in one batch.
fn freq_of<'v>(fact: &dyn FactTable, values: impl ExactSizeIterator<Item = &'v String>) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let norm: Vec<Cow<'_, str>> = values.map(|v| text::normalize_cow(v)).collect();
    let norm: Vec<&str> = norm.iter().map(|v| &**v).collect();
    let mut resolved = Vec::with_capacity(n);
    fact.resolve(&norm, true, &mut resolved);
    let total: usize = resolved.iter().map(|v| v.postings.len()).sum();
    total as f64 / n as f64
}

/// Estimated relative runtime of a seeker: trained model when available,
/// else the analytic fallback `(1 + |Q|·avg_freq) · type_factor` matching
/// the complexity analysis of §VII-B.
pub fn estimate(blend: &Blend, seeker: &Seeker, models: &CostModelSet) -> f64 {
    let f = features(blend, seeker);
    if let Some(model) = models.for_seeker(seeker) {
        return model.predict(&f);
    }
    let type_factor = match seeker {
        Seeker::Kw { .. } => 1.0,
        Seeker::Sc { .. } => 1.0,
        Seeker::C { .. } => 3.0,
        Seeker::Mc { .. } => 4.0,
    };
    (1.0 + f.cardinality * f.avg_freq.max(0.5)) * type_factor
}

/// Offline training (paper: "randomly sample 1000 input Qs ... execute the
/// seekers independently and measure the execution runtime").
pub fn train(blend: &Blend, lake: &DataLake, samples_per_type: usize, seed: u64) -> CostModelSet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut set = CostModelSet::default();

    // SC / KW: column-sampled value sets of mixed sizes.
    let sizes = [3usize, 8, 20, 50];
    let sc_qs = blend_lake::workloads::sc_queries(
        lake,
        &sizes,
        samples_per_type.div_ceil(sizes.len()),
        seed,
    );
    let mut sc_rows = Vec::new();
    let mut sc_y = Vec::new();
    let mut kw_rows = Vec::new();
    let mut kw_y = Vec::new();
    for (_, queries) in &sc_qs {
        for q in queries {
            let s = Seeker::sc(q.clone());
            if let Some((f, t)) = measure(blend, &s) {
                sc_rows.push(f.row());
                sc_y.push(t);
            }
            let s = Seeker::kw(q.clone());
            if let Some((f, t)) = measure(blend, &s) {
                kw_rows.push(f.row());
                kw_y.push(t);
            }
        }
    }
    set.sc = ols(&sc_rows, &sc_y, 1e-6).map(to_model);
    set.kw = ols(&kw_rows, &kw_y, 1e-6).map(to_model);

    // MC: sampled composite keys.
    let mut mc_rows = Vec::new();
    let mut mc_y = Vec::new();
    for q in blend_lake::workloads::mc_queries(lake, samples_per_type, 2, 6, seed ^ 0x4D43) {
        let s = Seeker::mc(q.rows);
        if let Some((f, t)) = measure(blend, &s) {
            mc_rows.push(f.row());
            mc_y.push(t);
        }
    }
    set.mc = ols(&mc_rows, &mc_y, 1e-6).map(to_model);

    // C: categorical-key/numeric-target pairs sampled from the lake.
    let mut c_rows = Vec::new();
    let mut c_y = Vec::new();
    let mut guard = 0;
    while c_rows.len() < samples_per_type && guard < samples_per_type * 100 {
        guard += 1;
        let t = &lake.tables[rng.random_range(0..lake.len())];
        let Some((keys, target)) = sample_corr_query(t) else {
            continue;
        };
        let s = Seeker::c(keys, target);
        if s.validate().is_err() {
            continue;
        }
        if let Some((f, t)) = measure(blend, &s) {
            c_rows.push(f.row());
            c_y.push(t);
        }
    }
    set.c = ols(&c_rows, &c_y, 1e-6).map(to_model);

    set
}

fn to_model(w: Vec<f64>) -> LinearModel {
    LinearModel {
        weights: [w[0], w[1], w[2], w[3]],
    }
}

fn measure(blend: &Blend, seeker: &Seeker) -> Option<(SeekerFeatures, f64)> {
    let f = features(blend, seeker);
    let start = Instant::now();
    seekers::run(blend, seeker, 10, None, &blend_parallel::Interrupt::never()).ok()?;
    Some((f, start.elapsed().as_secs_f64() * 1e6))
}

/// Extract an aligned (categorical keys, numeric target) pair from a table.
fn sample_corr_query(t: &blend_common::Table) -> Option<(Vec<String>, Vec<f64>)> {
    use blend_common::ColumnType;
    let cat = t
        .columns
        .iter()
        .position(|c| c.column_type() == ColumnType::Categorical)?;
    let num = t
        .columns
        .iter()
        .position(|c| c.column_type() == ColumnType::Numeric)?;
    let mut keys = Vec::new();
    let mut target = Vec::new();
    for r in 0..t.n_rows() {
        if let (Some(k), Some(v)) = (t.cell(r, cat).normalized(), t.cell(r, num).as_f64()) {
            keys.push(k.into_owned());
            target.push(v);
        }
    }
    if keys.len() >= 3 {
        Some((keys, target))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_storage::EngineKind;

    fn lake() -> DataLake {
        blend_lake::web::generate(&blend_lake::WebLakeConfig {
            name: "cm".into(),
            n_tables: 40,
            rows: (8, 20),
            cols: (3, 5),
            vocab: 300,
            zipf_s: 1.0,
            numeric_col_ratio: 0.4,
            null_ratio: 0.0,
            seed: 4,
        })
    }

    #[test]
    fn features_reflect_query_shape() {
        let lake = lake();
        let blend = Blend::from_lake(&lake, EngineKind::Column);
        let f = features(&blend, &Seeker::sc(vec!["v0".into(), "v1".into()]));
        assert_eq!(f.cardinality, 2.0);
        assert_eq!(f.n_cols, 1.0);
        assert!(f.avg_freq > 0.0, "zipf head values occur");
        let fm = features(&blend, &Seeker::mc(vec![vec!["v0".into(), "v1".into()]]));
        assert_eq!(fm.n_cols, 2.0);
    }

    #[test]
    fn unknown_values_have_zero_frequency() {
        let lake = lake();
        let blend = Blend::from_lake(&lake, EngineKind::Column);
        let f = features(&blend, &Seeker::sc(vec!["never-in-lake".into()]));
        assert_eq!(f.avg_freq, 0.0);
    }

    #[test]
    fn model_prediction_is_linear() {
        let m = LinearModel {
            weights: [10.0, 2.0, 0.0, 1.0],
        };
        let f = SeekerFeatures {
            cardinality: 5.0,
            n_cols: 1.0,
            avg_freq: 3.0,
        };
        assert_eq!(m.predict(&f), 10.0 + 10.0 + 3.0);
        // Clamped at zero.
        let neg = LinearModel {
            weights: [-100.0, 0.0, 0.0, 0.0],
        };
        assert_eq!(neg.predict(&f), 0.0);
    }

    #[test]
    fn training_produces_usable_models() {
        let lake = lake();
        let blend = Blend::from_lake(&lake, EngineKind::Column);
        let set = train(&blend, &lake, 8, 1);
        // SC/KW/MC must train on this lake; C depends on numeric columns
        // (present at ratio 0.4, so it should too).
        assert!(set.sc.is_some());
        assert!(set.kw.is_some());
        assert!(set.mc.is_some());
        // Predictions are finite and non-negative.
        if let Some(m) = &set.sc {
            let f = features(&blend, &Seeker::sc(vec!["v0".into()]));
            let p = m.predict(&f);
            assert!(p.is_finite() && p >= 0.0);
        }
    }

    #[test]
    fn heuristic_orders_by_frequency_when_untrained() {
        let lake = lake();
        let blend = Blend::from_lake(&lake, EngineKind::Column);
        let models = CostModelSet::default();
        let rare = estimate(&blend, &Seeker::sc(vec!["v299".into()]), &models);
        let frequent = estimate(
            &blend,
            &Seeker::sc(vec!["v0".into(), "v1".into(), "v2".into()]),
            &models,
        );
        assert!(frequent > rare);
    }
}
