//! Inputs: the unified lake, the seeker and task operations, the SQL
//! templates of the served workloads and their re-spelled requests.
//!
//! The data set (lake, query pool, which template is how popular) comes from
//! [`DATASET_SEED`] and is the same in every run; `--seed` decides the
//! traffic: the order of a pass, the Zipf draws, every request's spelling.
//! The program under test receives only what is generated here.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use blend::{tasks, Plan, Seeker};
use blend_common::zipf::Zipf;
use blend_common::Table;
use blend_lake::{
    corr_bench, union_bench, web, workloads, CorrBenchConfig, CorrQuery, DataLake,
    UnionBenchConfig, WebLakeConfig,
};

use crate::stats::derive_seed;

/// Seed of the data set. Queries are drawn straight from
/// `blend_lake::workloads`, whose costs follow the Zipf skew of the lake's
/// values (an MC query is 2 ms at the median and 0.2 s at worst). Were the
/// few hundred queries a run can afford drawn afresh for every `--seed`, the
/// seed would decide every metric; with one data set the spread between
/// seeds is the machine's, and a bound can be tight enough to catch a
/// regression.
pub const DATASET_SEED: u64 = 1;

/// `gittables_like` scale of the web part at lake scale 1: with the union
/// and correlation parts `AllTables` then holds about 1.1 M rows.
pub const WEB_SCALE: f64 = 3.0;

/// Results wanted per seeker and per plan.
pub const K: usize = 10;
/// Per-column k of the union-search sub-plans (as `examples/union_search.rs`).
pub const PER_COLUMN_K: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekerClass {
    Sc10,
    Sc100,
    Sc1000,
    Kw,
    Mc,
    C,
}

impl SeekerClass {
    /// The seeker mix: equal shares of the six classes.
    pub const ALL: [SeekerClass; 6] = [
        SeekerClass::Sc10,
        SeekerClass::Sc100,
        SeekerClass::Sc1000,
        SeekerClass::Kw,
        SeekerClass::Mc,
        SeekerClass::C,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SeekerClass::Sc10 => "sc10",
            SeekerClass::Sc100 => "sc100",
            SeekerClass::Sc1000 => "sc1000",
            SeekerClass::Kw => "kw",
            SeekerClass::Mc => "mc",
            SeekerClass::C => "c",
        }
    }
}

#[derive(Debug, Clone)]
pub struct SeekerOp {
    pub class: SeekerClass,
    pub seeker: Seeker,
}

impl SeekerOp {
    pub fn plan(&self) -> Plan {
        let mut p = Plan::new();
        p.add_seeker("s", self.seeker.clone(), K)
            .expect("generated seekers are valid");
        p
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    UnionSearch,
    Imputation,
    NegativeExamples,
    FeatureDiscovery,
    MultiObjective,
}

impl Task {
    pub const ALL: [Task; 5] = [
        Task::UnionSearch,
        Task::Imputation,
        Task::NegativeExamples,
        Task::FeatureDiscovery,
        Task::MultiObjective,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Task::UnionSearch => "union_search",
            Task::Imputation => "imputation",
            Task::NegativeExamples => "negative_examples",
            Task::FeatureDiscovery => "feature_discovery",
            Task::MultiObjective => "multi_objective",
        }
    }
}

#[derive(Debug, Clone)]
pub struct TaskOp {
    pub task: Task,
    pub plan: Plan,
}

/// The unified lake plus what the generators know about it.
pub struct Inputs {
    /// Seed of every generator below ([`DATASET_SEED`] outside the tests).
    pub seed: u64,
    pub scale: f64,
    pub lake: DataLake,
    /// Union-bench query tables and, per query, its cluster mates, as ids
    /// of `lake`.
    pub union_queries: Vec<(usize, Vec<usize>)>,
    pub corr_queries: Vec<CorrQuery>,
}

impl Inputs {
    /// `web` + `union_bench` + `corr_bench` tables in one lake, every
    /// generator seeded from `seed`.
    /// `planted` is the number of correlation queries (each brings 18
    /// joinable tables) and, at least, of union clusters (11 tables each).
    pub fn generate(seed: u64, scale: f64, planted: usize) -> Inputs {
        let web = web::generate(&WebLakeConfig {
            seed: derive_seed(seed, 1),
            ..WebLakeConfig::gittables_like(WEB_SCALE * scale)
        });
        let union_cfg = UnionBenchConfig::santos_like(scale);
        let union = union_bench::generate(&UnionBenchConfig {
            seed: derive_seed(seed, 2),
            n_clusters: union_cfg.n_clusters.max(planted),
            ..union_cfg
        });
        let corr = corr_bench::generate(&CorrBenchConfig {
            seed: derive_seed(seed, 3),
            n_queries: planted,
            ..CorrBenchConfig::nyc_cat_like(scale)
        });
        let union_base = web.len();
        let mut union_queries: Vec<(usize, Vec<usize>)> = union
            .queries
            .iter()
            .map(|q| {
                let mut mates: Vec<usize> = union.ground_truth[q]
                    .iter()
                    .map(|t| union_base + t.0 as usize)
                    .collect();
                mates.sort_unstable(); // the ground truth is a hash set
                (union_base + q.0 as usize, mates)
            })
            .collect();
        union_queries.sort_unstable();
        let mut tables = web.tables;
        tables.extend(union.lake.tables);
        tables.extend(corr.lake.tables);
        Inputs {
            seed,
            scale,
            lake: DataLake::new("unified", tables),
            union_queries,
            corr_queries: corr.queries,
        }
    }

    /// `per_class` operations of each seeker class, class-major, drawn
    /// straight from `blend_lake::workloads` (C: the planted correlation
    /// queries). A smaller `per_class` gives a prefix of a larger one's
    /// classes, so the served templates are `seekers_direct` operations.
    pub fn seeker_ops(&self, per_class: usize) -> Vec<SeekerOp> {
        let mut ops = Vec::with_capacity(per_class * SeekerClass::ALL.len());
        for class in SeekerClass::ALL {
            let seed = derive_seed(self.seed, 16 + class as u64);
            let sc = |size: usize| -> Vec<Seeker> {
                workloads::sc_queries(&self.lake, &[size], per_class, seed)
                    .pop()
                    .map_or_else(Vec::new, |(_, qs)| qs)
                    .into_iter()
                    .map(Seeker::sc)
                    .collect()
            };
            let seekers: Vec<Seeker> = match class {
                SeekerClass::Sc10 => sc(10),
                SeekerClass::Sc100 => sc(100),
                SeekerClass::Sc1000 => sc(1000),
                SeekerClass::Kw => workloads::kw_queries(&self.lake, per_class, 5, seed)
                    .into_iter()
                    .map(Seeker::kw)
                    .collect(),
                SeekerClass::Mc => workloads::mc_queries(&self.lake, per_class, 2, 10, seed)
                    .into_iter()
                    .map(|q| Seeker::mc(q.rows))
                    .collect(),
                SeekerClass::C => self
                    .corr_queries
                    .iter()
                    .take(per_class)
                    .map(|q| Seeker::c(q.keys.clone(), q.target.clone()))
                    .collect(),
            };
            assert_eq!(
                seekers.len(),
                per_class,
                "lake too small for {} ops",
                class.label()
            );
            ops.extend(seekers.into_iter().map(|seeker| SeekerOp { class, seeker }));
        }
        ops
    }

    /// `per_task` plans of each of the five `blend::tasks`, task-major,
    /// with inputs built as `blend_bench::experiments::table3` builds them.
    pub fn task_ops(&self, per_task: usize) -> Vec<TaskOp> {
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, 8));
        let lake = &self.lake;
        let norm_col = |t: &Table, c: usize| -> Vec<String> {
            t.columns[c]
                .values
                .iter()
                .filter_map(|v| v.normalized().map(|n| n.into_owned()))
                .collect()
        };
        let pair_rows = |t: &Table, max_rows: usize| -> Vec<Vec<String>> {
            (0..t.n_rows().min(max_rows))
                .map(|r| {
                    t.row(r)
                        .take(2)
                        .filter_map(|v| v.normalized().map(|n| n.into_owned()))
                        .collect::<Vec<String>>()
                })
                .filter(|r| r.len() == 2)
                .collect()
        };
        let imputations =
            workloads::imputation_workload(lake, per_task, 5, derive_seed(self.seed, 9));
        assert_eq!(imputations.len(), per_task, "lake too small for imputation");
        let mut ops = Vec::new();
        for task in Task::ALL {
            for (i, imputation) in imputations.iter().enumerate() {
                let (qid, mates) = &self.union_queries[i % self.union_queries.len()];
                let qt = &lake.tables[*qid];
                let corr = &self.corr_queries[i % self.corr_queries.len()];
                let plan = match task {
                    Task::UnionSearch => tasks::union_search(qt, K, PER_COLUMN_K),
                    Task::Imputation => {
                        tasks::imputation(&imputation.examples, &imputation.queries, K)
                    }
                    Task::NegativeExamples => {
                        let positives = pair_rows(qt, 4);
                        let mut negatives = Vec::new();
                        for _ in 0..3 {
                            let mate = mates[rng.random_range(0..mates.len())];
                            negatives.extend(pair_rows(&lake.tables[mate], 20));
                        }
                        tasks::negative_examples(&positives, &negatives, K)
                    }
                    Task::FeatureDiscovery => {
                        let f1: Vec<f64> = corr.target.iter().map(|t| t * 0.9 + 0.1).collect();
                        let f2: Vec<f64> =
                            corr.target.iter().map(|_| rng.random::<f64>()).collect();
                        tasks::feature_discovery(&corr.keys, &corr.target, &[f1, f2], K)
                    }
                    Task::MultiObjective => {
                        let keys = norm_col(qt, 0);
                        let keywords: Vec<String> = keys.iter().take(5).cloned().collect();
                        let target: Vec<f64> = (0..keys.len()).map(|i| i as f64).collect();
                        tasks::multi_objective(&keywords, qt, &keys, &target, K, PER_COLUMN_K)
                    }
                };
                ops.push(TaskOp {
                    task,
                    plan: plan.expect("generated task inputs are valid"),
                });
            }
        }
        ops
    }

    /// What lake version B of `served_rebuild` holds in place of a seeded
    /// tenth of the web tables: (position in `lake.tables`, other table).
    /// Exchanging these with the tables at their positions turns version A
    /// into B and B back into A, so no second copy of the lake exists.
    pub fn replacements(&self) -> Vec<(usize, Table)> {
        let donor = web::generate(&WebLakeConfig {
            seed: derive_seed(self.seed, 4),
            ..WebLakeConfig::gittables_like(WEB_SCALE * self.scale)
        });
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, 5));
        let mut out = Vec::new();
        for ((slot, old), mut new) in self.lake.tables.iter().enumerate().zip(donor.tables) {
            if rng.random_bool(0.1) {
                new.id = old.id;
                out.push((slot, new));
            }
        }
        out
    }
}

/// Exchange the replaced tables with their other version (see
/// [`Inputs::replacements`]).
pub fn flip_version(tables: &mut [Table], spare: &mut [(usize, Table)]) {
    for (slot, other) in spare {
        std::mem::swap(&mut tables[*slot], other);
    }
}

/// Shuffle a seeker's inputs without changing what it asks for: the
/// rendered `IN` lists come out in another order.
pub fn shuffle_seeker(seeker: &Seeker, rng: &mut StdRng) -> Seeker {
    match seeker {
        Seeker::Sc { values } => {
            let mut v = values.clone();
            v.shuffle(rng);
            Seeker::sc(v)
        }
        Seeker::Kw { keywords } => {
            let mut v = keywords.clone();
            v.shuffle(rng);
            Seeker::kw(v)
        }
        Seeker::Mc { rows } => {
            let mut r = rows.clone();
            r.shuffle(rng);
            Seeker::mc(r)
        }
        Seeker::C { keys, target } => {
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.shuffle(rng);
            Seeker::c(
                order.iter().map(|&i| keys[i].clone()).collect(),
                order.iter().map(|&i| target[i]).collect(),
            )
        }
    }
}

/// Flip the case of letters outside string literals (keywords and
/// identifiers are case-insensitive to the parser; literals are data).
pub fn flip_case(sql: &str, rng: &mut StdRng) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut in_literal = false;
    for c in sql.chars() {
        if c == '\'' {
            in_literal = !in_literal;
        }
        if !in_literal && c.is_ascii_alphabetic() && rng.random_bool(0.5) {
            out.push(if c.is_ascii_lowercase() {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            });
        } else {
            out.push(c);
        }
    }
    out
}

/// The SQL a seeker sends to the engine when nothing is injected.
pub fn seeker_text(seeker: &Seeker, h: usize) -> String {
    blend::seekers::seeker_sql(seeker, K, h).replace(blend::seekers::TID_PLACEHOLDER, "")
}

/// One request's spelling of a template: same canonical fingerprint,
/// different text.
pub fn respell(seeker: &Seeker, h: usize, rng: &mut StdRng) -> String {
    flip_case(&seeker_text(&shuffle_seeker(seeker, rng), h), rng)
}

/// `n` template indexes drawn Zipf(s=1.0) over `templates` ranks.
pub fn zipf_draws(templates: usize, n: usize, seed: u64) -> Vec<usize> {
    let zipf = Zipf::new(templates, 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| zipf.sample(&mut rng)).collect()
}

/// A seeded permutation of `0..n`.
pub fn shuffled_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_draws_repeat_under_a_seed_and_differ_across_seeds() {
        let a = zipf_draws(256, 500, 11);
        assert_eq!(a, zipf_draws(256, 500, 11));
        assert_ne!(a, zipf_draws(256, 500, 12));
        assert!(a.iter().all(|&t| t < 256));
        // Skewed: the hottest rank is drawn far more often than rank 100.
        let count = |r: usize| a.iter().filter(|&&t| t == r).count();
        assert!(count(0) > 5 * count(100).max(1));
    }

    #[test]
    fn respelling_keeps_the_fingerprint_and_changes_the_text() {
        let seekers = [
            Seeker::sc((0..40).map(|i| format!("Value {i}")).collect()),
            Seeker::kw(vec!["alpha".into(), "it's".into(), "gamma".into()]),
            Seeker::mc(vec![
                vec!["a".into(), "b".into()],
                vec!["c".into(), "d".into()],
                vec!["e".into(), "f".into()],
            ]),
            Seeker::c(
                (0..12).map(|i| format!("k{i}")).collect(),
                (0..12).map(|i| (i * 7 % 5) as f64).collect(),
            ),
        ];
        let mut rng = StdRng::seed_from_u64(3);
        for s in &seekers {
            let base = seeker_text(s, 256);
            let spelled = respell(s, 256, &mut rng);
            assert_ne!(base, spelled);
            assert_eq!(
                blend_sql::fingerprint_sql(&base).unwrap(),
                blend_sql::fingerprint_sql(&spelled).unwrap(),
                "{base}\n{spelled}"
            );
        }
    }

    #[test]
    fn flip_case_leaves_literals_alone() {
        let mut rng = StdRng::seed_from_u64(1);
        let out = flip_case("SELECT x FROM t WHERE v IN ('Ab''c','dE')", &mut rng);
        assert!(out.contains("'Ab''c'") && out.contains("'dE'"));
        assert_eq!(
            out.to_lowercase(),
            "select x from t where v in ('ab''c','de')"
        );
    }

    #[test]
    fn inputs_repeat_under_a_seed() {
        let a = Inputs::generate(9, 0.03, 8);
        let b = Inputs::generate(9, 0.03, 8);
        assert_eq!(a.lake.stats(), b.lake.stats());
        let (oa, ob) = (a.seeker_ops(3), b.seeker_ops(3));
        assert_eq!(oa.len(), 18);
        for (x, y) in oa.iter().zip(&ob) {
            assert_eq!(x.seeker, y.seeker);
        }
        let c = Inputs::generate(10, 0.03, 8);
        assert!(oa
            .iter()
            .zip(&c.seeker_ops(3))
            .any(|(x, y)| x.seeker != y.seeker));
        assert_eq!(a.task_ops(2).len(), 10);
    }

    #[test]
    fn fewer_seekers_per_class_are_a_prefix_of_more() {
        let inputs = Inputs::generate(9, 0.03, 8);
        let (few, many) = (inputs.seeker_ops(2), inputs.seeker_ops(5));
        for class in SeekerClass::ALL {
            let of = |ops: &[SeekerOp]| -> Vec<Seeker> {
                ops.iter()
                    .filter(|o| o.class == class)
                    .map(|o| o.seeker.clone())
                    .collect()
            };
            assert_eq!(of(&few), of(&many)[..2], "{}", class.label());
        }
    }

    #[test]
    fn flipping_twice_restores_version_a() {
        let mut inputs = Inputs::generate(9, 0.03, 8);
        let before = inputs.lake.tables.clone();
        let mut spare = inputs.replacements();
        assert!(!spare.is_empty() && spare.len() < before.len() / 4);
        flip_version(&mut inputs.lake.tables, &mut spare);
        assert_ne!(inputs.lake.tables, before);
        assert!(inputs
            .lake
            .tables
            .iter()
            .zip(&before)
            .all(|(x, y)| x.id == y.id));
        flip_version(&mut inputs.lake.tables, &mut spare);
        assert_eq!(inputs.lake.tables, before);
    }
}
