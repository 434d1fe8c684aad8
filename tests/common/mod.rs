//! The seeker corpus `exec_parity` and `config_matrix` share: a small web
//! lake, the four seeker shapes over values drawn from it, and the
//! injected-fragment variants the optimizer's rewriter produces.

use blend::plan::Seeker;
use blend::seekers::{Injected, TID_PLACEHOLDER};
use blend_lake::web::{generate, WebLakeConfig};
use blend_lake::DataLake;

pub fn lake() -> DataLake {
    generate(&WebLakeConfig {
        name: "exec-parity".into(),
        n_tables: 60,
        rows: (10, 30),
        cols: (2, 5),
        vocab: 400,
        zipf_s: 1.0,
        numeric_col_ratio: 0.3,
        null_ratio: 0.02,
        seed: 20_260_731,
    })
}

/// Values drawn from the lake so every shape produces non-trivial results.
fn sample_values(lake: &DataLake, n: usize) -> Vec<String> {
    lake.tables
        .iter()
        .flat_map(|t| t.columns.iter())
        .flat_map(|c| c.values.iter())
        .filter_map(|v| v.normalized().map(|c| c.into_owned()))
        .filter(|v| v.parse::<f64>().is_err()) // text keys join more tables
        .take(n)
        .collect()
}

pub fn seeker_suite(lake: &DataLake) -> Vec<(&'static str, Seeker)> {
    let vals = sample_values(lake, 10);
    assert!(vals.len() >= 10, "lake must supply sample values");
    vec![
        ("sc", Seeker::sc(vals[..6].to_vec())),
        ("kw", Seeker::kw(vals[..6].to_vec())),
        (
            "mc",
            Seeker::mc(vec![
                vec![vals[0].clone(), vals[1].clone()],
                vec![vals[2].clone(), vals[3].clone()],
            ]),
        ),
        (
            "c",
            Seeker::c(vals[4..10].to_vec(), vec![3.0, 17.0, 5.0, 29.0, 11.0, 23.0]),
        ),
    ]
}

/// The injected-fragment variants the optimizer's rewriter produces.
pub fn fragments() -> Vec<(&'static str, Option<Injected>)> {
    vec![
        ("plain", None),
        ("in", Some(Injected::In(vec![1, 3, 5, 7, 11, 13]))),
        ("not-in", Some(Injected::NotIn(vec![2, 4]))),
        ("in-empty", Some(Injected::In(vec![]))),
    ]
}

pub fn render(template: &str, injected: &Option<Injected>) -> String {
    template.replace(
        TID_PLACEHOLDER,
        &injected.as_ref().map_or(String::new(), Injected::fragment),
    )
}
