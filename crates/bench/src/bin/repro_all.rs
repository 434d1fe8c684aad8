//! Run every experiment in sequence — the one-shot reproduction driver.
//! Each section is also available as its own binary (table2..table8,
//! fig5..fig7). Scale via BLEND_SCALE.
fn main() {
    use blend_bench::experiments as e;
    let s = |d| blend_bench::scale_from_env(d);
    let sections: Vec<(&str, String)> = vec![
        ("Table II", e::table2::run(s(0.1))),
        ("Table III", e::table3::run(s(0.1))),
        ("Table IV", e::table4::run(s(0.08), 25)),
        ("Table V", e::table5::run(s(0.05), 40)),
        ("Table VI", e::table6::run(s(0.25))),
        ("Table VII", e::table7::run(s(0.3))),
        ("Table VIII", e::table8::run(s(0.08))),
        ("Fig. 5", e::fig5::run(s(0.15), 4)),
        ("Fig. 6", e::fig6::run(s(0.3))),
        ("Fig. 7", e::fig7::run(s(0.15))),
    ];
    for (name, body) in sections {
        println!("==================== {name} ====================\n");
        println!("{body}\n");
    }
}
