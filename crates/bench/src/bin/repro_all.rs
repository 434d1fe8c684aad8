//! The paper reproduction, Table II through Fig. 7.
//!
//! `repro_all [--scale S] [SECTION…]` runs every section, or only the named
//! ones (`table2` … `table8`, `fig5` … `fig7`), each at its default scale or
//! at `S`.
use std::process::ExitCode;

fn main() -> ExitCode {
    let sections = match blend_bench::parse_args(std::env::args().skip(1)) {
        Ok(sections) => sections,
        Err(e) => {
            eprintln!("repro_all: {e}\nusage: repro_all [--scale S] [SECTION...]");
            return ExitCode::from(2);
        }
    };
    for ((_, title, _, run), scale) in sections {
        println!("==================== {title} ====================\n");
        println!("{}\n", run(scale));
    }
    ExitCode::SUCCESS
}
