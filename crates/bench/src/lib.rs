//! Experiment harness for the BLEND reproduction.
//!
//! One module per table/figure of the paper's evaluation section, run by
//! the one binary `repro_all [--scale S] [SECTION…]`: every section, or
//! only the named ones (`table2` … `table8`, `fig5` … `fig7`), each at its
//! default scale or at `S`, so the same harness runs as a quick smoke test
//! or a longer, more faithful sweep. Performance claims about the engine
//! itself come from the repository's benchmark (`benchmark/`,
//! `BENCHMARK.json`), not from this crate.

#![forbid(unsafe_code)]

pub mod federated;
pub mod harness;
pub mod loc;

pub mod experiments {
    //! One submodule per paper table/figure.
    pub mod fig5;
    pub mod fig6;
    pub mod fig7;
    pub mod table2;
    pub mod table3;
    pub mod table4;
    pub mod table5;
    pub mod table6;
    pub mod table7;
    pub mod table8;
}

pub use harness::{parse_args, Section, Timer, SECTIONS};
