//! Experiment harness for the BLEND reproduction.
//!
//! One module (and one binary) per table/figure of the paper's evaluation
//! section, plus `repro_all`, which runs them all. Every experiment accepts
//! a scale factor from the `BLEND_SCALE` environment variable so the same
//! harness runs as a quick smoke test or a longer, more faithful sweep.
//! Performance claims about the engine itself come from the repository's
//! benchmark (`benchmark/`, `BENCHMARK.json`), not from this crate.

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

pub use harness::{scale_from_env, Timer};
