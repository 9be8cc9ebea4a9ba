//! # eclipse-bench
//!
//! The paper's evaluation (Figs. 5–10) plus ablations of the design
//! choices, on the simulator. Each figure is a pure function from a
//! `scale` factor (data-volume multiplier; 1.0 = the paper's sizes) to
//! the figure's series, consumed by the `figures` binary and by the
//! shape tests beside it. [`dst_bench`] drives seed sweeps of the live
//! executor's DST harness for the `dst_bench` binary.
//!
//! Live-system performance is measured by the stand-alone `benchmark/`
//! package at the repository root, not here.

pub mod ablations;
pub mod dst_bench;
pub mod fig10;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
