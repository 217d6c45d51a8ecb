//! End-to-end benchmark of the simulator and the commands built on it.
//! See `README.md` for the workloads, metrics and layers.

pub mod calib;
pub mod commands;
pub mod gen;
pub mod record;
pub mod replay;
pub mod report;
pub mod sims;
