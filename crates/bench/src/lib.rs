//! # dsv-bench — experiment harness
//!
//! One bench target per evaluation claim of the paper, plus the `e16`
//! engine-throughput gate (see `EXPERIMENTS.md` for the index and
//! recorded results). Each target is a plain `harness = false` binary
//! that prints an aligned table, so `cargo bench --workspace`
//! regenerates every "table/figure" of the reproduction; the systems
//! gates (`e16`, `e17`, `e18_fleet`, `e19_checkpoint`) also emit machine-readable
//! `BENCH_*.json` artifacts validated — gates re-enforced — by the
//! `bench_schema` bin ([`json`]). Two additional criterion targets
//! (`micro_sketch`, `micro_tracker`) measure hot-path throughput.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod stats;
pub mod table;

pub use json::{validate_bench_doc, Json, JsonError};
pub use stats::Summary;
pub use table::Table;

/// Print the standard experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("\n==========================================================================");
    println!("{id}");
    println!("claim: {claim}");
    println!("==========================================================================");
}

#[cfg(test)]
mod tests {
    #[test]
    fn banner_does_not_panic() {
        super::banner("E0", "smoke");
    }
}
