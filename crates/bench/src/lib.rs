#![warn(missing_docs)]
//! # numa-bench
//!
//! Experiment regeneration harness: one seeded module per table and
//! figure of the paper's evaluation, each printing the same rows or
//! series the paper reports, side by side with the published values where
//! the paper gives them. One binary runs them:
//!
//! ```sh
//! cargo run -p numa-bench --bin make_all               # every experiment, writes results/
//! cargo run -p numa-bench --bin make_all -- fig5 table4 # only these ids
//! ```
//!
//! The ids are the first column of [`EXPERIMENTS`]. Timing the algorithms
//! themselves is the job of `numio-perf` in `perf/`.

pub mod experiments;

/// One regenerated experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Stable id matching DESIGN.md's index (e.g. `"fig10"`).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Rendered report.
    pub text: String,
    /// Machine-readable series/rows for downstream plotting, when the
    /// experiment carries numeric data worth exporting.
    pub data: Option<numa_par::json::Value>,
}

impl Experiment {
    /// Render with a banner.
    pub fn render(&self) -> String {
        format!(
            "================================================================\n\
             {} — {}\n\
             ================================================================\n\
             {}\n",
            self.id, self.title, self.text
        )
    }
}

/// Runs one experiment.
pub type Generator = fn() -> Experiment;

/// Every experiment as `(id, generator)`, in paper order. Each id equals
/// the [`Experiment::id`] its generator returns.
pub const EXPERIMENTS: [(&str, Generator); 18] = [
    ("table1", experiments::table1::run),
    ("fig1", experiments::fig1::run),
    ("fig2", experiments::fig2::run),
    ("fig3", experiments::fig3::run),
    ("fig4", experiments::fig4::run),
    ("fig5", experiments::fig5::run),
    ("fig6", experiments::fig6::run),
    ("fig7", experiments::fig7::run),
    ("fig10", experiments::fig10::run),
    ("table4", experiments::table4::run),
    ("table5", experiments::table5::run),
    ("eq1", experiments::eq1::run),
    ("sched", experiments::sched::run),
    ("cost", experiments::cost::run),
    ("ablations", experiments::ablations::run),
    ("baseline", experiments::baseline::run),
    ("netpath", experiments::netpath::run),
    ("latbench", experiments::latbench::run),
];

/// The experiments named by `ids` (every one when `ids` is empty), in
/// paper order, generated in parallel. Each experiment is seeded and
/// independent, so [`numa_par`] cuts wall time roughly by the core count
/// while every report byte stays identical to a serial loop. An id not in
/// [`EXPERIMENTS`] is an error that names it and lists the valid ids.
pub fn select(ids: &[&str]) -> Result<Vec<Experiment>, String> {
    if let Some(bad) = ids
        .iter()
        .find(|id| EXPERIMENTS.iter().all(|(e, _)| e != *id))
    {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        return Err(format!(
            "unknown experiment id `{bad}`; valid ids: {}",
            valid.join(" ")
        ));
    }
    let generators: Vec<Generator> = EXPERIMENTS
        .iter()
        .filter(|(id, _)| ids.is_empty() || ids.contains(id))
        .map(|&(_, run)| run)
        .collect();
    Ok(numa_par::parallel_map(&generators, |g| g()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_are_unique_and_ordered() {
        let exps = select(&[]).unwrap();
        assert_eq!(exps.len(), 18);
        let mut ids: Vec<&str> = exps.iter().map(|e| e.id).collect();
        let orig = ids.clone();
        let table: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        assert_eq!(orig, table, "each table id names the experiment it runs");
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), orig.len(), "duplicate ids");
        assert_eq!(orig[0], "table1");
    }

    #[test]
    fn select_runs_only_the_named_ids_in_paper_order() {
        let picked = select(&["table4", "fig5", "table4"]).unwrap();
        let ids: Vec<&str> = picked.iter().map(|e| e.id).collect();
        assert_eq!(ids, ["fig5", "table4"]);
        let err = select(&["fig5", "fig99"]).unwrap_err();
        assert!(err.contains("`fig99`"), "{err}");
        assert!(err.contains("table1 fig1 fig2"), "{err}");
    }

    #[test]
    fn data_exports_cover_the_key_figures() {
        let exps = select(&[]).unwrap();
        for id in ["fig3", "fig5", "fig10"] {
            let e = exps.iter().find(|e| e.id == id).unwrap();
            assert!(e.data.is_some(), "{id} should export data");
        }
        // fig3's matrix is 8x8.
        let fig3 = exps.iter().find(|e| e.id == "fig3").unwrap();
        let m = &fig3.data.as_ref().unwrap()["matrix"];
        assert_eq!(m.as_array().unwrap().len(), 8);
    }

    #[test]
    fn every_experiment_produces_output() {
        for e in select(&[]).unwrap() {
            assert!(!e.text.trim().is_empty(), "{} empty", e.id);
            assert!(e.render().contains(e.title));
        }
    }
}
