//! # ht-experiments — the reproduction harness
//!
//! One module per table/figure of the paper's evaluation (§IV–§V). Each
//! experiment renders (or loads from the on-disk cache) the simulated
//! dataset it needs, trains the models with the paper's protocol, and
//! returns a [`report::ExperimentResult`] with paper-vs-measured rows.
//!
//! Run everything through the `headtalk-repro` binary:
//!
//! ```text
//! headtalk-repro all            # every experiment, full sample counts
//! headtalk-repro table3 fig10   # selected experiments
//! headtalk-repro --list
//! HT_SCALE=4 headtalk-repro all # keep every 4th sample (quick pass)
//! ```

pub mod cache;
pub mod context;
pub mod exp;
pub mod obs;
pub mod report;

pub use context::Context;
pub use report::{ExperimentResult, Row};

/// An experiment's entry point.
pub type Run = fn(&Context) -> Result<ExperimentResult, String>;

/// Every experiment, by id, in presentation order.
pub const EXPERIMENTS: &[(&str, Run)] = &[
    ("fig3", exp::fig3::run),
    ("fig5", exp::fig5::run),
    ("fig6", exp::fig6::run),
    ("table2", exp::table2::run),
    ("liveness", exp::liveness::run),
    ("models", exp::models::run),
    ("table3", exp::table3::run),
    ("fig10", exp::fig10::run),
    ("fig11", exp::fig11::run),
    ("distance", exp::distance::run),
    ("fig12", exp::fig12::run),
    ("fig13", exp::fig13::run),
    ("fig14", exp::fig14::run),
    ("table4", exp::table4::run),
    ("placement", exp::placement::run),
    ("crossenv", exp::crossenv::run),
    ("fig15", exp::fig15::run),
    ("ambient", exp::ambient::run),
    ("sitting", exp::sitting::run),
    ("loudness", exp::loudness::run),
    ("objects", exp::objects::run),
    ("fig16", exp::fig16::run),
    ("ablation", exp::ablation::run),
    ("runtime", exp::runtime::run),
    ("table5", exp::table5::run),
];

/// Runs one experiment by id.
///
/// # Errors
///
/// Returns an error string for unknown ids or failed runs.
pub fn run_experiment(id: &str, ctx: &Context) -> Result<ExperimentResult, String> {
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .ok_or_else(|| format!("unknown experiment `{id}`"))?;
    run(ctx).map_err(|e| format!("experiment `{id}` failed: {e}"))
}
