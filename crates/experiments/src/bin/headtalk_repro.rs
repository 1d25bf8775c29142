//! `headtalk-repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! headtalk-repro all               # run everything
//! headtalk-repro table3 fig10     # run selected experiments
//! headtalk-repro --list            # list experiment ids
//! headtalk-repro warm              # render + cache all datasets only
//! HT_SCALE=4 headtalk-repro all    # keep every 4th sample (quick pass)
//! ```
//!
//! Results are printed as markdown and also written to
//! `target/ht_cache/results/<id>.json` so EXPERIMENTS.md and regression
//! tests share one artifact.

use ht_dsp::json::{FromJson, Json, ToJson};
use ht_experiments::{run_experiment, Context, EXPERIMENTS};

fn warm(ctx: &Context) {
    println!("warming feature caches (scale {})…", ctx.scale);
    let t0 = std::time::Instant::now();
    let d1 = ctx.dataset1();
    println!("  dataset1: {} records ({:?})", d1.len(), t0.elapsed());
    drop(d1);
    for (name, n) in [
        ("dataset3", ctx.dataset3().len()),
        ("dataset4", ctx.dataset4().len()),
        ("dataset5", ctx.dataset5().len()),
        ("dataset6", ctx.dataset6().len()),
        ("dataset7", ctx.dataset7().len()),
        ("dataset8", ctx.dataset8().0.len()),
        ("table3_extra", ctx.table3_extra().len()),
    ] {
        println!("  {name}: {n} records ({:?})", t0.elapsed());
    }
    for p in [
        ht_datagen::placements::Placement::LabB,
        ht_datagen::placements::Placement::LabC,
    ] {
        println!(
            "  placement {p:?}: {} records ({:?})",
            ctx.placement(p).len(),
            t0.elapsed()
        );
    }
    println!(
        "  table4: {} records per subset ({:?})",
        ctx.table4_subsets()[0].len(),
        t0.elapsed()
    );
    println!(
        "  liveness asvspoof: {} records ({:?})",
        ctx.liveness_asvspoof().len(),
        t0.elapsed()
    );
    println!(
        "  liveness own: {} records ({:?})",
        ctx.liveness_own().len(),
        t0.elapsed()
    );
    println!("cache warm in {:?}", t0.elapsed());
}

/// Assembles EXPERIMENTS.md from the per-experiment JSON results.
fn report(ctx: &Context) {
    let results_dir = ht_experiments::cache::cache_dir().join("results");
    let mut out = String::new();
    out.push_str("# EXPERIMENTS — paper vs. measured\n\n");
    out.push_str(
        "Generated by `headtalk-repro all` followed by `headtalk-repro report`.\n\
         Every experiment also *asserts* its expected qualitative shape — a run\n\
         that loses the paper's ordering/crossover exits non-zero, so the tables\n\
         below are machine-checked, not just eyeballed.\n\n\
         Absolute numbers come from the simulation substrate described in\n\
         [DESIGN.md](DESIGN.md); the paper's testbed was physical hardware, so\n\
         *shapes* (who wins, by roughly what factor, where crossovers fall) are\n\
         the comparison target, per-row paper values are quoted where the text\n\
         states them.\n\n",
    );
    out.push_str(&format!(
        "Scale: {} (1 = the paper's full sample counts).\n\n",
        ctx.scale
    ));
    let mut missing = Vec::new();
    for (id, _) in EXPERIMENTS {
        let path = results_dir.join(format!("{id}.json"));
        match std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| Json::parse(&s).ok())
            .and_then(|v| ht_experiments::ExperimentResult::from_json(&v).ok())
        {
            Some(result) => out.push_str(&result.to_markdown()),
            None => missing.push(*id),
        }
    }
    if !missing.is_empty() {
        out.push_str(&format!(
            "\n*Missing results (not yet run): {}*\n",
            missing.join(", ")
        ));
    }
    std::fs::write("EXPERIMENTS.md", &out).expect("write EXPERIMENTS.md");
    println!("wrote EXPERIMENTS.md ({} bytes)", out.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (id, _) in EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    let ctx = Context::from_env();
    if args.iter().any(|a| a == "warm") {
        warm(&ctx);
        return;
    }
    if args.iter().any(|a| a == "report") {
        report(&ctx);
        return;
    }

    let ids: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|(id, _)| *id).collect()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };

    let results_dir = ht_experiments::cache::cache_dir().join("results");

    let mut failures = Vec::new();
    for id in ids {
        let t0 = std::time::Instant::now();
        // Scope the observability registry to this experiment so the
        // emitted breakdown (HT_OBS=summary table / HT_OBS=json file)
        // attributes spans and counters to one experiment only.
        ht_experiments::obs::begin();
        match run_experiment(id, &ctx) {
            Ok(result) => {
                print!("{}", result.to_markdown());
                println!(
                    "_({id} completed in {:?}; scale {})_\n",
                    t0.elapsed(),
                    ctx.scale
                );
                // A result that cannot be written fails the run: `report`
                // would otherwise list the experiment as not yet run.
                let path = results_dir.join(format!("{id}.json"));
                if let Err(e) = std::fs::create_dir_all(&results_dir)
                    .and_then(|()| std::fs::write(&path, result.to_json().pretty()))
                {
                    let e = format!("could not write {}: {e}", path.display());
                    eprintln!("FAILED {id}: {e}\n");
                    failures.push((id.to_string(), e));
                }
            }
            Err(e) => {
                eprintln!("FAILED {id}: {e}\n");
                failures.push((id.to_string(), e));
            }
        }
        if let Some(path) = ht_experiments::obs::emit(id, &results_dir) {
            println!("_({id} stage timings → {})_\n", path.display());
        }
    }
    if !failures.is_empty() {
        eprintln!("{} experiment(s) failed:", failures.len());
        for (id, e) in &failures {
            eprintln!("  {id}: {e}");
        }
        std::process::exit(1);
    }
}
