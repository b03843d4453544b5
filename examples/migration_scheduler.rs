//! The paper's future-work scheduler, end to end: replay a seeded arrival
//! trace of I/O tasks under four policies and compare task latency,
//! makespan and throughput.
//!
//! ```sh
//! cargo run --release --example migration_scheduler
//! ```

use numio::prelude::*;
use numio::sched::policy::{HopGreedy, LocalOnly, ModelDrivenMigrating, SpreadAll};
use numio::sched::{metrics, trace};

fn main() {
    let platform = SimPlatform::dl585();
    let scheduler = Scheduler::new(&platform);
    let model_driven = ClassRanked::model_driven(&platform).expect("DL585 characterizes");

    for (label, tasks) in [
        (
            "steady Poisson arrivals (ingest mix)",
            trace::poisson(16, 1.2, trace::MixProfile::Ingest, 2013),
        ),
        (
            "synchronized burst (ingest mix)",
            trace::burst(12, trace::MixProfile::Ingest, 7),
        ),
        (
            "steady Poisson arrivals (serve mix)",
            trace::poisson(16, 1.2, trace::MixProfile::Serve, 99),
        ),
    ] {
        println!("== {label} ({} tasks) ==", tasks.len());
        let reports = vec![
            scheduler
                .run(tasks.clone(), LocalOnly::new())
                .expect("episode"),
            scheduler
                .run(tasks.clone(), HopGreedy::new())
                .expect("episode"),
            scheduler
                .run(tasks.clone(), SpreadAll::new())
                .expect("episode"),
            scheduler
                .run(tasks.clone(), model_driven.clone())
                .expect("episode"),
            scheduler
                .run(
                    tasks.clone(),
                    ModelDrivenMigrating::new(model_driven.clone(), 2.0, 3),
                )
                .expect("episode"),
        ];
        print!("{}", metrics::render_comparison(&reports));
        println!();
    }

    println!(
        "reading the results: under light load, locality is fine — binding\n\
         locally costs nothing (the paper's §I-A: 'maximizing data locality\n\
         does not always minimize the execution time' cuts both ways). Under\n\
         contention (bursts, serve mix) model-driven placement wins: it\n\
         avoids the local-only pileup on node 7 (§V-B) *and* hop-greedy's\n\
         spills onto the starved one-hop nodes {{2,3}} (§IV's broken metric).\n\
         The migrating variant drains imbalances left when early tasks end,\n\
         at an explicit migration cost — the locality/contention tradeoff\n\
         the paper names as future work."
    );
}
