//! Seeded property tests for the online scheduler: each property runs
//! `CASES` cases, case `c` drawing from `SplitMix64::new(c)`.

use numa_par::rng::SplitMix64;
use numa_sched::policy::{LocalOnly, ModelDrivenMigrating, SpreadAll};
use numa_sched::{trace, ClassRanked, Scheduler};
use numio_core::SimPlatform;

const CASES: u64 = 16;

#[test]
fn every_trace_drains_under_every_policy() {
    let platform = SimPlatform::dl585();
    let scheduler = Scheduler::new(&platform);
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let n = 1 + rng.below(9) as usize;
        let gap = rng.range_f64(0.3, 3.0);
        let tasks = trace::poisson(n, gap, trace::MixProfile::Uniform, rng.next_u64());
        for report in [
            scheduler.run(tasks.clone(), LocalOnly::new()).unwrap(),
            scheduler.run(tasks.clone(), SpreadAll::new()).unwrap(),
            scheduler
                .run(tasks.clone(), ClassRanked::model_driven(&platform).unwrap())
                .unwrap(),
        ] {
            assert_eq!(report.outcomes.len(), n, "case {case}: {}", report.policy);
            // Conservation: total volume equals the trace volume.
            let vol: f64 = report.outcomes.iter().map(|o| o.volume_gbit).sum();
            assert!(
                (vol - report.total_gbit).abs() < 1e-6,
                "case {case}: {}",
                report.policy
            );
            // Causality: nothing finishes before it arrives; makespan is
            // the last finish.
            let mut last = 0.0f64;
            for o in &report.outcomes {
                assert!(o.finish_s > o.arrival_s, "case {case}: {}", report.policy);
                last = last.max(o.finish_s);
            }
            assert!(
                (last - report.makespan_s).abs() < 1e-9,
                "case {case}: {}",
                report.policy
            );
        }
    }
}

#[test]
fn latency_never_beats_the_device_physics() {
    // No task can finish faster than its volume over the best device
    // port rate in the system (SSD read aggregate, 34.7 Gbps).
    let platform = SimPlatform::dl585();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let n = 1 + rng.below(5) as usize;
        let tasks = trace::burst(n, trace::MixProfile::Uniform, rng.next_u64());
        let report = Scheduler::new(&platform)
            .run(tasks.clone(), ClassRanked::model_driven(&platform).unwrap())
            .unwrap();
        for (o, task) in report.outcomes.iter().zip(&tasks) {
            let floor = task.volume_gbytes * 8.0 / 34.7;
            assert!(
                o.latency_s() >= floor - 1e-6,
                "case {case}: task {:?} finished impossibly fast: {} < {floor}",
                o.id,
                o.latency_s()
            );
        }
    }
}

#[test]
fn migration_counts_are_consistent() {
    let platform = SimPlatform::dl585();
    for case in 0..CASES {
        let seed = SplitMix64::new(case).next_u64();
        let tasks = trace::poisson(8, 0.6, trace::MixProfile::Ingest, seed);
        let inner = ClassRanked::model_driven(&platform).unwrap();
        let policy = ModelDrivenMigrating::new(inner, 1.0, 2);
        let report = Scheduler::new(&platform).run(tasks, policy).unwrap();
        let per_task: u32 = report.outcomes.iter().map(|o| o.migrations).sum();
        assert_eq!(per_task, report.migrations, "case {case}");
    }
}

#[test]
fn burst_makespan_dominates_serial_floor() {
    // Running n tasks concurrently can never finish before the largest
    // single task's solo floor.
    let platform = SimPlatform::dl585();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let n = 2 + rng.below(6) as usize;
        let tasks = trace::burst(n, trace::MixProfile::Serve, rng.next_u64());
        let report = Scheduler::new(&platform)
            .run(tasks.clone(), SpreadAll::new())
            .unwrap();
        let biggest = tasks
            .iter()
            .map(|t| t.volume_gbytes * 8.0 / 34.7)
            .fold(0.0f64, f64::max);
        assert!(
            report.makespan_s >= biggest - 1e-6,
            "case {case}: {} < {biggest}",
            report.makespan_s
        );
    }
}
