//! A work gate on the plan search: the complete plans the searches pop
//! while labelling the benchmark suite. The counts are deterministic, so
//! the gate needs no timing. Every dominated prefix the search skipped
//! would be popped and scored without dominance pruning (15,598 complete
//! plans popped on these seeds), while the classes kept stay the same.

use clx::datagen::benchmark_suite;
use clx::synth::SynthesisCounts;
use clx::ClxSession;

/// The suite seeds the gate labels: 235 task instances.
const SEEDS: std::ops::Range<u64> = 7..12;

#[test]
fn labelling_the_suite_pops_at_most_half_the_plans_of_an_unpruned_search() {
    let mut total = SynthesisCounts::default();
    for seed in SEEDS {
        for task in benchmark_suite(seed) {
            let labelled = ClxSession::new(task.inputs.clone())
                .label(task.target.clone())
                .unwrap_or_else(|e| panic!("task {} seed {seed}: {}", task.name, e.error));
            let counts = labelled.synthesis().counts;
            total.plans_explored += counts.plans_explored;
            total.plans_dominated += counts.plans_dominated;
            total.plans_kept += counts.plans_kept;
            total.budget_exhausted += counts.budget_exhausted;
        }
    }
    assert!(total.plans_explored <= 7_500, "{total:?}");
    assert_eq!(total.plans_kept, 3_162, "{total:?}");
    assert_eq!(total.budget_exhausted, 0, "{total:?}");
    assert!(total.plans_dominated > 0, "{total:?}");
}
