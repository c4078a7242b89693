//! The paper's two future-work schedulers combined: locality-aware dispatch
//! *plus* guided (shrinking) query blocks — the configuration the paper's
//! conclusion sketches ("improving the DB locality will in turn allow us to
//! improve the load balancing by using smaller query blocks").
//!
//! The point to demonstrate: fine-grained blocks alone pay a reload penalty,
//! locality alone leaves tail idling, but together they dominate the
//! paper's measured configuration at every core count.

use bench::{header, minutes, percent, row, PAPER_CORES};
use bioseq::faindex::guided_blocks;
use perfmodel::blastsim::sample_skews;
use perfmodel::des::{simulate_master_worker, Conditions, Task};
use perfmodel::{BlastScenario, ClusterModel};

fn tasks_for_schedule(
    ranges: &[(usize, usize)],
    n_partitions: usize,
    per_query_s: f64,
    sigma: f64,
    seed: u64,
) -> Vec<Task> {
    let skews = sample_skews(seed, ranges.len() * n_partitions, sigma);
    let mut tasks = Vec::with_capacity(skews.len());
    for (b, &(s, e)) in ranges.iter().enumerate() {
        for part in 0..n_partitions {
            let mean = per_query_s * (e - s) as f64;
            tasks.push(Task { part, cost_s: mean * skews[b * n_partitions + part] });
        }
    }
    tasks
}

fn main() {
    let cluster = ClusterModel::ranger();
    let base = BlastScenario::paper_nucleotide(80_000, 1000);
    let costs = base.costs;
    let (clean, affinity) =
        (Conditions::default(), Conditions { affinity: true, ..Default::default() });

    header(
        "Future work combined: paper config vs locality vs guided vs both (80K queries)",
        &["cores", "paper_min", "locality_min", "guided_min", "both_min", "both_vs_paper"],
    );
    for &cores in &PAPER_CORES {
        let paper = base.simulate(&cluster, cores).makespan_s;
        let fixed_tasks = base.tasks();
        let locality =
            simulate_master_worker(&cluster, cores, &fixed_tasks, base.partition_gb, &affinity)
                .makespan_s
                + base.collate_cost(&cluster, cores);

        let workers = cores - 1;
        // With locality the fine tail is affordable: 500-query base blocks.
        let ranges = guided_blocks(80_000, 500, 50, workers);
        let guided_tasks = tasks_for_schedule(
            &ranges,
            base.n_partitions,
            costs.per_query_s,
            costs.sigma_log,
            costs.seed,
        );
        let guided =
            simulate_master_worker(&cluster, cores, &guided_tasks, base.partition_gb, &clean)
                .makespan_s
                + base.collate_cost(&cluster, cores);
        let both = simulate_master_worker(
            &cluster,
            cores,
            &guided_tasks,
            base.partition_gb,
            &affinity,
        )
        .makespan_s
            + base.collate_cost(&cluster, cores);

        row(&[
            cores.to_string(),
            minutes(paper),
            minutes(locality),
            minutes(guided),
            minutes(both),
            percent(paper / both - 1.0),
        ]);
    }
    println!();
    println!(
        "expectation: 'both' wins at every core count — locality pays for the finer \
         blocks that guided scheduling needs to fill the tail, exactly the synergy the \
         paper's conclusion predicts."
    );
}
