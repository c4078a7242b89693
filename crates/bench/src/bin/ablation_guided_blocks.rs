//! Ablation 8: guided (shrinking) query blocks vs fixed-size blocks — the
//! payoff of the paper's dynamic block-sizing future work.
//!
//! "This can be also used to make progressively smaller query chunks toward
//! the end of each iteration and have a more uniform filling of the cores"
//! (§Conclusions). Fixed 1000-query blocks leave up to one work unit per
//! worker of tail idling; a guided schedule ends in small chunks that fill
//! the tail. Quantified with the DES on identical total work.

use bench::{header, minutes, percent, row};
use bioseq::faindex::guided_blocks;
use perfmodel::blastsim::sample_skews;
use perfmodel::des::{simulate_master_worker, Conditions, Task};
use perfmodel::{BlastScenario, ClusterModel};

/// Build the work-unit list for an arbitrary block schedule: costs scale
/// with block size and carry the same per-(block, partition) skew family.
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
    let clean = Conditions::default();
    let base = BlastScenario::paper_nucleotide(80_000, 1000);
    let costs = base.costs;

    header(
        "Ablation: fixed vs guided query blocks, 80K queries × 109 partitions",
        &["cores", "fixed_1000_min", "guided_min", "fixed_util", "guided_util", "speedup"],
    );
    for cores in [256usize, 512, 1024] {
        let fixed = base.simulate(&cluster, cores);

        let workers = cores - 1;
        let ranges = guided_blocks(80_000, 1000, 100, workers);
        let tasks =
            tasks_for_schedule(&ranges, base.n_partitions, costs.per_query_s, costs.sigma_log, costs.seed);
        let guided = simulate_master_worker(&cluster, cores, &tasks, base.partition_gb, &clean);

        row(&[
            cores.to_string(),
            minutes(fixed.makespan_s),
            minutes(guided.makespan_s),
            percent(fixed.mean_utilization()),
            percent(guided.mean_utilization()),
            format!("{:.2}x", fixed.makespan_s / guided.makespan_s),
        ]);
    }
    println!();
    println!(
        "expectation: guided schedules shave the straggler tail at high core counts \
         (the bigger the cores/work-units ratio, the bigger the win), at the price of \
         more work units and thus more partition reloads at small core counts."
    );
}
