//! Ablation 1 (DESIGN.md §5): master-worker vs static mapstyles.
//!
//! The paper's central scheduling argument: BLAST work units have "highly
//! non-uniform and unpredictable execution time", so rank 0 is spent on a
//! dedicated master "such that each worker is kept occupied as long as
//! there are remaining work units". This ablation quantifies what that
//! master buys over the static chunk/round-robin assignments at paper
//! scale, on identical task sets.

use bench::{header, minutes, percent, row, PAPER_CORES};
use perfmodel::des::{simulate_master_worker, simulate_static, Conditions, Schedule};
use perfmodel::{BlastScenario, ClusterModel};

fn main() {
    let cluster = ClusterModel::ranger();
    let clean = Conditions::default();
    let scenario = BlastScenario::paper_nucleotide(80_000, 1000);
    let tasks = scenario.tasks();

    header(
        "Ablation: mapstyle, 80K-query nucleotide workload",
        &["cores", "master_worker_min", "round_robin_min", "chunk_min", "rr_penalty", "chunk_penalty"],
    );
    for &cores in &PAPER_CORES {
        let mw = simulate_master_worker(&cluster, cores, &tasks, scenario.partition_gb, &clean);
        let rr =
            simulate_static(&cluster, cores, &tasks, scenario.partition_gb, Schedule::RoundRobin);
        let ch = simulate_static(&cluster, cores, &tasks, scenario.partition_gb, Schedule::Chunk);
        row(&[
            cores.to_string(),
            minutes(mw.makespan_s),
            minutes(rr.makespan_s),
            minutes(ch.makespan_s),
            percent(rr.makespan_s / mw.makespan_s - 1.0),
            percent(ch.makespan_s / mw.makespan_s - 1.0),
        ]);
    }
    println!();
    println!(
        "expectation: the dynamic master wins everywhere skew matters, and its edge grows \
         with core count as static assignments strand whole ranks behind stragglers."
    );
}
