//! Ablation 7: the paper's proposed locality-aware scheduler, implemented
//! and measured.
//!
//! "First, we are improving the location-aware work unit scheduler in order
//! to distribute the work unit tuples to those ranks that have already been
//! processing the same DB partitions in as many cases as possible.
//! Improving the DB locality will in turn allow us to improve the load
//! balancing by using smaller query blocks." (§Conclusions)
//!
//! Two levels: the DES at paper scale (plain vs locality-aware master on
//! identical task sets), and a real small-scale run cross-checking that
//! results are identical and reloads drop.

use bench::{header, minutes, percent, row, PAPER_CORES};
use bioseq::db::{format_db, FormatDbConfig};
use bioseq::gen::{self, WorkloadConfig};
use bioseq::shred::query_blocks;
use mpisim::World;
use mrbio::{run_mrblast, MrBlastConfig};
use perfmodel::{simulate_master_worker, BlastScenario, ClusterModel, Conditions};
use std::sync::Arc;

fn main() {
    let cluster = ClusterModel::ranger();
    let scenario = BlastScenario::paper_nucleotide(80_000, 1000);
    let tasks = scenario.tasks();
    let (clean, affinity) =
        (Conditions::default(), Conditions { affinity: true, ..Default::default() });

    header(
        "Ablation: locality-aware master, 80K-query nucleotide workload (model)",
        &["cores", "plain_min", "locality_min", "plain_loads", "locality_loads", "speedup"],
    );
    for &cores in &PAPER_CORES {
        let plain = simulate_master_worker(&cluster, cores, &tasks, scenario.partition_gb, &clean);
        let loc = simulate_master_worker(&cluster, cores, &tasks, scenario.partition_gb, &affinity);
        row(&[
            cores.to_string(),
            minutes(plain.makespan_s),
            minutes(loc.makespan_s),
            (plain.cold_loads + plain.warm_loads).to_string(),
            (loc.cold_loads + loc.warm_loads).to_string(),
            format!("{:.2}x", plain.makespan_s / loc.makespan_s),
        ]);
    }
    println!();

    // Smaller blocks become affordable with locality — the paper's stated
    // motivation ("will in turn allow us to improve the load balancing by
    // using smaller query blocks").
    let fine = BlastScenario::paper_nucleotide(80_000, 250); // 320 blocks
    let fine_tasks = fine.tasks();
    let plain_fine = simulate_master_worker(&cluster, 1024, &fine_tasks, fine.partition_gb, &clean);
    let loc_fine =
        simulate_master_worker(&cluster, 1024, &fine_tasks, fine.partition_gb, &affinity);
    println!(
        "250-query blocks at 1024 cores: plain {} min vs locality {} min \
         ({} of the reload penalty removed)",
        minutes(plain_fine.makespan_s),
        minutes(loc_fine.makespan_s),
        percent(1.0 - (loc_fine.cold_loads + loc_fine.warm_loads) as f64
            / (plain_fine.cold_loads + plain_fine.warm_loads) as f64),
    );

    // ---- real small-scale cross-check ----
    let cfg = WorkloadConfig {
        db_seqs: 10,
        db_seq_len: 1200,
        queries: 24,
        homolog_fraction: 0.7,
        ..Default::default()
    };
    let w = gen::dna_workload(777, &cfg);
    let dir = std::env::temp_dir().join(format!("locality-bench-{}", std::process::id()));
    let db = Arc::new(format_db(&w.db, &FormatDbConfig::dna(900), &dir, "db").expect("format"));
    let blocks = Arc::new(query_blocks(w.queries, 4));

    println!();
    header("Real small-scale check (4 ranks)", &["scheduler", "db_loads", "hits"]);
    for locality in [false, true] {
        let db = db.clone();
        let blocks = blocks.clone();
        let reports = World::new(4).run(move |comm| {
            let cfg = MrBlastConfig { locality_aware: locality, ..MrBlastConfig::blastn() };
            run_mrblast(comm, &db, &blocks, &cfg).expect("fault-free run")
        });
        row(&[
            if locality { "locality-aware".into() } else { "plain master".to_string() },
            reports.iter().map(|r| r.db_loads).sum::<u64>().to_string(),
            reports.iter().map(|r| r.hits.len()).sum::<usize>().to_string(),
        ]);
    }
    std::fs::remove_dir_all(&dir).ok();
}
