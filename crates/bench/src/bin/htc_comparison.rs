//! §IV.A HTC comparison: the JCVI/VICS matrix-split workflow ("a collection
//! of 960 serial BLAST jobs followed by a few merge-sort and formatting
//! jobs") vs the MR-MPI master-worker run.
//!
//! Two levels:
//!
//! 1. **paper scale (model)** — the protein scenario simulated under the
//!    dynamic master-worker schedule vs a static round-robin job matrix
//!    (what a grid-array submission does);
//! 2. **host scale (real)** — the actual engine on a small planted
//!    workload, `mrbio::htc::run_htc` vs `mrbio::run_mrblast` under
//!    `mpisim`, verifying the outputs are identical and comparing
//!    makespans.

use bench::{header, minutes, percent, row};
use bioseq::db::{format_db, FormatDbConfig};
use bioseq::gen::{self, WorkloadConfig};
use bioseq::shred::query_blocks;
use blast::SearchParams;
use mpisim::World;
use mrbio::htc::{run_htc, HtcAssignment};
use mrbio::{run_mrblast, MrBlastConfig};
use perfmodel::des::{simulate_master_worker, simulate_static, Conditions, Schedule};
use perfmodel::{BlastScenario, ClusterModel};
use std::sync::Arc;

fn main() {
    // ---- paper scale ----
    let cluster = ClusterModel::ranger();
    let clean = Conditions::default();
    let scenario = BlastScenario::paper_protein();
    let tasks = scenario.tasks();
    header(
        "HTC vs MR-MPI at paper scale (protein workload, model)",
        &["cores", "master_worker_min", "static_rr_min", "static_penalty"],
    );
    for cores in [256, 512, 1024] {
        let dynamic =
            simulate_master_worker(&cluster, cores, &tasks, scenario.partition_gb, &clean);
        let fixed =
            simulate_static(&cluster, cores, &tasks, scenario.partition_gb, Schedule::RoundRobin);
        row(&[
            cores.to_string(),
            minutes(dynamic.makespan_s),
            minutes(fixed.makespan_s),
            percent(fixed.makespan_s / dynamic.makespan_s - 1.0),
        ]);
    }
    println!(
        "\npaper: 'the longest VICS job took about the same wall clock time as our run at \
         1024 cores' — static splitting is competitive on CPU-bound protein search, \
         losing only the straggler tail.\n"
    );

    // ---- host scale, real engine ----
    let cfg = WorkloadConfig {
        db_seqs: 10,
        db_seq_len: 1200,
        queries: 30,
        homolog_fraction: 0.7,
        ..Default::default()
    };
    let w = gen::dna_workload(99, &cfg);
    let dir = std::env::temp_dir().join(format!("htc-bench-{}", std::process::id()));
    let db = format_db(&w.db, &FormatDbConfig::dna(900), &dir, "db").expect("format db");
    let blocks = query_blocks(w.queries, 6);

    let htc = run_htc(&db, &blocks, &SearchParams::blastn(), 3, HtcAssignment::RoundRobin);

    let db = Arc::new(db);
    let blocks2 = Arc::new(blocks);
    let reports = World::new(4).run(move |comm| {
        run_mrblast(comm, &db, &blocks2, &MrBlastConfig::blastn())
        .expect("fault-free run")
    });
    let mr_makespan = reports.iter().map(|r| r.finish_time).fold(0.0, f64::max);
    let mr_hits: usize = reports.iter().map(|r| r.hits.len()).sum();

    header(
        "HTC vs MR-MPI on this host (real engine, 3 workers each)",
        &["system", "makespan_s", "hits"],
    );
    row(&["HTC matrix-split".into(), format!("{:.3}", htc.makespan), htc.hits.len().to_string()]);
    row(&["MR-MPI master-worker".into(), format!("{mr_makespan:.3}"), mr_hits.to_string()]);
    assert_eq!(htc.hits.len(), mr_hits, "the two systems must find identical hit sets");
    println!("\nhit sets identical: yes ({} hits)", mr_hits);
    std::fs::remove_dir_all(&dir).ok();
}
