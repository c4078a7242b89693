//! Ablation: what does rank-0 (master) failover cost, and what does it buy
//! over abort-and-restart?
//!
//! The paper's master-worker scheduler (§III.A) hangs the entire job on one
//! process: MR-MPI inherits MPI's fail-stop model, so the death of the rank
//! driving dispatch kills every survivor's work. This bench quantifies the
//! master-is-a-role layer of `mrmpi::sched`:
//!
//! * real BLAST runs at 9 and 17 ranks: fault-free versus rank 0 killed
//!   mid-map, verifying every recovered run is bit-for-bit the fault-free
//!   output and reporting the failover latency (extra wall clock paid for
//!   detection + election + claim gather);
//! * a model comparison at the paper's 80K-query nucleotide workload on
//!   1024 cores: master death mid-run handled by in-place failover versus
//!   the legacy abort-and-restart, at several death times.
//!
//! Results land as hand-rolled JSON in `target/figures/` and as
//! `BENCH_failover.json` at the workspace root. Every run is seeded; pass
//! `--seed N` to replay a campaign from the reproduction line this binary
//! prints first.

use bench::{artifact_dir, header, minutes, percent, row, stage_json};
use bioseq::db::{format_db, FormatDbConfig};
use bioseq::gen::{self, WorkloadConfig};
use bioseq::shred::query_blocks;
use mpisim::{FaultPlan, RankOutcome, World};
use mrbio::{run_mrblast, MrBlastConfig};
use perfmodel::{
    simulate_master_worker, simulate_master_worker_abort_restart, BlastScenario, ClusterModel,
    Conditions, MasterDeath,
};
use std::io::Write;
use std::sync::Arc;

fn parse_seed() -> u64 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--seed" {
            let v = args.next().expect("--seed needs a value");
            return v.parse().expect("--seed takes an integer");
        }
        if let Some(v) = a.strip_prefix("--seed=") {
            return v.parse().expect("--seed takes an integer");
        }
    }
    4242
}

fn main() {
    let seed = parse_seed();
    println!(
        "reproduce with: cargo run --release -p bench --bin ablation_failover -- --seed {seed}\n"
    );

    // ---- real runs: master killed mid-map at 9 and 17 ranks ----
    let wcfg = WorkloadConfig {
        db_seqs: 10,
        db_seq_len: 1200,
        queries: 24,
        homolog_fraction: 0.7,
        ..Default::default()
    };
    let w = gen::dna_workload(seed, &wcfg);
    let dir = std::env::temp_dir().join(format!("failover-bench-{}", std::process::id()));
    let db = Arc::new(format_db(&w.db, &FormatDbConfig::dna(900), &dir, "db").expect("format"));
    let blocks = Arc::new(query_blocks(w.queries, 6));

    header(
        "Real runs, rank 0 killed mid-map (wall seconds)",
        &["ranks", "run", "wall_s", "failover_s", "bit_for_bit"],
    );
    let mut real_json = Vec::new();
    for &ranks in &[9usize, 17] {
        let run = |kill_master: bool| {
            let db = db.clone();
            let blocks = blocks.clone();
            let collector = obs::Collector::new();
            let world = if kill_master {
                World::new(ranks).with_faults(FaultPlan::new(seed).kill(0, 1e-4))
            } else {
                World::new(ranks)
            }
            .with_obs(collector.clone());
            let t0 = std::time::Instant::now();
            let outcomes = world.run_faulty(move |comm| {
                run_mrblast(comm, &db, &blocks, &MrBlastConfig::blastn())
            });
            let wall = t0.elapsed().as_secs_f64();
            let mut lines: Vec<String> = Vec::new();
            for out in outcomes {
                match out {
                    RankOutcome::Done(Ok(rep)) => {
                        lines.extend(rep.hits.iter().map(blast::format::tabular_line));
                    }
                    RankOutcome::Done(Err(e)) => panic!("seed {seed}: surviving rank failed: {e}"),
                    RankOutcome::Died { .. } => {}
                }
            }
            lines.sort();
            let trace = collector.trace();
            trace.validate().expect("bench trace must be well-formed");
            (wall, lines, trace)
        };

        let (t_clean, hits_clean, trace_clean) = run(false);
        let (t_kill, hits_kill, trace_kill) = run(true);
        assert!(
            trace_kill.counter_total("sched.elections") >= 1,
            "seed {seed}: a master kill must be followed by at least one election"
        );
        assert_eq!(
            trace_clean.counter_total("sched.elections"),
            0,
            "seed {seed}: a fault-free run must not elect"
        );
        let exact = hits_kill == hits_clean;

        row(&[format!("{ranks}"), "fault-free".into(), format!("{t_clean:.3}"), "-".into(), "-".into()]);
        row(&[
            format!("{ranks}"),
            "master killed".into(),
            format!("{t_kill:.3}"),
            format!("{:.3}", t_kill - t_clean),
            if exact { "yes" } else { "NO" }.into(),
        ]);
        assert!(exact, "seed {seed}: failover must stay bit-for-bit");
        real_json.push(format!(
            "    {{\"ranks\": {ranks}, \"clean_s\": {t_clean:.3}, \"kill_s\": {t_kill:.3}, \
             \"failover_latency_s\": {:.3}, \"bit_for_bit\": {exact}, \
             \"stages_clean\": {}, \"stages_kill\": {}}}",
            t_kill - t_clean,
            stage_json(&trace_clean),
            stage_json(&trace_kill),
        ));
    }
    println!(
        "\nThe promoted successor rebuilds its accounting from the survivors' \
         commit claims alone, so the run resumes exactly-once and the output \
         stays bit-for-bit.\n"
    );

    // ---- model: failover vs abort-and-restart at 1024 cores ----
    let cluster = ClusterModel::ranger();
    let clean = Conditions::default();
    let scenario = BlastScenario::paper_nucleotide(80_000, 1000);
    let tasks = scenario.tasks();
    let cores = 1024;
    let (detect_s, elect_s) = (15.0, 5.0);
    let base = simulate_master_worker(&cluster, cores, &tasks, scenario.partition_gb, &clean);

    header(
        "Model: master dies mid-run (1024 cores, makespan minutes)",
        &["death_at", "clean", "failover", "abort+restart", "saved"],
    );
    let mut model_json = Vec::new();
    for &frac in &[0.25f64, 0.5, 0.75] {
        let dies_at = base.makespan_s * frac;
        let fo = simulate_master_worker(
            &cluster,
            cores,
            &tasks,
            scenario.partition_gb,
            &Conditions {
                detect_s,
                master_death: Some(MasterDeath { at_s: dies_at, failover_s: elect_s }),
                ..Default::default()
            },
        );
        let ar = simulate_master_worker_abort_restart(
            &cluster,
            cores,
            &tasks,
            scenario.partition_gb,
            dies_at,
            detect_s,
        );
        let saved = (ar.makespan_s - fo.makespan_s) / ar.makespan_s;
        row(&[
            percent(frac),
            minutes(base.makespan_s),
            minutes(fo.makespan_s),
            minutes(ar.makespan_s),
            percent(saved),
        ]);
        model_json.push(format!(
            "    {{\"death_at_frac\": {frac}, \"clean_s\": {:.1}, \"failover_s\": {:.1}, \
             \"abort_restart_s\": {:.1}, \"failover_redispatched\": {}, \
             \"abort_redispatched\": {}}}",
            base.makespan_s, fo.makespan_s, ar.makespan_s, fo.redispatched, ar.redispatched
        ));
    }
    println!(
        "\nFailover pays detection + election + one discarded unit, plus the \
         claim gather: the successor dispatches nothing until every survivor \
         has finished its in-flight unit and re-registered, so an early death \
         idles the fleet for the longest unit then running. Abort-and-restart \
         pays detection plus the entire run again. The later the master dies, \
         the more failover saves.\n"
    );

    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"real\": [\n{}\n  ],\n  \
         \"model_1024_cores\": {{\n    \"detect_s\": {detect_s}, \"elect_s\": {elect_s},\n    \
         \"deaths\": [\n{}\n    ]\n  }}\n}}\n",
        real_json.join(",\n"),
        model_json.join(",\n"),
    );
    let artifact = artifact_dir().join("ablation_failover.json");
    std::fs::File::create(&artifact)
        .expect("create json artifact")
        .write_all(json.as_bytes())
        .expect("write json artifact");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let bench_root = root.join("BENCH_failover.json");
    std::fs::File::create(&bench_root)
        .expect("create BENCH_failover.json")
        .write_all(json.as_bytes())
        .expect("write BENCH_failover.json");
    println!("wrote {}\nwrote {}", artifact.display(), bench_root.display());

    std::fs::remove_dir_all(&dir).ok();
}
