//! Validation of the performance model against real executions: the DES is
//! only trustworthy for the paper's scaling figures if it agrees with the
//! actual application where both can run.

use bioseq::db::format_db;
use bioseq::db::FormatDbConfig;
use bioseq::gen::{self, WorkloadConfig};
use bioseq::shred::query_blocks;
use mpisim::World;
use mrbio::{run_mrblast, MrBlastConfig};
use perfmodel::des::{
    simulate_master_worker, simulate_master_worker_abort_restart, Conditions, Failure, MasterDeath,
    Stall, Task,
};
use perfmodel::{BlastScenario, ClusterModel, SomScenario};
use std::sync::Arc;

/// A cluster with free communication and loads, for compute-only checks.
fn free_cluster() -> ClusterModel {
    ClusterModel {
        cold_load_s_per_gb: 0.0,
        warm_load_s_per_gb: 0.0,
        dispatch_latency_s: 0.0,
        ..ClusterModel::ranger()
    }
}

#[test]
fn des_makespan_matches_real_master_worker_run() {
    // Run the real MR-MPI BLAST, capture its busy interval per execution (a
    // grant of one or more work units), then replay the same execution
    // costs through the DES and compare makespans. Both schedulers are
    // work-conserving dynamic dispatchers, so the DES should land close to
    // the real virtual-clock end of the map phase.
    let cfg = WorkloadConfig {
        db_seqs: 10,
        db_seq_len: 1200,
        queries: 30,
        homolog_fraction: 0.7,
        ..Default::default()
    };
    let w = gen::dna_workload(4242, &cfg);
    let dir = std::env::temp_dir().join(format!("pm-val-{}", std::process::id()));
    let db = Arc::new(format_db(&w.db, &FormatDbConfig::dna(900), &dir, "db").unwrap());
    let blocks = Arc::new(query_blocks(w.queries, 6));

    let ranks = 4;
    let db2 = db.clone();
    let blocks2 = blocks.clone();
    let reports = World::new(ranks)
        .run(move |comm| {
            run_mrblast(comm, &db2, &blocks2, &MrBlastConfig::blastn())
            .expect("fault-free run")
        });
    // The map phase runs from the first execution's start to the last
    // one's end. `finish_time` would also hold the set-up before the map,
    // the shuffle, the reduce and the scheduler's messages, which the
    // replay does not price.
    let intervals = || reports.iter().flat_map(|r| r.busy.intervals().iter().copied());
    let map_start = intervals().map(|(start, _)| start).fold(f64::INFINITY, f64::min);
    let real_makespan = intervals().map(|(_, end)| end).fold(0.0, f64::max) - map_start;

    // Collect the real per-execution costs: partition load, query prepare
    // and search, all charged to the virtual clock (order irrelevant for
    // the comparison: both schedulers dispatch dynamically).
    let tasks: Vec<Task> = reports
        .iter()
        .flat_map(|r| r.busy.intervals().iter().map(|(s, e)| Task { part: 0, cost_s: e - s }))
        .collect();
    assert_eq!(tasks.len() as u64, reports.iter().map(|r| r.grants).sum::<u64>());

    let sim = simulate_master_worker(&free_cluster(), ranks, &tasks, 0.0, &Conditions::default());
    // Both the real scheduler and the DES produce work-conserving schedules
    // of the same task multiset, but they dispatch in different orders, so
    // the deterministic guarantee is Graham's list-scheduling bound: both
    // makespans lie in [max(total/W, longest), total/W + longest], hence
    // they differ by at most the longest task. (A fixed percentage band is
    // NOT guaranteed and flakes when sibling test processes inflate the
    // measured per-unit costs.)
    let longest = tasks.iter().map(|t| t.cost_s).fold(0.0, f64::max);
    assert!(
        (sim.makespan_s - real_makespan).abs() <= longest + 1e-9,
        "DES {} vs real {} differ by more than the longest task {}",
        sim.makespan_s,
        real_makespan,
        longest
    );
    let total: f64 = tasks.iter().map(|t| t.cost_s).sum();
    let workers = (ranks - 1) as f64;
    assert!(
        sim.makespan_s >= (total / workers).max(longest) - 1e-9
            && sim.makespan_s <= total / workers + longest + 1e-9,
        "DES {} outside list-scheduling bounds (total {total}, longest {longest})",
        sim.makespan_s
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn des_is_work_conserving_and_balanced() {
    // With uniform costs and no overheads the DES must hit the ideal
    // makespan exactly: ceil(n/workers) × cost.
    let tasks: Vec<Task> = (0..100).map(|i| Task { part: i % 7, cost_s: 2.0 }).collect();
    for cores in [2usize, 5, 11, 101] {
        let r = simulate_master_worker(&free_cluster(), cores, &tasks, 0.0, &Conditions::default());
        let workers = cores - 1;
        let ideal = (100usize.div_ceil(workers)) as f64 * 2.0;
        assert!(
            (r.makespan_s - ideal).abs() < 1e-9,
            "cores={cores}: {} vs ideal {ideal}",
            r.makespan_s
        );
    }
}

#[test]
fn som_bsp_model_matches_real_parallel_runtime_shape() {
    // The closed-form SOM model says per-epoch compute scales with
    // ceil(blocks/cores). Validate the *ratio* between two real parallel
    // runs (2 vs 4 ranks) against the model's prediction, using the real
    // virtual-clock finish times of mrsom (which charge measured compute).
    use mrbio::{run_mrsom, MrSomConfig, VectorMatrix};
    use som::neighborhood::SomConfig;

    let n = 240;
    let dims = 24;
    let vectors = gen::random_vectors(888, n, dims);
    let path = std::env::temp_dir().join(format!("pm-som-{}.bin", std::process::id()));
    VectorMatrix::create(&path, &vectors).unwrap();
    let som = SomConfig {
        rows: 12,
        cols: 12,
        dims,
        epochs: 4,
        sigma0: None,
        sigma_end: 1.0,
        seed: 2,
        ..SomConfig::default()
    };

    let mut finish = Vec::new();
    let mut max_blocks = Vec::new();
    for ranks in [2usize, 4] {
        let p = path.clone();
        let results = World::new(ranks).run(move |comm| {
            let matrix = VectorMatrix::open(&p).unwrap();
            let cfg = MrSomConfig { block_size: 20, ..MrSomConfig::new(som) };
            run_mrsom(comm, &matrix, &cfg).expect("fault-free run")
        });
        finish.push(results.iter().map(|(_, r)| r.finish_time).fold(0.0, f64::max));
        max_blocks.push(results.iter().map(|(_, r)| r.blocks_processed).max().unwrap());
    }
    // The model's load-balance prediction (per epoch: ceil(12 blocks / W
    // workers)) must hold exactly: 12 per epoch on 1 worker, ≈4 on 3.
    assert_eq!(max_blocks[0], 12 * som.epochs as u64);
    assert!(
        max_blocks[1] <= 5 * som.epochs as u64,
        "3 workers should take ≈4 blocks per epoch each, max got {}",
        max_blocks[1]
    );
    // Timing: compute costs are charged from wall-clock measurements, and on
    // a host with fewer physical cores than ranks the concurrent rank
    // threads inflate each other's measured time, so the full 3x compute
    // speedup is not observable — only that parallelism helps at all is
    // asserted here. (Fig. 6 therefore uses the closed-form BSP model with a
    // calibrated per-vector constant, not contended thread timings.)
    let speedup = finish[0] / finish[1];
    assert!(
        speedup > 1.2 && speedup < 4.0,
        "2→4 rank speedup {speedup} outside the plausible band"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn som_scenario_matches_paper_claims() {
    let cluster = ClusterModel::ranger();
    let s = SomScenario::paper_fig6(10);
    // Linear-ish scaling across the whole paper range.
    for cores in [64, 128, 256, 512] {
        let eff = s.relative_efficiency(&cluster, cores, 32);
        assert!(eff > 0.9, "efficiency at {cores} cores: {eff}");
    }
    let eff1024 = s.relative_efficiency(&cluster, 1024, 32);
    assert!(
        (eff1024 - 0.96).abs() < 0.05,
        "paper: 96% at 1024 vs 32; model: {eff1024}"
    );
}

#[test]
fn blast_scenarios_reproduce_paper_shape_claims() {
    use perfmodel::BlastScenario;
    let cluster = ClusterModel::ranger();

    // Fig. 3 shape: larger datasets sustain large core counts better.
    let small = BlastScenario::paper_nucleotide(12_000, 1000);
    let large = BlastScenario::paper_nucleotide(80_000, 1000);
    let eff = |s: &BlastScenario| {
        let t32 = s.simulate(&cluster, 32).makespan_s;
        let t1024 = s.simulate(&cluster, 1024).makespan_s;
        (t32 / t1024) / 32.0
    };
    assert!(eff(&large) > 1.5 * eff(&small), "large dataset must scale further");

    // Fig. 4 shape: 40 blocks win at 32 cores, 80 blocks win at 1024.
    let b80 = BlastScenario::paper_nucleotide(80_000, 1000);
    let b40 = BlastScenario::paper_nucleotide(80_000, 2000);
    assert!(
        b40.core_minutes_per_query(&cluster, 32) < b80.core_minutes_per_query(&cluster, 32),
        "larger work units must win at small core counts"
    );
    assert!(
        b80.core_minutes_per_query(&cluster, 1024) < b40.core_minutes_per_query(&cluster, 1024),
        "smaller work units must win at large core counts"
    );

    // Fig. 5 shape: protein run at 1024 cores has a high plateau and a
    // tapering tail.
    let protein = BlastScenario::paper_protein();
    let r = protein.simulate(&cluster, 1024);
    let curve = r.utilization_curve(20);
    let plateau: f64 = curve[..15].iter().sum::<f64>() / 15.0;
    assert!(plateau > 0.9, "plateau {plateau}");
    assert!(curve[19] < 0.5, "tail must taper: {}", curve[19]);
}

#[test]
fn faulty_des_matches_reduced_worker_closed_form() {
    // Uniform unit costs, free communication, one worker dead from t=0:
    // the survivors split the units evenly, so the makespan has the exact
    // closed form ceil(n / (P - 2)) * c for P cores (one master, one dead
    // worker). The model must not charge the dead worker anything, and no
    // unit is re-dispatched because the victim never received one.
    let cluster = free_cluster();
    for (cores, n, c) in [(4usize, 12usize, 1.0f64), (6, 23, 2.0), (9, 40, 0.5)] {
        let tasks: Vec<Task> = (0..n).map(|i| Task { part: i % 3, cost_s: c }).collect();
        let fails = [Failure { worker: 0, at_s: 0.0 }];
        let r = simulate_master_worker(
            &cluster,
            cores,
            &tasks,
            0.0,
            &Conditions { failures: &fails, detect_s: 0.25, ..Default::default() },
        );
        let survivors = cores - 2;
        let expect = n.div_ceil(survivors) as f64 * c;
        assert!(
            (r.makespan_s - expect).abs() < 1e-9,
            "{cores} cores, {n} units: makespan {} != closed form {expect}",
            r.makespan_s
        );
        assert_eq!(r.redispatched, 0);
        assert!(
            r.worker_busy[0] == 0.0,
            "dead worker charged {}s of work",
            r.worker_busy[0]
        );
        let total: f64 = r.worker_busy.iter().sum();
        assert!((total - n as f64 * c).abs() < 1e-9, "every unit ran exactly once");
    }
}

#[test]
fn des_pins_paper_scale_results_for_every_condition() {
    // The paper's 80K-query nucleotide workload (8720 units) at 128 cores,
    // once per kind of run the model offers. The expected values are exact:
    // any change to dispatch order, load accounting or float evaluation
    // order in the event loop shows up here.
    let cluster = ClusterModel::ranger();
    let scenario = BlastScenario::paper_nucleotide(80_000, 1000);
    let (tasks, gb) = (scenario.tasks(), scenario.partition_gb);
    let fails = [Failure { worker: 5, at_s: 500.0 }, Failure { worker: 77, at_s: 1100.0 }];
    let stalls = [Stall { worker: 17, at_s: 600.0, dur_s: 3600.0 }];
    let death = Some(MasterDeath { at_s: 900.0, failover_s: 60.0 });
    let runs = [
        ("fault-free", Conditions::default()),
        ("affinity", Conditions { affinity: true, ..Default::default() }),
        ("worker deaths", Conditions { failures: &fails, detect_s: 30.0, ..Default::default() }),
        (
            "failover",
            Conditions { failures: &fails, detect_s: 30.0, master_death: death, ..Default::default() },
        ),
        ("stall", Conditions { stalls: &stalls, ..Default::default() }),
        (
            "stall, speculation",
            Conditions { stalls: &stalls, suspect_after_s: Some(15.0), ..Default::default() },
        ),
    ];
    // (makespan_s, redispatched, speculated, cold_loads, warm_loads)
    let expected: [(f64, u64, usize, u64, u64); 6] = [
        (1745.7504048091687, 0, 0, 109, 8535),
        (1712.731076432428, 0, 0, 109, 212),
        (1759.8619842086064, 67, 0, 109, 8611),
        // Failover: the successor rebuilds its queue in unit order after
        // the claim gather, which waits for every survivor still running a
        // unit at the promotion.
        (1877.1369421424317, 67, 0, 109, 8612),
        (4215.326088709013, 0, 0, 109, 8543),
        // Stall with speculation: a silent straggler that loses a race is
        // fenced, and its committed units (25 here) re-run.
        (1765.1881361234493, 25, 1, 109, 8569),
    ];
    for ((name, conditions), want) in runs.iter().zip(expected) {
        let r = simulate_master_worker(&cluster, 128, &tasks, gb, conditions);
        let got = (r.makespan_s, r.redispatched, r.speculated, r.cold_loads, r.warm_loads);
        assert_eq!(got, want, "{name}");
    }
    let abort = simulate_master_worker_abort_restart(&cluster, 128, &tasks, gb, 900.0, 30.0);
    let got = (abort.makespan_s, abort.redispatched, abort.cold_loads, abort.warm_loads);
    assert_eq!(got, (2675.7504048091687, 4772, 109, 8535), "abort-restart");
}
