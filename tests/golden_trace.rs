//! Golden-trace determinism for the observability layer.
//!
//! Two runs of the fault-tolerant BLAST driver with the same seed must
//! produce the same trace *structure* — [`obs::Trace::digest`] (event
//! kinds, names, and counts, summed across ranks) plus the scheduler's
//! commit accounting — and a fault-free trace must be quiet: zero
//! speculation, election, quarantine, or fault events. Timestamps and
//! per-rank attribution are excluded on purpose: the BLAST driver charges
//! *measured* wall times into the sim clock and master-worker assignment
//! is physically racy, so only the structural projection is reproducible.
//!
//! A synthetic engine run with explicit virtual charges on one rank is
//! held to the stricter standard: two runs are bit-identical, timestamps
//! and counter registries included.

use bioseq::db::{format_db, BlastDb, FormatDbConfig};
use bioseq::gen::{self, WorkloadConfig};
use bioseq::seq::SeqRecord;
use bioseq::shred::query_blocks;
use mpisim::World;
use mrbio::{run_mrblast, FaultConfig, MrBlastConfig};
use mrmpi::{FtConfig, MapReduce, Settings};
use std::path::PathBuf;
use std::sync::Arc;

struct Fixture {
    db: Arc<BlastDb>,
    blocks: Arc<Vec<Vec<SeqRecord>>>,
    dir: PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn fixture(seed: u64, tag: &str) -> Fixture {
    let cfg = WorkloadConfig {
        db_seqs: 8,
        db_seq_len: 1000,
        queries: 18,
        homolog_fraction: 0.7,
        ..Default::default()
    };
    let w = gen::dna_workload(seed, &cfg);
    let dir = std::env::temp_dir().join(format!("it-golden-{tag}-{}", std::process::id()));
    let db = format_db(&w.db, &FormatDbConfig::dna(900), &dir, "db").expect("format db");
    assert!(db.num_partitions() >= 3, "fixture needs several partitions");
    Fixture {
        db: Arc::new(db),
        blocks: Arc::new(query_blocks(w.queries, 5)),
        dir,
    }
}

/// One traced fault-free FT BLAST run; returns the trace and total hits.
fn traced_blast_run(fx: &Fixture, ranks: usize) -> (obs::Trace, usize) {
    let collector = obs::Collector::new();
    let db = fx.db.clone();
    let blocks = fx.blocks.clone();
    let reports = World::new(ranks).with_obs(collector.clone()).run(move |comm| {
        run_mrblast(comm, &db, &blocks, &MrBlastConfig::blastn(), &FaultConfig::default())
            .expect("fault-free run must succeed")
    });
    let hits = reports.iter().map(|r| r.hits.len()).sum();
    (collector.trace(), hits)
}

#[test]
fn same_seed_blast_runs_share_digest_and_accounting_and_fault_free_is_quiet() {
    let fx = fixture(91, "digest");
    let ntasks = (fx.blocks.len() * fx.db.num_partitions()) as u64;

    let (t1, hits1) = traced_blast_run(&fx, 3);
    let (t2, hits2) = traced_blast_run(&fx, 3);

    t1.validate().expect("first trace well-formed");
    t2.validate().expect("second trace well-formed");

    // Structural determinism under a fixed seed.
    assert_eq!(t1.digest(), t2.digest(), "same-seed runs must share the trace digest");
    assert_eq!(hits1, hits2, "same-seed runs must produce the same hits");

    // Stable scheduler/engine accounting, identical across runs and exact
    // in absolute terms: every work unit dispatched and committed once.
    for t in [&t1, &t2] {
        assert_eq!(t.counter_total("sched.dispatch"), ntasks);
        assert_eq!(t.counter_total("sched.commit"), ntasks);
        assert_eq!(t.counter_total("sched.worker_commit"), ntasks);
        assert_eq!(t.counter_total("sched.discard"), 0);
        assert_eq!(t.event_count("sched.unit"), 2 * ntasks as usize, "begin+end per unit");
    }
    assert_eq!(
        t1.counter_total("mr.kv_pairs"),
        t2.counter_total("mr.kv_pairs"),
        "same-seed runs must emit the same number of KV pairs"
    );

    // A fault-free trace is quiet: no speculation, elections, quarantine,
    // deaths, restarts, or fences — as events *or* counters.
    for t in [&t1, &t2] {
        for name in
            ["sched.speculate", "sched.elect", "sched.quarantine", "fault.death", "fault.restart", "fault.fence"]
        {
            assert_eq!(t.event_count(name), 0, "fault-free trace must carry no {name} events");
        }
        for name in ["sched.speculative_dispatch", "sched.elections", "sched.quarantine", "sched.suspect"]
        {
            assert_eq!(t.counter_total(name), 0, "fault-free trace must carry no {name} counts");
        }
    }
}

/// One synthetic engine run: single rank, explicit virtual charges only, so
/// timestamps are exactly reproducible.
fn synthetic_trace() -> obs::Trace {
    let collector = obs::Collector::new();
    World::new(1).with_obs(collector.clone()).run(|comm| {
        let mut mr = MapReduce::with_settings(comm, Settings::default());
        mr.map_tasks(6, &FtConfig::default(), &mut |t, kv| {
            comm.charge(0.25);
            kv.emit(&[(t % 3) as u8], &[t as u8]);
        })
        .expect("no faults");
        mr.collate().expect("fault-free shuffle");
        mr.reduce(&mut |_key, values, _out| {
            let n = values.count();
            comm.charge(0.1 * n as f64);
        });
    });
    collector.trace()
}

#[test]
fn synthetic_virtual_time_runs_are_bit_identical() {
    let t1 = synthetic_trace();
    let t2 = synthetic_trace();
    t1.validate().expect("synthetic trace well-formed");
    assert_eq!(t1, t2, "virtual-charge traces must match event-for-event, timestamps included");
    assert_eq!(t1.counter_total("sched.commit"), 6);
    assert_eq!(t1.counter_total("sched.worker_commit"), 6);
    assert_eq!(t1.counter_total("mr.kv_pairs"), 6);
    // The exporter round-trips through its own structural linter.
    let report = obs::lint_chrome_json(&t1.chrome_json()).expect("chrome json lints");
    assert_eq!(report.tids, 1);
    assert!(report.spans > 0);
}
