//! Property tests for the observability layer: under arbitrary seeded
//! fault plans (worker kills, stalls, poison units, disk faults) every
//! trace stays well-formed — per rank, every span begin has a matching end
//! and spans nest properly — and the scheduler counters exactly match the
//! [`mrmpi::sched::FtRun`] reports.
//!
//! Kills are restricted to worker ranks (never rank 0): a master failover
//! makes the successor re-journal commits learned during claim gathering,
//! so commit *counters* legitimately double-count across tenures — the
//! failover-specific assertions live in the chaos-soak harness instead.

use proptest::prelude::*;

use mpisim::{FaultPlan, RankOutcome, World};
use mrmpi::sched::assign_and_run_ft_report;
use mrmpi::{DiskFaultPlan, FtConfig, MapReduce, Settings};

proptest! {
    #[test]
    fn traces_stay_well_formed_and_counters_match_ftrun_under_faults(
        seed in any::<u64>(),
        size in 2usize..6,
        ntasks in 0usize..14,
        kills in proptest::collection::vec((0usize..8, 1u32..10), 0..2),
        stall_pick in 0usize..8,
        stalled in any::<bool>(),
        poison_pick in 0usize..16,
        poisoned in any::<bool>(),
        speculate in any::<bool>(),
    ) {
        let mut plan = FaultPlan::new(seed);
        let mut doomed = std::collections::BTreeSet::new();
        for &(pick, t) in &kills {
            let w = 1 + pick % (size - 1);
            // Keep the master and at least one worker alive.
            if doomed.len() + 1 < size - 1 && doomed.insert(w) {
                plan = plan.kill(w, t as f64);
            }
        }
        if stalled {
            let w = 1 + stall_pick % (size - 1);
            if !doomed.contains(&w) {
                // Stall durations and suspicion deadlines are *wall-clock*
                // quantities: 1.2s of silence comfortably exceeds the 500ms
                // default suspicion window, so a speculating master will
                // suspect (and possibly fence) exactly this worker.
                plan = plan.stall(w, 1.5, 1.2);
            }
        }
        if poisoned && ntasks > 0 {
            plan = plan.poison((poison_pick % ntasks) as u64);
        }

        let cfg = FtConfig { speculate, ..FtConfig::default() };
        let collector = obs::Collector::new();
        let cfg2 = cfg.clone();
        let outcomes = World::new(size)
            .with_faults(plan)
            .with_obs(collector.clone())
            .run_faulty(move |comm| {
                assign_and_run_ft_report(
                    comm,
                    ntasks,
                    &cfg2,
                    None,
                    &mut |_unit| comm.charge(1.0),
                    &mut |_, _| {},
                )
            });
        let trace = collector.trace();

        // Well-formedness holds no matter what was injected: balanced,
        // properly nested spans and monotonic timestamps on every rank —
        // including ranks whose thread died mid-span (the guard closes
        // spans during the unwind).
        prop_assert!(trace.validate().is_ok(), "trace invalid: {:?}", trace.validate());

        let mut deaths = 0usize;
        let mut committed_by_survivors = 0usize;
        let mut master_run = None;
        let mut any_err = false;
        for (rank, out) in outcomes.iter().enumerate() {
            match out {
                RankOutcome::Died { .. } => deaths += 1,
                RankOutcome::Done(Ok(run)) => {
                    committed_by_survivors += run.units.len();
                    // Per-rank accounting: this rank's worker-commit counter
                    // is exactly the number of units it reports committed.
                    let mine: u64 = trace
                        .ranks
                        .iter()
                        .filter(|r| r.rank == rank)
                        .map(|r| r.counters.get("sched.worker_commit").copied().unwrap_or(0))
                        .sum();
                    prop_assert_eq!(
                        mine,
                        run.units.len() as u64,
                        "rank {} worker_commit counter vs FtRun.units", rank
                    );
                    if rank == 0 {
                        master_run = Some(run.clone());
                    }
                }
                RankOutcome::Done(Err(e)) => {
                    // A speculating master may fence a stalled-but-healthy
                    // worker; with few workers the run can legitimately
                    // abort with a typed error. The trace must stay valid
                    // (asserted above), but run-level accounting is void.
                    prop_assert!(
                        speculate || !doomed.is_empty(),
                        "rank {} failed with no kill and no speculation in play: {}", rank, e
                    );
                    any_err = true;
                }
            }
        }

        if let Some(run) = &master_run {
            // The final acting master (always rank 0 here — it is never
            // killed) reports quarantine; counter and instant stream must
            // agree with it exactly.
            prop_assert_eq!(trace.counter_total("sched.quarantine"), run.quarantined.len() as u64);
            prop_assert_eq!(trace.event_count("sched.quarantine"), run.quarantined.len());

            // Commit accounting. The master journals one commit per
            // published execution; a unit whose committed output died with
            // its worker is re-dispatched and re-committed on a survivor,
            // so deaths can only *add* commits on top of the one-per-unit
            // baseline.
            let commits = trace.counter_total("sched.commit");
            prop_assert!(commits >= committed_by_survivors as u64);
            prop_assert!(commits + run.quarantined.len() as u64 >= ntasks as u64);
            if deaths == 0 && !any_err {
                // No deaths: every unit resolved exactly once, and every
                // commit is still held by the rank that reported it.
                prop_assert_eq!(commits, committed_by_survivors as u64);
                prop_assert_eq!(commits + run.quarantined.len() as u64, ntasks as u64);
            }
        }

        // Fault events mirror the injections: an injected kill emits one
        // fault.death on the victim; a fenced straggler emits fault.fence on
        // the master instead (the victim's thread is torn down without
        // running its own death hook).
        prop_assert!(trace.event_count("fault.death") <= deaths);
        prop_assert!(
            trace.event_count("fault.death") + trace.event_count("fault.fence") >= deaths,
            "{} deaths but only {} death + {} fence events",
            deaths,
            trace.event_count("fault.death"),
            trace.event_count("fault.fence")
        );
        if !speculate {
            prop_assert_eq!(trace.event_count("fault.death"), deaths);
            prop_assert_eq!(trace.counter_total("sched.speculative_dispatch"), 0);
            prop_assert_eq!(trace.event_count("sched.speculate"), 0);
            prop_assert_eq!(trace.counter_total("sched.suspect"), 0);
        } else {
            prop_assert_eq!(
                trace.counter_total("sched.speculative_dispatch"),
                trace.event_count("sched.speculate") as u64
            );
        }
        // No master kill planned, so no failover election may appear.
        prop_assert_eq!(trace.event_count("sched.elect"), 0);
        prop_assert_eq!(trace.counter_total("sched.elections"), 0);
    }

    #[test]
    fn engine_traces_stay_well_formed_under_disk_faults_and_poison(
        seed in any::<u64>(),
        ntasks in 1usize..10,
        eio_p in 0u32..40,
        poison in any::<bool>(),
    ) {
        let disk = DiskFaultPlan::new(seed).eio_probability(f64::from(eio_p) / 100.0).shared();
        let mut plan = FaultPlan::new(seed);
        if poison {
            plan = plan.poison((seed % ntasks as u64).min(ntasks as u64 - 1));
        }
        let collector = obs::Collector::new();
        let disk2 = disk.clone();
        let outcomes = World::new(2)
            .with_faults(plan)
            .with_obs(collector.clone())
            .run_faulty(move |comm| {
                let dir = Settings::unique_spill_dir();
                let settings = Settings {
                    obs: None, // inherited from the comm by with_settings
                    ..Settings::tiny_paged(dir)
                }
                .with_disk_faults(disk2.clone());
                let mut mr = MapReduce::with_settings(comm, settings);
                let report = mr.map_tasks_ft_report(ntasks, &FtConfig::default(), &mut |t, kv| {
                    comm.charge(0.2);
                    for i in 0..8u8 {
                        kv.emit(&[(t % 3) as u8, i], &[t as u8; 16]);
                    }
                })?;
                mr.collate();
                let mut seen = 0u64;
                mr.reduce(&mut |_key, values, _out| {
                    seen += values.count() as u64;
                });
                Ok::<_, mrmpi::MrError>((report, seen))
            });
        let trace = collector.trace();
        prop_assert!(trace.validate().is_ok(), "trace invalid: {:?}", trace.validate());

        for (rank, out) in outcomes.iter().enumerate() {
            match out {
                // A paging/spill error under injected EIO is a legitimate
                // outcome; the trace must stay well-formed regardless (the
                // span guards close on the error return path).
                RankOutcome::Done(Err(_)) | RankOutcome::Died { .. } => {}
                RankOutcome::Done(Ok((report, seen))) => {
                    // Successful run: the engine's pair counter matches the
                    // report's global committed-pair count, and grouping
                    // preserved every pair.
                    prop_assert_eq!(trace.counter_total("mr.kv_pairs"), report.pairs);
                    if rank == 0 {
                        prop_assert_eq!(
                            trace.counter_total("sched.commit"),
                            ntasks as u64 - report.quarantined.len() as u64
                        );
                    }
                    let _ = seen;
                }
            }
        }
    }
}
