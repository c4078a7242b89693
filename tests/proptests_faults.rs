//! Property tests for the fault-injection subsystem.
//!
//! Two families of invariants:
//!
//! * the master-worker scheduler ([`mrmpi::sched::assign_and_run`])
//!   never loses or duplicates a work unit across the surviving ranks, for
//!   arbitrary seeded fault plans (worker deaths at arbitrary virtual
//!   times, lossy and delayed master-worker links);
//! * the KV page validator ([`mrmpi::kv::validate_page`]) classifies every
//!   byte string — well-formed pages round-trip, truncated or
//!   length-corrupted pages yield a typed [`mrmpi::KvError`], and *nothing*
//!   panics, no matter the input.

use proptest::prelude::*;

use mpisim::{FaultPlan, RankOutcome, World};
use mrmpi::kv::{try_decode_entry, validate_page};
use mrmpi::sched::assign_and_run;
use mrmpi::{FtConfig, KvError, MapStyle, SchedError};

/// The master-worker scheduler's committed units, for a `run` that
/// publishes directly.
fn mw_units(
    comm: &mpisim::Comm,
    ntasks: usize,
    cfg: &FtConfig,
    run: &mut dyn FnMut(usize),
) -> Result<Vec<usize>, SchedError> {
    assign_and_run(comm, ntasks, MapStyle::MasterWorker, cfg, None, run, &mut |_, _| {})
        .map(|r| r.units)
}
use std::time::Duration;

/// Encode pairs in the KV page wire format (klen, vlen as u32 LE, then the
/// raw bytes), returning the page and the entry-boundary offsets.
fn encode_page(pairs: &[(Vec<u8>, Vec<u8>)]) -> (Vec<u8>, Vec<usize>) {
    let mut page = Vec::new();
    let mut boundaries = vec![0usize];
    for (k, v) in pairs {
        page.extend_from_slice(&(k.len() as u32).to_le_bytes());
        page.extend_from_slice(&(v.len() as u32).to_le_bytes());
        page.extend_from_slice(k);
        page.extend_from_slice(v);
        boundaries.push(page.len());
    }
    (page, boundaries)
}

fn small_pairs() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(any::<u8>(), 0..24),
            proptest::collection::vec(any::<u8>(), 0..48),
        ),
        0..12,
    )
}

/// Check that the survivors' unit lists form an exact partition of
/// `0..ntasks`: every unit ran on exactly one surviving rank.
fn assert_exact_partition(
    outcomes: &[RankOutcome<Result<Vec<usize>, mrmpi::SchedError>>],
    ntasks: usize,
    max_deaths: usize,
) -> Result<(), TestCaseError> {
    let mut seen = vec![0usize; ntasks];
    let mut died = 0usize;
    for (rank, out) in outcomes.iter().enumerate() {
        match out {
            RankOutcome::Died { .. } => died += 1,
            RankOutcome::Done(Ok(units)) => {
                for &u in units {
                    prop_assert!(u < ntasks, "rank {} ran unknown unit {}", rank, u);
                    seen[u] += 1;
                }
            }
            RankOutcome::Done(Err(e)) => {
                return Err(TestCaseError::fail(format!(
                    "surviving rank {rank} failed: {e}"
                )));
            }
        }
    }
    prop_assert!(died <= max_deaths, "{} deaths but at most {} planned", died, max_deaths);
    for (u, &n) in seen.iter().enumerate() {
        prop_assert!(n == 1, "unit {} ran {} times across survivors", u, n);
    }
    Ok(())
}

proptest! {
    #[test]
    fn scheduler_partitions_units_exactly_once_under_death_plans(
        seed in any::<u64>(),
        size in 2usize..6,
        ntasks in 0usize..16,
        kills in proptest::collection::vec((0usize..8, 0u32..12), 0..3),
    ) {
        // Map each generated kill onto a worker rank (never rank 0, the
        // master) at a virtual-time strike point, always leaving at least
        // one worker alive.
        let mut plan = FaultPlan::new(seed);
        let mut doomed = std::collections::BTreeSet::new();
        for &(pick, t) in &kills {
            let w = 1 + pick % (size - 1);
            if doomed.len() + 1 < size - 1 && doomed.insert(w) {
                plan = plan.kill(w, t as f64);
            }
        }
        let max_deaths = doomed.len();
        let cfg = FtConfig::default();
        let outcomes = World::new(size).with_faults(plan).run_faulty(move |comm| {
            // Each unit charges 1s of virtual time so that nonzero strike
            // times fire mid-run, not just at the first operation.
            mw_units(comm, ntasks, &cfg, &mut |_unit| comm.charge(1.0))
        });

        // The sched-level contract (callers add cross-rank reconciliation on
        // top, see `MapReduce::map_tasks`):
        //  * a unit never runs on two surviving ranks — exactly-once from
        //    the output's point of view;
        //  * with no deaths fired, the partition is exact and every rank
        //    returns Ok;
        //  * a unit may go missing only when a worker died *after*
        //    confirming completion (death during termination chatter), and
        //    then the loss is visible to the caller: that worker's outcome
        //    is `Died`, and the master either refused success with
        //    `AllWorkersDead` or the gap shows up in reconciliation.
        let mut seen = vec![0usize; ntasks];
        let mut died = 0usize;
        let mut master_err = None;
        for (rank, out) in outcomes.iter().enumerate() {
            match out {
                RankOutcome::Died { .. } => died += 1,
                RankOutcome::Done(Ok(units)) => {
                    for &u in units {
                        prop_assert!(u < ntasks, "rank {} ran unknown unit {}", rank, u);
                        seen[u] += 1;
                    }
                }
                RankOutcome::Done(Err(SchedError::AllWorkersDead)) if rank == 0 => {
                    master_err = Some(SchedError::AllWorkersDead);
                }
                RankOutcome::Done(Err(e)) => {
                    return Err(TestCaseError::fail(format!("rank {rank} failed: {e}")));
                }
            }
        }
        prop_assert!(died <= max_deaths, "{} deaths but at most {} planned", died, max_deaths);
        prop_assert!(master_err.is_none() || died > 0, "master error without any death");
        for (u, &n) in seen.iter().enumerate() {
            prop_assert!(n <= 1, "unit {} ran {} times across survivors", u, n);
            if died == 0 {
                prop_assert!(n == 1, "unit {} lost with every worker alive", u);
            } else {
                // Loss is tolerated only alongside a visible death; silent
                // total success must still cover every unit.
                prop_assert!(
                    n == 1 || died > 0,
                    "unit {} lost without a death to blame",
                    u
                );
            }
        }
        if died == 0 {
            prop_assert!(master_err.is_none());
        }
    }

    #[test]
    fn scheduler_partitions_units_exactly_once_over_lossy_delayed_links(
        seed in any::<u64>(),
        ntasks in 1usize..8,
        drop_milli in 0u32..150,
        delay_ms in 0u32..2000,
    ) {
        let p = drop_milli as f64 / 1000.0;
        let size = 3usize;
        let mut plan = FaultPlan::new(seed);
        for w in 1..size {
            plan = plan
                .drop_p2p(0, w, p)
                .drop_p2p(w, 0, p)
                .delay_p2p(0, w, delay_ms as f64 / 1000.0);
        }
        // Short real timeouts keep retransmission rounds cheap; the retry
        // budget keeps the residual give-up probability negligible
        // (p^400 at p <= 0.15).
        let cfg = FtConfig {
            rpc_timeout: Duration::from_millis(5),
            max_rpc_retries: 400,
            max_attempts: 8,
            ..FtConfig::default()
        };
        let outcomes = World::new(size).with_faults(plan).run_faulty(move |comm| {
            mw_units(comm, ntasks, &cfg, &mut |_unit| {})
        });
        assert_exact_partition(&outcomes, ntasks, 0)?;
    }

    #[test]
    fn scheduler_survives_kills_stalls_and_poison_with_exact_accounting(
        seed in any::<u64>(),
        size in 3usize..6,
        ntasks in 1usize..14,
        kills in proptest::collection::vec((0usize..8, 0u32..4), 0..2),
        stalls in proptest::collection::vec((0usize..8, 0u32..3, 1u32..50), 0..2),
        poison_picks in proptest::collection::vec(0u64..14, 0..3),
    ) {
        // Faults land on workers 1..size, always leaving at least one
        // worker untouched by kills *and* stalls (a stalled worker may be
        // fenced by speculation, so it cannot be counted on to survive).
        let mut plan = FaultPlan::new(seed);
        let mut touched = std::collections::BTreeSet::new();
        for &(pick, t) in &kills {
            let w = 1 + pick % (size - 1);
            if touched.len() + 1 < size - 1 && touched.insert(w) {
                plan = plan.kill(w, t as f64);
            }
        }
        for &(pick, t, dur_ms) in &stalls {
            let w = 1 + pick % (size - 1);
            if touched.len() + 1 < size - 1 && touched.insert(w) {
                plan = plan.stall(w, t as f64, dur_ms as f64 / 1000.0);
            }
        }
        let poison: std::collections::BTreeSet<u64> =
            poison_picks.iter().map(|&p| p % ntasks as u64).collect();
        for &u in &poison {
            plan = plan.poison(u);
        }
        let expect_quar: Vec<u64> = poison.iter().copied().collect();

        let cfg = FtConfig {
            rpc_timeout: Duration::from_millis(10),
            max_rpc_retries: 400,
            max_attempts: 16,
            speculate: true,
            suspect_after: Duration::from_millis(30),
            spec_backoff: Duration::from_millis(10),
            poison_retries: 2,
            ..FtConfig::default()
        };
        let outcomes = World::new(size).with_faults(plan).run_faulty(move |comm| {
            // Each unit charges 1s of virtual time so strike times fire
            // mid-run; wall-clock stall durations stay under 50 ms.
            assign_and_run(
                comm,
                ntasks,
                MapStyle::MasterWorker,
                &cfg,
                None,
                &mut |_unit| comm.charge(1.0),
                &mut |_, _| {},
            )
        });

        // Termination is implicit (run_faulty returned). Accounting:
        //  * rank 0's report quarantines exactly the injected poison set;
        //  * every non-quarantined unit commits on at most one surviving
        //    rank, and a missing unit is tolerated only alongside a visible
        //    death (completion confirmed, then the rank died);
        //  * quarantined units never commit anywhere.
        let mut seen = vec![0usize; ntasks];
        let mut died = 0usize;
        let mut master_refused = false;
        for (rank, out) in outcomes.iter().enumerate() {
            match out {
                RankOutcome::Died { .. } => died += 1,
                RankOutcome::Done(Ok(run)) => {
                    if rank == 0 {
                        prop_assert_eq!(&run.quarantined, &expect_quar);
                    }
                    for &u in &run.units {
                        prop_assert!(u < ntasks, "rank {} ran unknown unit {}", rank, u);
                        seen[u] += 1;
                    }
                }
                // A worker that died right after confirming a completion can
                // strand that unit once every other worker has retired; the
                // master then refuses success instead of losing it silently.
                RankOutcome::Done(Err(SchedError::AllWorkersDead)) if rank == 0 => {
                    master_refused = true;
                }
                RankOutcome::Done(Err(e)) => {
                    return Err(TestCaseError::fail(format!("rank {rank} failed: {e}")));
                }
            }
        }
        prop_assert!(!master_refused || died > 0, "master refusal without any death");
        // Besides the injected kills, speculation may fence a worker the
        // detector caught silent (scheduling jitter on a loaded host); the
        // fencing rule guarantees the master and the winning worker survive.
        prop_assert!(died <= size - 2, "{} deaths left no worker alive", died);
        for (u, &n) in seen.iter().enumerate() {
            if poison.contains(&(u as u64)) {
                prop_assert!(n == 0, "quarantined unit {} committed {} times", u, n);
            } else {
                prop_assert!(n <= 1, "unit {} committed {} times across survivors", u, n);
                prop_assert!(
                    n == 1 || died > 0,
                    "unit {} lost without a death to blame",
                    u
                );
            }
        }
    }

    #[test]
    fn well_formed_pages_validate_and_round_trip(pairs in small_pairs()) {
        let (page, _) = encode_page(&pairs);
        prop_assert_eq!(validate_page(&page), Ok(pairs.len() as u64));
        let mut pos = 0;
        for (k, v) in &pairs {
            let (dk, dv) = try_decode_entry(&page, &mut pos)
                .map_err(|e| TestCaseError::fail(format!("decode: {e}")))?;
            prop_assert_eq!(dk, &k[..]);
            prop_assert_eq!(dv, &v[..]);
        }
        prop_assert_eq!(pos, page.len());
    }

    #[test]
    fn truncated_pages_give_typed_errors_never_panics(
        pairs in small_pairs(),
        cut_pick in any::<u64>(),
    ) {
        let (page, boundaries) = encode_page(&pairs);
        prop_assume!(!page.is_empty());
        let cut = (cut_pick % page.len() as u64) as usize;
        let truncated = &page[..cut];
        match validate_page(truncated) {
            // A cut exactly on an entry boundary leaves a shorter but
            // well-formed page; anywhere else must be a typed truncation.
            Ok(n) => {
                prop_assert!(boundaries.contains(&cut), "cut {} accepted mid-entry", cut);
                let entries_before_cut =
                    boundaries.iter().position(|&b| b == cut).unwrap() as u64;
                prop_assert_eq!(n, entries_before_cut);
            }
            Err(KvError::Truncated { at, need, have }) => {
                prop_assert!(at <= cut);
                prop_assert!(have < need, "Truncated{{need {} have {}}}", need, have);
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }

    #[test]
    fn corrupted_length_headers_give_typed_errors_never_panics(
        pairs in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 0..24),
                proptest::collection::vec(any::<u8>(), 0..48),
            ),
            1..12,
        ),
        entry_pick in any::<u64>(),
        huge in 0x4000_0000u32..u32::MAX,
    ) {
        let (mut page, boundaries) = encode_page(&pairs);
        // Overwrite one entry's key-length header with a value far past the
        // page end: the validator must reject it with a typed error.
        let entry = (entry_pick % pairs.len() as u64) as usize;
        let at = boundaries[entry];
        page[at..at + 4].copy_from_slice(&huge.to_le_bytes());
        prop_assert!(validate_page(&page).is_err());
        let mut pos = at;
        prop_assert!(try_decode_entry(&page, &mut pos).is_err());
        prop_assert_eq!(pos, at, "a failed decode must not advance the cursor");
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_validator(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        // Fuzz: any outcome is fine, panicking is not.
        let _ = validate_page(&bytes);
        let mut pos = 0;
        while pos < bytes.len() {
            match try_decode_entry(&bytes, &mut pos) {
                Ok(_) => {}
                Err(_) => break,
            }
        }
    }
}
