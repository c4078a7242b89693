//! MR-MPI batch SOM: the paper's second application (Fig. 2).
//!
//! Per epoch:
//!
//! 1. "the copy of the codebook is distributed with MPI_Broadcast() from the
//!    master to all worker nodes at the start of each epoch";
//! 2. work units — blocks of input vectors described by offsets into the
//!    on-disk dense matrix — are distributed by the MapReduce `map()`;
//! 3. each `map()` call searches its block's best matching units (Eq. 2) in
//!    one blocked pass over the codebook ([`Codebook::bmus`]);
//! 4. "at the end of the epoch, a collective MPI_Reduce() call is used to
//!    sum all newly computed numerators and denominators, and the new
//!    codebook is computed as per Eq. 5. … No reduce() stage is used in
//!    this program."
//!
//! The map runs on the fault-tolerant master-worker scheduler, so a unit's
//! contribution only counts once the scheduler *commits* it. A unit is
//! staged as its input rows plus their BMU indices (a few kilobytes, not a
//! codebook-sized accumulator); a commit adds the rows to the rank's
//! per-BMU sums ([`BmuSums`]: Σx and a count per distinct BMU). After the
//! map each rank applies the neighborhood once per distinct BMU, folding its
//! sums into a zeroed numerator/denominator pair of Eq. 5, and the epoch
//! reduction is an in-place `allreduce` of that pair, so every rank applies
//! the same update.
//!
//! The mix of MapReduce task scheduling and *direct* MPI collectives is the
//! paper's stated optimization; the `ablation_som_reduce` bench implements
//! the pure-MapReduce alternative (emit per-neuron contributions as
//! key-value pairs and `collate()` them) to quantify the difference.

use std::cell::RefCell;
use std::time::Instant;

use mpisim::{Comm, ReduceOp};
use mrmpi::{FtConfig, MapPlan, MapReduce, MrError, Settings};
use som::batch::{init_codebook, BatchAccumulator, BmuSums};
use som::codebook::Codebook;
use som::neighborhood::{sigma_schedule, SomConfig};

use crate::matrixio::VectorMatrix;
use crate::util::BusyTracker;

/// Configuration of one MR-MPI batch SOM run.
#[derive(Debug, Clone)]
pub struct MrSomConfig {
    /// Map shape, dimensionality, epochs, schedules, seed.
    pub som: SomConfig,
    /// Input vectors per work unit (the paper's Fig. 6 uses blocks of 40).
    /// Units are scheduled master-worker ("we are again using the
    /// master-worker execution mode, although in the case of SOM this is
    /// not as critical").
    pub block_size: usize,
    /// MapReduce engine settings (page size, memory budget, spill dir,
    /// disk-fault plan).
    pub mr_settings: Settings,
    /// Fault-tolerant scheduler settings (see [`FtConfig`]).
    pub ft: FtConfig,
    /// Checkpoint the codebook to this directory every
    /// `checkpoint_every` epochs, and resume from the newest checkpoint on
    /// startup. The paper notes that "the price for this extra flexibility
    /// and portability is a lack of fault-tolerance inherent in the
    /// underlying MPI execution model" (§II.A) — epoch-level checkpointing
    /// is the standard mitigation for a BSP program, so it is provided
    /// here.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Epoch interval between checkpoints (`0` disables even when a
    /// directory is set).
    pub checkpoint_every: usize,
    /// Stop gracefully after this many total epochs have completed (e.g. a
    /// wall-time limit on the allocation), leaving the schedule intact so a
    /// resumed run continues exactly where this one stopped. `None` = train
    /// to `som.epochs`.
    pub stop_after_epochs: Option<usize>,
}

impl MrSomConfig {
    /// Paper-style defaults for a given SOM shape.
    pub fn new(som: SomConfig) -> Self {
        MrSomConfig {
            som,
            block_size: 40,
            mr_settings: Settings::default(),
            ft: FtConfig::default(),
            checkpoint_dir: None,
            checkpoint_every: 0,
            stop_after_epochs: None,
        }
    }
}

/// Per-rank outcome of a run.
#[derive(Debug)]
pub struct MrSomRankReport {
    /// This rank.
    pub rank: usize,
    /// Work units (vector blocks) processed by this rank over all epochs.
    pub blocks_processed: u64,
    /// Busy intervals spent in BMU search + the neighborhood fold.
    pub busy: BusyTracker,
    /// Rank-local virtual time at completion.
    pub finish_time: f64,
    /// Vector-block indices quarantined as poison by the fault-tolerant
    /// scheduler (sorted, deduplicated across epochs; identical on every
    /// surviving rank). Non-empty means those blocks' vectors contributed to
    /// no epoch and the trained codebook is a partial result.
    pub quarantined: Vec<u64>,
}

/// Run MR-MPI batch SOM collectively; every rank returns the final codebook
/// (identical on all ranks) plus its own report.
///
/// Each epoch's vector blocks are scheduled through the fault-tolerant
/// master-worker protocol. A dead worker's per-BMU sums die with it; its
/// blocks are re-accumulated by survivors, and the per-epoch reduction
/// carries a block-contribution count validated against the expected
/// total — a death in the window between the map and the reduce surfaces as
/// [`MrError::DataLost`] on every live rank instead of silently skewing the
/// codebook.
///
/// The master is a *role*: if the acting master dies mid-epoch the
/// scheduler elects a successor and the epoch completes (see
/// [`mrmpi::sched`]). To match, the epoch pipeline itself is root-agnostic:
/// the per-epoch reduction is a symmetric `allreduce` (bit-identical to a
/// rooted reduce — contributions fold in the same rank order) so **every**
/// rank holds the updated codebook and no single rank's death can lose an
/// applied epoch; the epoch checkpoint is written by the lowest live rank.
/// Only startup (initialization / checkpoint load, before any unit is
/// dispatched) still assumes rank 0 is alive. A run stopped early or
/// aborted by a typed error resumes from the newest valid checkpoint.
pub fn run_mrsom(
    comm: &Comm,
    matrix: &VectorMatrix,
    cfg: &MrSomConfig,
) -> Result<(Codebook, MrSomRankReport), MrError> {
    let som = &cfg.som;
    assert_eq!(matrix.dims, som.dims, "matrix dims must match SOM config");

    // Master initializes (random or PCA over a bounded sample of the input
    // matrix, or the newest checkpoint when resuming); everyone receives
    // via broadcast (Fig. 2).
    let mut start_epoch = [0.0f64];
    let mut cb = if comm.rank() == 0 {
        match load_latest_checkpoint(cfg) {
            Some((epoch, cb)) => {
                start_epoch[0] = epoch as f64;
                cb
            }
            None => master_init_codebook(som, matrix),
        }
    } else {
        Codebook::zeros(som.rows, som.cols, som.dims).with_torus(som.torus)
    };
    comm.bcast_f64s(0, &mut start_epoch);
    let start_epoch = start_epoch[0] as usize;
    let sigma0 = som.sigma0_for(cb.half_diagonal());
    let blocks = matrix.blocks(cfg.block_size);
    let nn = cb.num_neurons();
    let dims = cb.dims;

    // One startup broadcast distributes the initial (or checkpointed)
    // codebook; from here on every rank applies the same allreduced update
    // each epoch, so the replicas stay bit-identical with no per-epoch
    // root — the death of any single rank cannot lose an applied epoch.
    comm.bcast_f64s(0, &mut cb.weights);

    let busy: RefCell<BusyTracker> = RefCell::new(BusyTracker::new());
    let blocks_processed: RefCell<u64> = RefCell::new(0);
    let mut quarantined: Vec<u64> = Vec::new();

    for epoch in start_epoch..som.epochs {
        let _epoch_span = obs::maybe_span(comm.obs(), "som.epoch");
        let sigma = sigma_schedule(sigma0, som.sigma_end, som.epochs, epoch);

        let sums = RefCell::new(BmuSums::new(dims));
        let epoch_blocks: RefCell<u64> = RefCell::new(0);
        // A block's contribution joins the epoch only when the scheduler
        // *commits* its execution. Adding it at execution time would
        // double-count an execution the scheduler later discards — e.g. a
        // completion carried unarbitrated across a master failover, which
        // the promoted successor discards and re-dispatches. The execution
        // stages its rows and their BMUs (the panic-isolated block search);
        // a commit adds them to the rank's per-BMU sums.
        let staged = RefCell::new(None::<(Vec<Vec<f64>>, Vec<usize>)>);
        let mut mr = MapReduce::with_settings(comm, cfg.mr_settings.clone());
        let mut fold = |_: usize, commit: bool| {
            let unit = staged.borrow_mut().take();
            let Some((inputs, bmus)) = unit.filter(|_| commit) else { return };
            sums.borrow_mut().add_block(&bmus, &inputs);
            *epoch_blocks.borrow_mut() += 1;
        };
        let plan = MapPlan { verdict: Some(&mut fold), ..(&cfg.ft).into() };
        let ft_report = mr.map_tasks(
            blocks.len(),
            plan,
            &mut |b, _kv| {
                let (start, end) = blocks[b];
                let t_load = Instant::now();
                let inputs = matrix.read_rows(start, end).expect("read vector block");
                comm.charge(t_load.elapsed().as_secs_f64());

                let bmus = charged(comm, &busy, || cb.bmus(&inputs));
                *blocks_processed.borrow_mut() += 1;
                *staged.borrow_mut() = Some((inputs, bmus));
            },
        )?;

        // The neighborhood, once per distinct BMU this rank committed, into
        // a zeroed accumulator whose numerator has room for the packed
        // reduction buffer below.
        let mut numerator = Vec::with_capacity(nn * dims + nn + 1);
        numerator.resize(nn * dims, 0.0);
        let mut acc = BatchAccumulator::from_parts(numerator, vec![0.0; nn], dims);
        charged(comm, &busy, || sums.into_inner().fold_into(&mut acc, &cb, sigma, som.kernel));

        // Quarantined (poison) blocks are a *known* partial result — they
        // reduce the expected contribution count; anything else missing is
        // silent data loss.
        let mut packed = acc.numerator;
        packed.extend_from_slice(&acc.denominator);
        let expected = (blocks.len() - ft_report.quarantined.len()) as u64;
        allreduce_epoch(comm, &mut packed, epoch_blocks.into_inner(), expected)?;
        quarantined.extend_from_slice(&ft_report.quarantined);

        let denominator = packed.split_off(nn * dims);
        BatchAccumulator::from_parts(packed, denominator, dims).apply(&mut cb);
        // One writer suffices for the (shared-directory) epoch checkpoint;
        // the lowest live rank keeps checkpointing working after rank 0
        // dies.
        if comm.rank() == crate::fault::ft_root(comm) {
            write_checkpoint(cfg, epoch + 1, &cb);
        }
        if cfg.stop_after_epochs.is_some_and(|stop| epoch + 1 >= stop) {
            break;
        }
    }
    comm.barrier();

    quarantined.sort_unstable();
    quarantined.dedup();
    let report = MrSomRankReport {
        rank: comm.rank(),
        blocks_processed: blocks_processed.into_inner(),
        busy: busy.into_inner(),
        finish_time: comm.now(),
        quarantined,
    };
    Ok((cb, report))
}

/// The epoch's direct MPI step: one in-place allreduce over
/// `[numerator ‖ denominator ‖ blocks]`, after which `packed` holds the
/// summed `[numerator ‖ denominator]`. Dead participants are skipped by the
/// collective; a participant that died between the map and this reduce
/// (taking its accumulator with it) shows up as a short block count, which
/// the conservation check turns into the same typed verdict on every live
/// rank instead of a silently skewed codebook.
fn allreduce_epoch(
    comm: &Comm,
    packed: &mut Vec<f64>,
    blocks: u64,
    expected: u64,
) -> Result<(), MrError> {
    packed.push(blocks as f64);
    comm.allreduce_f64_in_place(packed, ReduceOp::Sum);
    let got = packed.pop().unwrap_or(0.0).round() as u64;
    if got != expected {
        return Err(MrError::DataLost { what: "SOM epoch block contributions", expected, got });
    }
    Ok(())
}

/// Run `work` as rank-local compute: its wall time is charged to the sim
/// clock and recorded as a busy interval.
fn charged<T>(comm: &Comm, busy: &RefCell<BusyTracker>, work: impl FnOnce() -> T) -> T {
    let clock_start = comm.now();
    let t0 = Instant::now();
    let out = work();
    let elapsed = t0.elapsed().as_secs_f64();
    comm.charge(elapsed);
    busy.borrow_mut().record(clock_start, clock_start + elapsed);
    out
}

/// Checkpoint file layout: `som-epoch-<NNNN>.cbk` per completed epoch. Each
/// file is one CRC-framed [`mrmpi::durable`] record holding
/// [`Codebook::to_bytes`], written atomically (tmp file + fsync + rename).
pub fn checkpoint_path(dir: &std::path::Path, epoch: usize) -> std::path::PathBuf {
    dir.join(format!("som-epoch-{epoch:04}.cbk"))
}

/// Write the epoch checkpoint durably. **Best-effort**: a checkpoint that
/// cannot be persisted (scratch disk full, persistent EIO, injected fault)
/// never kills a healthy training run — the atomic write leaves any older
/// checkpoint intact, so the only cost is a longer recompute on restart.
pub fn write_checkpoint(cfg: &MrSomConfig, completed_epochs: usize, cb: &Codebook) {
    let Some(dir) = &cfg.checkpoint_dir else { return };
    if cfg.checkpoint_every == 0 || !completed_epochs.is_multiple_of(cfg.checkpoint_every) {
        return;
    }
    let faults = cfg.mr_settings.disk_faults.as_deref();
    let _ = std::fs::create_dir_all(dir);
    let _ = mrmpi::durable::write_record_file(
        &checkpoint_path(dir, completed_epochs),
        &[&cb.to_bytes()],
        faults,
    );
}

/// Find the newest *valid* checkpoint in `cfg.checkpoint_dir`. Candidates
/// are scanned newest-first; a checkpoint that fails CRC verification,
/// is truncated, does not decode as a codebook, or holds a codebook whose
/// shape (rows, cols, dims, torus) differs from `cfg.som` is skipped in
/// favour of the next-older one — corruption of the newest checkpoint
/// costs some recomputed epochs, never a panic and never a garbage
/// codebook.
pub fn load_latest_checkpoint(cfg: &MrSomConfig) -> Option<(usize, Codebook)> {
    let dir = cfg.checkpoint_dir.as_ref()?;
    let mut found: Vec<(usize, std::path::PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir).ok()? {
        let Ok(entry) = entry else { continue };
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(num) = name.strip_prefix("som-epoch-").and_then(|n| n.strip_suffix(".cbk")) {
            if let Ok(epoch) = num.parse::<usize>() {
                found.push((epoch, entry.path()));
            }
        }
    }
    found.sort_by_key(|&(epoch, _)| std::cmp::Reverse(epoch)); // newest first
    for (epoch, path) in found {
        let Ok(payloads) = mrmpi::durable::read_record_file(&path) else { continue };
        let [payload] = payloads.as_slice() else { continue };
        let Some(cb) = Codebook::from_bytes(payload) else { continue };
        let som = &cfg.som;
        if (cb.rows, cb.cols, cb.dims, cb.torus) == (som.rows, som.cols, som.dims, som.torus) {
            return Some((epoch, cb));
        }
    }
    None
}

/// Rows used for PCA-plane initialization when the input matrix is large:
/// the basis is estimated from a bounded prefix so initialization stays
/// O(sample) regardless of dataset size. (Serial `batch_train` uses all
/// inputs; the two agree exactly whenever the dataset fits the sample.)
const PCA_SAMPLE_ROWS: usize = 4096;

fn master_init_codebook(som: &SomConfig, matrix: &VectorMatrix) -> Codebook {
    match som.init {
        som::InitMethod::Random => init_codebook(som, &[]),
        som::InitMethod::PcaPlane => {
            let sample_end = matrix.n.min(PCA_SAMPLE_ROWS);
            let sample = matrix.read_rows(0, sample_end).expect("read PCA sample");
            init_codebook(som, &sample)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::World;
    use som::batch::batch_train;
    use std::path::PathBuf;

    fn matrix_fixture(tag: &str, n: usize, dims: usize, seed: u64) -> (PathBuf, Vec<Vec<f64>>) {
        let vectors = bioseq::gen::random_vectors(seed, n, dims);
        let path =
            std::env::temp_dir().join(format!("mrsom-test-{tag}-{}.bin", std::process::id()));
        VectorMatrix::create(&path, &vectors).unwrap();
        (path, vectors)
    }

    fn som_cfg(dims: usize) -> SomConfig {
        SomConfig { rows: 5, cols: 5, dims, epochs: 6, sigma0: None, sigma_end: 1.0, seed: 11, ..SomConfig::default() }
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs()),
                "{what}: element {i} differs: {x} vs {y}"
            );
        }
    }

    #[test]
    fn parallel_som_matches_serial_batch() {
        let (path, vectors) = matrix_fixture("serialmatch", 120, 8, 31);
        let som = som_cfg(8);
        let serial = batch_train(&vectors, &som);
        for ranks in [1, 2, 4] {
            let path = path.clone();
            let som2 = som;
            let reports = World::new(ranks).run(move |comm| {
                let matrix = VectorMatrix::open(&path).unwrap();
                let cfg = MrSomConfig { block_size: 16, ..MrSomConfig::new(som2) };
                run_mrsom(comm, &matrix, &cfg).expect("no faults injected")
            });
            for (cb, _) in &reports {
                assert_close(
                    &cb.weights,
                    &serial.weights,
                    1e-9,
                    &format!("ranks={ranks} codebook"),
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_ranks_return_identical_codebook() {
        let (path, _) = matrix_fixture("identical", 80, 4, 32);
        let som = som_cfg(4);
        let reports = World::new(3).run(move |comm| {
            let matrix = VectorMatrix::open(&path).unwrap();
            let cfg = MrSomConfig { block_size: 10, ..MrSomConfig::new(som) };
            run_mrsom(comm, &matrix, &cfg).expect("no faults injected")
        });
        let first = &reports[0].0.weights;
        for (cb, _) in &reports[1..] {
            assert_eq!(&cb.weights, first, "broadcast must synchronize codebooks exactly");
        }
    }

    #[test]
    fn block_size_does_not_change_result() {
        // The paper: "work units of 80 vectors each produced the identical
        // timings" — and must produce identical maps.
        let (path, _) = matrix_fixture("blocksize", 120, 4, 33);
        let som = som_cfg(4);
        let run_with = |block_size: usize| {
            let path = path.clone();
            let reports = World::new(2).run(move |comm| {
                let matrix = VectorMatrix::open(&path).unwrap();
                let cfg = MrSomConfig { block_size, ..MrSomConfig::new(som) };
                run_mrsom(comm, &matrix, &cfg).expect("no faults injected")
            });
            reports.into_iter().next().unwrap().0
        };
        let a = run_with(40);
        let b = run_with(80);
        assert_close(&a.weights, &b.weights, 1e-9, "block size 40 vs 80");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reports_cover_all_blocks() {
        let (path, _) = matrix_fixture("reports", 100, 4, 35);
        let som = som_cfg(4);
        let reports = World::new(3).run(move |comm| {
            let matrix = VectorMatrix::open(&path).unwrap();
            let cfg = MrSomConfig { block_size: 10, ..MrSomConfig::new(som) };
            run_mrsom(comm, &matrix, &cfg).expect("no faults injected")
        });
        let total: u64 = reports.iter().map(|(_, r)| r.blocks_processed).sum();
        assert_eq!(total, 10 * som.epochs as u64, "10 blocks × epochs");
        // Master-worker: rank 0 does no compute.
        assert_eq!(reports[0].1.blocks_processed, 0);
        for (_, r) in &reports[1..] {
            assert!(r.finish_time >= 0.0);
        }
    }

    #[test]
    fn pca_torus_bubble_options_preserved_in_parallel() {
        // The non-default configuration axes (PCA-plane init, toroidal grid,
        // bubble kernel) must flow through the parallel driver and still
        // match the serial batch trainer exactly.
        let (path, vectors) = matrix_fixture("options", 100, 6, 37);
        let som = SomConfig {
            rows: 6,
            cols: 6,
            dims: 6,
            epochs: 5,
            sigma_end: 1.5,
            init: som::InitMethod::PcaPlane,
            kernel: som::Kernel::Bubble,
            torus: true,
            ..SomConfig::default()
        };
        let serial = som::batch::batch_train(&vectors, &som);
        assert!(serial.torus, "topology must propagate");
        let reports = World::new(3).run(move |comm| {
            let matrix = VectorMatrix::open(&path).unwrap();
            let cfg = MrSomConfig { block_size: 20, ..MrSomConfig::new(som) };
            run_mrsom(comm, &matrix, &cfg).expect("no faults injected")
        });
        for (cb, _) in &reports {
            assert!(cb.torus);
            assert_close(&cb.weights, &serial.weights, 1e-9, "pca/torus/bubble codebook");
        }
    }

    #[test]
    fn checkpoint_and_resume_match_uninterrupted_run() {
        let (path, _) = matrix_fixture("ckpt", 90, 5, 38);
        let som = SomConfig { epochs: 8, ..som_cfg(5) };
        let ckdir = std::env::temp_dir().join(format!("mrsom-ckpt-{}", std::process::id()));
        std::fs::remove_dir_all(&ckdir).ok();

        // Reference: one uninterrupted run.
        let p1 = path.clone();
        let full = World::new(2).run(move |comm| {
            let matrix = VectorMatrix::open(&p1).unwrap();
            run_mrsom(comm, &matrix, &MrSomConfig { block_size: 15, ..MrSomConfig::new(som) })
            .expect("no faults injected")
        });

        // Interrupted: same 8-epoch schedule, stopped after 4 epochs
        // (checkpoint every 2), then resumed with the full budget from the
        // newest checkpoint.
        let p2 = path.clone();
        let ck = ckdir.clone();
        World::new(2).run(move |comm| {
            let matrix = VectorMatrix::open(&p2).unwrap();
            let cfg = MrSomConfig {
                block_size: 15,
                checkpoint_dir: Some(ck.clone()),
                checkpoint_every: 2,
                stop_after_epochs: Some(4),
                ..MrSomConfig::new(som)
            };
            run_mrsom(comm, &matrix, &cfg).expect("no faults injected")
        });
        assert!(
            ckdir.join("som-epoch-0004.cbk").exists(),
            "checkpoint after epoch 4 expected"
        );

        let p3 = path.clone();
        let ck = ckdir.clone();
        let resumed = World::new(2).run(move |comm| {
            let matrix = VectorMatrix::open(&p3).unwrap();
            let cfg = MrSomConfig {
                block_size: 15,
                checkpoint_dir: Some(ck.clone()),
                checkpoint_every: 2,
                ..MrSomConfig::new(som)
            };
            run_mrsom(comm, &matrix, &cfg).expect("no faults injected")
        });
        // Resumed run processed only the remaining epochs' blocks.
        let resumed_blocks: u64 = resumed.iter().map(|(_, r)| r.blocks_processed).sum();
        assert_eq!(resumed_blocks, 6 * 4, "6 blocks × 4 remaining epochs");
        assert_close(
            &resumed[0].0.weights,
            &full[0].0.weights,
            1e-12,
            "resumed codebook vs uninterrupted",
        );
        std::fs::remove_dir_all(&ckdir).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn survives_worker_death() {
        use mpisim::{FaultPlan, RankOutcome};
        let (path, vectors) = matrix_fixture("ftdeath", 100, 4, 42);
        let som = som_cfg(4);
        let serial = batch_train(&vectors, &som);
        let p = path.clone();
        let outcomes =
            World::new(4).with_faults(FaultPlan::new(9).kill(3, 0.0)).run_faulty(move |comm| {
                let matrix = VectorMatrix::open(&p).unwrap();
                let cfg = MrSomConfig { block_size: 10, ..MrSomConfig::new(som) };
                run_mrsom(comm, &matrix, &cfg)
            });
        assert!(outcomes[3].is_died(), "rank 3 was scheduled to die");
        for (rank, out) in outcomes.into_iter().enumerate() {
            if rank == 3 {
                continue;
            }
            match out {
                RankOutcome::Done(Ok((cb, _))) => assert_close(
                    &cb.weights,
                    &serial.weights,
                    1e-9,
                    &format!("rank {rank} ft codebook after a worker death"),
                ),
                RankOutcome::Done(Err(e)) => panic!("survivor rank {rank} failed: {e}"),
                RankOutcome::Died { .. } => panic!("unexpected death on rank {rank}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_epoch_death_during_reduce_is_a_typed_error_not_a_hang() {
        // Regression for the narrow BSP window the conservation check exists
        // for: a worker finishes its map blocks, then dies *on entry to the
        // epoch's reduce* — its accumulator is gone and no scheduler can
        // re-run the work, because the master already counted it done. The
        // death is placed deterministically by burning virtual time between
        // accumulation and the reduce; the epoch's reduce must turn it into
        // the same typed verdict on every survivor, never a deadlock.
        use mpisim::{FaultPlan, RankOutcome};
        let som = som_cfg(4);
        let cb0 = init_codebook(&som, &[]);
        let plan = FaultPlan::new(51).kill(2, 1.0);
        let outcomes = World::new(4).with_faults(plan).run_faulty(move |comm| {
            // One SOM epoch, Fig. 2 shape: everyone accumulates one block...
            let vec_block = vec![vec![0.25; 4]; 8];
            let mut acc = BatchAccumulator::zeros(&cb0);
            acc.accumulate_block_with(&cb0, &vec_block, 1.0, som.kernel);
            // ...then rank 2's clock crosses its kill time before the
            // reduce, taking its committed block with it.
            if comm.rank() == 2 {
                comm.charge(2.0);
            }
            let mut packed = acc.numerator;
            packed.extend_from_slice(&acc.denominator);
            allreduce_epoch(comm, &mut packed, 1, 4)
        });
        assert!(outcomes[2].is_died(), "rank 2 dies at the reduce");
        for (rank, out) in outcomes.iter().enumerate() {
            if rank == 2 {
                continue;
            }
            match out {
                RankOutcome::Done(Err(MrError::DataLost {
                    what: "SOM epoch block contributions",
                    expected: 4,
                    got: 3,
                })) => {}
                other => panic!("rank {rank}: want DataLost 4→3, got {other:?}"),
            }
        }
    }

    #[test]
    fn quarantines_poison_blocks_and_completes_partially() {
        use mpisim::{FaultPlan, RankOutcome};
        let (path, _) = matrix_fixture("ftpoison", 100, 4, 43);
        let som = som_cfg(4);
        let p = path.clone();
        // Block 3 of 10 panics on every attempt: the run must complete with
        // the other 9 blocks and report the quarantine on every rank.
        let plan = FaultPlan::new(44).poison(3);
        let outcomes = World::new(3).with_faults(plan).run_faulty(move |comm| {
            let matrix = VectorMatrix::open(&p).unwrap();
            let cfg = MrSomConfig { block_size: 10, ..MrSomConfig::new(som) };
            run_mrsom(comm, &matrix, &cfg)
        });
        let mut weights: Option<Vec<f64>> = None;
        for (rank, out) in outcomes.into_iter().enumerate() {
            match out {
                RankOutcome::Done(Ok((cb, report))) => {
                    assert_eq!(report.quarantined, vec![3], "rank {rank}");
                    match &weights {
                        Some(w) => assert_eq!(w, &cb.weights, "rank {rank} codebook"),
                        None => weights = Some(cb.weights.clone()),
                    }
                }
                other => panic!("rank {rank}: {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trained_map_quality_is_preserved_in_parallel() {
        let (path, vectors) = matrix_fixture("quality", 150, 3, 36);
        let som = SomConfig { epochs: 12, ..som_cfg(3) };
        let reports = World::new(4).run(move |comm| {
            let matrix = VectorMatrix::open(&path).unwrap();
            let cfg = MrSomConfig { block_size: 15, ..MrSomConfig::new(som) };
            run_mrsom(comm, &matrix, &cfg).expect("no faults injected")
        });
        let cb = &reports[0].0;
        let qe = som::quality::quantization_error(cb, &vectors);
        assert!(qe < 0.35, "parallel-trained map must quantize well: {qe}");
    }
}
