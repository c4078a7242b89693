//! The traced pass: the CLIs' pipelines (`run_mrblast`, `run_mrsom`)
//! composed from the layers' public calls on a `RANKS`-rank world over the
//! same inputs, with a wall-clock span around every call. Spans stay in memory per rank and are
//! turned into per-layer metrics after the run.
//!
//! The BLAST replica follows `mrbio::run_mrblast` as `mb-blast` calls it
//! (one iteration, master-worker map, no checkpoint); the SOM replica
//! follows `mrbio::run_mrsom` as `mb-som --pca` calls it. With `traced`
//! off, the same pipeline runs without spans and without an `obs` collector;
//! the ratio of the two walls is the tracing overhead. A traced SOM run also
//! keeps each epoch's map and, after the world has finished, times a
//! BMU-only pass over them (`BmuPass`), so the pipeline itself does only
//! `run_mrsom`'s work.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bioseq::db::{BlastDb, DbPartition};
use bioseq::seq::SeqRecord;
use blast::format::tabular_line;
use blast::hsp::sort_and_truncate;
use blast::search::PreparedQueries;
use blast::{BlastSearcher, Hit, SearchParams};
use mpisim::{Comm, ReduceOp, World};
use mrbio::VectorMatrix;
use mrmpi::{MapReduce, MapStyle, Settings};
use som::neighborhood::sigma_schedule;
use som::{init_codebook, BatchAccumulator, Codebook, SomConfig};

use crate::oracle::is_self_hit;
use crate::workload::RANKS;

/// `mrbio::mrsom`'s bound on the rows the master's PCA initialisation reads.
const PCA_SAMPLE_ROWS: usize = 4096;

pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// One execution of a map callback: which map call, when, and its engine
/// work in cells (query residues × partition residues) for BLAST.
pub struct Unit {
    pub call: usize,
    pub start: f64,
    pub end: f64,
    pub cells: f64,
}

/// What one rank recorded.
#[derive(Default)]
pub struct RankLog {
    pub spans: Vec<Span>,
    pub units: Vec<Unit>,
    pub loads: u64,
    pub prepares: u64,
    pub kv_pairs: u64,
    pub kv_bytes: u64,
    pub out_bytes: u64,
    pub out_lines: u64,
    /// SOM, rank 0 only: the map each epoch starts from.
    pub epoch_maps: Vec<Codebook>,
}

/// Span recorder of one rank; a no-op when tracing is off.
struct Recorder {
    base: Instant,
    on: bool,
    log: RefCell<RankLog>,
}

impl Recorder {
    fn new(base: Instant, on: bool) -> Self {
        Recorder {
            base,
            on,
            log: RefCell::new(RankLog::default()),
        }
    }

    fn now(&self) -> f64 {
        self.base.elapsed().as_secs_f64()
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.log.borrow_mut().spans.push(Span { name, start, end });
        out
    }

    fn unit(&self, call: usize, start: f64, cells: f64) {
        if self.on {
            let end = self.now();
            self.log.borrow_mut().units.push(Unit {
                call,
                start,
                end,
                cells,
            });
        }
    }
}

/// Result of one replica run.
pub struct Replica {
    /// `World::run` wall clock, seconds.
    pub wall_s: f64,
    pub ranks: Vec<RankLog>,
    /// The program's own counters (`net.*`, `sched.*`), when traced.
    pub trace: Option<obs::Trace>,
    /// SOM only: the trained map.
    pub codebook: Option<Codebook>,
    /// Traced SOM only: the BMU-only pass.
    pub bmu: Option<BmuPass>,
}

/// `Codebook::bmu` for every vector against every epoch's starting map,
/// single-threaded and after the world has finished.
pub struct BmuPass {
    /// Time of all the BMU searches.
    pub secs: f64,
    /// BMU searches made: vectors × epochs.
    pub searches: u64,
    /// Distinct BMUs per epoch, averaged over epochs.
    pub distinct: f64,
}

impl BmuPass {
    fn run(maps: &[Codebook], rows: &[Vec<f64>]) -> Self {
        let t0 = Instant::now();
        let found: Vec<Vec<usize>> = maps
            .iter()
            .map(|cb| rows.iter().map(|x| cb.bmu(x)).collect())
            .collect();
        let secs = t0.elapsed().as_secs_f64();
        let distinct: usize = found
            .iter()
            .map(|bmus| bmus.iter().collect::<BTreeSet<_>>().len())
            .sum();
        BmuPass {
            secs,
            searches: (maps.len() * rows.len()) as u64,
            distinct: distinct as f64 / maps.len().max(1) as f64,
        }
    }
}

fn world(collector: Option<&obs::Collector>) -> World {
    match collector {
        Some(c) => World::new(RANKS).with_obs(c.clone()),
        None => World::new(RANKS),
    }
}

pub struct BlastJob {
    pub db: BlastDb,
    pub blocks: Vec<Vec<SeqRecord>>,
    pub params: SearchParams,
    pub exclude_self: bool,
}

/// Run the BLAST pipeline, writing `hits.rank<r>.tsv` files into `out`.
pub fn blast(job: &Arc<BlastJob>, out: &Path, traced: bool) -> Replica {
    let collector = traced.then(obs::Collector::new);
    let base = Instant::now();
    let job2 = job.clone();
    let out: PathBuf = out.to_path_buf();
    std::fs::create_dir_all(&out).expect("create replica output dir");
    let ranks = world(collector.as_ref())
        .run(move |comm| blast_rank(comm, &job2, &out, Recorder::new(base, traced)));
    let wall_s = base.elapsed().as_secs_f64();
    Replica {
        wall_s,
        ranks,
        trace: collector.map(|c| c.trace()),
        codebook: None,
        bmu: None,
    }
}

fn blast_rank(comm: &Comm, job: &BlastJob, out: &Path, rec: Recorder) -> RankLog {
    let searcher = BlastSearcher::new(job.params);
    let db = &job.db;
    let nblocks = job.blocks.len();
    let ntasks = nblocks * db.num_partitions();
    let path = out.join(format!("hits.rank{:04}.tsv", comm.rank()));
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(&path).expect("create replica rank output"));

    let db_cache: RefCell<Option<(usize, DbPartition)>> = RefCell::new(None);
    let q_cache: RefCell<Option<(usize, PreparedQueries)>> = RefCell::new(None);
    let mut mr = MapReduce::with_settings(comm, Settings::default());
    rec.span("mrmpi.map", || {
        mr.map_tasks(ntasks, MapStyle::MasterWorker, &mut |task, kv| {
            // Partition-major task order, as in `run_mrblast`.
            let part_idx = task / nblocks;
            let block_idx = task % nblocks;
            let start = rec.now();

            let mut db_slot = db_cache.borrow_mut();
            if !matches!(&*db_slot, Some((idx, _)) if *idx == part_idx) {
                let t0 = Instant::now();
                let part = rec.span("bioseq.load_partition", || {
                    db.load_partition(part_idx).expect("load DB partition")
                });
                comm.charge(t0.elapsed().as_secs_f64());
                rec.log.borrow_mut().loads += 1;
                *db_slot = Some((part_idx, part));
            }
            let (_, part) = db_slot.as_ref().expect("cache just filled");

            let mut q_slot = q_cache.borrow_mut();
            if !matches!(&*q_slot, Some((idx, _)) if *idx == block_idx) {
                let t0 = Instant::now();
                let prepared = rec.span("blast.prepare_queries", || {
                    searcher.prepare_queries(&job.blocks[block_idx])
                });
                comm.charge(t0.elapsed().as_secs_f64());
                rec.log.borrow_mut().prepares += 1;
                *q_slot = Some((block_idx, prepared));
            }
            let (_, prepared) = q_slot.as_ref().expect("cache just filled");

            let t0 = Instant::now();
            let hits = rec.span("blast.search_partition", || {
                searcher.search_partition(prepared, part, db.total_residues, db.total_sequences)
            });
            comm.charge(t0.elapsed().as_secs_f64());

            let (mut pairs, mut bytes) = (0u64, 0u64);
            for hit in hits {
                if job.exclude_self && is_self_hit(&hit) {
                    continue;
                }
                let value = hit.encode();
                pairs += 1;
                bytes += (hit.query_id.len() + value.len()) as u64;
                kv.emit(hit.query_id.as_bytes(), &value);
            }
            let mut log = rec.log.borrow_mut();
            log.kv_pairs += pairs;
            log.kv_bytes += bytes;
            drop(log);
            let query_residues: usize = job.blocks[block_idx].iter().map(|q| q.seq.len()).sum();
            rec.unit(0, start, query_residues as f64 * part.residues as f64);
        })
    });
    rec.span("mrmpi.aggregate", || mr.aggregate());
    rec.span("mrmpi.convert", || mr.convert());

    let max_hits = job.params.max_hits_per_query;
    let (mut out_bytes, mut out_lines) = (0u64, 0u64);
    rec.span("mrmpi.reduce", || {
        mr.reduce(&mut |_key, values, _out| {
            let mut hits: Vec<Hit> = values.map(Hit::decode).collect();
            sort_and_truncate(&mut hits, max_hits);
            rec.span("output.write", || {
                for h in &hits {
                    let line = tabular_line(h);
                    out_bytes += line.len() as u64 + 1;
                    out_lines += 1;
                    writeln!(file, "{line}").expect("write hit line");
                }
            });
        })
    });
    rec.span("output.write", || file.flush().expect("flush rank output"));
    rec.span("mpisim.barrier", || comm.barrier());

    let mut log = rec.log.into_inner();
    log.out_bytes = out_bytes;
    log.out_lines = out_lines;
    log
}

pub struct SomJob {
    pub matrix: PathBuf,
    pub som: SomConfig,
    pub block_size: usize,
}

/// Run the batch SOM pipeline; rank 0's trained map is returned.
pub fn som(job: &Arc<SomJob>, traced: bool) -> Replica {
    let collector = traced.then(obs::Collector::new);
    let base = Instant::now();
    let job2 = job.clone();
    let results = world(collector.as_ref())
        .run(move |comm| som_rank(comm, &job2, Recorder::new(base, traced)));
    let wall_s = base.elapsed().as_secs_f64();
    let mut codebook = None;
    let mut ranks = Vec::with_capacity(results.len());
    for (cb, log) in results {
        codebook = codebook.or(Some(cb));
        ranks.push(log);
    }
    let bmu = traced.then(|| {
        let matrix = VectorMatrix::open(&job.matrix).expect("open matrix");
        let rows = matrix.read_rows(0, matrix.n).expect("read vectors");
        BmuPass::run(&std::mem::take(&mut ranks[0].epoch_maps), &rows)
    });
    Replica {
        wall_s,
        ranks,
        trace: collector.map(|c| c.trace()),
        codebook,
        bmu,
    }
}

fn som_rank(comm: &Comm, job: &SomJob, rec: Recorder) -> (Codebook, RankLog) {
    let som = &job.som;
    let matrix = VectorMatrix::open(&job.matrix).expect("open matrix");
    let mut start_epoch = [0.0f64];
    let mut cb = if comm.rank() == 0 {
        let sample = rec.span("som.read_rows", || {
            matrix
                .read_rows(0, matrix.n.min(PCA_SAMPLE_ROWS))
                .expect("read PCA sample")
        });
        rec.span("som.init", || init_codebook(som, &sample))
    } else {
        Codebook::zeros(som.rows, som.cols, som.dims).with_torus(som.torus)
    };
    rec.span("mpisim.bcast", || comm.bcast_f64s(0, &mut start_epoch));
    let sigma0 = som.sigma0_for(cb.half_diagonal());
    let blocks = matrix.blocks(job.block_size);
    let nn = cb.num_neurons();
    let dims = cb.dims;

    for epoch in 0..som.epochs {
        rec.span("mpisim.bcast", || comm.bcast_f64s(0, &mut cb.weights));
        if rec.on && comm.rank() == 0 {
            rec.log.borrow_mut().epoch_maps.push(cb.clone());
        }
        let sigma = sigma_schedule(sigma0, som.sigma_end, som.epochs, epoch);
        let acc = RefCell::new(BatchAccumulator::zeros(&cb));
        let mut mr = MapReduce::with_settings(comm, Settings::default());
        rec.span("mrmpi.map", || {
            mr.map_tasks(blocks.len(), MapStyle::MasterWorker, &mut |b, _kv| {
                let (lo, hi) = blocks[b];
                let start = rec.now();
                let t0 = Instant::now();
                let inputs = rec.span("som.read_rows", || {
                    matrix.read_rows(lo, hi).expect("read vector block")
                });
                comm.charge(t0.elapsed().as_secs_f64());
                let t0 = Instant::now();
                rec.span("som.accumulate", || {
                    acc.borrow_mut()
                        .accumulate_block_with(&cb, &inputs, sigma, som.kernel)
                });
                comm.charge(t0.elapsed().as_secs_f64());
                rec.unit(epoch, start, 0.0);
            })
        });

        let acc = acc.into_inner();
        let mut packed = acc.numerator;
        packed.extend_from_slice(&acc.denominator);
        let mut summed = vec![0.0; packed.len()];
        let is_root = rec.span("mpisim.reduce", || {
            comm.reduce_f64(0, &packed, &mut summed, ReduceOp::Sum)
        });
        if is_root {
            rec.span("som.apply", || {
                let merged = BatchAccumulator::from_parts(
                    summed[..nn * dims].to_vec(),
                    summed[nn * dims..].to_vec(),
                    dims,
                );
                merged.apply(&mut cb);
            });
        }
    }
    rec.span("mpisim.bcast", || comm.bcast_f64s(0, &mut cb.weights));
    rec.span("mpisim.barrier", || comm.barrier());
    (cb, rec.log.into_inner())
}
