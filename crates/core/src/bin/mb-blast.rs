//! `mb-blast` — run the parallel MR-MPI BLAST on a formatted database.
//!
//! The command-line face of the paper's first application: simulated MPI
//! ranks, fault-tolerant master-worker scheduling, per-rank tabular output
//! files. The query FASTA is cut into blocks of `--block-size` queries; the
//! scheduler's grants join a worker's blocks of one DB partition while many
//! units are pending and hand out single blocks in the tail, so a small
//! block size needs no tuning for load balance. A run that fails with a
//! typed error (e.g. every worker died, or the output directory cannot be
//! created) prints `mb-blast: <error>` and exits with status 2.
//!
//! ```text
//! mb-blast --db dbdir --name refdb --queries reads.fa --ranks 4
//!          [--protein] [--evalue 10] [--max-hits 500] [--block-size 100]
//!          [--out hits_dir] [--exclude-self] [--locality]
//!          [--trace trace.json]
//! ```

use bioseq::db::BlastDb;
use bioseq::fasta::read_fasta_file;
use bioseq::shred::query_blocks;
use blast::SearchParams;
use mpisim::World;
use mrbio::cliargs::Args;
use mrbio::{run_mrblast, MrBlastConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn usage() {
    println!(
        "mb-blast — parallel BLAST over simulated MPI ranks\n\
         \n\
         required:\n  --db <dir>        database directory (from mb-formatdb)\n  \
         --name <name>     database name\n  --queries <fasta> query FASTA file\n\
         \n\
         optional:\n  --ranks <n>       MPI ranks to simulate (default 4)\n  \
         --protein         blastp mode (default blastn)\n  \
         --translated      blastx mode: DNA queries vs protein DB\n  \
         --evalue <e>      E-value cutoff, >= 0 or inf (default 10)\n  \
         --max-hits <k>    top-K hits per query, 0 = unlimited (default 500)\n  \
         --block-size <n>  queries per work-unit block (default 100); the\n  \
                    scheduler joins small blocks into larger grants while\n  \
                    work is plentiful and hands out single blocks at the end\n  \
         --out <dir>       write per-rank tabular files here\n  \
         --exclude-self    drop hits of fragments against their source sequence\n  \
         --locality        locality-aware master (future-work scheduler)\n  \
         --trace <file>    record a per-rank trace; writes Chrome/Perfetto JSON\n  \
                    (load at ui.perfetto.dev) and prints a per-stage summary"
    );
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return Ok(());
    }
    let args = Args::parse(&raw, &["protein", "translated", "exclude-self", "locality"])?;
    let db_dir = args.require("db")?.to_string();
    let name = args.require("name")?.to_string();
    let queries_path = args.require("queries")?.to_string();
    let ranks = args.get_count("ranks", 4)?;
    let protein = args.has("protein");
    let translated = args.has("translated");
    let evalue = args.get_nonneg_f64("evalue", 10.0)?;
    let max_hits = args.get_usize("max-hits", 500)?;
    let block_size = args.get_count("block-size", 100)?;
    let out = args.get("out").map(PathBuf::from);
    let exclude_self = args.has("exclude-self");
    let locality = args.has("locality");
    let trace_path = args.get("trace").map(PathBuf::from);
    args.reject_unknown()?;

    let db = Arc::new(BlastDb::open(&db_dir, &name).map_err(|e| format!("open db: {e}"))?);
    let params = if translated {
        SearchParams::blastx()
    } else if protein {
        SearchParams::blastp()
    } else {
        SearchParams::blastn()
    }
    .with_evalue(evalue)
    .with_max_hits(max_hits);
    let base = if protein || translated {
        MrBlastConfig::blastp()
    } else {
        MrBlastConfig::blastn()
    };
    let cfg = MrBlastConfig {
        params,
        locality_aware: locality,
        exclude_self,
        output_dir: out,
        ..base
    };

    eprintln!(
        "searching {} against {}/{} ({} partitions, {} residues) on {ranks} ranks…",
        queries_path,
        db_dir,
        name,
        db.num_partitions(),
        db.total_residues
    );

    // Every rank opens its output file under this directory; a path that
    // cannot be a directory is one error here, not a panic on every rank.
    if let Some(dir) = &cfg.output_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("create output dir {}: {e}", dir.display()))?;
    }

    let t0 = std::time::Instant::now();
    let queries =
        read_fasta_file(&queries_path).map_err(|e| format!("read {queries_path}: {e}"))?;
    let queries_n = queries.len();
    let blocks = Arc::new(query_blocks(queries, block_size));
    let collector = trace_path.as_ref().map(|_| obs::Collector::new());
    let mut world = World::new(ranks);
    if let Some(c) = &collector {
        world = world.with_obs(c.clone());
    }
    let reports = world
        .run(move |comm| run_mrblast(comm, &db, &blocks, &cfg))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for r in &reports {
        if let Some(path) = &r.output_file {
            eprintln!("rank {} → {}", r.rank, path.display());
        }
    }
    let total_hits: usize = reports.iter().map(|r| r.hits.len()).sum();
    let loads: u64 = reports.iter().map(|r| r.db_loads).sum();
    let busy: f64 = reports.iter().map(|r| r.busy.busy_total()).sum();

    println!(
        "{total_hits} hits for {queries_n} queries in {:.2}s wall ({} partition loads, {:.2}s work-unit time)",
        t0.elapsed().as_secs_f64(),
        loads,
        busy
    );

    if let (Some(path), Some(collector)) = (&trace_path, &collector) {
        let trace = collector.trace();
        trace.validate().map_err(|e| format!("trace validation: {e}"))?;
        std::fs::write(path, trace.chrome_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("\n{}", trace.stage_summary());
        // Coverage check: the per-iteration driver span should account for
        // (almost) the whole simulated run — large gaps mean an
        // uninstrumented stage.
        let sim_wall = trace
            .ranks
            .iter()
            .flat_map(|r| r.events.iter().map(obs::Event::t))
            .fold(0.0_f64, f64::max);
        if let Some(stat) = trace.stage_totals().get("blast.iteration") {
            println!(
                "stage coverage: blast.iteration {:.3}s of {:.3}s sim wall ({:.1}%)",
                stat.max_rank_s,
                sim_wall,
                100.0 * stat.max_rank_s / sim_wall.max(f64::MIN_POSITIVE)
            );
        }
        println!("trace written to {} — open at https://ui.perfetto.dev", path.display());
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("mb-blast: {e}");
        std::process::exit(2);
    }
}
