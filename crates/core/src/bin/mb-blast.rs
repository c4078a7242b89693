//! `mb-blast` — run the parallel MR-MPI BLAST on a formatted database.
//!
//! The command-line face of the paper's first application: simulated MPI
//! ranks, fault-tolerant master-worker scheduling, per-rank tabular output
//! files. A run that fails with a typed error (e.g. every worker died)
//! prints `mb-blast: <error>` and exits with status 2.
//!
//! ```text
//! mb-blast --db dbdir --name refdb --queries reads.fa --ranks 4
//!          [--protein] [--evalue 10] [--max-hits 500] [--block-size 100]
//!          [--out hits_dir] [--exclude-self] [--locality] [--adaptive]
//!          [--trace trace.json]
//! ```

use bioseq::db::BlastDb;
use bioseq::fasta::read_fasta_file;
use bioseq::shred::query_blocks;
use blast::SearchParams;
use mpisim::World;
use mrbio::cliargs::Args;
use mrbio::{run_mrblast, run_mrblast_adaptive, AdaptiveConfig, MrBlastConfig};
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
         --evalue <e>      E-value cutoff (default 10)\n  \
         --max-hits <k>    top-K hits per query, 0 = unlimited (default 500)\n  \
         --block-size <n>  queries per work-unit block (default 100)\n  \
         --out <dir>       write per-rank tabular files here\n  \
         --exclude-self    drop hits of fragments against their source sequence\n  \
         --locality        locality-aware master (future-work scheduler)\n  \
         --adaptive        dynamic block sizing from a FASTA offset index\n  \
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
    let args = Args::parse(&raw, &["protein", "translated", "exclude-self", "locality", "adaptive"])?;
    let db_dir = args.require("db")?.to_string();
    let name = args.require("name")?.to_string();
    let queries_path = args.require("queries")?.to_string();
    let ranks = args.get_count("ranks", 4)?;
    let protein = args.has("protein");
    let translated = args.has("translated");
    let evalue = args.get_f64("evalue", 10.0)?;
    let max_hits = args.get_usize("max-hits", 500)?;
    let block_size = args.get_count("block-size", 100)?;
    let out = args.get("out").map(PathBuf::from);
    let exclude_self = args.has("exclude-self");
    let locality = args.has("locality");
    let adaptive = args.has("adaptive");
    let trace_path = args.get("trace").map(PathBuf::from);
    args.reject_unknown()?;

    let collector = trace_path.as_ref().map(|_| obs::Collector::new());
    let make_world = |ranks: usize| {
        let mut w = World::new(ranks);
        if let Some(c) = &collector {
            w = w.with_obs(c.clone());
        }
        w
    };

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

    let t0 = std::time::Instant::now();
    let (reports, queries_n) = if adaptive {
        let qp = PathBuf::from(&queries_path);
        let db2 = db.clone();
        let cfg2 = cfg.clone();
        let reports = make_world(ranks)
            .run(move |comm| {
                run_mrblast_adaptive(comm, &db2, &qp, &cfg2, &AdaptiveConfig::default())
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        eprintln!(
            "adaptive block size chosen: {} ({} blocks)",
            reports[0].chosen_block,
            reports[0].block_ranges.len()
        );
        let queries_n = reports[0].block_ranges.last().map_or(0, |&(_, e)| e);
        (reports.into_iter().map(|r| r.base).collect::<Vec<_>>(), queries_n)
    } else {
        let queries =
            read_fasta_file(&queries_path).map_err(|e| format!("read {queries_path}: {e}"))?;
        let queries_n = queries.len();
        let blocks = Arc::new(query_blocks(queries, block_size));
        let db2 = db.clone();
        let cfg2 = cfg.clone();
        let reports = make_world(ranks)
            .run(move |comm| run_mrblast(comm, &db2, &blocks, &cfg2))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        (reports, queries_n)
    };
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
