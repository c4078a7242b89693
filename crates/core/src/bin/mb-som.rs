//! `mb-som` — train a batch SOM in parallel over simulated MPI ranks.
//!
//! The command-line face of the paper's second application. Input is either
//! an existing dense matrix file (`mrbio::VectorMatrix`) or a FASTA file
//! converted to tetranucleotide composition vectors on the fly (the paper's
//! metagenomic binning space). Training runs on the fault-tolerant
//! master-worker scheduler; a run that fails with a typed error prints
//! `mb-som: <error>` and exits with status 2.
//!
//! ```text
//! mb-som --input vectors.bin --rows 20 --cols 20 --epochs 10 --ranks 4
//!        [--block-size 40] [--kernel gaussian|bubble] [--pca] [--torus]
//!        [--umatrix out.pgm] [--rgb out.ppm]
//! mb-som --fasta contigs.fa --tetra --rows 12 --cols 12 …
//! ```

use bioseq::fasta::read_fasta_file;
use bioseq::kmer::tetra_frequencies;
use mpisim::{ReduceOp, World};
use mrbio::cliargs::Args;
use mrbio::{run_mrsom, MrSomConfig, VectorMatrix};
use som::neighborhood::{InitMethod, Kernel, SomConfig};
use som::ppm::{write_codebook_rgb, write_umatrix_pgm};
use som::quality::quantization_error;
use som::umatrix::{ridge_valley_ratio, umatrix};

/// Vectors the printed quantization error is computed over.
const QE_SAMPLE: usize = 2000;

fn usage() {
    println!(
        "mb-som — parallel batch SOM over simulated MPI ranks\n\
         \n\
         input (one of):\n  --input <matrix.bin>  dense f64 matrix (VectorMatrix format)\n  \
         --fasta <file> --tetra  FASTA → 256-dim tetranucleotide vectors\n\
         \n\
         optional:\n  --rows/--cols <n>     map shape (default 20×20)\n  \
         --epochs <n>          training epochs (default 10)\n  \
         --ranks <n>           MPI ranks to simulate (default 4)\n  \
         --block-size <n>      vectors per work unit (default 40, as the paper)\n  \
         --kernel <name>       gaussian (default) or bubble\n  \
         --pca                 PCA-plane initialization\n  \
         --torus               toroidal grid\n  \
         --umatrix <file.pgm>  write the U-matrix image\n  \
         --rgb <file.ppm>      write the codebook as RGB (3-dim input only)\n  \
         --seed <n>            RNG seed (default 42)"
    );
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return Ok(());
    }
    let args = Args::parse(&raw, &["tetra", "pca", "torus"])?;
    let rows = args.get_count("rows", 20)?;
    let cols = args.get_count("cols", 20)?;
    let epochs = args.get_usize("epochs", 10)?;
    let ranks = args.get_count("ranks", 4)?;
    let block_size = args.get_count("block-size", 40)?;
    let seed = args.get_usize("seed", 42)? as u64;
    let kernel = match args.get("kernel").unwrap_or("gaussian") {
        "gaussian" => Kernel::Gaussian,
        "bubble" => Kernel::Bubble,
        other => return Err(format!("unknown kernel '{other}'")),
    };
    let init = if args.has("pca") { InitMethod::PcaPlane } else { InitMethod::Random };
    let torus = args.has("torus");
    let umatrix_out = args.get("umatrix").map(String::from);
    let rgb_out = args.get("rgb").map(String::from);

    // Resolve the input to a matrix file.
    let tmp_matrix;
    let matrix_path = if let Some(m) = args.get("input") {
        m.to_string()
    } else {
        let fasta = args.require("fasta")?.to_string();
        if !args.has("tetra") {
            return Err("--fasta input requires --tetra (composition vectors)".into());
        }
        let records = read_fasta_file(&fasta).map_err(|e| format!("read {fasta}: {e}"))?;
        let vectors: Vec<Vec<f64>> =
            records.iter().map(|r| tetra_frequencies(&r.seq)).collect();
        tmp_matrix = std::env::temp_dir().join(format!("mb-som-{}.bin", std::process::id()));
        VectorMatrix::create(&tmp_matrix, &vectors).map_err(|e| format!("write matrix: {e}"))?;
        eprintln!("computed {} tetranucleotide vectors from {fasta}", vectors.len());
        tmp_matrix.to_string_lossy().into_owned()
    };
    args.reject_unknown()?;

    let probe = VectorMatrix::open(&matrix_path).map_err(|e| format!("open matrix: {e}"))?;
    let dims = probe.dims;
    let n = probe.n;
    drop(probe);
    eprintln!("training {rows}x{cols} SOM on {n} x {dims}-d vectors, {epochs} epochs, {ranks} ranks…");

    let som = SomConfig {
        rows,
        cols,
        dims,
        epochs,
        seed,
        kernel,
        init,
        torus,
        ..SomConfig::default()
    };
    let mp = matrix_path.clone();
    let sample_end = n.min(QE_SAMPLE);
    let t0 = std::time::Instant::now();
    let results = World::new(ranks)
        .run(move |comm| {
            let matrix = VectorMatrix::open(&mp).expect("open matrix");
            let cfg = MrSomConfig { block_size, ..MrSomConfig::new(som) };
            let (cb, _) = run_mrsom(comm, &matrix, &cfg)
                .map_err(|e| e.to_string())?;
            // The printed QE, scored in parallel: each rank takes its slice
            // of the first `sample_end` rows, one allreduce sums the slices.
            // A rank whose read fails still joins the allreduce, so no peer
            // waits on it, and then reports the error.
            let (lo, hi) = slice_of(sample_end, comm.size(), comm.rank());
            let part = matrix
                .read_rows(lo, hi)
                .map(|rows| quantization_error(&cb, &rows) * rows.len() as f64);
            let mut qe_sum = [*part.as_ref().unwrap_or(&0.0)];
            comm.allreduce_f64_in_place(&mut qe_sum, ReduceOp::Sum);
            part.map_err(|e| format!("read QE sample: {e}"))?;
            Ok::<_, String>((cb, qe_sum[0] / sample_end.max(1) as f64))
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let (cb, qe) = &results[0];
    let wall = t0.elapsed().as_secs_f64();

    let u = umatrix(cb);
    println!(
        "trained in {wall:.2}s; quantization error (first {sample_end} vectors) = {qe:.5}; \
         U-matrix ridge/valley = {:.2}",
        ridge_valley_ratio(&u)
    );
    if let Some(path) = umatrix_out {
        write_umatrix_pgm(&path, cb, &u).map_err(|e| e.to_string())?;
        println!("U-matrix written to {path}");
    }
    if let Some(path) = rgb_out {
        if dims != 3 {
            return Err("--rgb needs 3-dimensional input".into());
        }
        write_codebook_rgb(&path, cb).map_err(|e| e.to_string())?;
        println!("RGB map written to {path}");
    }
    Ok(())
}

/// Rows `[lo, hi)` of the first `n` that `rank` of `size` scores.
fn slice_of(n: usize, size: usize, rank: usize) -> (usize, usize) {
    (n * rank / size, n * (rank + 1) / size)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("mb-som: {e}");
        std::process::exit(2);
    }
}
