//! perfbench — end-to-end and per-layer benchmark of `mb-blast` / `mb-som`.
//!
//! ```text
//! perfbench --workload <blastn-shred|blastp-blocks|som-tetra> --seed <n>
//!           --seconds <s> --trace <0|1> --bin-dir <dir> --work-dir <dir>
//! ```
//!
//! `--trace 0` times the shipped CLIs end to end; `--trace 1` runs the
//! traced replica of their pipelines for per-layer metrics. Both check every
//! run against a serial reference. The report goes to stdout; its last line
//! is one JSON object. `perfbench/run.py` builds everything and calls this.

mod cli;
mod layers;
mod oracle;
mod probe;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bioseq::db::BlastDb;
use bioseq::fasta::write_fasta_file;
use bioseq::kmer::tetra_frequencies;
use bioseq::shred::query_blocks;
use blast::SearchParams;
use mrbio::VectorMatrix;
use som::quality::quantization_error;
use som::{InitMethod, SomConfig};

use probe::Probe;
use workload::{Kind, RANKS};

/// Set-up repetitions per invocation; `setup_s` is their median. A SOM
/// set-up takes only a few milliseconds, so host jitter needs many.
const SETUP_REPS: usize = 100;
/// Set-up repetitions between two host probes.
const SETUP_BATCH: usize = 10;
/// Fewest measured samples per invocation, whatever `--seconds` says.
const MIN_SAMPLES: usize = 3;
/// `mb-som` reports QE on the first this-many vectors.
const QE_SAMPLE: usize = 2000;
/// `trace.coverage` the traced pass must reach.
const MIN_COVERAGE: f64 = 0.9;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0. A run with no
        // valid sample (every CLI run failed its check) divides by a zero
        // wall; JSON has no infinity, so such a value reads 0 beside
        // `"correct": false`.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        Metric { name, value, unit }
    }
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let pos = raw
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        raw.get(pos + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        kind: Kind::parse(workload).ok_or(format!("unknown workload '{workload}'"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        },
        bin_dir: PathBuf::from(get("--bin-dir")?),
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

/// Everything one invocation reports.
struct Outcome {
    shape: Vec<(&'static str, String)>,
    /// The JSON's metrics: end-to-end without `--trace`, per-layer with it.
    metrics: Vec<Metric>,
    /// Printed only: checks and context.
    extra: Vec<Metric>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn main() {
    let result = parse_args().and_then(|args| {
        std::fs::create_dir_all(&args.work_dir)
            .map_err(|e| format!("create {}: {e}", args.work_dir.display()))?;
        match args.kind {
            Kind::BlastnShred => run_blast(&args, workload::blastn_shred(args.seed)),
            Kind::BlastpBlocks => run_blast(&args, workload::blastp_blocks(args.seed)),
            Kind::SomTetra => run_som(&args, workload::som_tetra(args.seed)),
        }
    });
    match result {
        Ok(outcome) => print_outcome(&outcome),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn print_outcome(o: &Outcome) {
    let shape: Vec<String> = o.shape.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("shape {}", shape.join(" "));
    for m in o.metrics.iter().chain(&o.extra) {
        println!("metric {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Time `run` repeatedly for `seconds` (at least `MIN_SAMPLES` times).
fn for_seconds(
    seconds: f64,
    mut run: impl FnMut(usize) -> Result<f64, String>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut last = 0.0;
    let mut i = 0;
    while i < MIN_SAMPLES || t0.elapsed().as_secs_f64() + last <= seconds {
        last = run(i)?;
        i += 1;
    }
    Ok(())
}

fn run_blast(args: &Args, w: workload::BlastInputs) -> Result<Outcome, String> {
    let dir = &args.work_dir;
    let db_fa = dir.join("db.fa");
    let queries_fa = dir.join("queries.fa");
    write_fasta_file(&db_fa, &w.db).map_err(io("write db FASTA"))?;
    write_fasta_file(&queries_fa, &w.queries).map_err(io("write query FASTA"))?;

    // Set-up: format the DB with the shipped tool, several times.
    let probe = Probe::new();
    let mut db_dir = PathBuf::new();
    let setup_s = time_setup(&probe, |rep| {
        let out = dir.join(format!("db{rep}"));
        let mut a = vec![
            "--in".into(),
            path_arg(&db_fa),
            "--out".into(),
            path_arg(&out),
            "--name".into(),
            "db".into(),
            "--partition-bytes".into(),
            w.partition_bytes.to_string(),
        ];
        if w.protein {
            a.push("--protein".into());
        }
        let o = cli::run(&args.bin_dir.join("mb-formatdb"), &a).map_err(io("spawn mb-formatdb"))?;
        if !o.ok {
            return Err(format!("mb-formatdb failed: {}", o.stderr.trim()));
        }
        if rep > 0 {
            std::fs::remove_dir_all(&db_dir).map_err(io("remove DB copy"))?;
        }
        db_dir = out;
        Ok(o.wall_s)
    })?;
    let db = BlastDb::open(&db_dir, "db").map_err(io("open DB"))?;
    let params = if w.protein {
        SearchParams::blastp()
    } else {
        SearchParams::blastn()
    };
    let reference = oracle::blast_reference(params, &w.queries, &db, w.exclude_self)
        .map_err(io("serial reference"))?;

    let nq = w.queries.len() as u64;
    let nblocks = w.queries.len().div_ceil(w.block_size);
    let shape = vec![
        ("genomes", w.genomes.to_string()),
        ("residues", db.total_residues.to_string()),
        ("partitions", db.num_partitions().to_string()),
        ("queries", nq.to_string()),
        ("units", (nblocks * db.num_partitions()).to_string()),
        ("ranks", RANKS.to_string()),
        ("seed", args.seed.to_string()),
    ];

    let cli_args = |out: &Path| {
        let mut a = vec![
            "--db".into(),
            path_arg(&db_dir),
            "--name".into(),
            "db".into(),
            "--queries".into(),
            path_arg(&queries_fa),
            "--ranks".into(),
            RANKS.to_string(),
            "--block-size".into(),
            w.block_size.to_string(),
            "--out".into(),
            path_arg(out),
        ];
        if w.protein {
            a.push("--protein".to_string());
        }
        if w.exclude_self {
            a.push("--exclude-self".to_string());
        }
        a
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    // One CLI run in a fresh output dir; returns its lines and the failed
    // query count (every query fails when the process does).
    let mut run_cli = |tag: String| -> Result<(cli::Outcome, oracle::LinesByQuery, u64), String> {
        let out = dir.join(tag);
        let o = cli::run(&args.bin_dir.join("mb-blast"), &cli_args(&out))
            .map_err(io("spawn mb-blast"))?;
        let lines = if o.ok {
            oracle::read_rank_files(&out).map_err(io("read hits"))?
        } else {
            Default::default()
        };
        let bad = if o.ok {
            oracle::failed_queries(&lines, &reference.expected) as u64
        } else {
            nq
        };
        if !o.ok {
            eprintln!("perfbench: mb-blast failed: {}", o.stderr.trim());
        }
        attempted += nq;
        failed += bad;
        std::fs::remove_dir_all(&out).ok();
        Ok((o, lines, bad))
    };

    // Warm-up, discarded from timing; its lines are the CLI output the
    // traced replica must reproduce.
    let (_, cli_lines, _) = run_cli("warmup".into())?;
    let mut extra = Vec::new();

    let (metrics, covered) = if !args.trace {
        let serial = || {
            oracle::blast_reference(params, &w.queries, &db, w.exclude_self)
                .map(|r| r.serial_s)
                .map_err(io("serial reference"))
        };
        let cli = |i: usize| run_cli(format!("run{i}")).map(|(o, _, bad)| (o, bad == 0));
        let timed = time_cli_and_serial(&probe, args.seconds, cli, serial)?;
        extra.push(Metric::new("wall_s.raw", timed.raw_wall_s, "s"));
        (end_to_end(&timed, setup_s, nq as f64), true)
    } else {
        let job = Arc::new(traced::BlastJob {
            db: db.clone(),
            blocks: query_blocks(w.queries.clone(), w.block_size),
            params,
            exclude_self: w.exclude_self,
        });
        traced_pass(args.seconds, &mut extra, |traced| {
            let out = dir.join(if traced { "traced" } else { "untraced" });
            let r = traced::blast(&job, &out, traced);
            // The replica must match the serial reference and, bit for bit,
            // the CLI's own lines.
            let lines = oracle::read_rank_files(&out).map_err(io("read replica hits"))?;
            let bad = oracle::failed_queries(&lines, &reference.expected)
                .max(oracle::failed_queries(&lines, &cli_lines));
            attempted += nq;
            failed += bad as u64;
            std::fs::remove_dir_all(&out).ok();
            let layers = layers::metrics(&r, true, 0.0, 0.0);
            Ok((r, layers))
        })?
    };
    extra.push(Metric::new(
        "failed_frac",
        failed as f64 / attempted as f64,
        "ratio",
    ));
    Ok(Outcome {
        shape,
        metrics,
        extra,
        attempted,
        failed,
        correct: failed == 0 && covered,
    })
}

fn run_som(args: &Args, w: workload::SomInputs) -> Result<Outcome, String> {
    let dir = &args.work_dir;

    // Set-up: composition vectors and the on-disk matrix, several times,
    // each into a fresh file as `mb-formatdb` gets a fresh directory.
    let probe = Probe::new();
    let mut matrix = PathBuf::new();
    let mut vectors = Vec::new();
    let setup_s = time_setup(&probe, |rep| {
        let out = dir.join(format!("vectors{rep}.bin"));
        let t0 = Instant::now();
        vectors = w
            .fragments
            .iter()
            .map(|r| tetra_frequencies(&r.seq))
            .collect();
        VectorMatrix::create(&out, &vectors).map_err(io("write matrix"))?;
        let secs = t0.elapsed().as_secs_f64();
        if rep > 0 {
            std::fs::remove_file(&matrix).map_err(io("remove matrix copy"))?;
        }
        matrix = out;
        Ok(secs)
    })?;
    let n = vectors.len();
    let dims = vectors[0].len();
    let som = SomConfig {
        rows: w.rows,
        cols: w.cols,
        dims,
        epochs: w.epochs,
        seed: 42,
        init: InitMethod::PcaPlane,
        ..SomConfig::default()
    };
    let sample = n.min(QE_SAMPLE);
    let reference = oracle::som_reference(&vectors, &som, sample);
    let vector_epochs = (n * w.epochs) as f64;
    let shape = vec![
        ("genomes", w.genomes.to_string()),
        ("vectors", n.to_string()),
        ("dims", dims.to_string()),
        ("map", format!("{}x{}", w.rows, w.cols)),
        ("epochs", w.epochs.to_string()),
        ("units", (n.div_ceil(w.block_size) * w.epochs).to_string()),
        ("ranks", RANKS.to_string()),
        ("seed", args.seed.to_string()),
    ];

    let cli_args: Vec<String> = [
        "--input",
        &path_arg(&matrix),
        "--rows",
        &w.rows.to_string(),
        "--cols",
        &w.cols.to_string(),
        "--epochs",
        &w.epochs.to_string(),
        "--ranks",
        &RANKS.to_string(),
        "--block-size",
        &w.block_size.to_string(),
        "--seed",
        &som.seed.to_string(),
        "--pca",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut qes = Vec::new();
    // One CLI run; a run fails when it exits non-zero or its QE is off.
    let mut run_cli = || -> Result<(cli::Outcome, bool), String> {
        let o = cli::run(&args.bin_dir.join("mb-som"), &cli_args).map_err(io("spawn mb-som"))?;
        let qe = oracle::parse_som_qe(&o.stdout);
        let good = o.ok && qe.is_some_and(|q| oracle::qe_matches(q, reference.quant_error));
        if !good {
            eprintln!(
                "perfbench: mb-som run failed (QE {qe:?}, want {}): {}",
                reference.quant_error,
                o.stderr.trim()
            );
        }
        qes.extend(qe);
        attempted += 1;
        failed += u64::from(!good);
        Ok((o, good))
    };

    run_cli()?; // warm-up, discarded from timing
    let mut extra = Vec::new();
    let (metrics, covered) = if !args.trace {
        let serial = || Ok(oracle::som_reference(&vectors, &som, sample).serial_s);
        let timed = time_cli_and_serial(&probe, args.seconds, |_| run_cli(), serial)?;
        extra.push(Metric::new("wall_s.raw", timed.raw_wall_s, "s"));
        extra.push(Metric::new("quant_error", median(&qes), "l2"));
        (end_to_end(&timed, setup_s, vector_epochs), true)
    } else {
        let cli_qe = qes.first().copied().unwrap_or(f64::NAN);
        let job = Arc::new(traced::SomJob {
            matrix: matrix.clone(),
            som,
            block_size: w.block_size,
        });
        let sample_rows = &vectors[..sample];
        traced_pass(args.seconds, &mut extra, |traced| {
            let r = traced::som(&job, traced);
            let cb = r.codebook.as_ref().ok_or("replica returned no map")?;
            let qe = quantization_error(cb, sample_rows);
            let good =
                oracle::qe_matches(qe, reference.quant_error) && oracle::qe_matches(cli_qe, qe);
            if !good {
                eprintln!(
                    "perfbench: replica QE {qe} vs CLI {cli_qe} vs serial {}",
                    reference.quant_error
                );
            }
            attempted += 1;
            failed += u64::from(!good);
            let layers = layers::metrics(&r, false, (som.rows * som.cols * som.dims) as f64, qe);
            Ok((r, layers))
        })?
    };
    extra.push(Metric::new(
        "failed_frac",
        failed as f64 / attempted as f64,
        "ratio",
    ));
    Ok(Outcome {
        shape,
        metrics,
        extra,
        attempted,
        failed,
        correct: failed == 0 && covered,
    })
}

/// Median of `SETUP_REPS` set-ups, normalised to host speed by the median
/// of host probes taken between batches of `SETUP_BATCH`. A set-up lasts
/// milliseconds, less than one probe, so a single pair of probes says
/// little about the host while it ran; the phase as a whole is matched.
fn time_setup(
    probe: &Probe,
    mut rep: impl FnMut(usize) -> Result<f64, String>,
) -> Result<f64, String> {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut probes = vec![probe.time()];
    for first in (0..SETUP_REPS).step_by(SETUP_BATCH) {
        for i in first..first + SETUP_BATCH {
            setup.push(rep(i)?);
        }
        probes.push(probe.time());
    }
    let host = median(&probes);
    Ok(probe::normalise(median(&setup), host, host))
}

/// Medians of the timed samples of one invocation.
struct Timed {
    /// CLI wall clock, normalised to host speed.
    wall_s: f64,
    /// CLI wall clock as measured.
    raw_wall_s: f64,
    speedup: f64,
    peak_rss_mb: f64,
}

/// Alternate one CLI run, bracketed by host probes, and one timed serial
/// reference for `seconds`. A CLI run that fails its check is no timing
/// sample. The speed-up is the median over adjacent (CLI, serial) pairs, so
/// a slow phase of the host shifts both sides of a pair.
fn time_cli_and_serial(
    probe: &Probe,
    seconds: f64,
    mut cli: impl FnMut(usize) -> Result<(cli::Outcome, bool), String>,
    mut serial: impl FnMut() -> Result<f64, String>,
) -> Result<Timed, String> {
    let (mut walls, mut raw, mut rss, mut ratios) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for_seconds(seconds, |i| {
        let before = probe.time();
        let (o, good) = cli(i)?;
        let after = probe.time();
        let s = serial()?;
        if good {
            raw.push(o.wall_s);
            walls.push(probe::normalise(o.wall_s, before, after));
            rss.push(o.peak_rss_mb);
            ratios.push(s / o.wall_s);
        }
        Ok(before + o.wall_s + after + s)
    })?;
    Ok(Timed {
        wall_s: median(&walls),
        raw_wall_s: median(&raw),
        speedup: median(&ratios),
        peak_rss_mb: median(&rss),
    })
}

/// The end-to-end metrics; `work` is queries (BLAST) or vector-epochs (SOM).
fn end_to_end(t: &Timed, setup_s: f64, work: f64) -> Vec<Metric> {
    vec![
        Metric::new("wall_s", t.wall_s, "s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("queries_per_s", work / t.wall_s, "1/s"),
        Metric::new("speedup_vs_serial", t.speedup, "x"),
        Metric::new("peak_rss_mb", t.peak_rss_mb, "MB"),
    ]
}

/// Alternate untraced and traced replica runs for `seconds`. Per-layer
/// metrics are medians over the traced runs; `trace.overhead` compares the
/// two walls and `trace.coverage` is the median span coverage. Also returns
/// whether every traced run reached `MIN_COVERAGE`.
fn traced_pass(
    seconds: f64,
    extra: &mut Vec<Metric>,
    mut run: impl FnMut(bool) -> Result<(traced::Replica, Vec<Metric>), String>,
) -> Result<(Vec<Metric>, bool), String> {
    let (mut untraced, mut traced_walls, mut coverage) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples: Vec<Vec<Metric>> = Vec::new();
    for_seconds(seconds, |_| {
        let (plain, _) = run(false)?;
        untraced.push(plain.wall_s);
        let (r, layers) = run(true)?;
        traced_walls.push(r.wall_s);
        coverage.push(layers::coverage(&r));
        samples.push(layers);
        Ok(plain.wall_s + r.wall_s)
    })?;
    let mut metrics: Vec<Metric> = samples[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = samples.iter().map(|s| s[i].value).collect();
            Metric::new(m.name, median(&values), m.unit)
        })
        .collect();
    metrics.push(Metric::new(
        "trace.overhead",
        median(&traced_walls) / median(&untraced) - 1.0,
        "ratio",
    ));
    metrics.push(Metric::new("trace.coverage", median(&coverage), "ratio"));
    let worst = coverage.iter().copied().fold(f64::INFINITY, f64::min);
    extra.push(Metric::new("trace.coverage.min", worst, "ratio"));
    Ok((metrics, worst >= MIN_COVERAGE))
}
