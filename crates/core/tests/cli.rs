//! End-to-end tests of the shipped command-line tools, run as real
//! subprocesses: `mb-formatdb` → `mb-blast` → per-rank tabular files, and
//! `mb-som` on tetranucleotide vectors.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn write_fixture(dir: &Path) -> (PathBuf, PathBuf) {
    use bioseq::fasta::write_fasta_file;
    use bioseq::gen::{self, rng};
    use bioseq::seq::SeqRecord;
    use bioseq::shred::{shred_records, ShredConfig};

    let mut r = rng(9001);
    let genomes: Vec<SeqRecord> = (0..4)
        .map(|i| SeqRecord::new(format!("g{i}"), gen::random_dna(&mut r, 2500, 0.5)))
        .collect();
    let refs = dir.join("refs.fa");
    write_fasta_file(&refs, &genomes).unwrap();
    let reads = shred_records(&genomes[..2], &ShredConfig::default());
    let reads_path = dir.join("reads.fa");
    write_fasta_file(&reads_path, &reads).unwrap();
    (refs, reads_path)
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn tool");
    assert!(
        out.status.success(),
        "tool failed ({:?}):\nstdout: {}\nstderr: {}",
        cmd.get_program(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn formatdb_blast_pipeline_via_cli() {
    let dir = std::env::temp_dir().join(format!("cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (refs, reads) = write_fixture(&dir);
    let dbdir = dir.join("db");
    let hits = dir.join("hits");

    let out = run_ok(Command::new(env!("CARGO_BIN_EXE_mb-formatdb")).args([
        "--in",
        refs.to_str().unwrap(),
        "--out",
        dbdir.to_str().unwrap(),
        "--name",
        "refdb",
        "--partition-bytes",
        "1200",
    ]));
    assert!(out.contains("4 sequences"), "formatdb output: {out}");

    let out = run_ok(Command::new(env!("CARGO_BIN_EXE_mb-blast")).args([
        "--db",
        dbdir.to_str().unwrap(),
        "--name",
        "refdb",
        "--queries",
        reads.to_str().unwrap(),
        "--ranks",
        "3",
        "--evalue",
        "1e-6",
        "--out",
        hits.to_str().unwrap(),
        "--exclude-self",
    ]));
    assert!(out.contains("hits for"), "blast output: {out}");

    // Per-rank files exist and are 12-column tabular.
    let mut total_lines = 0usize;
    for rank in 0..3 {
        let path = hits.join(format!("hits.rank{rank:04}.tsv"));
        let content = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
        for line in content.lines() {
            assert_eq!(line.split('\t').count(), 12);
        }
        total_lines += content.lines().count();
    }
    // With self-exclusion and no cross-genome homology the fragments have no
    // hits; rerun without exclusion must produce hits.
    let out = run_ok(Command::new(env!("CARGO_BIN_EXE_mb-blast")).args([
        "--db",
        dbdir.to_str().unwrap(),
        "--name",
        "refdb",
        "--queries",
        reads.to_str().unwrap(),
        "--ranks",
        "2",
        "--evalue",
        "1e-6",
    ]));
    let hits_count: usize = out
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    assert!(hits_count > 0, "self-hits expected without exclusion: {out}");
    assert_eq!(total_lines, 0, "exclusion should drop all hits in this fixture");

    std::fs::remove_dir_all(&dir).ok();
}

/// Every per-rank tabular file under `dir`, grouped by query id (first
/// column), each query's lines in file order.
fn lines_by_query(dir: &Path, ranks: usize) -> BTreeMap<String, Vec<String>> {
    let mut by_query: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for rank in 0..ranks {
        let path = dir.join(format!("hits.rank{rank:04}.tsv"));
        let content = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
        for line in content.lines() {
            let query = line.split('\t').next().unwrap_or_default().to_string();
            by_query.entry(query).or_default().push(line.to_string());
        }
    }
    by_query
}

/// Run `cmd`, which must fail with exit status 2 and a message naming
/// `needle` on stderr, without a panic and without a `trained in` line.
fn assert_typed_failure(cmd: &mut Command, needle: &str) {
    let out = cmd.output().expect("spawn tool");
    let err = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{cmd:?}: stderr: {err}");
    assert!(err.contains(needle), "{cmd:?} must name '{needle}': {err}");
    assert!(!err.contains("panicked"), "{cmd:?} panicked: {err}");
    assert!(!stdout.contains("trained in"), "{cmd:?} trained before failing: {stdout}");
}

/// Format the fixture's references into `dir/db`, several partitions;
/// returns the `mb-blast` arguments that search the fixture's reads
/// against it.
fn blast_fixture(dir: &Path) -> Vec<String> {
    let (refs, reads) = write_fixture(dir);
    let dbdir = dir.join("db");
    run_ok(Command::new(env!("CARGO_BIN_EXE_mb-formatdb")).args([
        "--in",
        refs.to_str().unwrap(),
        "--out",
        dbdir.to_str().unwrap(),
        "--name",
        "refdb",
        "--partition-bytes",
        "1200",
    ]));
    ["--db", dbdir.to_str().unwrap(), "--name", "refdb", "--queries", reads.to_str().unwrap()]
        .map(String::from)
        .to_vec()
}

/// Grants join small blocks while the pool is full and hand out single
/// blocks in the tail; the hits per query are those of the default run.
#[test]
fn small_blocks_write_the_same_per_query_lines_as_the_default_run() {
    let dir = std::env::temp_dir().join(format!("cli-small-blocks-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let search = blast_fixture(&dir);
    let blast = |out: &Path, block_size: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mb-blast"));
        cmd.args(&search);
        cmd.args(["--ranks", "3", "--evalue", "1e-6", "--out", out.to_str().unwrap()]);
        if let Some(n) = block_size {
            cmd.args(["--block-size", n]);
        }
        run_ok(&mut cmd)
    };
    blast(&dir.join("default"), None);
    blast(&dir.join("small"), Some("2"));

    let want = lines_by_query(&dir.join("default"), 3);
    assert!(!want.is_empty(), "fixture must produce hits");
    assert_eq!(lines_by_query(&dir.join("small"), 3), want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn blast_output_dir_that_cannot_be_created_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("cli-outdir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blast = blast_fixture(&dir);
    let file = dir.join("plain-file");
    std::fs::write(&file, b"not a directory").unwrap();
    let out = file.join("hits");
    assert_typed_failure(
        Command::new(env!("CARGO_BIN_EXE_mb-blast"))
            .args(&blast)
            .args(["--ranks", "3", "--out", out.to_str().unwrap()]),
        &format!("create output dir {}", out.display()),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn blast_rejects_a_nan_or_negative_evalue_and_keeps_inf() {
    let dir = std::env::temp_dir().join(format!("cli-evalue-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blast = blast_fixture(&dir);
    for bad in ["-1", "nan"] {
        assert_typed_failure(
            Command::new(env!("CARGO_BIN_EXE_mb-blast")).args(&blast).args(["--evalue", bad]),
            "--evalue",
        );
    }
    let out = run_ok(Command::new(env!("CARGO_BIN_EXE_mb-blast")).args(&blast).args([
        "--ranks", "2", "--evalue", "inf",
    ]));
    assert!(out.contains("hits for"), "blast output: {out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A switch the tool does not know (a removed one, or a typo) is named in
/// the error wherever it stands on the line.
#[test]
fn blast_names_an_unknown_switch_wherever_it_stands() {
    let dir = std::env::temp_dir().join(format!("cli-unknown-switch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blast = blast_fixture(&dir);
    assert_typed_failure(
        Command::new(env!("CARGO_BIN_EXE_mb-blast")).args(&blast).arg("--no-such-switch"),
        "--no-such-switch",
    );
    assert_typed_failure(
        Command::new(env!("CARGO_BIN_EXE_mb-blast"))
            .args(&blast)
            .args(["--no-such-switch", "--ranks", "2"]),
        "--no-such-switch",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn som_rejects_empty_input_and_rgb_on_non_rgb_input_before_training() {
    let dir = std::env::temp_dir().join(format!("cli-som-reject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (refs, _) = write_fixture(&dir);
    let empty = dir.join("empty.fa");
    std::fs::write(&empty, b"").unwrap();
    let som = |fasta: &Path| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mb-som"));
        cmd.args(["--fasta", fasta.to_str().unwrap(), "--tetra", "--rows", "4", "--cols", "4"]);
        cmd.args(["--epochs", "2", "--ranks", "2"]);
        cmd
    };
    assert_typed_failure(&mut som(&empty), "no vectors");
    let ppm = dir.join("map.ppm");
    assert_typed_failure(som(&refs).args(["--rgb", ppm.to_str().unwrap()]), "--rgb");
    assert!(!ppm.exists(), "no RGB map for rejected input");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn som_removes_its_converted_matrix_on_success_and_on_failure() {
    let dir = std::env::temp_dir().join(format!("cli-som-tmp-{}", std::process::id()));
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).unwrap();
    let (refs, _) = write_fixture(&dir);
    let leftovers = || std::fs::read_dir(&tmp).unwrap().count();
    let som = || {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mb-som"));
        cmd.env("TMPDIR", &tmp);
        cmd.args(["--fasta", refs.to_str().unwrap(), "--tetra", "--rows", "4", "--cols", "4"]);
        cmd.args(["--epochs", "2", "--ranks", "2"]);
        cmd
    };
    let out = run_ok(&mut som());
    assert!(out.contains("trained in"), "som output: {out}");
    assert_eq!(leftovers(), 0, "successful run left files in TMPDIR");
    let ppm = dir.join("map.ppm");
    assert_typed_failure(som().args(["--rgb", ppm.to_str().unwrap()]), "--rgb");
    assert_eq!(leftovers(), 0, "failed run left files in TMPDIR");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn som_cli_on_tetra_vectors() {
    let dir = std::env::temp_dir().join(format!("cli-som-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (refs, _) = write_fixture(&dir);
    let um = dir.join("u.pgm");

    let out = run_ok(Command::new(env!("CARGO_BIN_EXE_mb-som")).args([
        "--fasta",
        refs.to_str().unwrap(),
        "--tetra",
        "--rows",
        "6",
        "--cols",
        "6",
        "--epochs",
        "5",
        "--ranks",
        "2",
        "--umatrix",
        um.to_str().unwrap(),
        "--kernel",
        "bubble",
        "--torus",
    ]));
    assert!(out.contains("trained in"), "som output: {out}");
    let img = std::fs::read(&um).expect("U-matrix image written");
    assert!(img.starts_with(b"P5\n6 6\n255\n"));

    std::fs::remove_dir_all(&dir).ok();
}

/// The quantization error `mb-som` prints: `… quantization error (first N
/// vectors) = X; …`.
fn printed_qe(stdout: &str) -> f64 {
    let rest = stdout.split("quantization error").nth(1).expect("QE in output");
    let value = rest.split("= ").nth(1).and_then(|v| v.split(';').next());
    value.and_then(|v| v.trim().parse().ok()).unwrap_or_else(|| panic!("bad QE: {stdout}"))
}

#[test]
fn som_cli_qe_matches_serial_training_at_any_rank_count() {
    use som::neighborhood::SomConfig;
    use som::quality::quantization_error;

    let dir = std::env::temp_dir().join(format!("cli-som-qe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // 100 rows: the ranks' QE slices cannot split them evenly three ways.
    let vectors = bioseq::gen::random_vectors(77, 100, 8);
    let matrix = dir.join("m.bin");
    mrbio::VectorMatrix::create(&matrix, &vectors).unwrap();
    let som = SomConfig { rows: 5, cols: 6, dims: 8, epochs: 4, seed: 7, ..SomConfig::default() };
    let want = quantization_error(&som::batch::batch_train(&vectors, &som), &vectors);

    for ranks in ["1", "3"] {
        let out = run_ok(Command::new(env!("CARGO_BIN_EXE_mb-som")).args([
            "--input",
            matrix.to_str().unwrap(),
            "--rows",
            "5",
            "--cols",
            "6",
            "--epochs",
            "4",
            "--seed",
            "7",
            "--block-size",
            "16",
            "--ranks",
            ranks,
        ]));
        assert!(out.contains("(first 100 vectors)"), "som output: {out}");
        let got = printed_qe(&out);
        assert!(
            (got - want).abs() <= 1e-4 * want + 1e-5,
            "--ranks {ranks}: printed QE {got} vs serial {want}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_unknown_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_mb-blast"))
        .args(["--db", "x", "--name", "y", "--queries", "z", "--typo-flag", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("typo-flag"), "stderr: {err}");
}

#[test]
fn cli_rejects_zero_counts_with_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("cli-zero-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (refs, reads) = write_fixture(&dir);
    let dbdir = dir.join("db");
    run_ok(Command::new(env!("CARGO_BIN_EXE_mb-formatdb")).args([
        "--in",
        refs.to_str().unwrap(),
        "--out",
        dbdir.to_str().unwrap(),
        "--name",
        "refdb",
    ]));
    let blast = [
        "--db",
        dbdir.to_str().unwrap(),
        "--name",
        "refdb",
        "--queries",
        reads.to_str().unwrap(),
    ];
    let som = ["--fasta", refs.to_str().unwrap(), "--tetra", "--epochs", "1"];
    let cases: [(&str, &[&str], &str); 6] = [
        (env!("CARGO_BIN_EXE_mb-blast"), &blast, "ranks"),
        (env!("CARGO_BIN_EXE_mb-blast"), &blast, "block-size"),
        (env!("CARGO_BIN_EXE_mb-som"), &som, "ranks"),
        (env!("CARGO_BIN_EXE_mb-som"), &som, "block-size"),
        (env!("CARGO_BIN_EXE_mb-som"), &som, "rows"),
        (env!("CARGO_BIN_EXE_mb-som"), &som, "cols"),
    ];
    for (bin, base, flag) in cases {
        let out = Command::new(bin)
            .args(base)
            .args([format!("--{flag}").as_str(), "0"])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} --{flag} 0: stderr: {err}");
        assert!(
            err.lines().any(|l| l.contains(&format!("--{flag}"))),
            "{bin} --{flag} 0 must name the flag: {err}"
        );
        assert!(!err.contains("panicked"), "{bin} --{flag} 0 panicked: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_help_exits_zero() {
    for bin in [
        env!("CARGO_BIN_EXE_mb-formatdb"),
        env!("CARGO_BIN_EXE_mb-blast"),
        env!("CARGO_BIN_EXE_mb-som"),
    ] {
        let out = Command::new(bin).arg("--help").output().unwrap();
        assert!(out.status.success());
        assert!(!out.stdout.is_empty());
    }
}
