//! Serial references and the checks every measured run must pass.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use bioseq::db::BlastDb;
use bioseq::seq::SeqRecord;
use blast::format::tabular_line;
use blast::{BlastSearcher, Hit, SearchParams};
use som::quality::quantization_error;
use som::{batch_train, SomConfig};

/// Tabular lines grouped by query id, each group sorted: the multiset form
/// in which per-rank output files are compared (rank assignment and line
/// order within a file depend on scheduling).
pub type LinesByQuery = BTreeMap<String, Vec<String>>;

/// A shredded fragment `src/123-523` hitting subject `src` is a self-hit —
/// the rule `mb-blast --exclude-self` applies.
pub fn is_self_hit(hit: &Hit) -> bool {
    match hit.query_id.split_once('/') {
        Some((src, _)) => src == hit.subject_id,
        None => hit.query_id == hit.subject_id,
    }
}

pub struct BlastReference {
    pub expected: LinesByQuery,
    pub serial_s: f64,
}

/// Single-threaded whole-database search with the same parameters and
/// self-hit rule as the CLI run; timed.
pub fn blast_reference(
    params: SearchParams,
    queries: &[SeqRecord],
    db: &BlastDb,
    exclude_self: bool,
) -> std::io::Result<BlastReference> {
    let t0 = Instant::now();
    let hits = BlastSearcher::new(params).search_db_serial(queries, db)?;
    let serial_s = t0.elapsed().as_secs_f64();
    let lines = hits
        .iter()
        .filter(|h| !(exclude_self && is_self_hit(h)))
        .map(tabular_line);
    Ok(BlastReference {
        expected: group_lines(lines),
        serial_s,
    })
}

fn group_lines(lines: impl IntoIterator<Item = String>) -> LinesByQuery {
    let mut by_query = LinesByQuery::new();
    for line in lines {
        let query = line.split('\t').next().unwrap_or_default().to_string();
        by_query.entry(query).or_default().push(line);
    }
    for group in by_query.values_mut() {
        group.sort();
    }
    by_query
}

/// Every `hits.rank*.tsv` under `dir`, grouped by query.
pub fn read_rank_files(dir: &Path) -> std::io::Result<LinesByQuery> {
    let mut lines = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if name.starts_with("hits.rank") && name.ends_with(".tsv") {
            lines.extend(std::fs::read_to_string(&path)?.lines().map(str::to_string));
        }
    }
    Ok(group_lines(lines))
}

/// Queries whose hit lines differ between `got` and `want`.
pub fn failed_queries(got: &LinesByQuery, want: &LinesByQuery) -> usize {
    let keys: std::collections::BTreeSet<&String> = got.keys().chain(want.keys()).collect();
    keys.into_iter()
        .filter(|k| got.get(*k) != want.get(*k))
        .count()
}

pub struct SomReference {
    pub quant_error: f64,
    pub serial_s: f64,
}

/// Serial batch training on the same vectors; QE on the CLI's sample (the
/// first `sample` vectors).
pub fn som_reference(vectors: &[Vec<f64>], cfg: &SomConfig, sample: usize) -> SomReference {
    let t0 = Instant::now();
    let cb = batch_train(vectors, cfg);
    let serial_s = t0.elapsed().as_secs_f64();
    SomReference {
        quant_error: quantization_error(&cb, &vectors[..sample]),
        serial_s,
    }
}

/// Parallel and serial batch SOM sum the per-neuron accumulators in a
/// different order, so their QE agrees only to rounding; `mb-som` also
/// prints QE with 5 decimals.
pub fn qe_matches(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-4 * want.abs() + 1e-5
}

/// The QE `mb-som` prints: `… quantization error (first N vectors) = X; …`.
pub fn parse_som_qe(stdout: &str) -> Option<f64> {
    let rest = stdout.split("quantization error").nth(1)?;
    let value = rest.split("= ").nth(1)?.split(';').next()?;
    value.trim().parse().ok()
}
