//! FASTA offset index: random access to query ranges without
//! pre-partitioning.
//!
//! The paper's future work: "we are eliminating the need to pre-partition
//! the query dataset by building an index of sequence offsets in the input
//! FASTA file. This will allow selecting the size of the query blocks
//! dynamically after the start of the program" (§Conclusions). The index
//! records each record's byte offset and residue length, so any contiguous
//! range of records can be materialized with one seek + bounded read.

use std::io::{BufRead, BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::fasta::read_fasta;
use crate::seq::SeqRecord;

/// Index entry for one FASTA record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaiEntry {
    /// Record identifier (first header token).
    pub id: String,
    /// Byte offset of the `>` header line.
    pub offset: u64,
    /// Residue count.
    pub seq_len: u64,
}

/// An offset index over one FASTA file.
#[derive(Debug, Clone)]
pub struct FastaIndex {
    path: PathBuf,
    entries: Vec<FaiEntry>,
    /// Total file size (end offset of the last record).
    file_len: u64,
}

impl FastaIndex {
    /// Scan `path` and build the index in one sequential pass.
    ///
    /// # Errors
    /// IO errors from reading the file.
    pub fn build(path: impl AsRef<Path>) -> std::io::Result<FastaIndex> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::open(&path)?;
        let file_len = file.metadata()?.len();
        let mut reader = BufReader::new(file);
        let mut entries = Vec::new();
        let mut offset = 0u64;
        let mut line = String::new();
        let mut current: Option<usize> = None;
        loop {
            line.clear();
            let n = reader.read_line(&mut line)?;
            if n == 0 {
                break;
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if let Some(header) = trimmed.strip_prefix('>') {
                let id = header.split_whitespace().next().unwrap_or("").to_string();
                entries.push(FaiEntry { id, offset, seq_len: 0 });
                current = Some(entries.len() - 1);
            } else if !trimmed.is_empty() && !trimmed.starts_with(';') {
                if let Some(i) = current {
                    entries[i].seq_len +=
                        trimmed.bytes().filter(|b| !b.is_ascii_whitespace()).count() as u64;
                }
            }
            offset += n as u64;
        }
        Ok(FastaIndex { path, entries, file_len })
    }

    /// Number of records in the file.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The indexed entries.
    pub fn entries(&self) -> &[FaiEntry] {
        &self.entries
    }

    /// Total residues across all records.
    pub fn total_residues(&self) -> u64 {
        self.entries.iter().map(|e| e.seq_len).sum()
    }

    /// Materialize records `[start, end)` with one seek and one bounded
    /// sequential read.
    ///
    /// # Errors
    /// IO errors; `InvalidData` if the region no longer parses (file
    /// modified since indexing).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn read_range(&self, start: usize, end: usize) -> std::io::Result<Vec<SeqRecord>> {
        assert!(start <= end && end <= self.entries.len(), "record range out of bounds");
        if start == end {
            return Ok(Vec::new());
        }
        let byte_start = self.entries[start].offset;
        let byte_end =
            if end == self.entries.len() { self.file_len } else { self.entries[end].offset };
        let mut f = std::fs::File::open(&self.path)?;
        f.seek(SeekFrom::Start(byte_start))?;
        let mut buf = vec![0u8; (byte_end - byte_start) as usize];
        f.read_exact(&mut buf)?;
        let records = read_fasta(&buf[..])?;
        if records.len() != end - start {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "indexed region parsed to a different record count (file changed?)",
            ));
        }
        Ok(records)
    }
}

/// Guided block-range schedule: full-size blocks early, progressively
/// smaller toward the end ("make progressively smaller query chunks toward
/// the end of each iteration and have a more uniform filling of the
/// cores"). Returns `(start, end)` record ranges covering `0..n` exactly.
///
/// `base` is the steady-state block size; the tail shrinks as
/// `remaining / (2 × workers)` down to `min_block`. The DES ablations cut
/// query blocks with it; the runtime applies the same rule to grants of
/// pending work units (`mrmpi::sched::Grants`).
pub fn guided_blocks(n: usize, base: usize, min_block: usize, workers: usize) -> Vec<(usize, usize)> {
    assert!(base >= 1 && min_block >= 1, "block sizes must be positive");
    let workers = workers.max(1);
    let mut ranges = Vec::new();
    let mut start = 0usize;
    while start < n {
        let remaining = n - start;
        let guided = remaining / (2 * workers);
        let size = guided.clamp(min_block, base).min(remaining);
        ranges.push((start, start + size));
        start += size;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasta::write_fasta_file;

    fn fixture(tag: &str, n: usize) -> (PathBuf, Vec<SeqRecord>) {
        let records: Vec<SeqRecord> = (0..n)
            .map(|i| {
                let len = 50 + (i * 13) % 120;
                SeqRecord {
                    id: format!("rec{i}"),
                    desc: if i % 3 == 0 { format!("description {i}") } else { String::new() },
                    seq: (0..len).map(|j| b"ACGT"[(i + j) % 4]).collect(),
                }
            })
            .collect();
        let path = std::env::temp_dir().join(format!("fai-{tag}-{}.fa", std::process::id()));
        write_fasta_file(&path, &records).unwrap();
        (path, records)
    }

    #[test]
    fn index_counts_and_lengths() {
        let (path, records) = fixture("counts", 17);
        let idx = FastaIndex::build(&path).unwrap();
        assert_eq!(idx.len(), 17);
        for (e, r) in idx.entries().iter().zip(&records) {
            assert_eq!(e.id, r.id);
            assert_eq!(e.seq_len, r.seq.len() as u64);
        }
        assert_eq!(idx.total_residues(), records.iter().map(|r| r.len() as u64).sum());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_range_matches_full_parse() {
        let (path, records) = fixture("ranges", 23);
        let idx = FastaIndex::build(&path).unwrap();
        for (s, e) in [(0, 23), (0, 1), (22, 23), (5, 11), (7, 7)] {
            let got = idx.read_range(s, e).unwrap();
            assert_eq!(got, records[s..e].to_vec(), "range {s}..{e}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_indexes_empty() {
        let path = std::env::temp_dir().join(format!("fai-empty-{}.fa", std::process::id()));
        std::fs::write(&path, "").unwrap();
        let idx = FastaIndex::build(&path).unwrap();
        assert!(idx.is_empty());
        assert!(idx.read_range(0, 0).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_panics() {
        let (path, _) = fixture("oob", 3);
        let idx = FastaIndex::build(&path).unwrap();
        let _ = idx.read_range(2, 4);
    }

    #[test]
    fn guided_blocks_cover_exactly_and_shrink() {
        let ranges = guided_blocks(1000, 100, 10, 4);
        // Exact cover, in order.
        assert_eq!(ranges[0].0, 0);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        assert_eq!(ranges.last().unwrap().1, 1000);
        // Monotone non-increasing sizes, settling at min_block (the final
        // remainder block may be smaller still).
        let sizes: Vec<usize> = ranges.iter().map(|(s, e)| e - s).collect();
        for w in sizes.windows(2) {
            assert!(w[1] <= w[0], "sizes must shrink: {sizes:?}");
        }
        assert!(*sizes.last().unwrap() <= 10);
        assert!(sizes.iter().filter(|&&s| s == 10).count() > 2, "tail at min_block: {sizes:?}");
        assert_eq!(sizes[0], 100);
    }

    #[test]
    fn guided_blocks_small_inputs() {
        assert_eq!(guided_blocks(5, 100, 10, 4), vec![(0, 5)]);
        assert!(guided_blocks(0, 100, 10, 4).is_empty());
        let ranges = guided_blocks(7, 3, 1, 1);
        assert_eq!(ranges.iter().map(|(s, e)| e - s).sum::<usize>(), 7);
    }
}
