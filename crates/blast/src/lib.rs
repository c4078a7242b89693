//! # blast — a from-scratch BLAST search engine
//!
//! The paper wraps the *unmodified* NCBI BLAST+ through the C++ Toolkit API;
//! its whole argument is that the serial engine can be treated as a black
//! box. Reproducing that in Rust means building the black box itself. This
//! crate implements the classic three-stage BLAST pipeline the paper
//! summarizes in §II.B:
//!
//! 1. **Word scan** ([`lookup`]) — "the first stage scans for matches
//!    between fixed size words": a lookup table is built from the query
//!    block (exact 11-mers for nucleotides; neighborhood 3-mers above a
//!    threshold *T* for proteins) and each database sequence is streamed
//!    past it.
//! 2. **Ungapped extension** ([`extend`]) — "the second stage extends each
//!    matching word as an ungapped alignment on the condition that there is
//!    another word match nearby" (the two-hit heuristic, protein mode) with
//!    an X-drop cutoff.
//! 3. **Gapped extension** ([`gapped`]) — "the third stage performs gapped
//!    alignment for those matches that passed the second stage": affine-gap
//!    X-drop extension from the best seed pair, followed by a banded
//!    traceback alignment to recover identities.
//!
//! Every surviving HSP is scored with Karlin–Altschul statistics
//! ([`stats`]): bit scores and E-values with effective-length corrections
//! and — critically for the paper's matrix-split parallelization — an
//! *overridden effective database length*, so that a search against one
//! partition reports the E-values it would get against the whole database.
//!
//! Low-complexity query masking ([`dust`]) mirrors NCBI's DUST/SEG filters,
//! which the paper notes are "usually requested" in production searches.
//!
//! The [`search`] module drives the pipeline for a (query block, database
//! partition) pair — the exact granularity of the paper's MapReduce work
//! unit.

//! ```
//! use bioseq::seq::SeqRecord;
//! use bioseq::db::{partition_records, FormatDbConfig};
//! use blast::search::{BlastSearcher, SearchMode};
//!
//! // A 60 bp fragment of the subject must be found with a tiny E-value.
//! let dna = b"ACGTAGGCTTACGATCGATCGTAGCTAGCTAGGATCGATCGTACGGATTACAGGCATCGAGGCTATTACGGCTAGCTA";
//! let subject = SeqRecord::new("chr", dna.to_vec());
//! let query = SeqRecord::new("frag", subject.seq[10..70].to_vec());
//! let searcher = BlastSearcher::with_mode(SearchMode::Blastn);
//! let prepared = searcher.prepare_queries(std::slice::from_ref(&query));
//! let part = partition_records(std::slice::from_ref(&subject),
//!                              &FormatDbConfig::dna(usize::MAX)).remove(0);
//! let hits = searcher.search_partition(&prepared, &part, 79, 1);
//! assert_eq!(hits[0].subject_id, "chr");
//! assert!(hits[0].evalue < 1e-10);
//! ```

pub mod dust;
pub mod extend;
pub mod format;
mod fxhash;
pub mod gapped;
pub mod hsp;
pub mod lookup;
pub mod matrix;
pub mod oracle;
pub mod params;
pub mod search;
pub mod stats;

pub use hsp::{Hit, Strand};
pub use matrix::Scoring;
pub use params::SearchParams;
pub use search::{BlastSearcher, SearchMode};
