//! # bioseq — sequence handling for the MR-MPI BLAST/SOM reproduction
//!
//! Everything the two applications need around biological sequences:
//!
//! * [`alphabet`] — DNA and protein alphabets, residue coding;
//! * [`seq`] — sequence records, reverse complement;
//! * [`fasta`] — FASTA reading and writing;
//! * [`twobit`] — the 2-bit packed nucleotide encoding used by BLAST
//!   database volumes (the paper's `formatdb` output is a "two-bit encoded
//!   format that is optimized for scanning");
//! * [`db`] — database formatting and partitioning: our `formatdb`
//!   equivalent producing fixed-target-size partitions with an on-disk
//!   binary format, plus partition loading (the expensive reload the paper's
//!   load-balancing discussion revolves around);
//! * [`faindex`] — a FASTA offset index (random access to query ranges
//!   without pre-partitioning, the paper's future-work item) and the guided
//!   block schedule the DES ablations use;
//! * [`shred`] — the paper's metagenomic read simulator: shredding reference
//!   sequences into 400 bp fragments overlapping by 200 bp;
//! * [`kmer`] — k-mer composition vectors (tetranucleotide frequencies are
//!   the paper's 256-dimensional SOM input space);
//! * [`gen`] — synthetic genome/proteome generators with planted homologies,
//!   substituting for the NCBI databases we cannot ship.

//! ```
//! use bioseq::seq::SeqRecord;
//! use bioseq::shred::{shred_record, ShredConfig};
//! use bioseq::kmer::tetra_frequencies;
//!
//! let genome = SeqRecord::new("g", vec![b'A'; 1000]);
//! let reads = shred_record(&genome, &ShredConfig::default()); // 400/200 as in the paper
//! assert_eq!(reads[0].len(), 400);
//! let composition = tetra_frequencies(&reads[0].seq); // the paper's 256-dim SOM space
//! assert_eq!(composition.len(), 256);
//! ```

pub mod alphabet;
pub mod db;
pub mod faindex;
pub mod fasta;
pub mod fastq;
pub mod gen;
pub mod kmer;
pub mod seq;
pub mod shred;
pub mod translate;
pub mod twobit;

pub use alphabet::Alphabet;
pub use db::{BlastDb, DbPartition, FormatDbConfig};
pub use faindex::{guided_blocks, FastaIndex};
pub use fasta::{read_fasta, read_fasta_file, write_fasta};
pub use fastq::{read_fastq, read_fastq_file, FastqRecord};
pub use seq::SeqRecord;
pub use shred::{shred_record, ShredConfig};
pub use translate::{six_frame, translate_frame, Frame};
