//! The search driver: one (query block, database partition) work unit.
//!
//! This is the role the NCBI C++ Toolkit plays in the paper: given a block
//! of queries and one DB partition, run the full pipeline and return hits
//! whose E-values are computed against the *whole database* (the DB-length
//! override), so results are mergeable across partitions by a simple sort.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use bioseq::alphabet::Alphabet;
use bioseq::db::{BlastDb, DbPartition};
use bioseq::seq::SeqRecord;
use bioseq::translate::{six_frame, Frame};

use crate::dust::{default_dust, default_seg};
use crate::extend::{ungapped_extend, DiagTracker};
use crate::gapped::{banded_global_stats, XdropRows, DEFAULT_BAND};
use crate::hsp::{sort_and_truncate, Hit, Strand};
use crate::lookup::{scan_words, Lookup, Neighbourhoods};
use crate::params::SearchParams;
use crate::stats::KarlinParams;

/// Convenience selector for the two search flavours the paper benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Nucleotide–nucleotide (`blastn`).
    Blastn,
    /// Protein–protein (`blastp`).
    Blastp,
    /// Translated nucleotide vs protein (`blastx`): six-frame query
    /// translation.
    Blastx,
}

impl SearchMode {
    /// Default parameters for this mode.
    pub fn params(self) -> SearchParams {
        match self {
            SearchMode::Blastn => SearchParams::blastn(),
            SearchMode::Blastp => SearchParams::blastp(),
            SearchMode::Blastx => SearchParams::blastx(),
        }
    }
}

/// One query context: a query in one orientation (and, for translated
/// searches, one reading frame), encoded and masked.
struct QueryCtx {
    query_idx: u32,
    strand: Strand,
    /// Reading frame for translated (blastx) contexts.
    frame: Option<Frame>,
    codes: Vec<u8>,
    /// Plus-strand *input* length of the original query in its own alphabet
    /// (nucleotides for DNA and translated searches).
    query_len: usize,
}

/// A query block preprocessed for searching: encoded contexts plus the word
/// lookup table ("builds a word lookup table out of them", §II.B).
pub struct PreparedQueries {
    contexts: Vec<QueryCtx>,
    ids: Vec<String>,
    lookup: Lookup,
    word_radix: u64,
}

impl PreparedQueries {
    /// Heap bytes held by the prepared block: encoded contexts, ids and the
    /// lookup table.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let contexts: usize = self.contexts.iter().map(|c| c.codes.capacity()).sum();
        let ids: usize = self.ids.iter().map(String::capacity).sum();
        contexts
            + self.contexts.capacity() * size_of::<QueryCtx>()
            + ids
            + self.ids.capacity() * size_of::<String>()
            + self.lookup.heap_bytes()
    }
}

/// The search engine: parameters plus derived statistics, and the protein
/// neighbourhood table its lookups share.
pub struct BlastSearcher {
    /// Search parameters in effect.
    pub params: SearchParams,
    gapped: KarlinParams,
    ungapped: KarlinParams,
    /// Each protein query word's neighbour words, filled by the first
    /// [`Self::prepare_queries`] that meets the word and read by every later
    /// one (`None` until a protein lookup is first built).
    neighbourhoods: Mutex<Option<Neighbourhoods>>,
}

impl BlastSearcher {
    /// Build a searcher from parameters.
    pub fn new(params: SearchParams) -> Self {
        BlastSearcher {
            params,
            gapped: KarlinParams::gapped(&params.scoring),
            ungapped: KarlinParams::ungapped(&params.scoring),
            neighbourhoods: Mutex::new(None),
        }
    }

    /// Searcher with the default parameters of `mode`.
    pub fn with_mode(mode: SearchMode) -> Self {
        Self::new(mode.params())
    }

    /// The gapped Karlin–Altschul parameters in effect.
    pub fn karlin_gapped(&self) -> KarlinParams {
        self.gapped
    }

    /// Encode, mask and index a query block. This is the per-block setup the
    /// paper's map() caches alongside the DB object.
    pub fn prepare_queries(&self, queries: &[SeqRecord]) -> PreparedQueries {
        let alphabet = self.params.scoring.alphabet();
        let mut contexts = Vec::new();
        let mut ids = Vec::with_capacity(queries.len());
        for (qi, rec) in queries.iter().enumerate() {
            ids.push(rec.id.clone());
            if self.params.translated_query {
                // blastx: six protein contexts per DNA query.
                for (frame, protein) in six_frame(rec) {
                    contexts.push(QueryCtx {
                        query_idx: qi as u32,
                        strand: if frame.reverse { Strand::Minus } else { Strand::Plus },
                        frame: Some(frame),
                        codes: Alphabet::Protein.encode_seq(&protein),
                        query_len: rec.seq.len(),
                    });
                }
                continue;
            }
            match alphabet {
                Alphabet::Dna => {
                    let codes = Alphabet::Dna.encode_seq(&rec.seq);
                    contexts.push(QueryCtx {
                        query_idx: qi as u32,
                        strand: Strand::Plus,
                        frame: None,
                        codes,
                        query_len: rec.seq.len(),
                    });
                    if self.params.both_strands {
                        let rc = rec.reverse_complement();
                        contexts.push(QueryCtx {
                            query_idx: qi as u32,
                            strand: Strand::Minus,
                            frame: None,
                            codes: Alphabet::Dna.encode_seq(&rc.seq),
                            query_len: rec.seq.len(),
                        });
                    }
                }
                Alphabet::Protein => {
                    contexts.push(QueryCtx {
                        query_idx: qi as u32,
                        strand: Strand::Plus,
                        frame: None,
                        codes: Alphabet::Protein.encode_seq(&rec.seq),
                        query_len: rec.seq.len(),
                    });
                }
            }
        }

        let masks: Vec<Vec<u8>> = contexts
            .iter()
            .map(|ctx| {
                if !self.params.mask_low_complexity {
                    return vec![0u8; ctx.codes.len()];
                }
                let bools = match alphabet {
                    Alphabet::Dna => default_dust(&ctx.codes),
                    Alphabet::Protein => default_seg(&ctx.codes),
                };
                bools.into_iter().map(u8::from).collect()
            })
            .collect();

        let refs: Vec<(&[u8], &[u8])> = contexts
            .iter()
            .zip(&masks)
            .map(|(c, m)| (c.codes.as_slice(), m.as_slice()))
            .collect();
        let (lookup, word_radix) = match alphabet {
            Alphabet::Dna => (Lookup::build_dna(&refs, self.params.word_size), 4u64),
            Alphabet::Protein => {
                // A panic mid-fill leaves the table consistent: a row is
                // published only once complete.
                let mut table =
                    self.neighbourhoods.lock().unwrap_or_else(PoisonError::into_inner);
                let p = &self.params;
                let table = table
                    .get_or_insert_with(|| Neighbourhoods::new(p.word_size, p.threshold, &p.scoring));
                (Lookup::build_protein(&refs, table), 24u64)
            }
        };
        PreparedQueries { contexts, ids, lookup, word_radix }
    }

    /// Search a query block against one partition, computing E-values
    /// against `db_len` residues in `db_seqs` sequences (pass the *global*
    /// totals to get the paper's DB-length override; pass the partition's own
    /// numbers to get stand-alone statistics).
    pub fn search_partition(
        &self,
        prepared: &PreparedQueries,
        partition: &DbPartition,
        db_len: u64,
        db_seqs: u64,
    ) -> Vec<Hit> {
        self.search_partition_counted(prepared, partition, db_len, db_seqs, true).0
    }

    /// [`Self::search_partition`], with the contained-HSP skip switchable,
    /// also returning how many gapped extensions the skip saved.
    fn search_partition_counted(
        &self,
        prepared: &PreparedQueries,
        partition: &DbPartition,
        db_len: u64,
        db_seqs: u64,
        skip_contained: bool,
    ) -> (Vec<Hit>, usize) {
        let mut hits: Vec<Hit> = Vec::new();
        let mut skipped = 0;
        let xdrop_ungapped = self.ungapped_xdrop_raw();
        let xdrop_gapped = self.gapped_xdrop_raw();
        let gap_trigger_raw = self.ungapped.raw_for_bits(self.params.gap_trigger_bits);
        let mut rows = XdropRows::default();
        let mut tracker = DiagTracker::new(
            self.params.two_hit_window,
            prepared.contexts.iter().map(|ctx| ctx.codes.len()),
        );
        let mut cover = GappedCover::new(prepared.contexts.len());

        for subject in &partition.sequences {
            let s_codes = subject.data.to_codes();
            if s_codes.len() < self.params.word_size {
                continue;
            }
            tracker.start_subject();
            cover.start_subject();
            let mut subject_hits: Vec<(u32, Hit)> = Vec::new();

            scan_words(&s_codes, self.params.word_size, self.word_radix(prepared), |spos, word| {
                for &(ctx_id, qpos) in prepared.lookup.seeds(word) {
                    if !tracker.offer(ctx_id, qpos as usize, spos, self.params.word_size) {
                        continue;
                    }
                    let ctx = &prepared.contexts[ctx_id as usize];
                    let hsp = ungapped_extend(
                        &ctx.codes,
                        &s_codes,
                        qpos as usize,
                        spos,
                        self.params.word_size,
                        &self.params.scoring,
                        xdrop_ungapped,
                    );
                    tracker.mark_extended(ctx_id, hsp.q_start, hsp.s_start, hsp.s_end);
                    if hsp.score < gap_trigger_raw {
                        continue;
                    }
                    let ungapped = Span {
                        q_beg: hsp.q_start,
                        q_end: hsp.q_end,
                        s_beg: hsp.s_start,
                        s_end: hsp.s_end,
                    };
                    if skip_contained && cover.contains(ctx_id, &ungapped) {
                        skipped += 1;
                        continue;
                    }
                    // Gapped extension from the midpoint anchor. Its band
                    // bounds how far the mark below strays from the seed
                    // diagonal, which the tracker's rings are sized for.
                    let anchor_q = (hsp.q_start + hsp.q_end) / 2;
                    let anchor_s = hsp.s_start + (anchor_q - hsp.q_start);
                    let fwd = rows.extend(
                        &ctx.codes[anchor_q..],
                        &s_codes[anchor_s..],
                        &self.params.scoring,
                        xdrop_gapped,
                        DEFAULT_BAND,
                    );
                    let bwd = rows.extend_back(
                        &ctx.codes[..anchor_q],
                        &s_codes[..anchor_s],
                        &self.params.scoring,
                        xdrop_gapped,
                        DEFAULT_BAND,
                    );
                    let q_beg = anchor_q - bwd.a_len;
                    let q_end = anchor_q + fwd.a_len;
                    let s_beg = anchor_s - bwd.b_len;
                    let s_end = anchor_s + fwd.b_len;
                    if q_end <= q_beg || s_end <= s_beg {
                        continue;
                    }
                    tracker.mark_extended(ctx_id, q_beg, s_beg, s_end);
                    cover.insert(ctx_id, Span { q_beg, q_end, s_beg, s_end });

                    // Identity/gap statistics over the final range.
                    let stats = banded_global_stats(
                        &ctx.codes[q_beg..q_end],
                        &s_codes[s_beg..s_end],
                        &self.params.scoring,
                        16,
                    );
                    let raw = stats.score.max(fwd.score + bwd.score);
                    // Statistics use the searched sequence's own length (the
                    // translated length for blastx).
                    let space = self.gapped.search_space(ctx.codes.len() as u64, db_len, db_seqs);
                    let evalue = self.gapped.evalue(raw, space);
                    if evalue > self.params.evalue_cutoff {
                        continue;
                    }
                    // Map coordinates back to the plus strand of the input
                    // (via the reading frame for translated searches).
                    let (q_start_p, q_end_p) = match ctx.frame {
                        Some(frame) => frame.to_nucleotide(q_beg, q_end, ctx.query_len),
                        None => match ctx.strand {
                            Strand::Plus => (q_beg, q_end),
                            Strand::Minus => (ctx.query_len - q_end, ctx.query_len - q_beg),
                        },
                    };
                    subject_hits.push((
                        ctx_id,
                        Hit {
                            query_id: prepared.ids[ctx.query_idx as usize].clone(),
                            subject_id: subject.id.clone(),
                            raw_score: raw,
                            bit_score: self.gapped.bit_score(raw),
                            evalue,
                            q_start: q_start_p as u32,
                            q_end: q_end_p as u32,
                            s_start: s_beg as u32,
                            s_end: s_end as u32,
                            strand: ctx.strand,
                            identity: stats.identity,
                            align_len: stats.align_len,
                            gaps: stats.gaps,
                        },
                    ));
                }
            });

            cull_subject_hits(&mut subject_hits);
            hits.extend(subject_hits.into_iter().map(|(_, h)| h));
        }

        // Per-query top-K within this work unit (the paper's "we need to
        // pass K hits from each DB partition").
        let max = self.params.max_hits_per_query;
        let hits = if max > 0 { merge_hits(hits, max) } else { hits };
        (hits, skipped)
    }

    /// Serial whole-database search: loads every partition in turn and
    /// merges per-query hits — the baseline the parallel results are
    /// compared against bit-for-bit.
    ///
    /// # Errors
    /// IO errors from partition loading.
    pub fn search_db_serial(
        &self,
        queries: &[SeqRecord],
        db: &BlastDb,
    ) -> std::io::Result<Vec<Hit>> {
        let prepared = self.prepare_queries(queries);
        let mut all = Vec::new();
        for p in 0..db.num_partitions() {
            let part = db.load_partition(p)?;
            all.extend(self.search_partition(
                &prepared,
                &part,
                db.total_residues,
                db.total_sequences,
            ));
        }
        Ok(merge_hits(all, self.params.max_hits_per_query))
    }

    fn word_radix(&self, prepared: &PreparedQueries) -> u64 {
        prepared.word_radix
    }

    fn ungapped_xdrop_raw(&self) -> i32 {
        (self.params.xdrop_ungapped_bits * std::f64::consts::LN_2 / self.ungapped.lambda).ceil()
            as i32
    }

    fn gapped_xdrop_raw(&self) -> i32 {
        (self.params.xdrop_gapped_bits * std::f64::consts::LN_2 / self.gapped.lambda).ceil() as i32
    }
}

/// Merge hits from several work units: group per query, sort by rank, apply
/// the global top-K — exactly what the paper's reduce() does after
/// collate().
pub fn merge_hits(hits: Vec<Hit>, max_per_query: usize) -> Vec<Hit> {
    let mut by_query: BTreeMap<String, Vec<Hit>> = BTreeMap::new();
    for h in hits {
        by_query.entry(h.query_id.clone()).or_default().push(h);
    }
    let mut out = Vec::new();
    for mut v in by_query.into_values() {
        sort_and_truncate(&mut v, max_per_query);
        out.extend(v);
    }
    out
}

/// A half-open query × subject rectangle in context coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    q_beg: usize,
    q_end: usize,
    s_beg: usize,
    s_end: usize,
}

impl Span {
    /// Does `self` contain `inner` on both axes (shared edges count)?
    fn contains(&self, inner: &Span) -> bool {
        self.q_beg <= inner.q_beg
            && inner.q_end <= self.q_end
            && self.s_beg <= inner.s_beg
            && inner.s_end <= self.s_end
    }
}

/// The gapped alignments computed so far on the current subject, per
/// context. As in NCBI BLAST, an ungapped HSP that one of them already
/// contains is not extended again: its gapped extension would only find
/// that alignment a second time. Every non-empty gapped range counts,
/// including those the E-value cutoff drops.
struct GappedCover {
    by_ctx: Vec<Vec<Span>>,
    /// Contexts with a non-empty list, so a new subject clears only those.
    touched: Vec<u32>,
}

impl GappedCover {
    fn new(contexts: usize) -> Self {
        GappedCover { by_ctx: vec![Vec::new(); contexts], touched: Vec::new() }
    }

    fn start_subject(&mut self) {
        for ctx in self.touched.drain(..) {
            self.by_ctx[ctx as usize].clear();
        }
    }

    fn contains(&self, ctx: u32, ungapped: &Span) -> bool {
        self.by_ctx[ctx as usize].iter().any(|g| g.contains(ungapped))
    }

    fn insert(&mut self, ctx: u32, gapped: Span) {
        let list = &mut self.by_ctx[ctx as usize];
        if list.is_empty() {
            self.touched.push(ctx);
        }
        list.push(gapped);
    }
}

/// Drop HSPs whose query interval overlaps a better same-(context, subject)
/// HSP by more than half — removes the redundant alignments that multiple
/// seeds of one homology produce.
fn cull_subject_hits(hits: &mut Vec<(u32, Hit)>) {
    hits.sort_by(|a, b| a.1.rank_cmp(&b.1));
    let mut kept: Vec<(u32, u32, u32)> = Vec::new(); // (ctx, q_start, q_end)
    hits.retain(|(ctx, h)| {
        for &(kctx, ks, ke) in &kept {
            if kctx == *ctx {
                let ov_start = h.q_start.max(ks);
                let ov_end = h.q_end.min(ke);
                if ov_end > ov_start {
                    let ov = ov_end - ov_start;
                    if 2 * ov > h.q_end - h.q_start {
                        return false;
                    }
                }
            }
        }
        kept.push((*ctx, h.q_start, h.q_end));
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::db::{partition_records, FormatDbConfig};
    use bioseq::gen;
    use rand::Rng;

    fn partition_of(records: &[SeqRecord], alphabet: Alphabet) -> DbPartition {
        let cfg = match alphabet {
            Alphabet::Dna => FormatDbConfig::dna(usize::MAX),
            Alphabet::Protein => FormatDbConfig::protein(usize::MAX),
        };
        partition_records(records, &cfg).into_iter().next().expect("one partition")
    }

    #[test]
    fn finds_planted_exact_match() {
        let mut r = gen::rng(100);
        let genome = gen::random_dna(&mut r, 5000, 0.5);
        let db = vec![SeqRecord::new("subject", genome.clone())];
        let query = vec![SeqRecord::new("q0", genome[1000..1400].to_vec())];
        let searcher = BlastSearcher::with_mode(SearchMode::Blastn);
        let prepared = searcher.prepare_queries(&query);
        let part = partition_of(&db, Alphabet::Dna);
        let hits = searcher.search_partition(&prepared, &part, 5000, 1);
        assert!(!hits.is_empty(), "exact 400bp match must be found");
        let best = &hits[0];
        assert_eq!(best.subject_id, "subject");
        assert_eq!(best.strand, Strand::Plus);
        assert!(best.evalue < 1e-50, "evalue {}", best.evalue);
        assert!(best.s_start >= 990 && best.s_end <= 1410, "range {}..{}", best.s_start, best.s_end);
        assert!(best.percent_identity() > 99.0);
    }

    #[test]
    fn finds_mutated_homolog() {
        let mut r = gen::rng(101);
        let genome = gen::random_dna(&mut r, 5000, 0.5);
        let db = vec![SeqRecord::new("subject", genome.clone())];
        let mutated = gen::mutate_dna(&mut r, &genome[2000..2400], 0.05, 0.005);
        let query = vec![SeqRecord::new("q0", mutated)];
        let searcher = BlastSearcher::with_mode(SearchMode::Blastn);
        let prepared = searcher.prepare_queries(&query);
        let part = partition_of(&db, Alphabet::Dna);
        let hits = searcher.search_partition(&prepared, &part, 5000, 1);
        assert!(!hits.is_empty(), "5%-mutated homolog must be found");
        assert!(hits[0].percent_identity() > 85.0);
        assert!(hits[0].evalue < 1e-20);
    }

    #[test]
    fn finds_reverse_complement_hit() {
        let mut r = gen::rng(102);
        let genome = gen::random_dna(&mut r, 3000, 0.5);
        let db = vec![SeqRecord::new("subject", genome.clone())];
        let fragment = SeqRecord::new("frag", genome[500..900].to_vec());
        let query = vec![fragment.reverse_complement()];
        let searcher = BlastSearcher::with_mode(SearchMode::Blastn);
        let prepared = searcher.prepare_queries(&query);
        let part = partition_of(&db, Alphabet::Dna);
        let hits = searcher.search_partition(&prepared, &part, 3000, 1);
        assert!(!hits.is_empty(), "minus-strand hit must be found");
        assert_eq!(hits[0].strand, Strand::Minus);
        assert!(hits[0].s_start >= 490 && hits[0].s_end <= 910);
    }

    #[test]
    fn random_decoy_produces_no_strong_hits() {
        let mut r = gen::rng(103);
        let db = vec![SeqRecord::new("subject", gen::random_dna(&mut r, 5000, 0.5))];
        let query = vec![SeqRecord::new("decoy", gen::random_dna(&mut r, 400, 0.5))];
        let searcher =
            BlastSearcher::new(SearchParams::blastn().with_evalue(1e-6));
        let prepared = searcher.prepare_queries(&query);
        let part = partition_of(&db, Alphabet::Dna);
        let hits = searcher.search_partition(&prepared, &part, 5000, 1);
        assert!(hits.is_empty(), "decoy should have no hits at E<1e-6, got {hits:?}");
    }

    #[test]
    fn db_length_override_changes_evalue_not_hits_order() {
        let mut r = gen::rng(104);
        let genome = gen::random_dna(&mut r, 4000, 0.5);
        let db = vec![SeqRecord::new("subject", genome.clone())];
        let query = vec![SeqRecord::new("q0", genome[100..500].to_vec())];
        let searcher = BlastSearcher::with_mode(SearchMode::Blastn);
        let prepared = searcher.prepare_queries(&query);
        let part = partition_of(&db, Alphabet::Dna);
        let local = searcher.search_partition(&prepared, &part, 4000, 1);
        let global = searcher.search_partition(&prepared, &part, 400_000_000, 100_000);
        assert_eq!(local.len(), global.len());
        assert!(global[0].evalue > local[0].evalue, "bigger space, bigger E");
        assert_eq!(local[0].raw_score, global[0].raw_score);
    }

    fn span(q_beg: usize, q_end: usize, s_beg: usize, s_end: usize) -> Span {
        Span { q_beg, q_end, s_beg, s_end }
    }

    #[test]
    fn containment_counts_shared_edges() {
        let g = span(10, 50, 100, 140);
        assert!(g.contains(&g), "equal edges are contained");
        assert!(g.contains(&span(10, 20, 130, 140)));
        assert!(g.contains(&span(20, 30, 110, 120)));
    }

    #[test]
    fn containment_rejects_one_residue_outside_on_any_edge() {
        let g = span(10, 50, 100, 140);
        assert!(!g.contains(&span(9, 50, 100, 140)));
        assert!(!g.contains(&span(10, 51, 100, 140)));
        assert!(!g.contains(&span(10, 50, 99, 140)));
        assert!(!g.contains(&span(10, 50, 100, 141)));
    }

    #[test]
    fn cover_is_per_context_and_cleared_at_the_next_subject() {
        let mut cover = GappedCover::new(3);
        cover.start_subject();
        let g = span(10, 50, 100, 140);
        let inner = span(20, 30, 110, 120);
        cover.insert(1, g);
        assert!(cover.contains(1, &inner));
        assert!(!cover.contains(0, &inner), "another context does not suppress");
        assert!(!cover.contains(2, &inner), "another context does not suppress");
        cover.start_subject();
        assert!(!cover.contains(1, &inner), "a new subject starts with an empty cover");
        cover.insert(1, g);
        assert!(cover.contains(1, &inner), "a cleared context takes ranges again");
    }

    #[test]
    fn contained_seed_of_an_indel_alignment_is_skipped_with_unchanged_hits() {
        // The query is subject[500..900] with 3 bases deleted at 700, so
        // its alignment runs on two diagonals. A seed on the first gets
        // the gapped extension across the deletion; the ungapped HSP of a
        // later seed on the second diagonal also passes the gap trigger
        // but lies inside that alignment, and is not extended again.
        let mut r = gen::rng(109);
        let genome = gen::random_dna(&mut r, 2000, 0.5);
        let db = vec![SeqRecord::new("subject", genome.clone())];
        let mut frag = genome[500..700].to_vec();
        frag.extend_from_slice(&genome[703..900]);
        let query = vec![SeqRecord::new("indel", frag)];
        let searcher = BlastSearcher::with_mode(SearchMode::Blastn);
        let prepared = searcher.prepare_queries(&query);
        let part = partition_of(&db, Alphabet::Dna);
        let (skipping, skipped) =
            searcher.search_partition_counted(&prepared, &part, 2000, 1, true);
        let (extending, none) =
            searcher.search_partition_counted(&prepared, &part, 2000, 1, false);
        assert!(skipped >= 1, "the second diagonal's HSP is contained");
        assert_eq!(none, 0);
        assert_eq!(skipping, extending, "the skip must not change the hits");
        assert_eq!(skipping.len(), 1, "one alignment: {skipping:?}");
        let hit = &skipping[0];
        assert_eq!((hit.q_start, hit.q_end), (0, 397));
        assert_eq!((hit.s_start, hit.s_end), (500, 900));
        assert_eq!(hit.gaps, 3);
    }

    #[test]
    fn protein_search_finds_homolog() {
        let mut r = gen::rng(105);
        let prot = gen::random_protein(&mut r, 1000);
        let db = vec![SeqRecord::new("psubject", prot.clone())];
        // 20% substituted homolog: detectable through BLOSUM62.
        let mut frag = prot[300..500].to_vec();
        for c in frag.iter_mut() {
            if r.random::<f64>() < 0.2 {
                *c = gen::random_protein(&mut r, 1)[0];
            }
        }
        let query = vec![SeqRecord::new("pq", frag)];
        let searcher = BlastSearcher::with_mode(SearchMode::Blastp);
        let prepared = searcher.prepare_queries(&query);
        let part = partition_of(&db, Alphabet::Protein);
        let hits = searcher.search_partition(&prepared, &part, 1000, 1);
        assert!(!hits.is_empty(), "protein homolog must be found");
        assert!(hits[0].evalue < 1e-10);
        assert!(hits[0].s_start >= 290 && hits[0].s_end <= 510);
    }

    #[test]
    fn top_k_limits_per_query_hits() {
        let mut r = gen::rng(106);
        // One query matching many subjects (copies).
        let fragment = gen::random_dna(&mut r, 400, 0.5);
        let db: Vec<SeqRecord> = (0..10)
            .map(|i| {
                let mut g = gen::random_dna(&mut r, 200, 0.5);
                g.extend_from_slice(&fragment);
                g.extend(gen::random_dna(&mut r, 200, 0.5));
                SeqRecord::new(format!("s{i}"), g)
            })
            .collect();
        let query = vec![SeqRecord::new("q", fragment)];
        let searcher = BlastSearcher::new(SearchParams::blastn().with_max_hits(3));
        let prepared = searcher.prepare_queries(&query);
        let part = partition_of(&db, Alphabet::Dna);
        let hits = searcher.search_partition(&prepared, &part, 8000, 10);
        assert_eq!(hits.len(), 3, "top-K must cap hits");
    }

    #[test]
    fn serial_db_search_equals_partitioned_merge() {
        let cfg = gen::WorkloadConfig {
            db_seqs: 12,
            db_seq_len: 1500,
            queries: 15,
            homolog_fraction: 0.8,
            ..Default::default()
        };
        let w = gen::dna_workload(107, &cfg);
        let dir = std::env::temp_dir().join(format!("blast-serialcmp-{}", std::process::id()));
        // Several small partitions.
        let db = bioseq::db::format_db(&w.db, &FormatDbConfig::dna(2000), &dir, "wl").unwrap();
        assert!(db.num_partitions() > 2);
        let searcher = BlastSearcher::with_mode(SearchMode::Blastn);

        let serial = searcher.search_db_serial(&w.queries, &db).unwrap();

        // Manual per-partition search + merge (what the MR pipeline does).
        let prepared = searcher.prepare_queries(&w.queries);
        let mut partitioned = Vec::new();
        for p in 0..db.num_partitions() {
            let part = db.load_partition(p).unwrap();
            partitioned.extend(searcher.search_partition(
                part_prepared(&searcher, &w.queries, &prepared),
                &part,
                db.total_residues,
                db.total_sequences,
            ));
        }
        let merged = merge_hits(partitioned, searcher.params.max_hits_per_query);
        assert_eq!(serial.len(), merged.len());
        for (a, b) in serial.iter().zip(&merged) {
            assert_eq!(a, b, "partitioned merge must equal serial output");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    // Identity helper so the test reads naturally; prepared queries are
    // reusable across partitions (the paper caches them per rank).
    fn part_prepared<'a>(
        _searcher: &BlastSearcher,
        _queries: &[SeqRecord],
        prepared: &'a PreparedQueries,
    ) -> &'a PreparedQueries {
        prepared
    }

    /// Reverse-translate a protein with fixed codons (first codon per AA).
    fn reverse_translate(protein: &[u8]) -> Vec<u8> {
        let codon = |aa: u8| -> &'static [u8] {
            match aa {
                b'A' => b"GCT", b'R' => b"CGT", b'N' => b"AAT", b'D' => b"GAT",
                b'C' => b"TGT", b'Q' => b"CAA", b'E' => b"GAA", b'G' => b"GGT",
                b'H' => b"CAT", b'I' => b"ATT", b'L' => b"CTT", b'K' => b"AAA",
                b'M' => b"ATG", b'F' => b"TTT", b'P' => b"CCT", b'S' => b"TCT",
                b'T' => b"ACT", b'W' => b"TGG", b'Y' => b"TAT", b'V' => b"GTT",
                _ => b"GCT",
            }
        };
        protein.iter().flat_map(|&aa| codon(aa).iter().copied()).collect()
    }

    #[test]
    fn blastx_finds_coding_region_in_forward_frame() {
        let mut r = gen::rng(777);
        let protein_db = vec![SeqRecord::new("prot", gen::random_protein(&mut r, 300))];
        // DNA query: random flank + coding region for prot[100..180] + flank.
        let coding = reverse_translate(&protein_db[0].seq[100..180]);
        let mut dna = gen::random_dna(&mut r, 50, 0.5);
        let cds_start = dna.len();
        dna.extend_from_slice(&coding);
        let cds_end = dna.len();
        dna.extend(gen::random_dna(&mut r, 50, 0.5));
        let query = vec![SeqRecord::new("dnaq", dna)];

        let searcher = BlastSearcher::with_mode(SearchMode::Blastx);
        let prepared = searcher.prepare_queries(&query);
        let part = partition_of(&protein_db, Alphabet::Protein);
        let hits = searcher.search_partition(&prepared, &part, 300, 1);
        assert!(!hits.is_empty(), "blastx must find the coding region");
        let best = &hits[0];
        assert_eq!(best.subject_id, "prot");
        assert!(best.evalue < 1e-20, "evalue {}", best.evalue);
        // Nucleotide coordinates cover the planted CDS (allow fuzzy edges).
        assert!(
            (best.q_start as i64 - cds_start as i64).abs() <= 9,
            "q_start {} vs cds {}",
            best.q_start,
            cds_start
        );
        assert!(
            (best.q_end as i64 - cds_end as i64).abs() <= 9,
            "q_end {} vs cds {}",
            best.q_end,
            cds_end
        );
        // Subject coordinates near the planted protein range.
        assert!(best.s_start >= 95 && best.s_end <= 185);
        assert_eq!(best.strand, Strand::Plus);
    }

    #[test]
    fn blastx_finds_reverse_frame_hit() {
        let mut r = gen::rng(201);
        let protein_db = vec![SeqRecord::new("prot", gen::random_protein(&mut r, 200))];
        let coding = reverse_translate(&protein_db[0].seq[50..120]);
        let mut dna = gen::random_dna(&mut r, 30, 0.5);
        dna.extend_from_slice(&coding);
        dna.extend(gen::random_dna(&mut r, 30, 0.5));
        // Search the reverse complement: the hit must appear on Minus.
        let rc = SeqRecord::new("rcq", dna).reverse_complement();
        let query = vec![SeqRecord { id: "rcq".into(), desc: String::new(), seq: rc.seq }];

        let searcher = BlastSearcher::with_mode(SearchMode::Blastx);
        let prepared = searcher.prepare_queries(&query);
        let part = partition_of(&protein_db, Alphabet::Protein);
        let hits = searcher.search_partition(&prepared, &part, 200, 1);
        assert!(!hits.is_empty(), "reverse-frame coding region must be found");
        assert_eq!(hits[0].strand, Strand::Minus);
        assert!(hits[0].evalue < 1e-15);
    }

    #[test]
    fn blastx_decoy_dna_has_no_strong_hits() {
        let mut r = gen::rng(202);
        let protein_db = vec![SeqRecord::new("prot", gen::random_protein(&mut r, 400))];
        let query = vec![SeqRecord::new("noise", gen::random_dna(&mut r, 300, 0.5))];
        let searcher = BlastSearcher::new(SearchParams::blastx().with_evalue(1e-6));
        let prepared = searcher.prepare_queries(&query);
        let part = partition_of(&protein_db, Alphabet::Protein);
        let hits = searcher.search_partition(&prepared, &part, 400, 1);
        assert!(hits.is_empty(), "random DNA should not hit at E<1e-6: {hits:?}");
    }

    #[test]
    fn masking_suppresses_low_complexity_explosion() {
        let mut r = gen::rng(108);
        // Poly-A query against a DB with poly-A stretches.
        let mut dbseq = gen::random_dna(&mut r, 2000, 0.5);
        dbseq.extend(std::iter::repeat_n(b'A', 500));
        let db = vec![SeqRecord::new("s", dbseq)];
        let query = vec![SeqRecord::new("polyA", vec![b'A'; 400])];
        let part = partition_of(&db, Alphabet::Dna);

        let masked = BlastSearcher::new(SearchParams::blastn().with_masking(true));
        let prepared = masked.prepare_queries(&query);
        let hits_masked = masked.search_partition(&prepared, &part, 2500, 1);
        assert!(hits_masked.is_empty(), "masked poly-A query must not seed");

        let unmasked = BlastSearcher::new(SearchParams::blastn().with_masking(false));
        let prepared = unmasked.prepare_queries(&query);
        let hits_unmasked = unmasked.search_partition(&prepared, &part, 2500, 1);
        assert!(!hits_unmasked.is_empty(), "unmasked control should hit");
    }
}
