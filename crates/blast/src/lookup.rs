//! Query word lookup tables — BLAST stage one.
//!
//! "The implementation iteratively loads the next concatenated subset of
//! query sequences, builds a word lookup table out of them, and streams the
//! database past this lookup table, storing the positions of matches"
//! (§II.B). The table maps a packed database word to every (query context,
//! query offset) that seeds there:
//!
//! * **DNA**: exact `word_size`-mers (default 11), 2 bits per residue;
//! * **protein**: all 3-mers whose BLOSUM score against some query 3-mer
//!   reaches the neighborhood threshold *T* — enumerated with
//!   branch-and-bound over the residue columns. Each column walks its 20
//!   candidates in descending score and stops at the first one whose best
//!   completion misses *T*. A query word's neighbours depend only on the
//!   word, so [`Neighbourhoods`] enumerates each distinct word once and
//!   every later lookup reads its list.
//!
//! Masked query positions (see [`crate::dust`]) contribute no words: that is
//! soft masking, seeding suppressed but extensions free to cross.
//!
//! Layout: the protein table is direct-indexed, compressed-sparse-row style —
//! one `offsets` array over all `24^w` words and one `entries` array, so a
//! subject word costs two array loads. `4^11` DNA words are too many to
//! direct-index per query block, so the DNA table keeps one `entries` array
//! too and finds a word's run of it through a map, on an unkeyed
//! FxHash-style hasher, from the word to `(start, length)`. Either way a
//! word's seeds come out in registration order: context, then query offset.

use crate::fxhash::FxHashMap;
use crate::matrix::Scoring;

/// Number of residue codes participating in protein neighborhood expansion
/// (the 20 standard amino acids; B/Z/X/* never seed).
const NEIGHBOR_RADIX: usize = 20;

/// Longest protein word: `24^4` direct-indexed words take 1.3 MB of offsets.
const MAX_PROTEIN_WORD: usize = 4;

/// One query context registered in a lookup table: an index the application
/// interprets (e.g. query × strand) plus the offset of a seed word.
pub type SeedEntry = (u32, u32);

/// Word → seeds storage: one `entries` array holding every word's seeds
/// contiguously.
enum Table {
    /// Seeds of word `w` are `entries[offsets[w]..offsets[w + 1]]`.
    Direct { offsets: Vec<u32>, entries: Vec<SeedEntry> },
    /// Seeds of word `w` are the `len` entries from `start`, where
    /// `index[w] = (start, len)`.
    Hashed { index: FxHashMap<u64, (u32, u32)>, entries: Vec<SeedEntry> },
}

/// A query-side word lookup table.
pub struct Lookup {
    word_size: usize,
    radix: u64,
    table: Table,
}

impl Lookup {
    /// Residue count of one word.
    pub fn word_size(&self) -> usize {
        self.word_size
    }

    /// Number of distinct words registered.
    pub fn num_words(&self) -> usize {
        match &self.table {
            Table::Direct { offsets, .. } => offsets.windows(2).filter(|r| r[0] != r[1]).count(),
            Table::Hashed { index, .. } => index.len(),
        }
    }

    /// Heap bytes held by the table, from its allocations' capacities (a
    /// hash map's buckets estimated at its 7/8 load factor, one control
    /// byte each).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        match &self.table {
            Table::Direct { offsets, entries } => {
                offsets.capacity() * size_of::<u32>() + entries.capacity() * size_of::<SeedEntry>()
            }
            Table::Hashed { index, entries } => {
                let bucket = size_of::<(u64, (u32, u32))>() + 1;
                index.capacity() * 8 / 7 * bucket + entries.capacity() * size_of::<SeedEntry>()
            }
        }
    }

    /// Seed entries for a packed word (empty slice when absent).
    #[inline]
    pub fn seeds(&self, word: u64) -> &[SeedEntry] {
        match &self.table {
            Table::Direct { offsets, entries } => match usize::try_from(word) {
                Ok(w) if w < offsets.len() - 1 => {
                    &entries[offsets[w] as usize..offsets[w + 1] as usize]
                }
                _ => &[],
            },
            Table::Hashed { index, entries } => match index.get(&word) {
                Some(&(start, len)) => &entries[start as usize..(start + len) as usize],
                None => &[],
            },
        }
    }

    /// Pack a window of residue codes into a word key.
    #[inline]
    pub fn pack(&self, codes: &[u8]) -> u64 {
        debug_assert_eq!(codes.len(), self.word_size);
        codes.iter().fold(0u64, |acc, &c| acc * self.radix + u64::from(c))
    }

    /// Build an exact-match DNA lookup over query contexts. Each context is
    /// `(codes, mask)`; masked or out-of-alphabet positions break words.
    ///
    /// # Panics
    /// Panics if `word_size` is 0 or > 31.
    pub fn build_dna(contexts: &[(&[u8], &[u8])], word_size: usize) -> Lookup {
        assert!((1..=31).contains(&word_size), "DNA word size out of range");
        // Two passes over the words: count each word's seeds, then place
        // them. Every window is a potential distinct word, so presizing
        // the index for all of them means it never rehashes.
        let windows: usize =
            contexts.iter().map(|(codes, _)| (codes.len() + 1).saturating_sub(word_size)).sum();
        let mut index: FxHashMap<u64, (u32, u32)> =
            FxHashMap::with_capacity_and_hasher(windows, Default::default());
        for_each_dna_word(contexts, word_size, |word, _| index.entry(word).or_default().1 += 1);
        let mut total = 0usize;
        for (start, len) in index.values_mut() {
            *start = total as u32;
            total += std::mem::take(len) as usize;
        }
        assert!(u32::try_from(total).is_ok(), "DNA lookup exceeds u32 entries");
        let mut entries = vec![(0, 0); total];
        for_each_dna_word(contexts, word_size, |word, entry| {
            let (start, len) = index.get_mut(&word).expect("counted in the first pass");
            entries[(*start + *len) as usize] = entry;
            *len += 1;
        });
        Lookup { word_size, radix: 4, table: Table::Hashed { index, entries } }
    }

    /// Build a protein neighborhood lookup: every database word scoring ≥
    /// the table's threshold *T* against a query word is registered for
    /// that query position. The exact query word is always registered as
    /// well (NCBI behaviour), even when its self-score is below *T*.
    ///
    /// Two passes over the unmasked query positions: the first counts each
    /// word's seeds, the second places them, both reading the position's
    /// word list from `neighbourhoods` (which fills a query word's list the
    /// first time it is seen). Positions are visited in `(ctx, pos)` order,
    /// so each word's seeds come out in that order.
    pub fn build_protein(contexts: &[(&[u8], &[u8])], neighbourhoods: &mut Neighbourhoods) -> Lookup {
        let word_size = neighbourhoods.word_size;
        let num_slots = 24usize.pow(word_size as u32);
        // Counts go to `offsets[w + 2]`; after the prefix sum `offsets[w + 1]`
        // is word `w`'s first slot, the placing pass's cursor. Each cursor
        // ends at the next word's first slot, so `offsets[w]` is `w`'s start.
        let mut offsets = vec![0u32; num_slots + 2];
        let mut total = 0u64;
        for_each_protein_word(contexts, word_size, |qword, _| {
            let row = neighbourhoods.words(qword);
            total += row.len() as u64;
            row.for_each(|word| offsets[word + 2] += 1);
        });
        assert!(u32::try_from(total).is_ok(), "protein lookup exceeds u32 entries");
        for w in 1..offsets.len() {
            offsets[w] += offsets[w - 1];
        }
        let mut entries = vec![(0, 0); total as usize];
        for_each_protein_word(contexts, word_size, |qword, entry| {
            neighbourhoods.words(qword).for_each(|word| {
                let at = &mut offsets[word + 1];
                entries[*at as usize] = entry;
                *at += 1;
            });
        });
        offsets.truncate(num_slots + 1);
        Lookup { word_size, radix: 24, table: Table::Direct { offsets, entries } }
    }
}

/// Each protein query word's seeding words — the word itself, then every
/// other word of standard residues scoring ≥ *T* against it — filled the
/// first time the word is seen and kept for later lookups with the same
/// word size, threshold and scoring. Filling lazily means a low *T* or a
/// word size of 4 never enumerates all `24^w` rows.
pub struct Neighbourhoods {
    word_size: usize,
    threshold: i32,
    ranked: Ranked,
    /// `rows[exact]` is where the word's list starts in `words` (`UNFILLED`
    /// until then): its length, then its packed words.
    rows: Vec<u32>,
    words: Words,
}

const UNFILLED: u32 = u32::MAX;

/// The lists of a [`Neighbourhoods`] table, in `u16` while every packed word
/// of the size fits one (`24^3` < 2^16), else in `u32`.
enum Words {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

/// One query word's list of packed words.
enum Row<'a> {
    Narrow(&'a [u16]),
    Wide(&'a [u32]),
}

impl Words {
    /// Append `list` (as its length, then its words); where it starts.
    fn append(&mut self, list: &[u32]) -> u32 {
        let start = match self {
            Words::Narrow(words) => {
                let start = words.len();
                words.push(list.len() as u16);
                words.extend(list.iter().map(|&w| w as u16));
                start
            }
            Words::Wide(words) => {
                let start = words.len();
                words.push(list.len() as u32);
                words.extend_from_slice(list);
                start
            }
        };
        u32::try_from(start).ok().filter(|&s| s != UNFILLED).expect("neighbourhood table exceeds u32")
    }

    fn row(&self, start: u32) -> Row<'_> {
        let start = start as usize;
        match self {
            Words::Narrow(w) => Row::Narrow(&w[start + 1..start + 1 + usize::from(w[start])]),
            Words::Wide(w) => Row::Wide(&w[start + 1..start + 1 + w[start] as usize]),
        }
    }
}

impl Row<'_> {
    fn len(&self) -> usize {
        match self {
            Row::Narrow(words) => words.len(),
            Row::Wide(words) => words.len(),
        }
    }

    fn for_each(&self, mut f: impl FnMut(usize)) {
        match self {
            Row::Narrow(words) => words.iter().for_each(|&w| f(usize::from(w))),
            Row::Wide(words) => words.iter().for_each(|&w| f(w as usize)),
        }
    }
}

impl Neighbourhoods {
    /// An empty table for words of `word_size` residues at threshold
    /// `threshold` under `scoring`.
    ///
    /// # Panics
    /// Panics if `word_size` is 0 or > 4, or `scoring` is not a protein
    /// system.
    pub fn new(word_size: usize, threshold: i32, scoring: &Scoring) -> Self {
        assert!((1..=MAX_PROTEIN_WORD).contains(&word_size), "protein word size out of range");
        assert!(
            matches!(scoring, Scoring::Blosum62 { .. }),
            "protein lookup needs a protein scoring system"
        );
        let slots = 24usize.pow(word_size as u32);
        // The narrow lists are reserved once, about a full w = 3, T = 11
        // table: grown by reallocation between each grant's large lookup
        // allocations, they fragmented the heap (+1 MB peak RSS of `mb-blast`
        // on one blastp input). Untouched capacity holds no memory.
        let words = if slots <= 1 << 16 {
            Words::Narrow(Vec::with_capacity(1 << 18))
        } else {
            Words::Wide(Vec::new())
        };
        Neighbourhoods { word_size, threshold, ranked: ranked_candidates(scoring), rows: vec![UNFILLED; slots], words }
    }

    /// The packed words `qword` seeds: itself first, then its neighbours.
    fn words(&mut self, qword: &[u8]) -> Row<'_> {
        let exact = qword.iter().fold(0u32, |acc, &c| acc * 24 + u32::from(c));
        if self.rows[exact as usize] == UNFILLED {
            // Remaining-score bound for pruning: each column's best
            // candidate is ranked first.
            let mut suffix_max = vec![0i32; qword.len() + 1];
            for i in (0..qword.len()).rev() {
                suffix_max[i] = suffix_max[i + 1] + self.ranked[qword[i] as usize][0].1;
            }
            let mut list = vec![exact];
            enumerate_neighbors(&self.ranked, qword, self.threshold, &suffix_max, 0, 0, 0, &mut |w| {
                if w != exact {
                    list.push(w);
                }
            });
            // Set last: a fill cut short by a panic leaves the row unfilled.
            self.rows[exact as usize] = self.words.append(&list);
        }
        self.words.row(self.rows[exact as usize])
    }
}

/// Call `f(word, (ctx, pos))` with every unmasked window of `word_size`
/// residue codes, in registration order: context, then query offset.
fn for_each_protein_word(
    contexts: &[(&[u8], &[u8])],
    word_size: usize,
    mut f: impl FnMut(&[u8], SeedEntry),
) {
    for (ctx, (codes, mask)) in contexts.iter().enumerate() {
        debug_assert_eq!(codes.len(), mask.len());
        for pos in 0..(codes.len() + 1).saturating_sub(word_size) {
            if mask[pos..pos + word_size].iter().all(|&m| m == 0) {
                f(&codes[pos..pos + word_size], (ctx as u32, pos as u32));
            }
        }
    }
}

/// Call `f(word, (ctx, pos))` for every window of `word_size` unmasked
/// 2-bit codes, in registration order: context, then query offset. The word
/// rolls two bits per residue; a masked or out-of-alphabet residue restarts
/// it.
fn for_each_dna_word(
    contexts: &[(&[u8], &[u8])],
    word_size: usize,
    mut f: impl FnMut(u64, SeedEntry),
) {
    let bits = (1u64 << (2 * word_size)) - 1;
    for (ctx, (codes, mask)) in contexts.iter().enumerate() {
        debug_assert_eq!(codes.len(), mask.len());
        let (mut word, mut run) = (0u64, 0usize);
        for (pos, (&c, &m)) in codes.iter().zip(mask.iter()).enumerate() {
            if m != 0 || c > 3 {
                run = 0;
                continue;
            }
            word = ((word << 2) | u64::from(c)) & bits;
            run += 1;
            if run >= word_size {
                f(word, (ctx as u32, (pos + 1 - word_size) as u32));
            }
        }
    }
}

/// The 20 neighbour candidates of each residue code, paired with their
/// score against it, in descending score (ties by code).
type Ranked = [[(u8, i32); NEIGHBOR_RADIX]; 24];

fn ranked_candidates(scoring: &Scoring) -> Ranked {
    let mut ranked = [[(0u8, 0i32); NEIGHBOR_RADIX]; 24];
    for (q, row) in ranked.iter_mut().enumerate() {
        for (cand, slot) in row.iter_mut().enumerate() {
            *slot = (cand as u8, scoring.score(q as u8, cand as u8));
        }
        row.sort_by_key(|&(cand, score)| (std::cmp::Reverse(score), cand));
    }
    ranked
}

/// Depth-first enumeration of all words scoring ≥ threshold against
/// `qword`, with branch-and-bound on the achievable suffix score. Each
/// column walks its candidates best first, so the first candidate that
/// misses the bound ends the column: every later one scores no higher.
/// The set of words emitted is the exhaustive one; only their order is
/// not lexicographic, which the lookup's per-word placement absorbs.
#[allow(clippy::too_many_arguments)]
fn enumerate_neighbors(
    ranked: &Ranked,
    qword: &[u8],
    threshold: i32,
    suffix_max: &[i32],
    depth: usize,
    score: i32,
    packed: u32,
    emit: &mut impl FnMut(u32),
) {
    let last = depth + 1 == qword.len();
    for &(cand, cand_score) in &ranked[qword[depth] as usize] {
        let s = score + cand_score;
        if s + suffix_max[depth + 1] < threshold {
            break;
        }
        let packed = packed * 24 + u32::from(cand);
        if last {
            // No suffix is left to bound: s ≥ threshold.
            emit(packed);
        } else {
            enumerate_neighbors(ranked, qword, threshold, suffix_max, depth + 1, s, packed, emit);
        }
    }
}

/// Stream a subject's residue codes, invoking `f(pos, packed_word)` for every
/// window (DNA rolling hash).
pub fn scan_words(codes: &[u8], word_size: usize, radix: u64, mut f: impl FnMut(usize, u64)) {
    if codes.len() < word_size {
        return;
    }
    if radix == 4 {
        // Rolling update for the common DNA case.
        let mask = (1u64 << (2 * word_size)) - 1;
        let mut word = 0u64;
        for (i, &c) in codes.iter().enumerate() {
            word = ((word << 2) | u64::from(c)) & mask;
            if i + 1 >= word_size {
                f(i + 1 - word_size, word);
            }
        }
    } else {
        for pos in 0..=codes.len() - word_size {
            let word =
                codes[pos..pos + word_size].iter().fold(0u64, |acc, &c| acc * radix + u64::from(c));
            f(pos, word);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::alphabet::Alphabet;

    fn no_mask(len: usize) -> Vec<u8> {
        vec![0; len]
    }

    #[test]
    fn dna_lookup_finds_exact_words() {
        let q = Alphabet::Dna.encode_seq(b"ACGTACGTAAA");
        let mask = no_mask(q.len());
        let lk = Lookup::build_dna(&[(&q, &mask)], 4);
        // Word at position 0: ACGT.
        let word = lk.pack(&Alphabet::Dna.encode_seq(b"ACGT"));
        let seeds = lk.seeds(word);
        assert_eq!(seeds, &[(0, 0), (0, 4)]);
        // Absent word.
        let absent = lk.pack(&Alphabet::Dna.encode_seq(b"GGGG"));
        assert!(lk.seeds(absent).is_empty());
    }

    #[test]
    fn masked_positions_do_not_seed() {
        let q = Alphabet::Dna.encode_seq(b"ACGTACGT");
        let mut mask = no_mask(q.len());
        mask[2] = 1; // masks every 4-mer covering position 2
        let lk = Lookup::build_dna(&[(&q, &mask)], 4);
        let word = lk.pack(&Alphabet::Dna.encode_seq(b"ACGT"));
        assert_eq!(lk.seeds(word), &[(0, 4)]);
    }

    #[test]
    fn out_of_alphabet_codes_break_words() {
        let q = [0, 1, 2, 3, 4, 0, 1, 2, 3];
        let lk = Lookup::build_dna(&[(&q, &no_mask(q.len()))], 4);
        assert_eq!(lk.seeds(lk.pack(&[0, 1, 2, 3])), &[(0, 0), (0, 5)]);
        assert_eq!(lk.num_words(), 1, "only ACGT: no window covers the code 4");
    }

    #[test]
    fn multiple_contexts_tracked_separately() {
        let a = Alphabet::Dna.encode_seq(b"AAAA");
        let b = Alphabet::Dna.encode_seq(b"AAAA");
        let (ma, mb) = (no_mask(4), no_mask(4));
        let lk = Lookup::build_dna(&[(&a, &ma), (&b, &mb)], 4);
        let word = lk.pack(&Alphabet::Dna.encode_seq(b"AAAA"));
        assert_eq!(lk.seeds(word), &[(0, 0), (1, 0)]);
    }

    #[test]
    fn scan_words_rolls_correctly() {
        let codes = Alphabet::Dna.encode_seq(b"ACGTA");
        let mut got = Vec::new();
        scan_words(&codes, 3, 4, |pos, w| got.push((pos, w)));
        // ACG, CGT, GTA
        let pack3 = |s: &[u8]| {
            Alphabet::Dna.encode_seq(s).iter().fold(0u64, |a, &c| a * 4 + u64::from(c))
        };
        assert_eq!(got, vec![(0, pack3(b"ACG")), (1, pack3(b"CGT")), (2, pack3(b"GTA"))]);
    }

    #[test]
    fn scan_too_short_is_empty() {
        let codes = Alphabet::Dna.encode_seq(b"AC");
        let mut n = 0;
        scan_words(&codes, 11, 4, |_, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn protein_neighborhood_contains_exact_and_similar_words() {
        let scoring = Scoring::blastp_default();
        let q = Alphabet::Protein.encode_seq(b"WWW");
        let mask = no_mask(3);
        let lk = Lookup::build_protein(&[(&q, &mask)], &mut Neighbourhoods::new(3, 11, &scoring));
        // WWW self-scores 33 ≥ 11 → present.
        let www = lk.pack(&Alphabet::Protein.encode_seq(b"WWW"));
        assert_eq!(lk.seeds(www), &[(0, 0)]);
        // WWF: 11+11+1 = 23 ≥ 11 → present.
        let wwf = lk.pack(&Alphabet::Protein.encode_seq(b"WWF"));
        assert_eq!(lk.seeds(wwf), &[(0, 0)]);
        // PPP vs WWW: 3·(−4) — absent.
        let ppp = lk.pack(&Alphabet::Protein.encode_seq(b"PPP"));
        assert!(lk.seeds(ppp).is_empty());
    }

    #[test]
    fn protein_exact_word_registered_even_below_threshold() {
        let scoring = Scoring::blastp_default();
        // AAA self-score is 12; use a high threshold to exclude neighbors.
        let q = Alphabet::Protein.encode_seq(b"AAA");
        let mask = no_mask(3);
        let lk = Lookup::build_protein(&[(&q, &mask)], &mut Neighbourhoods::new(3, 100, &scoring));
        let aaa = lk.pack(&Alphabet::Protein.encode_seq(b"AAA"));
        assert_eq!(lk.seeds(aaa), &[(0, 0)]);
        assert_eq!(lk.num_words(), 1, "only the exact word survives T=100");
    }

    #[test]
    fn neighborhood_matches_brute_force_on_small_example() {
        let scoring = Scoring::blastp_default();
        let q = Alphabet::Protein.encode_seq(b"MKV");
        let mask = no_mask(3);
        let t = 13;
        let lk = Lookup::build_protein(&[(&q, &mask)], &mut Neighbourhoods::new(3, t, &scoring));
        // Brute force over all 20^3 words.
        let mut expect = std::collections::HashSet::new();
        for a in 0..20u8 {
            for b in 0..20u8 {
                for c in 0..20u8 {
                    let s = scoring.score(q[0], a) + scoring.score(q[1], b) + scoring.score(q[2], c);
                    if s >= t {
                        expect.insert(u64::from(a) * 576 + u64::from(b) * 24 + u64::from(c));
                    }
                }
            }
        }
        // The exact query word is always included.
        expect.insert(q.iter().fold(0u64, |acc, &c| acc * 24 + u64::from(c)));
        let got: std::collections::HashSet<u64> =
            (0..24u64.pow(3)).filter(|&w| !lk.seeds(w).is_empty()).collect();
        assert_eq!(got, expect);
    }

    /// The lookup as built before the neighbourhood table: every position
    /// enumerates its neighbours, every `(word, seed)` pair is staged in
    /// registration order, and a stable counting sort by word places them.
    fn build_protein_enumerated(
        contexts: &[(&[u8], &[u8])],
        word_size: usize,
        threshold: i32,
        scoring: &Scoring,
    ) -> Lookup {
        let ranked = ranked_candidates(scoring);
        let mut pairs: Vec<(u32, SeedEntry)> = Vec::new();
        let mut suffix_max = vec![0i32; word_size + 1];
        for_each_protein_word(contexts, word_size, |qword, entry| {
            let exact = qword.iter().fold(0u32, |acc, &c| acc * 24 + u32::from(c));
            pairs.push((exact, entry));
            for i in (0..word_size).rev() {
                suffix_max[i] = suffix_max[i + 1] + ranked[qword[i] as usize][0].1;
            }
            enumerate_neighbors(&ranked, qword, threshold, &suffix_max, 0, 0, 0, &mut |packed| {
                if packed != exact {
                    pairs.push((packed, entry));
                }
            });
        });
        let num_slots = 24usize.pow(word_size as u32);
        let mut offsets = vec![0u32; num_slots + 1];
        for &(word, _) in &pairs {
            offsets[word as usize + 1] += 1;
        }
        for w in 0..num_slots {
            offsets[w + 1] += offsets[w];
        }
        let mut cursor = offsets[..num_slots].to_vec();
        let mut entries = vec![(0, 0); pairs.len()];
        for (word, entry) in pairs {
            let at = &mut cursor[word as usize];
            entries[*at as usize] = entry;
            *at += 1;
        }
        Lookup { word_size, radix: 24, table: Table::Direct { offsets, entries } }
    }

    fn direct(lk: &Lookup) -> (&[u32], &[SeedEntry]) {
        match &lk.table {
            Table::Direct { offsets, entries } => (offsets, entries),
            Table::Hashed { .. } => panic!("protein lookups are direct-indexed"),
        }
    }

    /// Random contexts of residue codes below `radix` with random masks.
    fn random_contexts(seed: u64, radix: u8) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        use rand::Rng;
        let mut r = bioseq::gen::rng(seed);
        let n = r.random_range(1..4);
        let codes: Vec<Vec<u8>> = (0..n)
            .map(|_| (0..r.random_range(0..24)).map(|_| r.random_range(0..radix)).collect())
            .collect();
        let masks = codes
            .iter()
            .map(|c| c.iter().map(|_| u8::from(r.random::<f64>() < 0.1)).collect())
            .collect();
        (codes, masks)
    }

    /// Definitional oracle: every unmasked `(ctx, pos)`, in `(ctx, pos)`
    /// order, whose window is `word` or, for a neighborhood, a word of
    /// standard residues scoring ≥ `threshold` against it.
    fn oracle_seeds(
        contexts: &[(&[u8], &[u8])],
        word: &[u8],
        neighborhood: Option<(&Scoring, i32)>,
    ) -> Vec<SeedEntry> {
        let w = word.len();
        let mut out = Vec::new();
        for (ctx, (codes, mask)) in contexts.iter().enumerate() {
            for pos in 0..(codes.len() + 1).saturating_sub(w) {
                if mask[pos..pos + w].iter().any(|&m| m != 0) {
                    continue;
                }
                let window = &codes[pos..pos + w];
                let near = neighborhood.is_some_and(|(scoring, t)| {
                    word.iter().all(|&c| usize::from(c) < NEIGHBOR_RADIX)
                        && window.iter().zip(word).map(|(&a, &b)| scoring.score(a, b)).sum::<i32>()
                            >= t
                });
                if window == word || near {
                    out.push((ctx as u32, pos as u32));
                }
            }
        }
        out
    }

    /// Every word of `len` codes below `radix`, with its packed key.
    fn all_words(radix: u8, len: usize) -> impl Iterator<Item = (u64, Vec<u8>)> {
        (0..u64::from(radix).pow(len as u32)).map(move |key| {
            let mut word = vec![0u8; len];
            let mut k = key;
            for c in word.iter_mut().rev() {
                *c = (k % u64::from(radix)) as u8;
                k /= u64::from(radix);
            }
            (key, word)
        })
    }

    proptest::proptest! {
        #[test]
        fn dna_seeds_match_the_definition_for_every_word(
            seed in proptest::prelude::any::<u64>(),
            word_size in 1usize..6,
        ) {
            let (codes, masks) = random_contexts(seed, 4);
            let refs: Vec<(&[u8], &[u8])> =
                codes.iter().zip(&masks).map(|(c, m)| (c.as_slice(), m.as_slice())).collect();
            let lk = Lookup::build_dna(&refs, word_size);
            let mut registered = 0;
            for (key, word) in all_words(4, word_size) {
                proptest::prop_assert_eq!(lk.pack(&word), key);
                let expect = oracle_seeds(&refs, &word, None);
                registered += usize::from(!expect.is_empty());
                proptest::prop_assert_eq!(lk.seeds(key), expect.as_slice(), "word {:?}", word);
            }
            proptest::prop_assert_eq!(lk.num_words(), registered);
        }

        #[test]
        fn protein_seeds_match_the_definition_for_every_word(
            seed in proptest::prelude::any::<u64>(),
            word_size in 1usize..4,
            threshold in 6i32..16,
        ) {
            let scoring = Scoring::blastp_default();
            let (codes, masks) = random_contexts(seed, 24);
            let refs: Vec<(&[u8], &[u8])> =
                codes.iter().zip(&masks).map(|(c, m)| (c.as_slice(), m.as_slice())).collect();
            let lk = Lookup::build_protein(&refs, &mut Neighbourhoods::new(word_size, threshold, &scoring));
            let mut registered = 0;
            for (key, word) in all_words(24, word_size) {
                proptest::prop_assert_eq!(lk.pack(&word), key);
                let expect = oracle_seeds(&refs, &word, Some((&scoring, threshold)));
                registered += usize::from(!expect.is_empty());
                proptest::prop_assert_eq!(lk.seeds(key), expect.as_slice(), "word {:?}", word);
            }
            proptest::prop_assert_eq!(lk.num_words(), registered);
            // Words past the table are absent, not out of bounds.
            proptest::prop_assert!(lk.seeds(24u64.pow(word_size as u32)).is_empty());
            proptest::prop_assert!(lk.seeds(u64::MAX).is_empty());
        }

        #[test]
        fn table_built_protein_lookup_equals_the_enumerated_one(
            seed in proptest::prelude::any::<u64>(),
            word_size in 2usize..5,
            threshold in proptest::sample::select(vec![9, 11, 13]),
        ) {
            let scoring = Scoring::blastp_default();
            let mut table = Neighbourhoods::new(word_size, threshold, &scoring);
            // Two draws share one table, so the second build reads rows the
            // first one filled.
            for draw in 0..2 {
                let (codes, masks) = random_contexts(seed.wrapping_add(draw), 24);
                let refs: Vec<(&[u8], &[u8])> =
                    codes.iter().zip(&masks).map(|(c, m)| (c.as_slice(), m.as_slice())).collect();
                let got = Lookup::build_protein(&refs, &mut table);
                let want = build_protein_enumerated(&refs, word_size, threshold, &scoring);
                proptest::prop_assert!(direct(&got) == direct(&want), "draw {}", draw);
            }
        }
    }
}
