//! Ungapped X-drop extension and two-hit seeding — BLAST stage two.
//!
//! "The second stage extends each matching word as an ungapped alignment on
//! the condition that there is another word match nearby" (§II.B). A seed
//! (word match) is extended left and right along its diagonal, keeping the
//! best running score; extension stops once the running score drops more
//! than X below the best. The two-hit heuristic (protein mode) only extends
//! a seed if a second non-overlapping seed was seen on the same diagonal
//! within a window of A residues.
//!
//! [`DiagTracker`] keeps both pieces of per-diagonal state — the pending
//! two-hit anchor and how far extensions already cover the diagonal — in
//! one 16-byte slot per diagonal of a per-context ring, as NCBI's diagonal
//! table does. A seed costs one slot read, the rings are allocated once per
//! work unit, and a new subject bumps a generation instead of clearing
//! them. The subject scan only moves forward, so no two diagonals that are
//! live at once share a slot; the type's doc carries the argument.

use crate::gapped::DEFAULT_BAND;
use crate::matrix::Scoring;

/// An ungapped high-scoring segment on one diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UngappedHsp {
    /// Query start (0-based, inclusive).
    pub q_start: usize,
    /// Query end (exclusive).
    pub q_end: usize,
    /// Subject start (inclusive).
    pub s_start: usize,
    /// Subject end (exclusive).
    pub s_end: usize,
    /// Segment score.
    pub score: i32,
}

impl UngappedHsp {
    /// Diagonal of the segment (subject − query offset).
    pub fn diagonal(&self) -> i64 {
        self.s_start as i64 - self.q_start as i64
    }
}

/// Extend a word match at `(qpos, spos)` of length `word` into the maximal
/// ungapped segment under an X-drop of `xdrop` (raw score units).
///
/// # Panics
/// Panics (debug) on out-of-range seeds.
pub fn ungapped_extend(
    q: &[u8],
    s: &[u8],
    qpos: usize,
    spos: usize,
    word: usize,
    scoring: &Scoring,
    xdrop: i32,
) -> UngappedHsp {
    debug_assert!(qpos + word <= q.len() && spos + word <= s.len());
    // Seed score.
    let mut score: i32 = (0..word).map(|i| scoring.score(q[qpos + i], s[spos + i])).sum();
    let mut best = score;
    let (mut q_start, mut q_end) = (qpos, qpos + word);
    let (mut s_start, mut s_end) = (spos, spos + word);

    // Extend right.
    {
        let mut run = score;
        let (mut qi, mut si) = (qpos + word, spos + word);
        while qi < q.len() && si < s.len() {
            run += scoring.score(q[qi], s[si]);
            qi += 1;
            si += 1;
            if run > best {
                best = run;
                q_end = qi;
                s_end = si;
            } else if best - run > xdrop {
                break;
            }
        }
        score = best;
    }

    // Extend left.
    {
        let mut run = score;
        let (mut qi, mut si) = (qpos, spos);
        while qi > 0 && si > 0 {
            qi -= 1;
            si -= 1;
            run += scoring.score(q[qi], s[si]);
            if run > best {
                best = run;
                q_start = qi;
                s_start = si;
            } else if best - run > xdrop {
                break;
            }
        }
    }

    UngappedHsp { q_start, q_end, s_start, s_end, score: best }
}

/// Ring slots for a context of `len` residues: more than the span of
/// diagonals that can be live at once (see [`DiagTracker`]).
fn ring_size(len: usize) -> usize {
    (len + 2 * DEFAULT_BAND + 2).next_power_of_two()
}

/// Seeding state of one diagonal of one context during one subject,
/// 16 bytes. A slot whose key is not the one asked for reads as the
/// all-default state: no anchor, no coverage.
#[derive(Default, Clone, Copy)]
struct DiagSlot {
    /// The subject's generation in the high 32 bits, the diagonal (subject −
    /// query offset, as a wrapping `u32`) in the low ones. Generation 0 is
    /// never a live subject, so a zeroed slot matches no key.
    key: u64,
    /// End (subject coordinate) of the pending two-hit anchor seed; 0 when
    /// there is none, since a seed ends at 1 or later.
    last_seed_end: u32,
    /// Subject coordinate up to which extensions cover the diagonal.
    covered_to: u32,
}

/// Per-(context, diagonal) seeding state, one subject sequence at a time:
/// implements both the one-hit mode (DNA) and the two-hit mode (protein),
/// plus suppression of seeds falling inside an already-extended segment.
///
/// Like NCBI's diagonal table, each context owns a power-of-two ring of
/// 16-byte slots indexed by diagonal modulo the ring size, allocated once
/// per tracker. [`start_subject`](Self::start_subject) bumps a generation
/// instead of clearing: a slot of an older generation reads as default.
/// The `u32` generation wraps after 2³² − 1 subjects, and only then is the
/// ring cleared.
///
/// A ring stands in for a map from diagonal to state because two diagonals
/// that are live at the same time never share a slot. For a context of `L`
/// residues, with `B` = [`DEFAULT_BAND`]:
///
/// * the subject scan calls with non-decreasing subject positions `s`
///   ([`scan_words`](crate::lookup::scan_words) yields them in order);
/// * an [`offer`](Self::offer) at `s` reads a diagonal in
///   `[s − L + 1, s]`, since the query offset lies in `[0, L)`;
/// * a [`mark_extended`](Self::mark_extended) at `s` writes within ±`B` of
///   the offered diagonal: the ungapped segment stays on it, and the
///   gapped X-drop is banded to `B` diagonals either side of its anchor.
///
/// So every diagonal touched at `s` lies in `[s − L + 1 − B, s + B]`. Take
/// `d` touched at `s`, and `d′` touched at `s₁ ≤ s` and again at `s₂ ≥ s`.
/// If `d′ > d`, then `d′ − d ≤ (s₁ + B) − (s − L + 1 − B) < L + 2B`; if
/// `d′ < d`, then `d − d′ ≤ (s + B) − (s₂ − L + 1 − B) < L + 2B`. A ring
/// of at least `L + 2B` slots therefore never maps `d` onto a diagonal
/// that was touched before `s` and will be touched again: whatever `d`
/// evicts is dead. Subject and query coordinates stay below 2³¹, so the
/// `u32` tag of two diagonals sharing a slot differs.
pub struct DiagTracker {
    /// `two_hit_window == 0` selects one-hit seeding.
    two_hit_window: usize,
    /// Per context: the index of its ring's first slot and the ring's mask.
    rings: Vec<(usize, u32)>,
    slots: Vec<DiagSlot>,
    generation: u32,
}

impl DiagTracker {
    /// Tracker for query contexts of `context_lens` residues. Call
    /// [`start_subject`](Self::start_subject) before each subject.
    pub fn new(two_hit_window: usize, context_lens: impl IntoIterator<Item = usize>) -> Self {
        let mut rings = Vec::new();
        let mut total = 0;
        for len in context_lens {
            let size = ring_size(len);
            rings.push((total, (size - 1) as u32));
            total += size;
        }
        DiagTracker { two_hit_window, rings, slots: vec![DiagSlot::default(); total], generation: 0 }
    }

    /// Forget every diagonal's state: the next subject sequence starts.
    pub fn start_subject(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.slots.fill(DiagSlot::default());
            self.generation = 1;
        }
    }

    /// The slot of `ctx`'s diagonal `spos − qpos`, claimed for it: a slot
    /// holding another diagonal or an older subject is reset to default.
    #[inline]
    fn slot(&mut self, ctx: u32, qpos: usize, spos: usize) -> &mut DiagSlot {
        let diag = (spos as u32).wrapping_sub(qpos as u32);
        let key = (u64::from(self.generation) << 32) | u64::from(diag);
        let (base, mask) = self.rings[ctx as usize];
        let slot = &mut self.slots[base + (diag & mask) as usize];
        if slot.key != key {
            *slot = DiagSlot { key, ..DiagSlot::default() };
        }
        slot
    }

    /// Report a seed for `ctx` at `(qpos, spos)` with word length `word`.
    /// Returns `true` when the seed should be extended now.
    pub fn offer(&mut self, ctx: u32, qpos: usize, spos: usize, word: usize) -> bool {
        let window = self.two_hit_window;
        let d = self.slot(ctx, qpos, spos);
        if spos < d.covered_to as usize {
            return false; // inside an already-extended segment
        }
        if window == 0 {
            // One-hit seeding keeps no anchors: only coverage suppresses.
            return true;
        }
        let prev_end = d.last_seed_end as usize;
        if prev_end != 0 && spos < prev_end {
            // Overlapping follow-up hit: keep the stored anchor (NCBI
            // behaviour) so a later non-overlapping hit can still pair with
            // it — replacing it here would make contiguous identities never
            // fire.
            false
        } else if prev_end != 0 && spos - prev_end <= window {
            // Non-overlapping second hit within the window: trigger, and
            // clear the anchor (the extension coverage takes over).
            d.last_seed_end = 0;
            true
        } else {
            // First hit, or too far from the anchor: a fresh anchor.
            d.last_seed_end = (spos + word) as u32;
            false
        }
    }

    /// Record that the diagonal of `ctx` is covered up to subject coordinate
    /// `s_end` by an extension.
    pub fn mark_extended(&mut self, ctx: u32, q_start: usize, s_start: usize, s_end: usize) {
        let d = self.slot(ctx, q_start, s_start);
        d.covered_to = d.covered_to.max(s_end as u32);
    }

    /// Jump the generation counter, so a test reaches its wrap.
    #[cfg(test)]
    fn set_generation(&mut self, generation: u32) {
        self.generation = generation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::alphabet::Alphabet;

    fn dna(s: &[u8]) -> Vec<u8> {
        Alphabet::Dna.encode_seq(s)
    }

    #[test]
    fn perfect_match_extends_fully() {
        let q = dna(b"ACGTACGTACGT");
        let s = dna(b"ACGTACGTACGT");
        let h = ungapped_extend(&q, &s, 4, 4, 4, &Scoring::blastn_default(), 20);
        assert_eq!((h.q_start, h.q_end), (0, 12));
        assert_eq!((h.s_start, h.s_end), (0, 12));
        assert_eq!(h.score, 24); // 12 matches × 2
    }

    #[test]
    fn extension_stops_at_xdrop() {
        // Match region then garbage: extension must stop near the boundary.
        let q = dna(b"AAAAAAAAAACCCCCCCCCCCC");
        let s = dna(b"AAAAAAAAAAGGGGGGGGGGGG");
        let h = ungapped_extend(&q, &s, 0, 0, 4, &Scoring::blastn_default(), 6);
        assert_eq!(h.q_start, 0);
        assert_eq!(h.q_end, 10, "should stop at the match/mismatch boundary");
        assert_eq!(h.score, 20);
    }

    #[test]
    fn extension_tolerates_isolated_mismatch() {
        // 8 match, 1 mismatch, 8 match: worth crossing (2·8 − 3 + 2·8 = 29).
        let q = dna(b"ACGTACGTTACGTACGT");
        let mut sv = q.clone();
        sv[8] = (sv[8] + 1) % 4;
        let h = ungapped_extend(&q, &sv, 0, 0, 4, &Scoring::blastn_default(), 20);
        assert_eq!(h.q_end, 17);
        assert_eq!(h.score, 2 * 16 - 3);
    }

    #[test]
    fn left_extension_works() {
        let q = dna(b"ACGTACGTACGT");
        let s = dna(b"ACGTACGTACGT");
        let h = ungapped_extend(&q, &s, 8, 8, 4, &Scoring::blastn_default(), 20);
        assert_eq!(h.q_start, 0);
        assert_eq!(h.score, 24);
    }

    #[test]
    fn seed_at_sequence_edges() {
        let q = dna(b"ACGT");
        let s = dna(b"ACGT");
        let h = ungapped_extend(&q, &s, 0, 0, 4, &Scoring::blastn_default(), 10);
        assert_eq!(h.score, 8);
        assert_eq!((h.q_start, h.q_end, h.s_start, h.s_end), (0, 4, 0, 4));
    }

    #[test]
    fn diagonal_value() {
        let h = UngappedHsp { q_start: 3, q_end: 10, s_start: 8, s_end: 15, score: 1 };
        assert_eq!(h.diagonal(), 5);
    }

    /// A ring tracker over two 200-residue contexts, on its first subject.
    fn tracker(two_hit_window: usize) -> DiagTracker {
        let mut t = DiagTracker::new(two_hit_window, [200, 200]);
        t.start_subject();
        t
    }

    #[test]
    fn one_hit_tracker_always_fires_then_suppresses_covered() {
        let mut t = tracker(0);
        assert!(t.offer(0, 0, 10, 4));
        t.mark_extended(0, 0, 10, 30);
        assert!(!t.offer(0, 5, 15, 4), "seed inside extended region suppressed");
        assert!(t.offer(0, 25, 35, 4), "seed past extended region fires");
    }

    #[test]
    fn two_hit_requires_second_nearby_seed() {
        let mut t = tracker(40);
        // First seed on a diagonal never fires.
        assert!(!t.offer(0, 0, 0, 3));
        // Second seed within window fires.
        assert!(t.offer(0, 10, 10, 3));
        // After firing, the anchor resets: next seed is a fresh first hit.
        assert!(!t.offer(0, 100, 100, 3));
        // Overlapping seeds don't count as a pair.
        let mut t2 = tracker(40);
        assert!(!t2.offer(1, 0, 0, 3));
        assert!(!t2.offer(1, 1, 1, 3), "overlapping second seed must not fire");
    }

    #[test]
    fn two_hit_fires_on_contiguous_identity_runs() {
        // Word hits at every position (a perfect identity segment): the
        // anchor must survive overlapping follow-ups so the first
        // non-overlapping hit (3 positions later) fires — NCBI's behaviour.
        let mut t = tracker(40);
        assert!(!t.offer(0, 100, 100, 3));
        assert!(!t.offer(0, 101, 101, 3));
        assert!(!t.offer(0, 102, 102, 3));
        assert!(t.offer(0, 103, 103, 3), "first non-overlapping hit must fire");
    }

    #[test]
    fn two_hit_far_seed_resets_anchor() {
        let mut t = tracker(40);
        assert!(!t.offer(0, 0, 0, 3));
        // 100 − 3 > 40: out of window, becomes the new anchor.
        assert!(!t.offer(0, 100, 100, 3));
        // …which a nearby hit can then pair with.
        assert!(t.offer(0, 110, 110, 3));
    }

    #[test]
    fn two_hit_tracks_diagonals_independently() {
        let mut t = tracker(40);
        assert!(!t.offer(0, 0, 0, 3)); // diag 0
        assert!(!t.offer(0, 0, 5, 3)); // diag 5
        assert!(t.offer(0, 10, 10, 3)); // diag 0, second hit
        assert!(t.offer(0, 10, 15, 3)); // diag 5, second hit
    }

    #[test]
    fn contexts_are_independent() {
        let mut t = tracker(40);
        assert!(!t.offer(0, 0, 0, 3));
        assert!(!t.offer(1, 4, 4, 3), "other context starts fresh");
        assert!(t.offer(0, 8, 8, 3));
    }

    /// Seeding state of one `(context, diagonal)` in [`MapTracker`].
    #[derive(Default, Clone, Copy)]
    struct DiagState {
        last_seed_end: Option<usize>,
        covered_to: usize,
    }

    /// One record per `(context, diagonal)` in a map on an unkeyed
    /// FxHash-style hasher, new for every subject. It takes calls in any
    /// order, so it is the oracle for the ring.
    struct MapTracker {
        two_hit_window: usize,
        diags: crate::fxhash::FxHashMap<(u32, i64), DiagState>,
    }

    impl MapTracker {
        fn new(two_hit_window: usize) -> Self {
            MapTracker { two_hit_window, diags: Default::default() }
        }

        fn offer(&mut self, ctx: u32, qpos: usize, spos: usize, word: usize) -> bool {
            let key = (ctx, spos as i64 - qpos as i64);
            if self.two_hit_window == 0 {
                return self.diags.get(&key).is_none_or(|d| spos >= d.covered_to);
            }
            let d = self.diags.entry(key).or_default();
            if spos < d.covered_to {
                return false;
            }
            let seed_end = spos + word;
            match d.last_seed_end {
                Some(prev_end) if spos < prev_end => false,
                Some(prev_end) if spos - prev_end <= self.two_hit_window => {
                    d.last_seed_end = None;
                    true
                }
                _ => {
                    d.last_seed_end = Some(seed_end);
                    false
                }
            }
        }

        fn mark_extended(&mut self, ctx: u32, q_start: usize, s_start: usize, s_end: usize) {
            let d = self.diags.entry((ctx, s_start as i64 - q_start as i64)).or_default();
            d.covered_to = d.covered_to.max(s_end);
        }
    }

    /// Reference tracker: the anchor and the coverage in two separate
    /// SipHash maps, probed one after the other.
    struct TwoMapTracker {
        two_hit_window: usize,
        last_seed: std::collections::HashMap<(u32, i64), usize>,
        extended_to: std::collections::HashMap<(u32, i64), usize>,
    }

    impl TwoMapTracker {
        fn offer(&mut self, ctx: u32, qpos: usize, spos: usize, word: usize) -> bool {
            let key = (ctx, spos as i64 - qpos as i64);
            if self.extended_to.get(&key).is_some_and(|&covered| spos < covered) {
                return false;
            }
            if self.two_hit_window == 0 {
                return true;
            }
            match self.last_seed.get(&key).copied() {
                Some(prev_end) if spos < prev_end => false,
                Some(prev_end) if spos - prev_end <= self.two_hit_window => {
                    self.last_seed.remove(&key);
                    true
                }
                _ => {
                    self.last_seed.insert(key, spos + word);
                    false
                }
            }
        }

        fn mark_extended(&mut self, ctx: u32, q_start: usize, s_start: usize, s_end: usize) {
            let e = self.extended_to.entry((ctx, s_start as i64 - q_start as i64)).or_insert(0);
            *e = (*e).max(s_end);
        }
    }

    proptest::proptest! {
        #[test]
        fn tracker_agrees_with_two_map_reference(
            seed in proptest::prelude::any::<u64>(),
            two_hit in proptest::prelude::any::<bool>(),
        ) {
            use rand::Rng;
            let mut r = bioseq::gen::rng(seed);
            let window = if two_hit { r.random_range(1..40) } else { 0 };
            let mut fast = MapTracker::new(window);
            let mut reference = TwoMapTracker {
                two_hit_window: window,
                last_seed: Default::default(),
                extended_to: Default::default(),
            };
            // Subject positions mostly increase, as in a subject scan, with
            // occasional jumps back; few contexts and diagonals so state is
            // revisited often.
            let mut spos = 0usize;
            for step in 0..400 {
                spos = if r.random::<f64>() < 0.05 {
                    r.random_range(0..=spos)
                } else {
                    spos + r.random_range(0..4)
                };
                let ctx = r.random_range(0..3u32);
                let qpos = r.random_range(0..=spos.min(12));
                if r.random::<f64>() < 0.2 {
                    let s_end = spos + r.random_range(0..30);
                    fast.mark_extended(ctx, qpos, spos, s_end);
                    reference.mark_extended(ctx, qpos, spos, s_end);
                } else {
                    let word = r.random_range(1..6);
                    proptest::prop_assert_eq!(
                        fast.offer(ctx, qpos, spos, word),
                        reference.offer(ctx, qpos, spos, word),
                        "step {} ctx {} qpos {} spos {} word {}", step, ctx, qpos, spos, word
                    );
                }
            }
        }

        #[test]
        fn ring_tracker_agrees_with_map_tracker_on_subject_scans(
            seed in proptest::prelude::any::<u64>(),
            two_hit in proptest::prelude::any::<bool>(),
        ) {
            use rand::Rng;
            let mut r = bioseq::gen::rng(seed);
            let window = if two_hit { r.random_range(1..40) } else { 0 };
            // Contexts shorter than 300 residues, scanned by subjects
            // several times longer than their rings, so every ring wraps.
            let lens: Vec<usize> =
                (0..r.random_range(1..4)).map(|_| r.random_range(1..300)).collect();
            let mut ring = DiagTracker::new(window, lens.iter().copied());
            let band = DEFAULT_BAND as i64;
            for subject in 0..4 {
                if subject == 2 {
                    // The next two subjects run at generations u32::MAX and,
                    // after the wrap, 1: the first subject's generation.
                    ring.set_generation(u32::MAX - 1);
                }
                ring.start_subject();
                let mut map = MapTracker::new(window);
                let mut spos = 0usize;
                while spos < 1200 {
                    spos += r.random_range(0..3);
                    let ctx = r.random_range(0..lens.len());
                    let len = lens[ctx];
                    // Query offsets at either end of the context reach the
                    // oldest and the newest live diagonal.
                    let qpos = match r.random_range(0..4) {
                        0 => 0,
                        1 => len - 1,
                        _ => r.random_range(0..len),
                    };
                    let word = r.random_range(1..6);
                    let ctx = ctx as u32;
                    proptest::prop_assert_eq!(
                        ring.offer(ctx, qpos, spos, word),
                        map.offer(ctx, qpos, spos, word),
                        "subject {} ctx {} qpos {} spos {} word {}", subject, ctx, qpos, spos, word
                    );
                    if r.random::<f64>() < 0.3 {
                        // An extension from this seed: on its diagonal, or
                        // up to the band off it, starting behind the scan
                        // point or ahead of it.
                        let diag = spos as i64 - qpos as i64 + match r.random_range(0..4) {
                            0 => -band,
                            1 => band,
                            _ => r.random_range(-band..=band),
                        };
                        let q_start = r.random_range(0..len + DEFAULT_BAND) as i64;
                        let s_start = q_start + diag;
                        if s_start >= 0 {
                            let (q_start, s_start) = (q_start as usize, s_start as usize);
                            let s_end = s_start + r.random_range(0..80);
                            ring.mark_extended(ctx, q_start, s_start, s_end);
                            map.mark_extended(ctx, q_start, s_start, s_end);
                        }
                    }
                }
            }
        }
    }
}
