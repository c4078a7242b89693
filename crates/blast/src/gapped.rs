//! Gapped X-drop extension and banded traceback alignment — BLAST stage
//! three.
//!
//! "The third stage performs gapped alignment for those matches that passed
//! the second stage" (§II.B). From an anchor pair inside the ungapped HSP,
//! an affine-gap dynamic program extends forward and backward, pruning any
//! cell whose score falls more than X below the best seen so far. Each row
//! computes only the cells the previous row's surviving ones can reach,
//! so the band adapts to the alignment (Zhang et al.'s X-drop, as in NCBI's
//! `ALIGN_EX`), capped at a fixed half-width of [`DEFAULT_BAND`] diagonals.
//! A final banded global alignment over the discovered range, filling only
//! each row's band window, recovers identities and gap counts for
//! reporting.

use crate::matrix::Scoring;

const NEG_INF: i32 = i32::MIN / 4;

/// Result of one directional X-drop extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtensionResult {
    /// Best score found (0 when extending nowhere beats the empty
    /// extension).
    pub score: i32,
    /// Residues of `a` consumed by the best extension.
    pub a_len: usize,
    /// Residues of `b` consumed by the best extension.
    pub b_len: usize,
}

/// Default band half-width for [`xdrop_extend`]: the maximum net gap excess
/// (gaps in one sequence minus gaps in the other) an extension can
/// accumulate.
pub const DEFAULT_BAND: usize = 48;

#[inline]
fn guarded(v: i32) -> bool {
    v > NEG_INF / 2
}

/// Affine-gap X-drop extension of prefixes of `a` against `b` starting at
/// the implicit aligned cell (0,0) with score 0, inside a band of half-width
/// `band` around the main diagonal. Returns the best-scoring endpoint;
/// the score is never negative (the empty extension always exists).
///
/// Allocates its DP rows per call; [`XdropRows`] keeps them across calls.
pub fn xdrop_extend_banded(
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
    xdrop: i32,
    band: usize,
) -> ExtensionResult {
    XdropRows::default().extend(a, b, scoring, xdrop, band)
}

/// The two DP rows (`H` and `F`, previous and current) of the X-drop
/// extension, kept between calls so a search allocates them once per work
/// unit rather than once per extension.
///
/// The band window shifts with the row, so cell `(i, j)` lives at offset
/// `j - i + band`, which keeps the diagonal predecessor at the *same* offset
/// across rows, the vertical predecessor one offset up, and the horizontal
/// predecessor one offset down — a standard anti-drift layout.
///
/// Each row visits only the cells its predecessor's live range can reach:
/// the offsets `[lo - 1, hi]` of the previous row's first and last live
/// cell, then rightwards while the horizontal gap run stays live. Nothing
/// else can be live: a pruned cell's score is below `best - X`, gap runs
/// leaving it only lose score, and `best` never falls, so no chain through
/// a pruned cell revives.
#[derive(Debug, Default)]
pub struct XdropRows {
    h: Vec<i32>,
    f: Vec<i32>,
    h_new: Vec<i32>,
    f_new: Vec<i32>,
}

impl XdropRows {
    /// [`xdrop_extend_banded`] on the rows kept here.
    pub fn extend(
        &mut self,
        a: &[u8],
        b: &[u8],
        scoring: &Scoring,
        xdrop: i32,
        band: usize,
    ) -> ExtensionResult {
        self.run::<false>(a, b, scoring, xdrop, band)
    }

    /// Leftward extension: [`xdrop_extend_banded`] of `a` and `b` each read
    /// from its last residue back to its first, without reversing a copy.
    pub fn extend_back(
        &mut self,
        a: &[u8],
        b: &[u8],
        scoring: &Scoring,
        xdrop: i32,
        band: usize,
    ) -> ExtensionResult {
        self.run::<true>(a, b, scoring, xdrop, band)
    }

    fn run<const BACK: bool>(
        &mut self,
        a: &[u8],
        b: &[u8],
        scoring: &Scoring,
        xdrop: i32,
        band: usize,
    ) -> ExtensionResult {
        if a.is_empty() || b.is_empty() {
            return ExtensionResult { score: 0, a_len: 0, b_len: 0 };
        }
        // Residue `i` in reading order.
        let at = |s: &[u8], i: usize| if BACK { s[s.len() - 1 - i] } else { s[i] };
        let go = scoring.gap_open();
        let ge = scoring.gap_extend();
        let band = band.max(1);
        let width = 2 * band + 1;
        // One slot past the window, so offset `hi + 1` always exists.
        for row in [&mut self.h, &mut self.f, &mut self.h_new, &mut self.f_new] {
            if row.len() <= width {
                row.resize(width + 1, NEG_INF);
            }
        }
        let XdropRows { h, f, h_new, f_new } = self;

        let mut best = 0i32;
        let (mut best_i, mut best_j) = (0usize, 0usize);

        // Row 0: leading gaps in `a` (E-runs along the top edge), at offsets
        // k = j + band. [lo, hi] is the previous row's live range; the slots
        // just outside it read as pruned.
        h[band] = 0;
        f[band] = NEG_INF;
        let (mut lo, mut hi) = (band, band);
        for j in 1..=band.min(b.len()) {
            let sc = -go - ge * j as i32;
            if -sc > xdrop {
                break;
            }
            h[band + j] = sc;
            f[band + j] = NEG_INF;
            hi = band + j;
        }
        h[lo - 1] = NEG_INF;
        h[hi + 1] = NEG_INF;
        f[hi + 1] = NEG_INF;

        for i in 1..=a.len() {
            // Row i covers j in [i-band, i+band] ∩ [0, b.len()].
            if i > b.len() + band {
                break;
            }
            let k_min = band.saturating_sub(i);
            let k_max = (b.len() + band - i).min(width - 1);
            let ai = at(a, i - 1);
            let mut e = NEG_INF; // horizontal gap run within this row
            let mut h_left = NEG_INF;
            let mut live: Option<(usize, usize)> = None;
            let mut k = lo.saturating_sub(1).max(k_min);

            // Cells with a diagonal or vertical predecessor in [lo, hi].
            while k <= hi.min(k_max) {
                let j = k + i - band;
                // Diagonal predecessor (i-1, j-1): same offset k.
                let d = if j >= 1 && guarded(h[k]) {
                    h[k] + scoring.score(ai, at(b, j - 1))
                } else {
                    NEG_INF
                };
                // Vertical predecessor (i-1, j): offset k+1.
                let open = if guarded(h[k + 1]) { h[k + 1] - go - ge } else { NEG_INF };
                let ext = if guarded(f[k + 1]) { f[k + 1] - ge } else { NEG_INF };
                let fv = open.max(ext);
                // Horizontal predecessor (i, j-1): offset k-1 in this row.
                let open = if guarded(h_left) { h_left - go - ge } else { NEG_INF };
                let ext = if guarded(e) { e - ge } else { NEG_INF };
                let ev = open.max(ext);

                let mut cell = d.max(fv).max(ev);
                if guarded(cell) && best - cell > xdrop {
                    cell = NEG_INF;
                }
                h_new[k] = cell;
                f_new[k] = fv;
                e = ev;
                h_left = cell;
                if guarded(cell) {
                    live = Some((live.map_or(k, |(l, _)| l), k));
                    if cell > best {
                        best = cell;
                        best_i = i;
                        best_j = j;
                    }
                }
                k += 1;
            }
            // Past `hi` only the horizontal gap run reaches, and it stays
            // pruned once pruned.
            while k <= k_max {
                let open = if guarded(h_left) { h_left - go - ge } else { NEG_INF };
                let ext = if guarded(e) { e - ge } else { NEG_INF };
                let cell = open.max(ext);
                if !guarded(cell) || best - cell > xdrop {
                    break;
                }
                h_new[k] = cell;
                f_new[k] = NEG_INF;
                e = cell;
                h_left = cell;
                // A gap cell never scores above its left neighbour, so
                // `best` stands.
                live = Some((live.map_or(k, |(l, _)| l), k));
                k += 1;
            }

            let Some((new_lo, new_hi)) = live else { break };
            if new_lo >= 1 {
                h_new[new_lo - 1] = NEG_INF;
            }
            h_new[new_hi + 1] = NEG_INF;
            f_new[new_hi + 1] = NEG_INF;
            std::mem::swap(h, h_new);
            std::mem::swap(f, f_new);
            (lo, hi) = (new_lo, new_hi);
        }

        ExtensionResult { score: best, a_len: best_i, b_len: best_j }
    }
}

/// [`xdrop_extend_banded`] with the default band.
pub fn xdrop_extend(a: &[u8], b: &[u8], scoring: &Scoring, xdrop: i32) -> ExtensionResult {
    xdrop_extend_banded(a, b, scoring, xdrop, DEFAULT_BAND)
}

/// Alignment statistics recovered by traceback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlignmentStats {
    /// Alignment score.
    pub score: i32,
    /// Identical aligned pairs.
    pub identity: u32,
    /// Total alignment columns (matches + mismatches + gaps).
    pub align_len: u32,
    /// Gap columns.
    pub gaps: u32,
}

/// A full banded alignment: the score plus the operation path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandedAlignment {
    /// Alignment score.
    pub score: i32,
    /// Operations from the start of the range: `M` (aligned pair, match or
    /// mismatch), `I` (gap in `a`, consumes a `b` residue), `D` (gap in
    /// `b`, consumes an `a` residue).
    pub ops: Vec<u8>,
}

impl BandedAlignment {
    /// Derive the reporting statistics from the path.
    pub fn stats(&self, a: &[u8], b: &[u8]) -> AlignmentStats {
        let mut identity = 0u32;
        let mut gaps = 0u32;
        let (mut i, mut j) = (0usize, 0usize);
        for &op in &self.ops {
            match op {
                b'M' => {
                    if a[i] == b[j] {
                        identity += 1;
                    }
                    i += 1;
                    j += 1;
                }
                b'I' => {
                    gaps += 1;
                    j += 1;
                }
                _ => {
                    gaps += 1;
                    i += 1;
                }
            }
        }
        AlignmentStats { score: self.score, identity, align_len: self.ops.len() as u32, gaps }
    }
}

/// Banded global (Needleman–Wunsch, affine gaps) alignment of `a` against
/// `b` with traceback, used to recover identity/gap statistics over the
/// range found by X-drop extension. The band is centered on the main
/// diagonal adjusted for the length difference and widened by `extra`.
pub fn banded_global_stats(
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
    extra: usize,
) -> AlignmentStats {
    banded_global_alignment(a, b, scoring, extra).stats(a, b)
}

/// As [`banded_global_stats`] but returning the full operation path, for
/// pairwise report rendering.
pub fn banded_global_alignment(
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
    extra: usize,
) -> BandedAlignment {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        let gaps = n + m;
        let open = if gaps > 0 { scoring.gap_open() } else { 0 };
        let mut ops = vec![b'I'; m];
        ops.extend(std::iter::repeat_n(b'D', n));
        return BandedAlignment {
            score: -open - scoring.gap_extend() * gaps as i32,
            ops,
        };
    }
    let go = scoring.gap_open();
    let ge = scoring.gap_extend();
    let band = n.abs_diff(m) + extra.max(8);

    // DP tables over the band: row i keeps the 2*band+1 columns around its
    // centre j ≈ i * m / n, and the fill visits only those.
    let width = 2 * band + 1;
    let centre: Vec<usize> = (0..=n).map(|i| i * m / n).collect();
    let idx = |i: usize, j: usize| -> Option<usize> {
        let c = centre[i];
        (j + band >= c && j <= c + band).then(|| i * width + j + band - c)
    };

    let cells = (n + 1) * width;
    let mut hmat = vec![NEG_INF; cells];
    let mut emat = vec![NEG_INF; cells];
    let mut fmat = vec![NEG_INF; cells];
    let get = |mat: &[i32], slot: Option<usize>| slot.map_or(NEG_INF, |s| mat[s]);

    hmat[band] = 0;
    for j in 1..=m.min(band) {
        emat[band + j] = -go - ge * j as i32;
        hmat[band + j] = -go - ge * j as i32;
    }
    for i in 1..=n {
        let c = centre[i];
        let row = i * width + band - c; // slot of (i, j) is row + j
        if c <= band {
            fmat[row] = -go - ge * i as i32;
            hmat[row] = -go - ge * i as i32;
        }
        for j in c.saturating_sub(band).max(1)..=m.min(c + band) {
            let slot = row + j;
            let h_diag = get(&hmat, idx(i - 1, j - 1));
            let h_up = get(&hmat, idx(i - 1, j));
            let f_up = get(&fmat, idx(i - 1, j));
            let (h_left, e_left) = if j + band > c {
                (hmat[slot - 1], emat[slot - 1])
            } else {
                (NEG_INF, NEG_INF)
            };

            let e = (h_left - go - ge).max(e_left - ge).max(NEG_INF);
            let f = (h_up - go - ge).max(f_up - ge).max(NEG_INF);
            let d = if h_diag <= NEG_INF / 2 {
                NEG_INF
            } else {
                h_diag + scoring.score(a[i - 1], b[j - 1])
            };
            emat[slot] = e;
            fmat[slot] = f;
            hmat[slot] = d.max(e).max(f);
        }
    }

    // Traceback from (n, m), recording the operation path in reverse.
    let (mut i, mut j) = (n, m);
    let mut ops: Vec<u8> = Vec::with_capacity(n + m);
    let score = get(&hmat, idx(n, m));
    let mut state = 0u8; // 0 = H, 1 = E (gap in a), 2 = F (gap in b)
    while i > 0 || j > 0 {
        match state {
            0 => {
                let cur = get(&hmat, idx(i, j));
                if i > 0 && j > 0 {
                    let d = get(&hmat, idx(i - 1, j - 1));
                    if d > NEG_INF / 2 && d + scoring.score(a[i - 1], b[j - 1]) == cur {
                        ops.push(b'M');
                        i -= 1;
                        j -= 1;
                        continue;
                    }
                }
                if j > 0 && get(&emat, idx(i, j)) == cur {
                    state = 1;
                    continue;
                }
                if i > 0 && get(&fmat, idx(i, j)) == cur {
                    state = 2;
                    continue;
                }
                // Degenerate: band edge; fall back to consuming remaining.
                if j > 0 {
                    ops.push(b'I');
                    j -= 1;
                } else {
                    ops.push(b'D');
                    i -= 1;
                }
            }
            1 => {
                // Gap in `a`: consumed b[j-1].
                ops.push(b'I');
                let cur = get(&emat, idx(i, j));
                let from_open = get(&hmat, idx(i, j - 1)) - go - ge;
                j -= 1;
                if cur == from_open {
                    state = 0;
                }
            }
            _ => {
                ops.push(b'D');
                let cur = get(&fmat, idx(i, j));
                let from_open = get(&hmat, idx(i - 1, j)) - go - ge;
                i -= 1;
                if cur == from_open {
                    state = 0;
                }
            }
        }
    }
    ops.reverse();
    BandedAlignment { score, ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::alphabet::Alphabet;

    fn dna(s: &[u8]) -> Vec<u8> {
        Alphabet::Dna.encode_seq(s)
    }

    /// Reference extension: every cell of the fixed `2 * band + 1` window
    /// on every row, pruned cells included.
    fn full_band_xdrop_extend(
        a: &[u8],
        b: &[u8],
        scoring: &Scoring,
        xdrop: i32,
        band: usize,
    ) -> ExtensionResult {
        if a.is_empty() || b.is_empty() {
            return ExtensionResult { score: 0, a_len: 0, b_len: 0 };
        }
        let go = scoring.gap_open();
        let ge = scoring.gap_extend();
        let band = band.max(1);
        let width = 2 * band + 1;

        let mut best = 0i32;
        let (mut best_i, mut best_j) = (0usize, 0usize);

        // Row i window covers j in [i-band, i+band] ∩ [0, b.len()].
        // h[k], f[k] hold H(i-1, ·) and F(i-1, ·) at offset k = j - (i-1) + band.
        let mut h = vec![NEG_INF; width];
        let mut f = vec![NEG_INF; width];

        // Row 0: leading gaps in `a` (E-runs along the top edge).
        // Offsets for row 0: k = j + band.
        h[band] = 0;
        for j in 1..=band.min(b.len()) {
            let sc = -go - ge * j as i32;
            if -sc > xdrop {
                break;
            }
            h[band + j] = sc;
        }

        let mut h_new = vec![NEG_INF; width];
        let mut f_new = vec![NEG_INF; width];

        for i in 1..=a.len() {
            let j_lo = i.saturating_sub(band);
            let j_hi = (i + band).min(b.len());
            if j_lo > b.len() {
                break;
            }
            h_new.fill(NEG_INF);
            f_new.fill(NEG_INF);
            let mut e = NEG_INF; // horizontal gap run within this row
            let mut alive = false;

            for j in j_lo..=j_hi {
                // Offset of (i, j) in the current row's window.
                let k = j + band - i;
                // Diagonal predecessor (i-1, j-1): same offset k in the previous
                // row's window.
                let d = if j >= 1 && guarded(h[k]) {
                    h[k] + scoring.score(a[i - 1], b[j - 1])
                } else {
                    NEG_INF
                };
                // Vertical predecessor (i-1, j): offset k+1 in previous window.
                let fv = if k + 1 < width {
                    let open = if guarded(h[k + 1]) { h[k + 1] - go - ge } else { NEG_INF };
                    let ext = if guarded(f[k + 1]) { f[k + 1] - ge } else { NEG_INF };
                    open.max(ext)
                } else {
                    NEG_INF
                };
                // Horizontal predecessor (i, j-1): offset k-1 in current window.
                let ev = {
                    let open = if k >= 1 && guarded(h_new[k - 1]) {
                        h_new[k - 1] - go - ge
                    } else {
                        NEG_INF
                    };
                    let ext = if guarded(e) { e - ge } else { NEG_INF };
                    open.max(ext)
                };

                let mut cell = d.max(fv).max(ev);
                if guarded(cell) && best - cell > xdrop {
                    cell = NEG_INF;
                }
                h_new[k] = cell;
                f_new[k] = fv;
                e = ev;

                if guarded(cell) {
                    alive = true;
                    if cell > best {
                        best = cell;
                        best_i = i;
                        best_j = j;
                    }
                }
            }
            if !alive {
                break;
            }
            std::mem::swap(&mut h, &mut h_new);
            std::mem::swap(&mut f, &mut f_new);
        }

        ExtensionResult { score: best, a_len: best_i, b_len: best_j }
    }

    /// Reference traceback alignment: every column of every row, each
    /// cell's band slot found by an integer division.
    fn full_row_global_alignment(
        a: &[u8],
        b: &[u8],
        scoring: &Scoring,
        extra: usize,
    ) -> BandedAlignment {
        let (n, m) = (a.len(), b.len());
        if n == 0 || m == 0 {
            let gaps = n + m;
            let open = if gaps > 0 { scoring.gap_open() } else { 0 };
            let mut ops = vec![b'I'; m];
            ops.extend(std::iter::repeat_n(b'D', n));
            return BandedAlignment {
                score: -open - scoring.gap_extend() * gaps as i32,
                ops,
            };
        }
        let go = scoring.gap_open();
        let ge = scoring.gap_extend();
        let band = (n as i64 - m as i64).unsigned_abs() as usize + extra.max(8);

        // Full DP tables over the band; (n+1) x (2*band+1) window around the
        // diagonal j ≈ i * m / n. For the modest ranges BLAST extensions produce
        // this is cheap and simple.
        let width = 2 * band + 1;
        let idx = |i: usize, j: usize| -> Option<usize> {
            let center = (i as i64 * m as i64 / n as i64).clamp(0, m as i64);
            let off = j as i64 - center + band as i64;
            if off < 0 || off >= width as i64 {
                None
            } else {
                Some(i * width + off as usize)
            }
        };

        let cells = (n + 1) * width;
        let mut hmat = vec![NEG_INF; cells];
        let mut emat = vec![NEG_INF; cells];
        let mut fmat = vec![NEG_INF; cells];

        let set = |mat: &mut Vec<i32>, slot: Option<usize>, v: i32| {
            if let Some(s) = slot {
                mat[s] = v;
            }
        };
        let get = |mat: &[i32], slot: Option<usize>| slot.map_or(NEG_INF, |s| mat[s]);

        set(&mut hmat, idx(0, 0), 0);
        for j in 1..=m {
            let slot = idx(0, j);
            if slot.is_none() {
                break;
            }
            set(&mut emat, slot, -go - ge * j as i32);
            set(&mut hmat, slot, -go - ge * j as i32);
        }
        for i in 1..=n {
            if let Some(slot) = idx(i, 0) {
                fmat[slot] = -go - ge * i as i32;
                hmat[slot] = -go - ge * i as i32;
            }
            for j in 1..=m {
                let slot = match idx(i, j) {
                    Some(s) => s,
                    None => continue,
                };
                let h_diag = get(&hmat, idx(i - 1, j - 1));
                let h_up = get(&hmat, idx(i - 1, j));
                let f_up = get(&fmat, idx(i - 1, j));
                let h_left = get(&hmat, idx(i, j - 1));
                let e_left = get(&emat, idx(i, j - 1));

                let e = (h_left - go - ge).max(e_left - ge).max(NEG_INF);
                let f = (h_up - go - ge).max(f_up - ge).max(NEG_INF);
                let d = if h_diag <= NEG_INF / 2 {
                    NEG_INF
                } else {
                    h_diag + scoring.score(a[i - 1], b[j - 1])
                };
                emat[slot] = e;
                fmat[slot] = f;
                hmat[slot] = d.max(e).max(f);
            }
        }

        // Traceback from (n, m), recording the operation path in reverse.
        let (mut i, mut j) = (n, m);
        let mut ops: Vec<u8> = Vec::with_capacity(n + m);
        let score = get(&hmat, idx(n, m));
        let mut state = 0u8; // 0 = H, 1 = E (gap in a), 2 = F (gap in b)
        while i > 0 || j > 0 {
            match state {
                0 => {
                    let cur = get(&hmat, idx(i, j));
                    if i > 0 && j > 0 {
                        let d = get(&hmat, idx(i - 1, j - 1));
                        if d > NEG_INF / 2 && d + scoring.score(a[i - 1], b[j - 1]) == cur {
                            ops.push(b'M');
                            i -= 1;
                            j -= 1;
                            continue;
                        }
                    }
                    if j > 0 && get(&emat, idx(i, j)) == cur {
                        state = 1;
                        continue;
                    }
                    if i > 0 && get(&fmat, idx(i, j)) == cur {
                        state = 2;
                        continue;
                    }
                    // Degenerate: band edge; fall back to consuming remaining.
                    if j > 0 {
                        ops.push(b'I');
                        j -= 1;
                    } else {
                        ops.push(b'D');
                        i -= 1;
                    }
                }
                1 => {
                    // Gap in `a`: consumed b[j-1].
                    ops.push(b'I');
                    let cur = get(&emat, idx(i, j));
                    let from_open = get(&hmat, idx(i, j - 1)) - go - ge;
                    j -= 1;
                    if cur == from_open {
                        state = 0;
                    }
                }
                _ => {
                    ops.push(b'D');
                    let cur = get(&fmat, idx(i, j));
                    let from_open = get(&hmat, idx(i - 1, j)) - go - ge;
                    i -= 1;
                    if cur == from_open {
                        state = 0;
                    }
                }
            }
        }
        ops.reverse();
        BandedAlignment { score, ops }
    }

    #[test]
    fn xdrop_identity_extension() {
        let a = dna(b"ACGTACGTACGT");
        let r = xdrop_extend(&a, &a, &Scoring::blastn_default(), 20);
        assert_eq!(r.score, 24);
        assert_eq!(r.a_len, 12);
        assert_eq!(r.b_len, 12);
    }

    #[test]
    fn xdrop_empty_inputs() {
        let a = dna(b"ACGT");
        let r = xdrop_extend(&a, &[], &Scoring::blastn_default(), 20);
        assert_eq!(r, ExtensionResult { score: 0, a_len: 0, b_len: 0 });
        let r = xdrop_extend(&[], &a, &Scoring::blastn_default(), 20);
        assert_eq!(r.score, 0);
    }

    #[test]
    fn xdrop_stops_in_garbage() {
        let a = dna(b"ACGTACGTCCCCCCCCCCCC");
        let b = dna(b"ACGTACGTGGGGGGGGGGGG");
        let r = xdrop_extend(&a, &b, &Scoring::blastn_default(), 10);
        assert_eq!(r.score, 16, "8 matching residues");
        assert_eq!(r.a_len, 8);
        assert_eq!(r.b_len, 8);
    }

    #[test]
    fn xdrop_crosses_gap_when_profitable() {
        // a has 12 matching, then b has 2 extra residues, then 12 matching:
        // crossing the gap costs open 5 + 2·2 = 9 < 24 gained.
        let left = b"ACGTACGTACGT";
        let right = b"TTGCAATTGCAA";
        let a: Vec<u8> = dna(&[&left[..], &right[..]].concat());
        let b_seq: Vec<u8> = dna(&[&left[..], b"GG", &right[..]].concat());
        let r = xdrop_extend(&a, &b_seq, &Scoring::blastn_default(), 30);
        assert_eq!(r.a_len, 24);
        assert_eq!(r.b_len, 26);
        assert_eq!(r.score, 2 * 24 - 5 - 2 * 2);
    }

    #[test]
    fn xdrop_score_never_negative() {
        let a = dna(b"AAAA");
        let b = dna(b"TTTT");
        let r = xdrop_extend(&a, &b, &Scoring::blastn_default(), 5);
        assert_eq!(r.score, 0, "empty extension is always available");
    }

    #[test]
    fn banded_stats_perfect_match() {
        let a = dna(b"ACGTACGT");
        let st = banded_global_stats(&a, &a, &Scoring::blastn_default(), 8);
        assert_eq!(st.score, 16);
        assert_eq!(st.identity, 8);
        assert_eq!(st.align_len, 8);
        assert_eq!(st.gaps, 0);
    }

    #[test]
    fn banded_stats_with_mismatch() {
        let a = dna(b"ACGTACGT");
        let mut b = a.clone();
        b[3] = (b[3] + 1) % 4;
        let st = banded_global_stats(&a, &b, &Scoring::blastn_default(), 8);
        assert_eq!(st.identity, 7);
        assert_eq!(st.align_len, 8);
        assert_eq!(st.score, 7 * 2 - 3);
    }

    #[test]
    fn banded_stats_with_gap() {
        // b is a with a 2-residue deletion.
        let a = dna(b"ACGTACGTACGTACGT");
        let b: Vec<u8> = dna(b"ACGTACGTACGT");
        let b_del: Vec<u8> = [&a[..6], &a[10..]].concat();
        let _ = b;
        let st = banded_global_stats(&a, &b_del, &Scoring::blastn_default(), 8);
        assert_eq!(st.gaps, 4);
        assert_eq!(st.identity, 12);
        assert_eq!(st.align_len, 16);
        assert_eq!(st.score, 12 * 2 - 5 - 2 * 4);
    }

    #[test]
    fn banded_stats_empty_sides() {
        let a = dna(b"ACG");
        let st = banded_global_stats(&a, &[], &Scoring::blastn_default(), 4);
        assert_eq!(st.align_len, 3);
        assert_eq!(st.gaps, 3);
        assert_eq!(st.identity, 0);
        let st = banded_global_stats(&[], &[], &Scoring::blastn_default(), 4);
        assert_eq!(st.align_len, 0);
        assert_eq!(st.score, 0);
    }

    proptest::proptest! {
        #[test]
        /// The DP never reads `b` past `a.len() + band`: the extension of
        /// that prefix equals the full one, even when the best path ends on
        /// the band's outer diagonal.
        fn xdrop_reads_b_only_within_the_band(seed in proptest::prelude::any::<u64>()) {
            use rand::Rng;
            let mut r = bioseq::gen::rng(seed);
            let band = r.random_range(1..12);
            let (a_len, insert) = (r.random_range(0..60), r.random_range(0..band + 3));
            let a_seq = bioseq::gen::random_dna(&mut r, a_len, 0.5);
            // `b` = an insertion of up to `band + 2` residues, then a noisy
            // copy of `a`, then a random tail.
            let mut b_seq = bioseq::gen::random_dna(&mut r, insert, 0.5);
            b_seq.extend(bioseq::gen::mutate_dna(&mut r, &a_seq, 0.1, 0.05));
            b_seq.extend(bioseq::gen::random_dna(&mut r, 2 * band, 0.5));
            let (a, b) = (dna(&a_seq), dna(&b_seq));
            let xdrop = r.random_range(10..1000);
            let scoring = Scoring::blastn_default();
            let full = xdrop_extend_banded(&a, &b, &scoring, xdrop, band);
            let reach = b.len().min(a.len() + band);
            let cut = xdrop_extend_banded(&a, &b[..reach], &scoring, xdrop, band);
            proptest::prop_assert_eq!(cut, full, "band {} reach {} of {}", band, reach, b.len());
        }
    }

    /// A seeded pair for the oracle tests: `a` random DNA or protein codes,
    /// `b` a random insertion of up to `skew` residues, a noisy copy of `a`
    /// with substitutions and indels, then a random tail of up to `skew`.
    /// Either side may be empty.
    fn seeded_pair(r: &mut impl rand::Rng, skew: usize) -> (Vec<u8>, Vec<u8>, Scoring) {
        let protein = r.random::<bool>();
        let len = if r.random::<f64>() < 0.1 { 0 } else { r.random_range(1..200) };
        let (head, tail) = (r.random_range(0..=skew), r.random_range(0..=skew));
        let (sub, indel) = (r.random_range(0.0..0.4), r.random_range(0.0..0.05));
        if protein {
            let enc = |s: Vec<u8>| Alphabet::Protein.encode_seq(&s);
            let a = bioseq::gen::random_protein(r, len);
            let mut b = bioseq::gen::random_protein(r, head);
            // Per residue: deleted, followed by an insertion, substituted
            // or kept.
            for &c in &a {
                let (roll, other) = (r.random::<f64>(), bioseq::gen::random_protein(r, 1)[0]);
                if roll < indel / 2.0 {
                    continue;
                }
                b.push(if roll < indel || r.random::<f64>() >= sub { c } else { other });
                if roll < indel {
                    b.push(other);
                }
            }
            b.extend(bioseq::gen::random_protein(r, tail));
            (enc(a), enc(b), Scoring::blastp_default())
        } else {
            let a = bioseq::gen::random_dna(r, len, 0.5);
            let mut b = bioseq::gen::random_dna(r, head, 0.5);
            b.extend(bioseq::gen::mutate_dna(r, &a, sub, indel));
            b.extend(bioseq::gen::random_dna(r, tail, 0.5));
            (dna(&a), dna(&b), Scoring::blastn_default())
        }
    }

    proptest::proptest! {
        #[test]
        /// The live-range extension returns exactly what filling the whole
        /// band returns, forwards and backwards, with its rows reused
        /// across calls of different bands.
        fn xdrop_equals_the_full_band_oracle(seed in proptest::prelude::any::<u64>()) {
            use rand::Rng;
            let mut r = bioseq::gen::rng(seed);
            let mut rows = XdropRows::default();
            for _ in 0..4 {
                let band = r.random_range(1..=64);
                let (a, b, scoring) = seeded_pair(&mut r, band + 8);
                let (a, b) = if r.random::<bool>() { (b, a) } else { (a, b) };
                let xdrop = r.random_range(0..400);
                let expect = full_band_xdrop_extend(&a, &b, &scoring, xdrop, band);
                let why = format!("band {band} xdrop {xdrop} a {} b {}", a.len(), b.len());
                proptest::prop_assert_eq!(
                    xdrop_extend_banded(&a, &b, &scoring, xdrop, band), expect, "{}", why
                );
                proptest::prop_assert_eq!(
                    rows.extend(&a, &b, &scoring, xdrop, band), expect, "{}", why
                );
                let rev = |s: &[u8]| s.iter().rev().copied().collect::<Vec<u8>>();
                proptest::prop_assert_eq!(
                    rows.extend_back(&rev(&a), &rev(&b), &scoring, xdrop, band), expect, "{}", why
                );
            }
        }

        #[test]
        /// The band-only fill yields the full-row fill's score and, tie
        /// for tie, its operation path.
        fn traceback_equals_the_full_row_oracle(seed in proptest::prelude::any::<u64>()) {
            use rand::Rng;
            let mut r = bioseq::gen::rng(seed);
            for _ in 0..4 {
                let extra = r.random_range(0..40);
                let (a, mut b, scoring) = seeded_pair(&mut r, extra + 30);
                // Half the time `b` is `a` with `len` residues inserted at one
                // offset and as many deleted further on: equal lengths, but a
                // path that strays `len` diagonals off the centre line, to the
                // band's edge and past it.
                let len = r.random_range(extra.max(8)..extra.max(8) + 12);
                if r.random::<bool>() && a.len() >= len {
                    let radix = if scoring == Scoring::blastn_default() { 4 } else { 20 };
                    let p = r.random_range(0..=a.len() - len);
                    let q = r.random_range(p..=a.len() - len);
                    b = a[..p].to_vec();
                    b.extend((0..len).map(|_| r.random_range(0..radix)));
                    b.extend_from_slice(&a[p..q]);
                    b.extend_from_slice(&a[q + len..]);
                }
                let (a, b) = if r.random::<bool>() { (b, a) } else { (a, b) };
                proptest::prop_assert_eq!(
                    banded_global_alignment(&a, &b, &scoring, extra),
                    full_row_global_alignment(&a, &b, &scoring, extra),
                    "extra {} a {} b {}", extra, a.len(), b.len()
                );
            }
        }
    }

    #[test]
    fn banded_protein_alignment() {
        let a = Alphabet::Protein.encode_seq(b"MKVLAW");
        let st = banded_global_stats(&a, &a, &Scoring::blastp_default(), 4);
        assert_eq!(st.identity, 6);
        assert!(st.score > 20);
    }
}
