//! The paged KeyValue store.
//!
//! A KV dataset is a rank-local sequence of `(key, value)` byte-string pairs
//! laid out in pages:
//!
//! ```text
//! entry := klen:u32le  vlen:u32le  key[klen]  value[vlen]
//! page  := entry*            (entries never straddle a page boundary)
//! ```
//!
//! An entry larger than the page size gets a dedicated oversized page, so
//! arbitrarily large values (e.g. a full hit list) are representable.

use crate::durable::DurableError;
use crate::settings::Settings;
use crate::spool::Spool;

/// Encode one entry into `buf`.
pub(crate) fn encode_entry(buf: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(value);
}

/// A malformed KV page, e.g. one truncated or corrupted in transit, or a
/// spill page the scratch disk damaged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The page ends inside an entry header or payload.
    Truncated {
        /// Offset of the entry whose decoding ran off the end.
        at: usize,
        /// Bytes the entry claimed to need from `at`.
        need: usize,
        /// Bytes actually present from `at`.
        have: usize,
    },
    /// An entry's declared lengths overflow `usize` arithmetic — only
    /// possible for adversarially corrupted headers.
    Overflow {
        /// Offset of the entry with the absurd header.
        at: usize,
    },
    /// A spilled page failed its durable read-back: missing or truncated
    /// spill file, CRC mismatch (bit rot), or an I/O error.
    Disk(DurableError),
}

impl From<DurableError> for KvError {
    fn from(e: DurableError) -> Self {
        KvError::Disk(e)
    }
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Truncated { at, need, have } => write!(
                f,
                "KV page truncated: entry at byte {at} needs {need} bytes, page has {have}"
            ),
            KvError::Overflow { at } => {
                write!(f, "KV entry at byte {at} declares lengths that overflow")
            }
            KvError::Disk(e) => write!(f, "KV spill page unreadable: {e}"),
        }
    }
}

impl std::error::Error for KvError {}

/// Decode the entry starting at `*pos`; advances `*pos` past it. Returns a
/// typed error (never panics) on a truncated or corrupted page.
pub fn try_decode_entry<'a>(
    page: &'a [u8],
    pos: &mut usize,
) -> Result<(&'a [u8], &'a [u8]), KvError> {
    let at = *pos;
    let header_end = at.checked_add(8).ok_or(KvError::Overflow { at })?;
    if header_end > page.len() {
        return Err(KvError::Truncated { at, need: 8, have: page.len().saturating_sub(at) });
    }
    let klen = u32::from_le_bytes(page[at..at + 4].try_into().expect("4 bytes")) as usize;
    let vlen = u32::from_le_bytes(page[at + 4..at + 8].try_into().expect("4 bytes")) as usize;
    let need = klen
        .checked_add(vlen)
        .and_then(|n| n.checked_add(8))
        .ok_or(KvError::Overflow { at })?;
    let end = at.checked_add(need).ok_or(KvError::Overflow { at })?;
    if end > page.len() {
        return Err(KvError::Truncated { at, need, have: page.len().saturating_sub(at) });
    }
    let kstart = at + 8;
    let vstart = kstart + klen;
    let out = (&page[kstart..vstart], &page[vstart..end]);
    *pos = end;
    Ok(out)
}

/// Validate a whole page and return the number of entries it holds.
///
/// Used on pages received from other ranks during an `aggregate()` so a
/// mangled message surfaces as a typed error instead of a panic (or, worse,
/// silently wrong pairs) deep inside a later scan.
pub fn validate_page(page: &[u8]) -> Result<u64, KvError> {
    let mut pos = 0;
    let mut n = 0u64;
    while pos < page.len() {
        try_decode_entry(page, &mut pos)?;
        n += 1;
    }
    Ok(n)
}

/// Decode the entry starting at `*pos`; advances `*pos` past it.
///
/// # Panics
/// Panics on a malformed page — internal scans use this on pages this
/// process encoded itself, where corruption is a bug, not an input error.
pub(crate) fn decode_entry<'a>(page: &'a [u8], pos: &mut usize) -> (&'a [u8], &'a [u8]) {
    try_decode_entry(page, pos).expect("malformed KV page")
}

/// Owned key-value pairs, as drained from a [`KeyValue`] store.
pub type OwnedPairs = Vec<(Vec<u8>, Vec<u8>)>;

/// A rank-local, paged, spillable sequence of key-value pairs.
pub struct KeyValue {
    spool: Spool,
    open: Vec<u8>,
    npairs: u64,
    page_size: usize,
}

impl KeyValue {
    /// An empty KV store with the given engine settings.
    pub fn new(settings: &Settings) -> Self {
        KeyValue {
            spool: Spool::with_settings(settings),
            open: Vec::new(),
            npairs: 0,
            page_size: settings.page_size,
        }
    }

    /// Append one pair.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        let entry_len = 8 + key.len() + value.len();
        if !self.open.is_empty() && self.open.len() + entry_len > self.page_size {
            self.close_page();
        }
        encode_entry(&mut self.open, key, value);
        self.npairs += 1;
        if self.open.len() >= self.page_size {
            self.close_page();
        }
    }

    /// Append a pre-encoded page worth of entries containing `npairs` pairs.
    /// Used by `aggregate()` to splice received buffers in without re-parsing.
    pub(crate) fn add_encoded_page(&mut self, page: Vec<u8>, npairs: u64) {
        if page.is_empty() {
            return;
        }
        self.close_page();
        self.spool.push(page);
        self.npairs += npairs;
    }

    fn close_page(&mut self) {
        if !self.open.is_empty() {
            let page = std::mem::take(&mut self.open);
            self.spool.push(page);
        }
    }

    /// Number of pairs on this rank.
    pub fn npairs(&self) -> u64 {
        self.npairs
    }

    /// Total encoded bytes on this rank (closed + open pages).
    pub fn nbytes(&self) -> usize {
        self.spool.total_bytes() + self.open.len()
    }

    /// How many pages have been spilled to disk so far.
    pub fn spill_count(&self) -> usize {
        self.spool.spill_count()
    }

    /// Number of closed pages plus the open one if non-empty.
    pub fn num_pages(&self) -> usize {
        self.spool.num_pages() + usize::from(!self.open.is_empty())
    }

    /// Visit every pair in insertion order, propagating spill read-back
    /// failures (missing/rotted spill files) as typed errors.
    pub fn try_for_each(&self, mut f: impl FnMut(&[u8], &[u8])) -> Result<(), KvError> {
        for i in 0..self.spool.num_pages() {
            let page = self.spool.page(i)?;
            let mut pos = 0;
            while pos < page.len() {
                let (k, v) = try_decode_entry(&page, &mut pos)?;
                f(k, v);
            }
        }
        let mut pos = 0;
        while pos < self.open.len() {
            let (k, v) = try_decode_entry(&self.open, &mut pos)?;
            f(k, v);
        }
        Ok(())
    }

    /// Visit every pair in insertion order.
    ///
    /// # Panics
    /// Panics if a spilled page cannot be read back; fault-aware callers use
    /// [`KeyValue::try_for_each`].
    pub fn for_each(&self, f: impl FnMut(&[u8], &[u8])) {
        self.try_for_each(f).unwrap_or_else(|e| panic!("KV scan failed: {e}"));
    }

    /// Borrow page `i` (closed pages first, then the open page last).
    /// Returns `Ok(None)` past the end; spilled pages are loaded and
    /// CRC-verified, surfacing damage as a typed error.
    pub fn try_page_at(&self, i: usize) -> Result<Option<crate::spool::PageRef<'_>>, KvError> {
        let closed = self.spool.num_pages();
        if i < closed {
            Ok(Some(self.spool.page(i)?))
        } else if i == closed && !self.open.is_empty() {
            Ok(Some(crate::spool::PageRef::Borrowed(&self.open)))
        } else {
            Ok(None)
        }
    }

    /// Consume the store, returning all pairs as owned vectors, or a typed
    /// error if a spilled page was lost or damaged.
    pub fn try_into_pairs(mut self) -> Result<OwnedPairs, KvError> {
        self.close_page();
        let mut out = Vec::with_capacity(self.npairs as usize);
        for page in self.spool.drain_pages()? {
            let mut pos = 0;
            while pos < page.len() {
                let (k, v) = try_decode_entry(&page, &mut pos)?;
                out.push((k.to_vec(), v.to_vec()));
            }
        }
        Ok(out)
    }

    /// Consume the store, returning all pairs as owned vectors. Convenience
    /// for tests and small datasets.
    ///
    /// # Panics
    /// Panics if a spilled page cannot be read back.
    pub fn into_pairs(self) -> OwnedPairs {
        self.try_into_pairs().unwrap_or_else(|e| panic!("KV drain failed: {e}"))
    }
}

/// Emitter handed to map and reduce callbacks for producing output pairs.
pub struct KvEmitter<'a> {
    kv: &'a mut KeyValue,
}

impl<'a> KvEmitter<'a> {
    /// Wrap an output KV store.
    pub fn new(kv: &'a mut KeyValue) -> Self {
        KvEmitter { kv }
    }

    /// Emit one key-value pair.
    pub fn emit(&mut self, key: &[u8], value: &[u8]) {
        self.kv.add(key, value);
    }

    /// Pairs emitted so far into the underlying store.
    pub fn emitted(&self) -> u64 {
        self.kv.npairs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_settings() -> Settings {
        Settings { page_size: 64, mem_budget: usize::MAX, ..Settings::default() }
    }

    #[test]
    fn add_and_iterate_preserves_order_and_content() {
        let mut kv = KeyValue::new(&small_settings());
        for i in 0..100u32 {
            kv.add(&i.to_le_bytes(), format!("value-{i}").as_bytes());
        }
        assert_eq!(kv.npairs(), 100);
        let mut seen = 0u32;
        kv.for_each(|k, v| {
            assert_eq!(k, seen.to_le_bytes());
            assert_eq!(v, format!("value-{seen}").as_bytes());
            seen += 1;
        });
        assert_eq!(seen, 100);
    }

    #[test]
    fn entries_do_not_straddle_pages() {
        let mut kv = KeyValue::new(&small_settings());
        for _ in 0..20 {
            kv.add(b"0123456789", b"0123456789012345678901234567890123456789");
        }
        // Every page must decode cleanly on its own.
        let mut i = 0;
        while let Some(page) = kv.try_page_at(i).expect("in-memory pages") {
            let mut pos = 0;
            while pos < page.len() {
                let _ = decode_entry(&page, &mut pos);
            }
            assert_eq!(pos, page.len());
            i += 1;
        }
    }

    #[test]
    fn oversized_entry_gets_own_page() {
        let mut kv = KeyValue::new(&small_settings());
        let big = vec![7u8; 1000];
        kv.add(b"big", &big);
        kv.add(b"small", b"x");
        let mut got = Vec::new();
        kv.for_each(|k, v| got.push((k.to_vec(), v.len())));
        assert_eq!(got, vec![(b"big".to_vec(), 1000), (b"small".to_vec(), 1)]);
    }

    #[test]
    fn empty_keys_and_values_are_legal() {
        let mut kv = KeyValue::new(&small_settings());
        kv.add(b"", b"");
        kv.add(b"k", b"");
        kv.add(b"", b"v");
        assert_eq!(
            kv.into_pairs(),
            vec![
                (vec![], vec![]),
                (b"k".to_vec(), vec![]),
                (vec![], b"v".to_vec()),
            ]
        );
    }

    #[test]
    fn spilled_kv_iterates_identically() {
        let dir = std::env::temp_dir();
        let settings = Settings { page_size: 32, mem_budget: 64, tmpdir: dir, ..Settings::default() };
        let mut kv = KeyValue::new(&settings);
        for i in 0..50u8 {
            kv.add(&[i], &[i, i, i]);
        }
        assert!(kv.spill_count() > 0, "test must exercise spilling");
        let mut seen = 0u8;
        kv.for_each(|k, v| {
            assert_eq!(k, &[seen]);
            assert_eq!(v, &[seen; 3]);
            seen += 1;
        });
        assert_eq!(seen, 50);
    }

    #[test]
    fn emitter_counts() {
        let mut kv = KeyValue::new(&small_settings());
        let mut em = KvEmitter::new(&mut kv);
        em.emit(b"a", b"1");
        em.emit(b"b", b"2");
        assert_eq!(em.emitted(), 2);
    }

    #[test]
    fn validate_page_accepts_well_formed_pages() {
        let mut page = Vec::new();
        encode_entry(&mut page, b"key", b"value");
        encode_entry(&mut page, b"", b"");
        encode_entry(&mut page, b"k2", &[7u8; 100]);
        assert_eq!(validate_page(&page), Ok(3));
        assert_eq!(validate_page(&[]), Ok(0));
    }

    #[test]
    fn truncated_page_yields_typed_error_not_panic() {
        let mut page = Vec::new();
        encode_entry(&mut page, b"key", b"value");
        // Cut into the second entry's payload.
        encode_entry(&mut page, b"second", b"payload");
        let cut = page.len() - 3;
        let err = validate_page(&page[..cut]).unwrap_err();
        assert!(matches!(err, KvError::Truncated { .. }), "got {err:?}");
        // Cut inside a header.
        let err = validate_page(&page[..3]).unwrap_err();
        assert_eq!(err, KvError::Truncated { at: 0, need: 8, have: 3 });
    }

    #[test]
    fn corrupted_length_header_yields_typed_error_not_panic() {
        let mut page = Vec::new();
        encode_entry(&mut page, b"abc", b"xyz");
        // Claim a key far larger than the page.
        page[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = validate_page(&page).unwrap_err();
        assert!(matches!(err, KvError::Truncated { at: 0, .. }), "got {err:?}");
        // Lengths whose sum overflows usize on 32-bit targets are still a
        // typed error via checked arithmetic (Truncated on 64-bit).
        let mut pos = 0;
        assert!(try_decode_entry(&page, &mut pos).is_err());
        assert_eq!(pos, 0, "position must not advance past a bad entry");
    }

    #[test]
    fn decode_entry_round_trips_what_encode_wrote() {
        let mut page = Vec::new();
        encode_entry(&mut page, b"k", b"v1");
        let mut pos = 0;
        let (k, v) = try_decode_entry(&page, &mut pos).unwrap();
        assert_eq!((k, v), (&b"k"[..], &b"v1"[..]));
        assert_eq!(pos, page.len());
        // Reading past the end is a typed error, not a panic.
        assert!(try_decode_entry(&page, &mut { page.len() + 1 }).is_err());
    }
}
