//! Crash-consistent durable storage: CRC32-framed versioned records,
//! atomic file replacement, and seeded disk-fault injection.
//!
//! Every on-disk artifact of the system — BLAST restart checkpoints, SOM
//! epoch codebooks, KV/KMV spill pages — goes through this module, so that
//! one set of invariants covers all of them:
//!
//! * **Integrity**: payloads are framed as versioned records with a CRC32
//!   over header and body. Truncation, bit rot, and torn writes surface as
//!   typed [`DurableError`]s — never as a successfully decoded wrong value.
//! * **Atomicity**: [`atomic_write`] stages the new content in a temporary
//!   file in the same directory, fsyncs it, and `rename(2)`s it over the
//!   destination (then fsyncs the directory). A reader sees either the old
//!   file or the new one, never a mix.
//! * **Injectability**: a seeded [`DiskFaultPlan`] — the disk-side mirror of
//!   `mpisim::FaultPlan` — can corrupt or fail individual physical writes
//!   (torn write at byte N, single-bit flips, transient `EIO`), so the
//!   recovery paths above this layer are testable deterministically.
//!
//! Transient I/O errors are retried a bounded number of times with a short
//! exponential backoff before being reported.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic bytes opening every framed record.
pub const RECORD_MAGIC: [u8; 4] = *b"MRDR";
/// Magic bytes opening a multi-record file.
pub const FILE_MAGIC: [u8; 4] = *b"MRDF";
/// Current on-disk format version, embedded in every record header.
pub const FORMAT_VERSION: u16 = 1;

/// magic(4) + version(2) + reserved(2) + payload_len(4)
const RECORD_HEADER: usize = 12;
/// trailing CRC32 over header + payload
const RECORD_TRAILER: usize = 4;
/// magic(4) + record count(4)
const FILE_HEADER: usize = 8;

/// Physical write attempts before a persistent I/O error is reported.
const MAX_WRITE_ATTEMPTS: u32 = 4;
/// Base backoff between retries; doubles per attempt.
const RETRY_BACKOFF_MS: u64 = 1;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, table-driven)
// ---------------------------------------------------------------------------

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = make_crc_table();

/// CRC32 (IEEE) of `bytes`. Detects all single-bit and two-bit errors and
/// any burst error up to 32 bits, which is what makes the "corruption is
/// never silently decoded" property of this module hold.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failure of a durable read or write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// The buffer/file ends before a complete header or payload.
    Truncated {
        /// Byte offset of the record (or field) that could not be completed.
        at: usize,
        /// Bytes required from `at`.
        need: usize,
        /// Bytes actually available from `at`.
        have: usize,
    },
    /// Structural damage: bad magic, unknown version, CRC mismatch, or
    /// trailing garbage after the declared record set.
    CorruptRecord {
        /// Byte offset of the damaged record.
        at: usize,
        /// What check failed.
        detail: &'static str,
    },
    /// An operating-system I/O error (after bounded retries).
    Io {
        /// Kind of the underlying error.
        kind: io::ErrorKind,
        /// Operation and path context, e.g. `"write /tmp/x: disk full"`.
        what: String,
    },
}

impl DurableError {
    fn io(op: &str, path: &Path, e: &io::Error) -> Self {
        DurableError::Io { kind: e.kind(), what: format!("{op} {}: {e}", path.display()) }
    }
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Truncated { at, need, have } => {
                write!(f, "durable record truncated at byte {at}: need {need} bytes, have {have}")
            }
            DurableError::CorruptRecord { at, detail } => {
                write!(f, "corrupt durable record at byte {at}: {detail}")
            }
            DurableError::Io { what, .. } => write!(f, "durable i/o error: {what}"),
        }
    }
}

impl std::error::Error for DurableError {}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

/// Append one framed record (header, payload, CRC trailer) to `out`.
pub fn encode_record(out: &mut Vec<u8>, payload: &[u8]) {
    let start = out.len();
    out.extend_from_slice(&RECORD_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&[0u8; 2]); // reserved
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Size of one framed record carrying `payload_len` bytes.
pub fn framed_len(payload_len: usize) -> usize {
    RECORD_HEADER + payload_len + RECORD_TRAILER
}

/// Decode one framed record starting at `*pos`, advancing `*pos` past it on
/// success. On any error the cursor is left where it was.
pub fn decode_record<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], DurableError> {
    let at = *pos;
    let have = buf.len().saturating_sub(at);
    if have < RECORD_HEADER {
        return Err(DurableError::Truncated { at, need: RECORD_HEADER, have });
    }
    let hdr = &buf[at..at + RECORD_HEADER];
    if hdr[0..4] != RECORD_MAGIC {
        return Err(DurableError::CorruptRecord { at, detail: "bad record magic" });
    }
    let version = u16::from_le_bytes([hdr[4], hdr[5]]);
    if version == 0 || version > FORMAT_VERSION {
        return Err(DurableError::CorruptRecord { at, detail: "unknown format version" });
    }
    let payload_len = u32::from_le_bytes([hdr[8], hdr[9], hdr[10], hdr[11]]) as usize;
    let need = framed_len(payload_len);
    if have < need {
        return Err(DurableError::Truncated { at, need, have });
    }
    let body_end = at + RECORD_HEADER + payload_len;
    let stored = u32::from_le_bytes([
        buf[body_end],
        buf[body_end + 1],
        buf[body_end + 2],
        buf[body_end + 3],
    ]);
    if crc32(&buf[at..body_end]) != stored {
        return Err(DurableError::CorruptRecord { at, detail: "crc mismatch" });
    }
    *pos = body_end + RECORD_TRAILER;
    Ok(&buf[at + RECORD_HEADER..body_end])
}

/// Frame a set of payloads as one file image: file header (magic + record
/// count) followed by the framed records.
pub fn encode_file(payloads: &[&[u8]]) -> Vec<u8> {
    let total: usize = payloads.iter().map(|p| framed_len(p.len())).sum();
    let mut out = Vec::with_capacity(FILE_HEADER + total);
    out.extend_from_slice(&FILE_MAGIC);
    out.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    for p in payloads {
        encode_record(&mut out, p);
    }
    out
}

/// Decode a full file image produced by [`encode_file`]. Every byte is
/// accounted for: a short file is `Truncated`, extra bytes after the declared
/// record set are `CorruptRecord` — any single-bit flip or truncation of a
/// valid image yields an error, never a different successfully-decoded value.
pub fn decode_file(buf: &[u8]) -> Result<Vec<&[u8]>, DurableError> {
    if buf.len() < FILE_HEADER {
        return Err(DurableError::Truncated { at: 0, need: FILE_HEADER, have: buf.len() });
    }
    if buf[0..4] != FILE_MAGIC {
        return Err(DurableError::CorruptRecord { at: 0, detail: "bad file magic" });
    }
    let count = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    let mut pos = FILE_HEADER;
    let mut payloads = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        payloads.push(decode_record(buf, &mut pos)?);
    }
    if pos != buf.len() {
        return Err(DurableError::CorruptRecord {
            at: pos,
            detail: "trailing bytes after declared record set",
        });
    }
    Ok(payloads)
}

// ---------------------------------------------------------------------------
// Disk-fault injection
// ---------------------------------------------------------------------------

/// What the fault plan decides for one physical write attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFate {
    /// Write proceeds normally.
    Ok,
    /// Write fails with a transient `EIO`; the caller's bounded retry will
    /// issue a fresh attempt (with a fresh fate).
    TransientErr,
    /// Torn write: only the first `keep` bytes reach the disk, but the write
    /// reports success — the model of a crash or power loss mid-write.
    Torn {
        /// Bytes that made it to disk.
        keep: usize,
    },
    /// One bit of the written image is flipped (bit rot / silent media
    /// corruption); the write reports success.
    BitFlip {
        /// Byte offset within the written image (taken modulo its length).
        byte: usize,
        /// Bit index 0..8.
        bit: u8,
    },
}

/// Deterministic, seeded plan of disk faults, mirroring `mpisim::FaultPlan`.
///
/// Every physical write attempt made through this module consumes one global
/// attempt index from a shared atomic counter; the plan maps attempt indices
/// to [`WriteFate`]s. Clones of a [`crate::Settings`] share the plan through
/// an `Arc`, so one plan covers all ranks and all `MapReduce` instances of a
/// run, and a given seed + rule set replays identically.
///
/// ```
/// use mrmpi::durable::DiskFaultPlan;
/// // Attempt #0 fails transiently, attempt #2 tears after 7 bytes.
/// let plan = DiskFaultPlan::new(42).eio_at(0).torn_at(2, 7).shared();
/// ```
#[derive(Debug, Default)]
pub struct DiskFaultPlan {
    seed: u64,
    attempts: AtomicU64,
    eio: Vec<u64>,
    torn: Vec<(u64, usize)>,
    flips: Vec<(u64, usize, u8)>,
    eio_p: f64,
}

impl DiskFaultPlan {
    /// An empty plan; the seed drives the probabilistic rules.
    pub fn new(seed: u64) -> Self {
        DiskFaultPlan { seed, ..Default::default() }
    }

    /// Fail write attempt `attempt` (0-based, global) with a transient EIO.
    pub fn eio_at(mut self, attempt: u64) -> Self {
        self.eio.push(attempt);
        self
    }

    /// Tear write attempt `attempt`: persist only the first `keep` bytes
    /// while reporting success.
    pub fn torn_at(mut self, attempt: u64, keep: usize) -> Self {
        self.torn.push((attempt, keep));
        self
    }

    /// Flip bit `bit` of byte `byte` (modulo image length) of write attempt
    /// `attempt`, reporting success.
    pub fn flip_at(mut self, attempt: u64, byte: usize, bit: u8) -> Self {
        self.flips.push((attempt, byte, bit % 8));
        self
    }

    /// Fail each write attempt with independent probability `p` (transient
    /// EIO), decided deterministically from the seed and attempt index.
    pub fn eio_probability(mut self, p: f64) -> Self {
        self.eio_p = p.clamp(0.0, 1.0);
        self
    }

    /// Wrap the finished plan for sharing through [`crate::Settings`].
    pub fn shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// A copy of this plan's rule set with a **fresh** attempt counter — a
    /// new disk replaying the same fault schedule. (Deliberately not
    /// `Clone`: within one run the plan must be *shared* via [`Arc`], never
    /// duplicated, or the attempt indices would diverge.)
    pub fn clone_plan(&self) -> DiskFaultPlan {
        DiskFaultPlan {
            seed: self.seed,
            attempts: AtomicU64::new(0),
            eio: self.eio.clone(),
            torn: self.torn.clone(),
            flips: self.flips.clone(),
            eio_p: self.eio_p,
        }
    }

    /// Physical write attempts consumed so far.
    pub fn writes_attempted(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Consume one attempt index and decide its fate.
    pub fn next_fate(&self) -> WriteFate {
        let idx = self.attempts.fetch_add(1, Ordering::Relaxed);
        if let Some(&(_, keep)) = self.torn.iter().find(|&&(a, _)| a == idx) {
            return WriteFate::Torn { keep };
        }
        if let Some(&(_, byte, bit)) = self.flips.iter().find(|&&(a, _, _)| a == idx) {
            return WriteFate::BitFlip { byte, bit };
        }
        if self.eio.contains(&idx) {
            return WriteFate::TransientErr;
        }
        if self.eio_p > 0.0 {
            // SplitMix64 over (seed, idx): same idiom as FaultPlan's
            // message-fate hash, so a given seed replays identically.
            let mut z = self.seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let u = (z >> 11) as f64 / (1u64 << 53) as f64;
            if u < self.eio_p {
                return WriteFate::TransientErr;
            }
        }
        WriteFate::Ok
    }
}

// ---------------------------------------------------------------------------
// Physical writes
// ---------------------------------------------------------------------------

fn injected_eio(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, format!("injected transient EIO on {}", path.display()))
}

/// Outcome of one staged write, before any rename.
enum Staged {
    /// All bytes (possibly with an injected bit flip) are on disk.
    Full,
    /// The write tore: the file holds a prefix, but success was reported.
    /// An atomic writer treats this as "crashed before rename".
    TornCrash,
}

/// Write `bytes` to `path` (create/truncate), applying at most one injected
/// fault, and fsync when `sync` is set. One call = one attempt index.
fn write_attempt(
    path: &Path,
    bytes: &[u8],
    sync: bool,
    faults: Option<&DiskFaultPlan>,
) -> io::Result<Staged> {
    let fate = faults.map_or(WriteFate::Ok, |p| p.next_fate());
    if fate == WriteFate::TransientErr {
        return Err(injected_eio(path));
    }
    let mut f = fs::File::create(path)?;
    let staged = match fate {
        WriteFate::Torn { keep } => {
            f.write_all(&bytes[..keep.min(bytes.len())])?;
            Staged::TornCrash
        }
        WriteFate::BitFlip { byte, bit } if !bytes.is_empty() => {
            let mut image = bytes.to_vec();
            let at = byte % image.len();
            image[at] ^= 1 << bit;
            f.write_all(&image)?;
            Staged::Full
        }
        _ => {
            f.write_all(bytes)?;
            Staged::Full
        }
    };
    f.flush()?;
    if sync {
        f.sync_all()?;
    }
    Ok(staged)
}

/// `write_attempt` with bounded retry and exponential backoff on transient
/// errors (injected EIO, `Interrupted`, `WouldBlock`, timeouts).
fn write_retrying(
    path: &Path,
    bytes: &[u8],
    sync: bool,
    faults: Option<&DiskFaultPlan>,
) -> Result<Staged, DurableError> {
    let mut attempt = 0;
    loop {
        match write_attempt(path, bytes, sync, faults) {
            Ok(staged) => return Ok(staged),
            Err(e) => {
                let transient = matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                );
                attempt += 1;
                if !transient || attempt >= MAX_WRITE_ATTEMPTS {
                    let _ = fs::remove_file(path);
                    return Err(DurableError::io("write", path, &e));
                }
                std::thread::sleep(std::time::Duration::from_millis(
                    RETRY_BACKOFF_MS << (attempt - 1),
                ));
            }
        }
    }
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_sibling(path: &Path) -> PathBuf {
    let name = path.file_name().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!(".{name}.tmp-{}-{seq}", std::process::id()))
}

fn sync_parent_dir(path: &Path) {
    // Persist the rename itself. Directory fsync is best-effort: not all
    // filesystems/platforms allow opening a directory for sync.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Atomically replace `path` with `bytes`: stage in a same-directory temp
/// file, fsync, rename over the destination, fsync the directory. A crash
/// (or injected torn write) leaves the previous contents of `path` intact.
pub fn atomic_write(
    path: &Path,
    bytes: &[u8],
    faults: Option<&DiskFaultPlan>,
) -> Result<(), DurableError> {
    let tmp = tmp_sibling(path);
    match write_retrying(&tmp, bytes, true, faults)? {
        Staged::Full => {
            fs::rename(&tmp, path).map_err(|e| {
                let _ = fs::remove_file(&tmp);
                DurableError::io("rename", path, &e)
            })?;
            sync_parent_dir(path);
            Ok(())
        }
        Staged::TornCrash => {
            // The simulated machine died mid-write: the staged file never
            // replaced the destination. Report success (the real process
            // would not have returned at all); the old file stays current.
            let _ = fs::remove_file(&tmp);
            Ok(())
        }
    }
}

/// Frame `payloads` as a record file and atomically replace `path` with it.
pub fn write_record_file(
    path: &Path,
    payloads: &[&[u8]],
    faults: Option<&DiskFaultPlan>,
) -> Result<(), DurableError> {
    atomic_write(path, &encode_file(payloads), faults)
}

/// Read and verify a record file written by [`write_record_file`].
pub fn read_record_file(path: &Path) -> Result<Vec<Vec<u8>>, DurableError> {
    let buf = fs::read(path).map_err(|e| DurableError::io("read", path, &e))?;
    Ok(decode_file(&buf)?.into_iter().map(<[u8]>::to_vec).collect())
}

/// Write one framed record to `path` directly (no atomic rename; used for
/// spill files, which are never crash-recovered but must detect bit rot).
/// Transient errors are retried; torn/flipped writes surface on read-back.
pub fn write_framed(
    path: &Path,
    payload: &[u8],
    faults: Option<&DiskFaultPlan>,
) -> Result<(), DurableError> {
    let mut image = Vec::with_capacity(framed_len(payload.len()));
    encode_record(&mut image, payload);
    write_retrying(path, &image, false, faults).map(|_| ())
}

/// Read back and verify a single-record file written by [`write_framed`].
pub fn read_framed(path: &Path) -> Result<Vec<u8>, DurableError> {
    let buf = fs::read(path).map_err(|e| DurableError::io("read", path, &e))?;
    let mut pos = 0;
    let payload = decode_record(&buf, &mut pos)?;
    if pos != buf.len() {
        return Err(DurableError::CorruptRecord { at: pos, detail: "trailing bytes after record" });
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mrmpi-durable-{tag}-{}", std::process::id()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip() {
        let payloads: Vec<&[u8]> = vec![b"", b"x", b"hello durable world"];
        let image = encode_file(&payloads);
        let back = decode_file(&image).unwrap();
        assert_eq!(back, payloads);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let image = encode_file(&[b"some payload", b"another"]);
        for cut in 0..image.len() {
            let err = decode_file(&image[..cut]).unwrap_err();
            assert!(
                matches!(err, DurableError::Truncated { .. } | DurableError::CorruptRecord { .. }),
                "cut {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        let image = encode_file(&[b"payload under test"]);
        for byte in 0..image.len() {
            for bit in 0..8 {
                let mut bad = image.clone();
                bad[byte] ^= 1 << bit;
                assert!(decode_file(&bad).is_err(), "flip {byte}.{bit} decoded");
            }
        }
    }

    #[test]
    fn atomic_write_replaces_and_survives_torn_write() {
        let dir = tmpdir("atomic");
        let path = dir.join("state.bin");
        atomic_write(&path, &encode_file(&[b"v1"]), None).unwrap();
        assert_eq!(read_record_file(&path).unwrap(), vec![b"v1".to_vec()]);

        // Torn write on the next attempt: destination must keep v1.
        let plan = DiskFaultPlan::new(7).torn_at(0, 3);
        atomic_write(&path, &encode_file(&[b"v2"]), Some(&plan)).unwrap();
        assert_eq!(read_record_file(&path).unwrap(), vec![b"v1".to_vec()]);

        // A clean retry then lands v2.
        atomic_write(&path, &encode_file(&[b"v2"]), None).unwrap();
        assert_eq!(read_record_file(&path).unwrap(), vec![b"v2".to_vec()]);
    }

    #[test]
    fn transient_eio_is_retried_behind_the_scenes() {
        let dir = tmpdir("eio");
        let path = dir.join("retry.bin");
        let plan = DiskFaultPlan::new(1).eio_at(0).eio_at(1);
        write_record_file(&path, &[b"ok"], Some(&plan)).unwrap();
        assert_eq!(read_record_file(&path).unwrap(), vec![b"ok".to_vec()]);
        assert!(plan.writes_attempted() >= 3, "two failures + one success");
    }

    #[test]
    fn persistent_eio_becomes_typed_io_error() {
        let dir = tmpdir("eiohard");
        let path = dir.join("never.bin");
        let mut plan = DiskFaultPlan::new(1);
        for a in 0..MAX_WRITE_ATTEMPTS as u64 {
            plan = plan.eio_at(a);
        }
        let err = write_record_file(&path, &[b"x"], Some(&plan)).unwrap_err();
        assert!(matches!(err, DurableError::Io { .. }), "{err:?}");
        assert!(!path.exists());
    }

    #[test]
    fn bit_flip_surfaces_on_read_back() {
        let dir = tmpdir("flip");
        let path = dir.join("spill.page");
        let plan = DiskFaultPlan::new(3).flip_at(0, 17, 4);
        write_framed(&path, b"page bytes that will rot", Some(&plan)).unwrap();
        let err = read_framed(&path).unwrap_err();
        assert!(
            matches!(err, DurableError::CorruptRecord { .. } | DurableError::Truncated { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn eio_probability_is_deterministic_per_seed() {
        let fates: Vec<_> = (0..64)
            .map(|_| DiskFaultPlan::new(99).eio_probability(0.5))
            .map(|p| p.next_fate())
            .collect();
        // Same seed, same attempt index 0 => same fate every time.
        assert!(fates.windows(2).all(|w| w[0] == w[1]));
        let plan = DiskFaultPlan::new(99).eio_probability(0.5);
        let seq: Vec<_> = (0..64).map(|_| plan.next_fate()).collect();
        let hits = seq.iter().filter(|f| **f == WriteFate::TransientErr).count();
        assert!(hits > 8 && hits < 56, "p=0.5 should fail roughly half: {hits}/64");
    }
}
