//! External merge sort of key-value pairs under a memory budget.
//!
//! The original library's `sort_keys()` works out-of-core so that datasets
//! larger than the page budget can still be ordered. This module implements
//! the classic two-phase algorithm: spill key-sorted runs bounded by the
//! memory budget, then k-way merge them. Used by
//! [`crate::MapReduce::sort_keys`] whenever the dataset exceeds the budget.

use std::cmp::Ordering;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;

use crate::kv::KeyValue;
use crate::settings::Settings;

type Pair = (Vec<u8>, Vec<u8>);

/// Sort the pairs of `kv` by key under `cmp`, spilling sorted runs to
/// `settings.tmpdir` whenever the in-memory run exceeds the budget, and
/// k-way merging the runs into a fresh [`KeyValue`]. Stable within runs and
/// across the merge (ties resolve to the earlier run), so the overall sort
/// is stable.
///
/// # Panics
/// Panics on IO failure (the engine's convention for spill files).
pub fn external_sort(
    kv: KeyValue,
    settings: &Settings,
    cmp: &dyn Fn(&[u8], &[u8]) -> Ordering,
) -> KeyValue {
    let budget = settings.mem_budget.max(1);
    let mut runs: Vec<PathBuf> = Vec::new();
    let mut run: Vec<Pair> = Vec::new();
    let mut run_bytes = 0usize;

    static RUN_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    fn spill(
        run: &mut Vec<Pair>,
        runs: &mut Vec<PathBuf>,
        settings: &Settings,
        cmp: &dyn Fn(&[u8], &[u8]) -> Ordering,
    ) {
        run.sort_by(|a, b| cmp(&a.0, &b.0));
        let seq = RUN_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // The per-run spill dir is created lazily (see `Settings::tmpdir`).
        let _ = std::fs::create_dir_all(&settings.tmpdir);
        let path = settings
            .tmpdir
            .join(format!("mrmpi-sortrun-{}-{}.run", std::process::id(), seq));
        let mut w = BufWriter::new(std::fs::File::create(&path).expect("create sort run"));
        for (k, v) in run.iter() {
            w.write_all(&(k.len() as u32).to_le_bytes()).expect("run write");
            w.write_all(&(v.len() as u32).to_le_bytes()).expect("run write");
            w.write_all(k).expect("run write");
            w.write_all(v).expect("run write");
        }
        w.flush().expect("run flush");
        runs.push(path);
        run.clear();
    }

    kv.for_each(|k, v| {
        run_bytes += k.len() + v.len() + 8;
        run.push((k.to_vec(), v.to_vec()));
        if run_bytes > budget {
            spill(&mut run, &mut runs, settings, cmp);
            run_bytes = 0;
        }
    });

    let mut out = KeyValue::new(settings);
    if runs.is_empty() {
        // Everything fit: plain in-memory sort.
        run.sort_by(|a, b| cmp(&a.0, &b.0));
        for (k, v) in &run {
            out.add(k, v);
        }
        return out;
    }
    if !run.is_empty() {
        spill(&mut run, &mut runs, settings, cmp);
    }

    // K-way merge. Readers stream entries; a simple linear minimum scan is
    // fine for the handful of runs a per-rank dataset produces.
    struct RunReader {
        reader: BufReader<std::fs::File>,
        head: Option<Pair>,
        path: PathBuf,
    }
    impl RunReader {
        fn advance(&mut self) {
            self.head = read_pair(&mut self.reader);
        }
    }
    fn read_pair(r: &mut impl Read) -> Option<Pair> {
        let mut lens = [0u8; 8];
        match r.read_exact(&mut lens) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return None,
            Err(e) => panic!("read sort run: {e}"),
        }
        let klen = u32::from_le_bytes(lens[..4].try_into().expect("klen")) as usize;
        let vlen = u32::from_le_bytes(lens[4..].try_into().expect("vlen")) as usize;
        let mut k = vec![0u8; klen];
        let mut v = vec![0u8; vlen];
        r.read_exact(&mut k).expect("run key");
        r.read_exact(&mut v).expect("run value");
        Some((k, v))
    }

    let mut readers: Vec<RunReader> = runs
        .iter()
        .map(|path| {
            let mut rr = RunReader {
                reader: BufReader::new(std::fs::File::open(path).expect("open sort run")),
                head: None,
                path: path.clone(),
            };
            rr.advance();
            rr
        })
        .collect();

    loop {
        let mut best: Option<usize> = None;
        for (i, rr) in readers.iter().enumerate() {
            let Some(head) = &rr.head else { continue };
            best = match best {
                None => Some(i),
                Some(b) => {
                    let bh = readers[b].head.as_ref().expect("best has head");
                    if cmp(&head.0, &bh.0) == Ordering::Less {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        let Some(i) = best else { break };
        let (k, v) = readers[i].head.take().expect("chosen head");
        out.add(&k, &v);
        readers[i].advance();
    }

    for rr in &readers {
        let _ = std::fs::remove_file(&rr.path);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings(budget: usize) -> Settings {
        Settings { page_size: 256, mem_budget: budget, tmpdir: std::env::temp_dir(), ..Settings::default() }
    }

    fn build_kv(pairs: &[(u64, u64)], s: &Settings) -> KeyValue {
        let mut kv = KeyValue::new(s);
        for &(k, v) in pairs {
            kv.add(&k.to_le_bytes(), &v.to_le_bytes());
        }
        kv
    }

    fn decode(kv: KeyValue) -> Vec<(u64, u64)> {
        kv.into_pairs()
            .into_iter()
            .map(|(k, v)| {
                (
                    u64::from_le_bytes(k.try_into().unwrap()),
                    u64::from_le_bytes(v.try_into().unwrap()),
                )
            })
            .collect()
    }

    fn numeric_cmp(a: &[u8], b: &[u8]) -> Ordering {
        u64::from_le_bytes(a.try_into().unwrap()).cmp(&u64::from_le_bytes(b.try_into().unwrap()))
    }

    #[test]
    fn in_memory_path_sorts() {
        let s = settings(usize::MAX);
        let kv = build_kv(&[(5, 0), (1, 1), (3, 2)], &s);
        let out = decode(external_sort(kv, &s, &numeric_cmp));
        assert_eq!(out, vec![(1, 1), (3, 2), (5, 0)]);
    }

    #[test]
    fn spilled_runs_merge_to_global_order() {
        // 500 pairs under a 512-byte budget → many runs.
        let s = settings(512);
        let pairs: Vec<(u64, u64)> = (0..500).map(|i| ((i * 7919) % 1000, i)).collect();
        let kv = build_kv(&pairs, &s);
        let out = decode(external_sort(kv, &s, &numeric_cmp));
        assert_eq!(out.len(), 500);
        for w in out.windows(2) {
            assert!(w[0].0 <= w[1].0, "not sorted: {:?} then {:?}", w[0], w[1]);
        }
        // Same multiset as the input.
        let mut want: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
        want.sort_unstable();
        let got: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn stability_preserves_input_order_of_ties() {
        let s = settings(128); // forces several runs
        // All keys equal: output must preserve insertion order of values.
        let pairs: Vec<(u64, u64)> = (0..50).map(|i| (42, i)).collect();
        let kv = build_kv(&pairs, &s);
        let out = decode(external_sort(kv, &s, &numeric_cmp));
        assert_eq!(out, pairs, "external sort must be stable");
    }

    #[test]
    fn empty_kv_sorts_to_empty() {
        let s = settings(64);
        let kv = KeyValue::new(&s);
        let out = external_sort(kv, &s, &numeric_cmp);
        assert_eq!(out.npairs(), 0);
    }
}
