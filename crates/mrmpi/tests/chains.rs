//! Multi-operation MapReduce chains: sequences of map/collate/reduce/
//! compress/gather/sort that mirror how real applications (and the
//! original library's examples) string operations together.

use mpisim::World;
use mrmpi::{FtConfig, MapReduce, MapStyle, Settings};

/// Compress locally, then collate globally, then reduce — the canonical
/// combiner pattern (pre-aggregation before the expensive shuffle).
#[test]
fn compress_then_collate_wordcount() {
    for ranks in [1, 3] {
        let results = World::new(ranks).run(|comm| {
            let mut mr = MapReduce::new(comm);
            // 60 tasks × 50 emissions over 10 distinct keys.
            mr.map_tasks(60, MapStyle::RoundRobin, &mut |t, kv| {
                for i in 0..50u64 {
                    kv.emit(&((t as u64 + i) % 10).to_le_bytes(), &1u64.to_le_bytes());
                }
            });
            // Local combiner: sum duplicate keys within the rank.
            mr.compress(&mut |key, vals, out| {
                let sum: u64 = vals
                    .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                    .sum();
                out.emit(key, &sum.to_le_bytes());
            });
            // Global shuffle + final sum.
            mr.collate();
            let mut totals = Vec::new();
            mr.reduce(&mut |key, vals, _| {
                let sum: u64 = vals
                    .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                    .sum();
                totals.push((u64::from_le_bytes(key.try_into().unwrap()), sum));
            });
            totals
        });
        let mut all: Vec<(u64, u64)> = results.concat();
        all.sort();
        assert_eq!(all.len(), 10, "ranks={ranks}");
        // 60 tasks × 50 emissions / 10 keys = 300 per key.
        assert!(all.iter().all(|&(_, c)| c == 300), "ranks={ranks}: {all:?}");
    }
}

/// map → collate → reduce → map_kv → collate → reduce: two full cycles with
/// a transformation between them (the paper's "multiple iterations of
/// MapReduce can be executed with the same or different mappers and
/// reducers").
#[test]
fn two_mapreduce_cycles_chained() {
    let results = World::new(4).run(|comm| {
        let mut mr = MapReduce::new(comm);
        // Cycle 1: count occurrences of t % 7.
        mr.map_tasks(70, MapStyle::MasterWorker, &mut |t, kv| {
            kv.emit(&[(t % 7) as u8], b"");
        });
        mr.collate();
        mr.reduce(&mut |key, vals, out| {
            out.emit(&[(vals.count() % 3) as u8], key); // re-key by count mod 3
        });
        // Cycle 2: group the re-keyed pairs.
        mr.collate();
        let mut group_sizes = Vec::new();
        mr.reduce(&mut |_key, vals, _| group_sizes.push(vals.count()));
        group_sizes
    });
    let total: usize = results.concat().iter().sum();
    assert_eq!(total, 7, "all 7 first-cycle keys survive re-keying");
}

/// gather(1) then sort_keys on the master: the merge-sort finishing step of
/// an HTC-style workflow expressed in MapReduce operations.
#[test]
fn gather_then_sort_on_master() {
    let results = World::new(3).run(|comm| {
        let mut mr = MapReduce::new(comm);
        mr.map_tasks(30, MapStyle::Chunk, &mut |t, kv| {
            // Keys descending so sorting is observable.
            kv.emit(&[(29 - t) as u8], &(t as u64).to_le_bytes());
        });
        mr.gather(1);
        if comm.rank() == 0 {
            mr.sort_keys(|a, b| a.cmp(b));
        }
        let mut keys = Vec::new();
        mr.kv_for_each(|k, _| keys.push(k[0]));
        keys
    });
    assert_eq!(results[0], (0..30).collect::<Vec<u8>>());
    assert!(results[1].is_empty());
    assert!(results[2].is_empty());
}

/// The out-of-core configuration must survive a full chain.
#[test]
fn paged_chain_equals_unpaged() {
    let run = |settings: Settings| {
        World::new(2).run(move |comm| {
            let mut mr = MapReduce::with_settings(comm, settings.clone());
            mr.map_tasks(40, MapStyle::Chunk, &mut |t, kv| {
                for i in 0..25u64 {
                    kv.emit(&((t as u64 * 25 + i) % 13).to_le_bytes(), &[t as u8; 40]);
                }
            });
            mr.compress(&mut |key, vals, out| {
                out.emit(key, &(vals.count() as u64).to_le_bytes());
            });
            mr.collate();
            let mut out = Vec::new();
            mr.reduce(&mut |key, vals, _| {
                let total: u64 = vals
                    .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                    .sum();
                out.push((u64::from_le_bytes(key.try_into().unwrap()), total));
            });
            out
        })
    };
    let mut a: Vec<_> = run(Settings::default()).concat();
    let mut b: Vec<_> = run(Settings {
        page_size: 128,
        mem_budget: 256,
        tmpdir: std::env::temp_dir(),
        ..Settings::default()
    })
    .concat();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert_eq!(a.iter().map(|&(_, c)| c).sum::<u64>(), 1000);
}

/// Affinity-scheduled map feeding the standard pipeline.
#[test]
fn affinity_map_chain() {
    let results = World::new(4).run(|comm| {
        let mut mr = MapReduce::new(comm);
        let affinity: Vec<usize> = (0..24).map(|t| t % 4).collect();
        mr.map_tasks_ft_report_with_verdict(
            24,
            &FtConfig::default(),
            Some(&affinity),
            &mut |t, kv| kv.emit(&[(t % 6) as u8], &(t as u64).to_le_bytes()),
            &mut |_, _| {},
        )
        .expect("fault-free map");
        mr.collate();
        let mut counts = Vec::new();
        mr.reduce(&mut |key, vals, _| counts.push((key[0], vals.count())));
        counts
    });
    let mut all: Vec<(u8, usize)> = results.concat();
    all.sort();
    assert_eq!(all, (0..6).map(|k| (k, 4)).collect::<Vec<_>>());
}

/// sort_values orders the local KV by value bytes.
#[test]
fn sort_values_orders_pairs() {
    let results = World::new(1).run(|comm| {
        let mut mr = MapReduce::new(comm);
        mr.map_tasks(1, MapStyle::Chunk, &mut |_, kv| {
            kv.emit(b"k", &9u64.to_le_bytes());
            kv.emit(b"k", &3u64.to_le_bytes());
            kv.emit(b"k", &7u64.to_le_bytes());
        });
        mr.sort_values(|a, b| {
            u64::from_le_bytes(a.try_into().unwrap())
                .cmp(&u64::from_le_bytes(b.try_into().unwrap()))
        });
        let mut vals = Vec::new();
        mr.kv_for_each(|_, v| vals.push(u64::from_le_bytes(v.try_into().unwrap())));
        vals
    });
    assert_eq!(results[0], vec![3, 7, 9]);
}

/// sort_multivalues orders values inside each KMV group — the shape of the
/// paper's reduce-side per-query E-value sort, expressed as a library op.
#[test]
fn sort_multivalues_orders_within_groups() {
    let results = World::new(2).run(|comm| {
        let mut mr = MapReduce::new(comm);
        mr.map_tasks(8, MapStyle::RoundRobin, &mut |t, kv| {
            kv.emit(&[(t % 2) as u8], &((t * 13 % 7) as u64).to_le_bytes());
        });
        mr.collate();
        mr.sort_multivalues(|a, b| a.cmp(b));
        let mut ordered = true;
        let mut groups = 0;
        mr.reduce(&mut |_, vals, _| {
            let vs: Vec<Vec<u8>> = vals.map(|v| v.to_vec()).collect();
            ordered &= vs.windows(2).all(|w| w[0] <= w[1]);
            groups += 1;
        });
        (ordered, groups)
    });
    let total_groups: usize = results.iter().map(|&(_, g)| g).sum();
    assert_eq!(total_groups, 2);
    assert!(results.iter().all(|&(o, _)| o), "multivalues must be sorted");
}

/// broadcast replicates the root's dataset to every rank.
#[test]
fn broadcast_replicates_root_kv() {
    let results = World::new(3).run(|comm| {
        let mut mr = MapReduce::new(comm);
        // Different data everywhere; only rank 1's should survive.
        mr.add(b"mine", &[comm.rank() as u8]);
        if comm.rank() == 1 {
            mr.add(b"extra", b"payload");
        }
        mr.broadcast(1);
        let mut pairs = Vec::new();
        mr.kv_for_each(|k, v| pairs.push((k.to_vec(), v.to_vec())));
        pairs
    });
    for (r, pairs) in results.iter().enumerate() {
        assert_eq!(pairs.len(), 2, "rank {r} pairs: {pairs:?}");
        assert_eq!(pairs[0], (b"mine".to_vec(), vec![1u8]));
        assert_eq!(pairs[1], (b"extra".to_vec(), b"payload".to_vec()));
    }
}

/// Empty datasets flow through every operation without panicking.
#[test]
fn empty_dataset_chain() {
    let results = World::new(2).run(|comm| {
        let mut mr = MapReduce::new(comm);
        let n = mr.map_tasks(10, MapStyle::Chunk, &mut |_t, _kv| {
            // emit nothing
        });
        assert_eq!(n, 0);
        mr.collate();
        let mut called = 0;
        mr.reduce(&mut |_, _, _| called += 1);
        mr.gather(1);
        called
    });
    assert_eq!(results, vec![0, 0]);
}

/// Keys larger than the page size travel intact through aggregate/convert.
#[test]
fn oversized_keys_and_values_through_collate() {
    let results = World::new(3).run(|comm| {
        let settings =
            Settings { page_size: 64, mem_budget: usize::MAX, ..Settings::default() };
        let mut mr = MapReduce::with_settings(comm, settings);
        mr.map_tasks(6, MapStyle::RoundRobin, &mut |t, kv| {
            let big_key = vec![(t % 2) as u8; 200]; // bigger than a page
            let big_val = vec![t as u8; 500];
            kv.emit(&big_key, &big_val);
        });
        mr.collate();
        let mut groups = Vec::new();
        mr.reduce(&mut |key, vals, _| {
            groups.push((key.len(), vals.map(|v| v.len()).collect::<Vec<_>>()));
        });
        groups
    });
    let all: Vec<_> = results.concat();
    assert_eq!(all.len(), 2, "two distinct oversized keys");
    for (klen, vlens) in all {
        assert_eq!(klen, 200);
        assert_eq!(vlens, vec![500, 500, 500]);
    }
}
