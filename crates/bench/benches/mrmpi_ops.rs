//! Microbenchmarks of the MapReduce-MPI engine operations: KV append,
//! aggregate/convert (the collate pipeline), and the master-worker
//! dispatch overhead — the "MapReduce book-keeping" the paper's utilization
//! metric subtracts from useful time.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// Small sample budget: these benches run on laptop-class single-core CI;
/// Criterion's defaults (100 samples, 5 s) would take an hour across the
/// suite.
fn quick_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500))
}

use mpisim::World;
use mrmpi::{KeyValue, MapReduce, MapStyle, Settings};

fn bench_kv_append(c: &mut Criterion) {
    c.bench_function("kv_add_10k_pairs_64B", |b| {
        b.iter(|| {
            let mut kv = KeyValue::new(&Settings::default());
            let value = [0xcdu8; 64];
            for i in 0..10_000u64 {
                kv.add(&i.to_le_bytes(), &value);
            }
            black_box(kv.npairs())
        })
    });
}

fn bench_collate(c: &mut Criterion) {
    for ranks in [1usize, 2, 4] {
        c.bench_function(&format!("collate_20k_pairs_{ranks}ranks"), |b| {
            b.iter(|| {
                let totals = World::new(ranks).run(|comm| {
                    let mut mr = MapReduce::new(comm);
                    mr.map_tasks(20, MapStyle::Chunk, &mut |t, kv| {
                        for i in 0..1000u64 {
                            let key = (t as u64 * 37 + i) % 500;
                            kv.emit(&key.to_le_bytes(), &i.to_le_bytes());
                        }
                    })
                    .expect("fault-free map");
                    mr.collate().expect("fault-free shuffle")
                });
                black_box(totals[0])
            })
        });
    }
}

fn bench_reduce(c: &mut Criterion) {
    c.bench_function("map_collate_reduce_wordcount_2ranks", |b| {
        b.iter(|| {
            let sums = World::new(2).run(|comm| {
                let mut mr = MapReduce::new(comm);
                mr.map_tasks(50, MapStyle::RoundRobin, &mut |t, kv| {
                    for i in 0..200u64 {
                        kv.emit(&((t as u64 + i) % 97).to_le_bytes(), b"x");
                    }
                })
                .expect("fault-free map");
                mr.collate().expect("fault-free shuffle");
                let mut total = 0u64;
                mr.reduce(&mut |_k, vals, _| total += vals.count() as u64);
                total
            });
            black_box(sums.iter().sum::<u64>())
        })
    });
}

fn bench_master_worker_dispatch(c: &mut Criterion) {
    // Empty tasks: measures pure scheduler round-trip cost per work unit.
    c.bench_function("master_worker_dispatch_1k_empty_tasks_4ranks", |b| {
        b.iter(|| {
            let counts = World::new(4).run(|comm| {
                let mut mr = MapReduce::new(comm);
                mr.map_tasks(1000, MapStyle::MasterWorker, &mut |_t, kv| {
                    kv.emit(b"", b"");
                })
                .expect("fault-free map")
                .pairs
            });
            black_box(counts[0])
        })
    });
}

fn bench_out_of_core(c: &mut Criterion) {
    c.bench_function("kv_spill_1MB_under_64KiB_budget", |b| {
        b.iter(|| {
            let settings = Settings {
                page_size: 16 * 1024,
                mem_budget: 64 * 1024,
                tmpdir: std::env::temp_dir(),
                ..Settings::default()
            };
            let mut kv = KeyValue::new(&settings);
            let value = [0u8; 100];
            for i in 0..10_000u64 {
                kv.add(&i.to_le_bytes(), &value);
            }
            let mut n = 0u64;
            kv.for_each(|_, _| n += 1);
            black_box((n, kv.spill_count()))
        })
    });
}

criterion_group!{
    name = benches;
    config = quick_config();
    targets =
    bench_kv_append,
    bench_collate,
    bench_reduce,
    bench_master_worker_dispatch,
    bench_out_of_core

}
criterion_main!(benches);
