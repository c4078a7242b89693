//! Microbenchmarks of the simulated-MPI substrate: point-to-point
//! round-trips, barriers, the codebook-sized broadcast/reduce the SOM uses
//! each epoch, and the alltoallv behind `aggregate()`.

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

use mpisim::{ReduceOp, World, ANY_TAG};

fn bench_p2p(c: &mut Criterion) {
    c.bench_function("p2p_pingpong_100x_1KiB", |b| {
        b.iter(|| {
            let out = World::new(2).run(|comm| {
                let mut last = 0u8;
                for _ in 0..100 {
                    if comm.rank() == 0 {
                        comm.send(1, 7, vec![1u8; 1024]);
                        last = comm.recv(1, ANY_TAG).expect("peer alive").data[0];
                    } else {
                        let msg = comm.recv(0, 7).expect("peer alive");
                        comm.send(0, 8, msg.data);
                        last = 1;
                    }
                }
                last
            });
            black_box(out[0])
        })
    });
}

fn bench_barrier(c: &mut Criterion) {
    for ranks in [2usize, 4, 8] {
        c.bench_function(&format!("barrier_100x_{ranks}ranks"), |b| {
            b.iter(|| {
                World::new(ranks).run(|comm| {
                    for _ in 0..100 {
                        comm.barrier();
                    }
                    comm.rank()
                })
            })
        });
    }
}

fn bench_som_epoch_collectives(c: &mut Criterion) {
    // The batch-SOM per-epoch communication: bcast of a 50×50×256 codebook
    // + reduce of the accumulators (2500 × 257 doubles).
    let n = 2500 * 257;
    c.bench_function("bcast_plus_reduce_5MB_4ranks", |b| {
        b.iter(|| {
            let out = World::new(4).run(move |comm| {
                let mut weights = vec![comm.rank() as f64; n];
                comm.bcast_f64s(0, &mut weights);
                let mut summed = vec![0.0f64; n];
                comm.reduce_f64(0, &weights, &mut summed, ReduceOp::Sum);
                summed[0]
            });
            black_box(out[0])
        })
    });
}

fn bench_alltoallv(c: &mut Criterion) {
    for ranks in [2usize, 4] {
        c.bench_function(&format!("alltoallv_64KiB_per_pair_{ranks}ranks"), |b| {
            b.iter(|| {
                let out = World::new(ranks).run(move |comm| {
                    let sends: Vec<Vec<u8>> =
                        (0..comm.size()).map(|_| vec![0xab; 64 * 1024]).collect();
                    let recvd = comm.alltoallv(sends);
                    recvd.iter().map(Vec::len).sum::<usize>()
                });
                black_box(out[0])
            })
        });
    }
}

criterion_group!{
    name = benches;
    config = quick_config();
    targets = bench_p2p, bench_barrier, bench_som_epoch_collectives, bench_alltoallv
}
criterion_main!(benches);
