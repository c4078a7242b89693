//! Microbenchmarks of the SOM kernels: BMU search (one vector and a
//! 40-vector work unit), one batch accumulation,
//! a full epoch, and the accumulator merge — the constants behind the
//! Fig. 6 scaling model (`SomScenario::per_vector_s`).

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

use som::batch::{batch_train, rand_seeded, BatchAccumulator};
use som::codebook::Codebook;
use som::neighborhood::SomConfig;
use som::online::online_step;
use som::umatrix::umatrix;

fn paper_codebook() -> Codebook {
    let mut rng = rand_seeded(1);
    Codebook::random(50, 50, 256, &mut rng, 0.0, 1.0)
}

fn bench_bmu(c: &mut Criterion) {
    let cb = paper_codebook();
    let input = bioseq::gen::random_vectors(2, 1, 256).remove(0);
    c.bench_function("bmu_50x50x256", |b| b.iter(|| black_box(cb.bmu(&input))));
    let block = bioseq::gen::random_vectors(3, 40, 256);
    c.bench_function("bmus_block40_50x50x256", |b| b.iter(|| black_box(cb.bmus(&block))));
}

fn bench_accumulate(c: &mut Criterion) {
    let cb = paper_codebook();
    let inputs = bioseq::gen::random_vectors(3, 40, 256);
    c.bench_function("accumulate_block40_50x50x256_sigma12", |b| {
        b.iter(|| {
            let mut acc = BatchAccumulator::zeros(&cb);
            acc.accumulate_block(&cb, &inputs, 12.0);
            black_box(acc.denominator[0])
        })
    });
    c.bench_function("accumulate_block40_50x50x256_sigma1", |b| {
        b.iter(|| {
            let mut acc = BatchAccumulator::zeros(&cb);
            acc.accumulate_block(&cb, &inputs, 1.0);
            black_box(acc.denominator[0])
        })
    });
}

fn bench_merge_and_apply(c: &mut Criterion) {
    let cb = paper_codebook();
    let inputs = bioseq::gen::random_vectors(4, 10, 256);
    let mut a = BatchAccumulator::zeros(&cb);
    a.accumulate_block(&cb, &inputs, 10.0);
    let b2 = a.clone();
    c.bench_function("accumulator_merge_50x50x256", |b| {
        b.iter(|| {
            let mut m = a.clone();
            m.merge(&b2);
            black_box(m.denominator[0])
        })
    });
    c.bench_function("apply_update_50x50x256", |b| {
        b.iter(|| {
            let mut cb2 = cb.clone();
            a.apply(&mut cb2);
            black_box(cb2.weights[0])
        })
    });
}

fn bench_small_full_train(c: &mut Criterion) {
    let inputs = bioseq::gen::random_vectors(5, 200, 16);
    let cfg =
        SomConfig { rows: 10, cols: 10, dims: 16, epochs: 5, sigma0: None, sigma_end: 1.0, seed: 2, ..SomConfig::default() };
    c.bench_function("batch_train_200x16_10x10_5epochs", |b| {
        b.iter(|| black_box(batch_train(&inputs, &cfg).weights[0]))
    });
}

fn bench_online_step(c: &mut Criterion) {
    let mut cb = paper_codebook();
    let input = bioseq::gen::random_vectors(6, 1, 256).remove(0);
    c.bench_function("online_step_50x50x256", |b| {
        b.iter(|| {
            online_step(&mut cb, &input, 5.0, 0.1);
            black_box(cb.weights[0])
        })
    });
}

fn bench_umatrix(c: &mut Criterion) {
    let cb = paper_codebook();
    c.bench_function("umatrix_50x50x256", |b| b.iter(|| black_box(umatrix(&cb)[0])));
}

criterion_group!{
    name = benches;
    config = quick_config();
    targets =
    bench_bmu,
    bench_accumulate,
    bench_merge_and_apply,
    bench_small_full_train,
    bench_online_step,
    bench_umatrix

}
criterion_main!(benches);
