//! Ablation 6 (DESIGN.md §5): direct `MPI_Reduce` vs pure-MapReduce
//! (collate) codebook reduction in the batch SOM.
//!
//! The paper's SOM "uses a mix of MapReduce-MPI and direct MPI calls"; the
//! accumulator reduction is done with `MPI_Reduce` because expressing it as
//! key-value traffic would emit one (neuron → row) pair per work unit per
//! touched neuron. This bench runs both implementations on identical input
//! and reports wall time and the key-value volume the collate variant
//! generates.

use bench::{header, row};
use mpisim::{Comm, World};
use mrbio::{run_mrsom, FaultConfig, MrSomConfig, VectorMatrix};
use mrmpi::{MapReduce, MapStyle};
use som::batch::{init_codebook, BatchAccumulator};
use som::codebook::Codebook;
use som::neighborhood::{sigma_schedule, SomConfig};
use std::time::Instant;

/// The pure-MapReduce variant of the SOM: instead of the direct
/// `MPI_Reduce`, every map() emits one key-value pair per work unit per
/// neuron row (`key = neuron index`, `value = [numerator row ‖ denominator]`)
/// and a full `collate()` + `reduce()` + `gather()` cycle reconstructs the
/// codebook on the master. Mathematically identical; the bench measures
/// what the extra key-value traffic costs. Every rank returns the trained
/// codebook.
fn run_mrsom_collate(comm: &Comm, matrix: &VectorMatrix, cfg: &MrSomConfig) -> Codebook {
    let som = &cfg.som;
    assert_eq!(matrix.dims, som.dims, "matrix dims must match SOM config");

    let mut cb = if comm.rank() == 0 {
        // The same bounded sample the direct driver initializes from.
        let sample = matrix.read_rows(0, matrix.n.min(4096)).expect("read init sample");
        init_codebook(som, &sample)
    } else {
        Codebook::zeros(som.rows, som.cols, som.dims).with_torus(som.torus)
    };
    let sigma0 = som.sigma0_for(cb.half_diagonal());
    let blocks = matrix.blocks(cfg.block_size);
    let dims = cb.dims;

    for epoch in 0..som.epochs {
        comm.bcast_f64s(0, &mut cb.weights);
        let sigma = sigma_schedule(sigma0, som.sigma_end, som.epochs, epoch);

        let mut mr = MapReduce::with_settings(comm, cfg.mr_settings.clone());
        mr.map_tasks(blocks.len(), MapStyle::MasterWorker, &mut |b, kv| {
            let (start, end) = blocks[b];
            let inputs = matrix.read_rows(start, end).expect("read vector block");
            let t0 = Instant::now();
            let mut acc = BatchAccumulator::zeros(&cb);
            acc.accumulate_block_with(&cb, &inputs, sigma, som.kernel);
            comm.charge(t0.elapsed().as_secs_f64());
            // Emit per-neuron rows — this is the traffic the direct-MPI
            // version avoids.
            for n in 0..cb.num_neurons() {
                if acc.denominator[n] <= 0.0 {
                    continue;
                }
                let mut row = acc.numerator[n * dims..(n + 1) * dims].to_vec();
                row.push(acc.denominator[n]);
                kv.emit(&(n as u64).to_le_bytes(), &mpisim::wire::f64s_to_bytes(&row));
            }
        })
        .expect("fault-free map");

        mr.collate().expect("fault-free shuffle");
        mr.reduce(&mut |key, values, out| {
            let mut sum = vec![0.0f64; dims + 1];
            for v in values {
                let row = mpisim::wire::bytes_to_f64s(v);
                for (s, r) in sum.iter_mut().zip(&row) {
                    *s += r;
                }
            }
            out.emit(key, &mpisim::wire::f64s_to_bytes(&sum));
        });
        mr.gather(1);

        if comm.rank() == 0 {
            mr.kv_for_each(|key, value| {
                let n = u64::from_le_bytes(key.try_into().expect("neuron key")) as usize;
                let row = mpisim::wire::bytes_to_f64s(value);
                let den = row[dims];
                if den > 1e-12 {
                    for (w, num) in cb.neuron_mut(n).iter_mut().zip(&row[..dims]) {
                        *w = num / den;
                    }
                }
            });
        }
        comm.barrier();
    }
    comm.bcast_f64s(0, &mut cb.weights);
    comm.barrier();
    cb
}

fn main() {
    let n = 400;
    let dims = 16;
    let som = SomConfig { rows: 10, cols: 10, dims, epochs: 5, sigma0: None, sigma_end: 1.0, seed: 3, ..SomConfig::default() };
    let vectors = bioseq::gen::random_vectors(17, n, dims);
    let path = std::env::temp_dir().join(format!("som-ablation-{}.bin", std::process::id()));
    VectorMatrix::create(&path, &vectors).expect("write matrix");

    header(
        &format!(
            "Ablation: SOM codebook reduction, {n}×{dims}-d vectors, 10×10 map, 5 epochs, 3 ranks"
        ),
        &["variant", "wall_s", "kv_pairs_per_epoch(approx)"],
    );

    let p1 = path.clone();
    let t0 = Instant::now();
    let direct = World::new(3).run(move |comm| {
        let matrix = VectorMatrix::open(&p1).expect("open");
        run_mrsom(
            comm,
            &matrix,
            &MrSomConfig { block_size: 40, ..MrSomConfig::new(som) },
            &FaultConfig::default(),
        )
        .expect("fault-free run")
    });
    let t_direct = t0.elapsed().as_secs_f64();
    row(&["direct MPI_Reduce (paper)".into(), format!("{t_direct:.3}"), "0".into()]);

    let p2 = path.clone();
    let t0 = Instant::now();
    let collate = World::new(3).run(move |comm| {
        let matrix = VectorMatrix::open(&p2).expect("open");
        run_mrsom_collate(comm, &matrix, &MrSomConfig { block_size: 40, ..MrSomConfig::new(som) })
    });
    let t_collate = t0.elapsed().as_secs_f64();
    // Every work unit touches ~all neurons early in training: blocks ×
    // neurons pairs of (dims+1) doubles each.
    let blocks = n.div_ceil(40);
    let kv_pairs = blocks * som.rows * som.cols;
    row(&[
        "pure MapReduce collate".into(),
        format!("{t_collate:.3}"),
        format!("{kv_pairs} × {} bytes", (dims + 1) * 8),
    ]);

    // The two must train the same map (up to float summation order).
    let a = &direct[0].0.weights;
    let b = &collate[0].weights;
    let max_dev = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max);
    println!();
    println!("max codebook deviation between variants: {max_dev:.2e} (must be ~1e-12)");
    println!(
        "slowdown of pure-MapReduce reduction: {:.2}x — the reason the paper mixes in \
         direct MPI calls for the accumulator sum",
        t_collate / t_direct
    );
    std::fs::remove_file(&path).ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collate_variant_matches_direct_reduce() {
        let vectors = bioseq::gen::random_vectors(34, 60, 4);
        let path = std::env::temp_dir()
            .join(format!("som-collate-test-{}.bin", std::process::id()));
        VectorMatrix::create(&path, &vectors).unwrap();
        let som = SomConfig {
            rows: 5,
            cols: 5,
            dims: 4,
            epochs: 6,
            sigma0: None,
            sigma_end: 1.0,
            seed: 11,
            ..SomConfig::default()
        };
        let cfg = MrSomConfig { block_size: 10, ..MrSomConfig::new(som) };
        let (p, c) = (path.clone(), cfg.clone());
        let direct = World::new(2).run(move |comm| {
            let matrix = VectorMatrix::open(&p).unwrap();
            run_mrsom(comm, &matrix, &c, &FaultConfig::default()).expect("fault-free run").0
        });
        let p = path.clone();
        let collate = World::new(2).run(move |comm| {
            run_mrsom_collate(comm, &VectorMatrix::open(&p).unwrap(), &cfg)
        });
        for (x, y) in direct[0].weights.iter().zip(&collate[0].weights) {
            assert!((x - y).abs() <= 1e-9 * (1.0 + x.abs()), "collate vs direct: {x} vs {y}");
        }
        std::fs::remove_file(&path).ok();
    }
}
