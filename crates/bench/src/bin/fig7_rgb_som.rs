//! Figure 7: "Clustering of input vectors viewed as RGB colors and U-Matrix
//! of 50x50 SOM trained with 100 RGB feature vectors" — the classic visual
//! correctness test, run with the *parallel* MR-MPI SOM so the figure
//! certifies the parallel code path.
//!
//! Artifacts: `target/figures/fig7_rgb.ppm` (the color map) and
//! `target/figures/fig7_umatrix.pgm` (its U-matrix), plus quantitative
//! summaries printed to stdout.

use bench::{artifact_dir, header, row};
use mpisim::World;
use mrbio::{run_mrsom, MrSomConfig, VectorMatrix};
use som::neighborhood::SomConfig;
use som::ppm::{write_codebook_rgb, write_umatrix_pgm};
use som::quality::{quantization_error, topographic_error};
use som::umatrix::{ridge_valley_ratio, umatrix};

fn main() {
    let vectors = bioseq::gen::rgb_vectors(2011, 100);
    let dir = artifact_dir();
    let matrix_path = dir.join("fig7_input.bin");
    VectorMatrix::create(&matrix_path, &vectors).expect("write input matrix");

    let som = SomConfig { epochs: 30, ..SomConfig::paper_default(3, 30) };
    let mp = matrix_path.clone();
    let results = World::new(4).run(move |comm| {
        let matrix = VectorMatrix::open(&mp).expect("open matrix");
        let cfg = MrSomConfig { block_size: 10, ..MrSomConfig::new(som) };
        run_mrsom(comm, &matrix, &cfg).expect("fault-free run")
    });
    let (cb, _) = &results[0];

    let rgb_path = dir.join("fig7_rgb.ppm");
    let um_path = dir.join("fig7_umatrix.pgm");
    write_codebook_rgb(&rgb_path, cb).expect("write RGB map");
    let u = umatrix(cb);
    write_umatrix_pgm(&um_path, cb, &u).expect("write U-matrix");

    header(
        "Fig. 7 — 50×50 SOM on 100 random RGB vectors (parallel run, 4 ranks)",
        &["metric", "value"],
    );
    row(&["quantization_error".into(), format!("{:.4}", quantization_error(cb, &vectors))]);
    row(&["topographic_error".into(), format!("{:.4}", topographic_error(cb, &vectors))]);
    row(&["umatrix_ridge_valley_ratio".into(), format!("{:.2}", ridge_valley_ratio(&u))]);
    row(&["rgb_image".into(), rgb_path.display().to_string()]);
    row(&["umatrix_image".into(), um_path.display().to_string()]);

    // Smoothness of the color map: neighboring neurons should hold similar
    // colors after training (the paper's visual criterion, quantified).
    let mut neighbor_dist = 0.0;
    let mut random_dist = 0.0;
    let mut pairs = 0usize;
    for n in 0..cb.num_neurons() {
        let (x, y) = cb.coords(n);
        if x + 1 < cb.cols {
            let m = y * cb.cols + x + 1;
            neighbor_dist += cb.dist_sq(n, cb.neuron(m)).sqrt();
            let far = (n * 37 + 1013) % cb.num_neurons();
            random_dist += cb.dist_sq(n, cb.neuron(far)).sqrt();
            pairs += 1;
        }
    }
    row(&[
        "neighbor_vs_random_color_distance".into(),
        format!("{:.3} vs {:.3}", neighbor_dist / pairs as f64, random_dist / pairs as f64),
    ]);
    println!();
    println!(
        "paper: well-organized color patches with visible cluster boundaries; \
         a smooth map has neighbor distance well below random-pair distance."
    );
    std::fs::remove_file(&matrix_path).ok();
}
