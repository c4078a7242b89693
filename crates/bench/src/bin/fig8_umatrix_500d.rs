//! Figure 8: "U-Matrix of 50x50 SOM trained by 10,000 random feature
//! vectors with 500 dimensions" — the high-dimensional stress test,
//! demonstrating that large maps trained on large high-D inputs produce a
//! well-defined U-matrix.
//!
//! Run with the parallel MR-MPI SOM (2 ranks; the full paper-sized input is
//! heavy for a laptop-class host, so the default trains on a slice and the
//! `--full` flag runs the complete 10,000×500 set).

use bench::{artifact_dir, header, row};
use mpisim::World;
use mrbio::{run_mrsom, MrSomConfig, VectorMatrix};
use som::neighborhood::SomConfig;
use som::ppm::write_umatrix_pgm;
use som::quality::quantization_error;
use som::umatrix::{ridge_valley_ratio, umatrix};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (n, rows, cols, epochs) = if full { (10_000, 50, 50, 10) } else { (1_500, 20, 20, 8) };
    let dims = 500;

    let vectors = bioseq::gen::random_vectors(88, n, dims);
    let dir = artifact_dir();
    let matrix_path = dir.join("fig8_input.bin");
    VectorMatrix::create(&matrix_path, &vectors).expect("write input matrix");

    let som = SomConfig { rows, cols, dims, epochs, sigma0: None, sigma_end: 1.0, seed: 5, ..SomConfig::default() };
    let mp = matrix_path.clone();
    let results = World::new(2).run(move |comm| {
        let matrix = VectorMatrix::open(&mp).expect("open matrix");
        let cfg = MrSomConfig { block_size: 50, ..MrSomConfig::new(som) };
        run_mrsom(comm, &matrix, &cfg).expect("fault-free run")
    });
    let (cb, _) = &results[0];

    let um_path = dir.join("fig8_umatrix.pgm");
    let u = umatrix(cb);
    write_umatrix_pgm(&um_path, cb, &u).expect("write U-matrix");

    header(
        &format!(
            "Fig. 8 — U-matrix of {rows}×{cols} SOM on {n} random {dims}-d vectors \
             ({})",
            if full { "full paper size" } else { "reduced; use --full for 50×50/10,000" }
        ),
        &["metric", "value"],
    );
    row(&["quantization_error".into(), format!("{:.4}", quantization_error(cb, &vectors))]);
    row(&["umatrix_ridge_valley_ratio".into(), format!("{:.2}", ridge_valley_ratio(&u))]);
    let mean_u = u.iter().sum::<f64>() / u.len() as f64;
    row(&["umatrix_mean_distance".into(), format!("{mean_u:.4}")]);
    row(&["umatrix_image".into(), um_path.display().to_string()]);
    println!();
    println!(
        "paper: a 'well-defined U-matrix' — i.e. clear ridge/valley structure; \
         ratios well above 1 indicate the same."
    );
    std::fs::remove_file(&matrix_path).ok();
}
