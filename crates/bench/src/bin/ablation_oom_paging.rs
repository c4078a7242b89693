//! Ablation 5 (DESIGN.md §5): out-of-core paging threshold in the
//! MapReduce engine.
//!
//! "Although the MapReduce-MPI library will transparently use file system
//! paging when the working set size grows beyond a pre-defined limit
//! ('out-of-core processing'), the performance will suffer, especially on
//! typical cluster architecture that has no locally attached user scratch
//! space" (§III.A) — which is exactly why the application loops over query
//! subsets. This bench runs the same collate-heavy job under shrinking
//! memory budgets and reports spill counts and wall time.

use bench::{header, row};
use mpisim::World;
use mrmpi::{MapReduce, MapStyle, Settings};
use std::time::Instant;

fn run_job(settings: Settings) -> (f64, u64, u64) {
    let t0 = Instant::now();
    let results = World::new(2).run(move |comm| {
        let mut mr = MapReduce::with_settings(comm, settings.clone());
        // 4000 keys × 8 values of ~64 bytes: a few MB of KV data.
        mr.map_tasks(200, MapStyle::Chunk, &mut |t, kv| {
            for i in 0..160 {
                let key = ((t * 160 + i) % 4000) as u64;
                kv.emit(&key.to_le_bytes(), &[0xabu8; 64]);
            }
        })
        .expect("fault-free map");
        mr.collate().expect("fault-free shuffle");
        let mut groups = 0u64;
        mr.reduce(&mut |_k, vals, _| {
            groups += vals.count() as u64;
        });
        (groups, mr.stats().local_spills)
    });
    let wall = t0.elapsed().as_secs_f64();
    let values: u64 = results.iter().map(|(g, _)| g).sum();
    let spills: u64 = results.iter().map(|(_, s)| s).sum();
    (wall, values, spills)
}

fn main() {
    header(
        "Ablation: out-of-core paging budget (collate of 32,000 KV pairs, 2 ranks)",
        &["mem_budget", "wall_s", "values_reduced", "pages_spilled"],
    );
    let tmp = std::env::temp_dir();
    let cases: Vec<(&str, Settings)> = vec![
        ("unlimited", Settings::default()),
        (
            "1 MiB",
            Settings { page_size: 64 * 1024, mem_budget: 1 << 20, tmpdir: tmp.clone(), ..Settings::default() },
        ),
        (
            "256 KiB",
            Settings { page_size: 32 * 1024, mem_budget: 256 * 1024, tmpdir: tmp.clone(), ..Settings::default() },
        ),
        (
            "64 KiB",
            Settings { page_size: 16 * 1024, mem_budget: 64 * 1024, tmpdir: tmp.clone(), ..Settings::default() },
        ),
    ];
    let mut reference = None;
    for (name, settings) in cases {
        let (wall, values, spills) = run_job(settings);
        match reference {
            None => reference = Some(values),
            Some(r) => assert_eq!(values, r, "paging must not change results"),
        }
        row(&[
            name.to_string(),
            format!("{wall:.3}"),
            values.to_string(),
            spills.to_string(),
        ]);
    }
    println!();
    println!(
        "expectation: identical reduced values at every budget; spill counts grow and \
         wall time degrades as the budget shrinks — the cost the paper's query-subset \
         iteration avoids."
    );
}
