//! BLAST workload scenarios: the task matrices behind Figs. 3–5.
//!
//! A scenario is the cross product of query blocks and DB partitions, with
//! per-work-unit search costs drawn from a log-normal distribution around a
//! per-query mean — BLAST runtime "can vary widely for specific query and DB
//! sequences" (§IV.A), and the log-normal's heavy tail reproduces the
//! "some combinations of the query blocks and DB partitions take much
//! longer than others" effect that limits large-core-count efficiency.
//! Costs are deterministic per seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::ClusterModel;
use crate::des::{simulate_master_worker, Conditions, SimResult, Task};

/// Enumeration order of the (block × partition) work-unit matrix — i.e. the
/// dispatch order of the dynamic scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOrder {
    /// Partition varies fastest ("for each query block, scan every
    /// partition"): consecutive work units touch different partitions, so a
    /// worker re-maps its DB object on almost every unit. This matches the
    /// paper's measured behaviour — its superlinear bump exists *because*
    /// reloads are frequent, and its future-work section proposes a
    /// locality-aware scheduler precisely to reduce them.
    BlockMajor,
    /// Block varies fastest: consecutive units share a partition, giving
    /// near-perfect rank-level DB caching (the ablation order; see the
    /// `ablation_task_order` bench).
    PartitionMajor,
}

/// Cost model constants for one work-unit family.
#[derive(Debug, Clone, Copy)]
pub struct WorkUnitCosts {
    /// Mean engine seconds per query per partition.
    pub per_query_s: f64,
    /// Log-space standard deviation of the work-unit cost (skew).
    pub sigma_log: f64,
    /// RNG seed for the cost draw.
    pub seed: u64,
}

impl WorkUnitCosts {
    /// Nucleotide search constants calibrated so a 1000-query × 1 GB-
    /// partition unit averages ≈ 20 engine-seconds on Ranger-era hardware,
    /// comparable to a cold 1 GB Lustre read — the regime in which the
    /// paper's RAM-caching effect is visible at all
    /// (absolute scale is irrelevant to the curve shapes; see
    /// EXPERIMENTS.md).
    pub fn blastn_ranger() -> Self {
        WorkUnitCosts { per_query_s: 0.02, sigma_log: 0.6, seed: 2011 }
    }

    /// Protein search constants: considerably more CPU-bound per query
    /// ("BLAST is able to detect the more remote homologies in protein
    /// space, and thus has to examine many more candidate matches").
    pub fn blastp_ranger() -> Self {
        WorkUnitCosts { per_query_s: 1.7, sigma_log: 0.28, seed: 2012 }
    }
}

/// A full scenario: the work-unit matrix of one MR-MPI BLAST run.
#[derive(Debug, Clone)]
pub struct BlastScenario {
    /// Total query sequences.
    pub n_queries: usize,
    /// Queries per block.
    pub block_size: usize,
    /// Number of DB partitions.
    pub n_partitions: usize,
    /// Size of one partition in GB (drives load and cache behaviour).
    pub partition_gb: f64,
    /// Cost constants.
    pub costs: WorkUnitCosts,
    /// Work-unit dispatch order.
    pub order: TaskOrder,
    /// Mean hits per query surviving the cutoffs (drives the collate()
    /// key-value volume; "both series generate the same amount of key-value
    /// pairs, which then have to be exchanged in collate() and processed in
    /// reduce()", §IV.A).
    pub hits_per_query: f64,
    /// Encoded bytes per hit (key + HSP payload).
    pub hit_bytes: usize,
}

impl BlastScenario {
    /// The paper's Fig. 3 nucleotide setup: 109 partitions of 1 GB;
    /// `n_queries` ∈ {12 000, 40 000, 80 000}, blocks of 1000 or 2000.
    pub fn paper_nucleotide(n_queries: usize, block_size: usize) -> Self {
        BlastScenario {
            n_queries,
            block_size,
            n_partitions: 109,
            partition_gb: 1.0,
            costs: WorkUnitCosts::blastn_ranger(),
            order: TaskOrder::BlockMajor,
            hits_per_query: 20.0,
            hit_bytes: 120,
        }
    }

    /// The paper's protein setup (§IV.A): 139 846 env_nr queries against
    /// Uniref100 in 58 partitions of 200 000 sequences (~0.15 GB packed).
    pub fn paper_protein() -> Self {
        BlastScenario {
            n_queries: 139_846,
            block_size: 1000,
            n_partitions: 58,
            partition_gb: 0.15,
            costs: WorkUnitCosts::blastp_ranger(),
            order: TaskOrder::BlockMajor,
            hits_per_query: 50.0,
            hit_bytes: 120,
        }
    }

    /// Number of query blocks.
    pub fn n_blocks(&self) -> usize {
        self.n_queries.div_ceil(self.block_size)
    }

    /// Number of work units (blocks × partitions).
    pub fn n_tasks(&self) -> usize {
        self.n_blocks() * self.n_partitions
    }

    /// Generate the work-unit list in the configured dispatch order with
    /// deterministic log-normal costs. The per-unit mean scales with the
    /// number of queries actually in the block (last block may be short).
    pub fn tasks(&self) -> Vec<Task> {
        let mut rng = StdRng::seed_from_u64(self.costs.seed);
        let nblocks = self.n_blocks();
        // One skew factor per (block, partition) pair, independent of the
        // dispatch order so order comparisons see identical workloads.
        let mut skews = vec![0.0f64; nblocks * self.n_partitions];
        for s in skews.iter_mut() {
            *s = lognormal(&mut rng, self.costs.sigma_log);
        }
        let unit = |block: usize, part: usize| {
            let queries_in_block = if block + 1 == nblocks {
                self.n_queries - block * self.block_size
            } else {
                self.block_size
            };
            let mean = self.costs.per_query_s * queries_in_block as f64;
            Task { part, cost_s: mean * skews[block * self.n_partitions + part] }
        };
        let mut tasks = Vec::with_capacity(skews.len());
        match self.order {
            TaskOrder::BlockMajor => {
                for block in 0..nblocks {
                    for part in 0..self.n_partitions {
                        tasks.push(unit(block, part));
                    }
                }
            }
            TaskOrder::PartitionMajor => {
                for part in 0..self.n_partitions {
                    for block in 0..nblocks {
                        tasks.push(unit(block, part));
                    }
                }
            }
        }
        tasks
    }

    /// Modelled cost of the collate() exchange plus the reduce-side sort:
    /// the KV dataset (every query's hits from every partition) crosses the
    /// network once, then each rank sorts its share.
    pub fn collate_cost(&self, cluster: &ClusterModel, cores: usize) -> f64 {
        let total_bytes =
            self.n_queries as f64 * self.hits_per_query * self.hit_bytes as f64;
        let per_rank = total_bytes / cores as f64;
        // Alltoallv modelled as one collective round of the per-rank volume,
        // plus a sort at ~100 MB/s effective per rank.
        cluster.collective_cost(cores, per_rank as usize) + per_rank / 100e6
    }

    /// Simulate the master-worker run at `cores` cores, including the
    /// collate/reduce tail.
    pub fn simulate(&self, cluster: &ClusterModel, cores: usize) -> SimResult {
        let (tasks, clean) = (self.tasks(), Conditions::default());
        let mut r = simulate_master_worker(cluster, cores, &tasks, self.partition_gb, &clean);
        r.makespan_s += self.collate_cost(cluster, cores);
        r
    }

    /// Core-minutes spent per query at `cores` cores (the Fig. 4 metric).
    pub fn core_minutes_per_query(&self, cluster: &ClusterModel, cores: usize) -> f64 {
        let r = self.simulate(cluster, cores);
        r.core_seconds() / 60.0 / self.n_queries as f64
    }
}

/// Draw `count` deterministic log-normal skew factors (median 1) — exposed
/// so benches can build custom task lists (e.g. guided block schedules)
/// over the same cost distribution the scenarios use.
pub fn sample_skews(seed: u64, count: usize, sigma: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| lognormal(&mut rng, sigma)).collect()
}

/// Log-normal sample with median 1 (mean exp(σ²/2)) via Box–Muller.
fn lognormal(rng: &mut impl Rng, sigma: f64) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collate_cost_is_small_but_positive() {
        let cluster = ClusterModel::ranger();
        let s = BlastScenario::paper_nucleotide(80_000, 1000);
        let c = s.collate_cost(&cluster, 1024);
        assert!(c > 0.0);
        // The paper treats collate as cheap relative to the search; the
        // model must agree (well under a minute at paper scale).
        assert!(c < 30.0, "collate cost {c}s");
        // More cores → less per-rank volume → cheaper.
        assert!(s.collate_cost(&cluster, 1024) < s.collate_cost(&cluster, 32));
    }

    #[test]
    fn paper_shape_fig3() {
        let s = BlastScenario::paper_nucleotide(80_000, 1000);
        assert_eq!(s.n_blocks(), 80);
        assert_eq!(s.n_tasks(), 80 * 109, "the paper's 8720 work units");
        let s2 = BlastScenario::paper_nucleotide(80_000, 2000);
        assert_eq!(s2.n_blocks(), 40);
    }

    #[test]
    fn tasks_are_deterministic_and_ordered() {
        let s = BlastScenario::paper_nucleotide(12_000, 1000);
        let a = s.tasks();
        let b = s.tasks();
        assert_eq!(a, b);
        // Block-major default: the first 109 tasks walk partitions 0..109.
        for (i, t) in a[..s.n_partitions].iter().enumerate() {
            assert_eq!(t.part, i);
        }
        let pm = BlastScenario { order: TaskOrder::PartitionMajor, ..s.clone() };
        let tasks = pm.tasks();
        assert!(tasks[..pm.n_blocks()].iter().all(|t| t.part == 0));
        // Same multiset of costs in both orders.
        let mut ca: Vec<u64> = a.iter().map(|t| t.cost_s.to_bits()).collect();
        let mut cb: Vec<u64> = tasks.iter().map(|t| t.cost_s.to_bits()).collect();
        ca.sort_unstable();
        cb.sort_unstable();
        assert_eq!(ca, cb);
    }

    #[test]
    fn costs_have_expected_scale_and_skew() {
        let s = BlastScenario::paper_nucleotide(40_000, 1000);
        let tasks = s.tasks();
        let mean: f64 = tasks.iter().map(|t| t.cost_s).sum::<f64>() / tasks.len() as f64;
        // Log-normal with median 1: mean factor e^{σ²/2} ≈ 1.197.
        let expected = 0.02 * 1000.0 * (0.6f64 * 0.6 / 2.0).exp();
        assert!((mean - expected).abs() / expected < 0.05, "mean {mean} vs {expected}");
        let max = tasks.iter().map(|t| t.cost_s).fold(0.0, f64::max);
        assert!(max > 3.0 * mean, "heavy tail expected: max {max}, mean {mean}");
    }

    #[test]
    fn short_last_block_costs_less() {
        let s = BlastScenario {
            n_queries: 2500,
            block_size: 1000,
            n_partitions: 2,
            partition_gb: 0.0,
            costs: WorkUnitCosts { per_query_s: 1.0, sigma_log: 0.0, seed: 1 },
            order: TaskOrder::PartitionMajor,
            hits_per_query: 10.0,
            hit_bytes: 100,
        };
        let tasks = s.tasks();
        assert_eq!(tasks.len(), 6);
        // blocks of 1000, 1000, 500 → costs 1000, 1000, 500 per partition.
        assert!((tasks[2].cost_s - 500.0).abs() < 1e-9);
    }

    #[test]
    fn more_cores_reduce_wall_clock_until_saturation() {
        let cluster = ClusterModel::ranger();
        let s = BlastScenario::paper_nucleotide(12_000, 1000);
        let t32 = s.simulate(&cluster, 32).makespan_s;
        let t128 = s.simulate(&cluster, 128).makespan_s;
        let t1024 = s.simulate(&cluster, 1024).makespan_s;
        assert!(t128 < t32);
        assert!(t1024 <= t128);
        // 12k queries = 12 blocks × 109 = 1308 units: at 1024 cores the run
        // is tail-dominated and efficiency collapses — the Fig. 3 message
        // that "large core counts are only efficient for large inputs".
        let eff32 = s.core_minutes_per_query(&cluster, 32);
        let eff1024 = s.core_minutes_per_query(&cluster, 1024);
        assert!(
            eff1024 > 2.0 * eff32,
            "small dataset must waste cores at 1024: {eff1024} vs {eff32}"
        );
    }

    #[test]
    fn superlinear_bump_from_ram_caching() {
        // The paper's §IV.A observation, 80k × 1000-query blocks: relative
        // efficiency peaks above 1 at medium core counts because the DB
        // starts fitting in combined RAM (32 cores = 2 nodes = 56 cached
        // partitions < 109; 128 cores = 8 nodes = 224 > 109).
        let cluster = ClusterModel::ranger();
        let s = BlastScenario::paper_nucleotide(80_000, 1000);
        let t32 = s.simulate(&cluster, 32).makespan_s;
        let t128 = s.simulate(&cluster, 128).makespan_s;
        let speedup = t32 / t128;
        let eff_rel = speedup / (128.0 / 32.0);
        assert!(
            eff_rel > 1.0,
            "expected superlinear relative efficiency at 128 cores, got {eff_rel}"
        );
    }

    #[test]
    fn protein_scales_better_than_nucleotide() {
        // §IV.A: "the protein search demonstrated a very good scaling due to
        // the considerably more CPU-bound nature" — core·min/query grows
        // only slightly from 512 to 1024 cores.
        let cluster = ClusterModel::ranger();
        let p = BlastScenario::paper_protein();
        let c512 = p.core_minutes_per_query(&cluster, 512);
        let c1024 = p.core_minutes_per_query(&cluster, 1024);
        let overhead = c1024 / c512 - 1.0;
        assert!(
            overhead > 0.0 && overhead < 0.2,
            "paper reports ~6% extra core·min at 1024 vs 512; model gives {:.1}%",
            overhead * 100.0
        );
    }
}
