//! Per-layer metrics from one traced replica run.

use crate::traced::{RankLog, Replica, Span};
use crate::Metric;

/// Every per-layer metric but the two `trace.*` ones, which need an
/// untraced run beside the traced one. Layers a workload does not exercise
/// read 0. `quant_error` is the trained map's QE (0 for BLAST).
pub fn metrics(r: &Replica, is_blast: bool, neurons_x_dims: f64, quant_error: f64) -> Vec<Metric> {
    let ranks = &r.ranks;
    let sum = |f: fn(&RankLog) -> u64| ranks.iter().map(f).sum::<u64>() as f64;
    let blast_only = |v: f64| if is_blast { v } else { 0.0 };
    let som_only = |v: f64| if is_blast { 0.0 } else { v };

    let units: Vec<f64> = ranks
        .iter()
        .flat_map(|l| l.units.iter().map(|u| u.end - u.start))
        .collect();
    let nunits = units.len() as f64;
    let cells: f64 = ranks
        .iter()
        .flat_map(|l| l.units.iter().map(|u| u.cells))
        .sum();
    let search_s = busy_s(ranks, "blast.search_partition");
    let loads = sum(|l| l.loads);
    let (bmu_s, searches, distinct_bmus) = r
        .bmu
        .as_ref()
        .map_or((0.0, 0.0, 0.0), |b| (b.secs, b.searches as f64, b.distinct));
    let (wait_s, tail_s) = scheduler_waits(ranks);
    let counter = |name: &str| r.trace.as_ref().map_or(0, |t| t.counter_total(name)) as f64;
    // The plain master-worker scheduler journals nothing: every execution
    // commits. The fault-tolerant one counts `sched.commit`.
    let commit_ratio = if counter("sched.dispatch") == 0.0 {
        1.0
    } else {
        counter("sched.commit") / nunits.max(1.0)
    };

    vec![
        Metric::new(
            "bioseq.load_partition_s",
            busy_s(ranks, "bioseq.load_partition"),
            "s",
        ),
        Metric::new("bioseq.partition_loads", loads, "count"),
        Metric::new(
            "bioseq.partition_reuse",
            blast_only(1.0 - loads / nunits.max(1.0)),
            "ratio",
        ),
        Metric::new(
            "blast.prepare_s",
            busy_s(ranks, "blast.prepare_queries"),
            "s",
        ),
        Metric::new("blast.prepares", sum(|l| l.prepares), "count"),
        Metric::new("blast.search_s", search_s, "s"),
        Metric::new("blast.units", blast_only(nunits), "count"),
        Metric::new(
            "blast.unit_p50_ms",
            blast_only(1e3 * crate::median(&units)),
            "ms",
        ),
        Metric::new(
            "blast.unit_max_ms",
            blast_only(1e3 * units.iter().copied().fold(0.0, f64::max)),
            "ms",
        ),
        Metric::new("blast.hits", sum(|l| l.out_lines), "count"),
        Metric::new(
            "blast.cells_per_s",
            if search_s > 0.0 {
                cells / search_s
            } else {
                0.0
            },
            "1/s",
        ),
        Metric::new("mrmpi.map_s", phase_s(ranks, "mrmpi.map"), "s"),
        Metric::new("mrmpi.aggregate_s", phase_s(ranks, "mrmpi.aggregate"), "s"),
        Metric::new("mrmpi.convert_s", phase_s(ranks, "mrmpi.convert"), "s"),
        Metric::new("mrmpi.reduce_s", phase_s(ranks, "mrmpi.reduce"), "s"),
        Metric::new("mrmpi.kv_pairs", sum(|l| l.kv_pairs), "count"),
        Metric::new("mrmpi.kv_bytes", sum(|l| l.kv_bytes), "bytes"),
        Metric::new("sched.wait_s", wait_s, "s"),
        Metric::new(
            "sched.wait_us_per_unit",
            1e6 * wait_s / nunits.max(1.0),
            "us",
        ),
        Metric::new("sched.tail_s", tail_s, "s"),
        Metric::new("sched.commit_ratio", commit_ratio, "ratio"),
        Metric::new("mpisim.bcast_s", phase_s(ranks, "mpisim.bcast"), "s"),
        Metric::new("mpisim.reduce_s", phase_s(ranks, "mpisim.reduce"), "s"),
        Metric::new(
            "mpisim.bytes_sent",
            counter("net.bytes_sent") + counter("net.collective_bytes"),
            "bytes",
        ),
        Metric::new(
            "mpisim.messages",
            counter("net.sends") + counter("net.collectives"),
            "count",
        ),
        Metric::new(
            "som.read_rows_s",
            som_only(busy_s(ranks, "som.read_rows")),
            "s",
        ),
        Metric::new("som.bmu_s", bmu_s, "s"),
        Metric::new(
            "som.neighborhood_s",
            som_only(busy_s(ranks, "som.accumulate") - bmu_s),
            "s",
        ),
        Metric::new("som.apply_s", busy_s(ranks, "som.apply"), "s"),
        Metric::new(
            "som.bmu_gmadds_per_s",
            if bmu_s > 0.0 {
                searches * neurons_x_dims / bmu_s / 1e9
            } else {
                0.0
            },
            "Gmadd/s",
        ),
        Metric::new("som.distinct_bmus", distinct_bmus, "count"),
        Metric::new("som.quant_error", quant_error, "l2"),
        Metric::new("output.write_s", busy_s(ranks, "output.write"), "s"),
        Metric::new("output.bytes", sum(|l| l.out_bytes), "bytes"),
    ]
}

fn named<'a>(log: &'a RankLog, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    log.spans.iter().filter(move |s| s.name == name)
}

/// Busy time in a layer: its spans summed over every rank.
fn busy_s(ranks: &[RankLog], name: &str) -> f64 {
    ranks
        .iter()
        .flat_map(|l| named(l, name))
        .map(Span::secs)
        .sum()
}

/// Time of a collective call as the job sees it: the k-th call's longest
/// duration over ranks, summed over calls (every rank makes the same calls
/// in the same order).
fn phase_s(ranks: &[RankLog], name: &str) -> f64 {
    let per_rank: Vec<Vec<f64>> = ranks
        .iter()
        .map(|l| named(l, name).map(Span::secs).collect())
        .collect();
    let calls = per_rank.iter().map(Vec::len).max().unwrap_or(0);
    (0..calls)
        .map(|k| {
            per_rank
                .iter()
                .filter_map(|d| d.get(k))
                .copied()
                .fold(0.0, f64::max)
        })
        .sum()
}

/// Scheduler waiting, summed over map calls:
/// - wait: worker time between one unit's end and its next unit's start;
/// - tail: from the first worker's last unit to the end of the map call.
fn scheduler_waits(ranks: &[RankLog]) -> (f64, f64) {
    let calls = ranks
        .iter()
        .flat_map(|l| l.units.iter().map(|u| u.call + 1))
        .max()
        .unwrap_or(0);
    let (mut wait, mut tail) = (0.0, 0.0);
    for call in 0..calls {
        let map_end = ranks
            .iter()
            .filter_map(|l| named(l, "mrmpi.map").nth(call))
            .map(|s| s.end)
            .fold(0.0, f64::max);
        let mut first_idle = f64::INFINITY;
        for log in ranks {
            let mut mine: Vec<(f64, f64)> = log
                .units
                .iter()
                .filter(|u| u.call == call)
                .map(|u| (u.start, u.end))
                .collect();
            mine.sort_by(|a, b| a.0.total_cmp(&b.0));
            wait += mine.windows(2).map(|w| w[1].0 - w[0].1).sum::<f64>();
            if let Some(&(_, last_end)) = mine.last() {
                first_idle = first_idle.min(last_end);
            }
        }
        if first_idle.is_finite() {
            tail += map_end - first_idle;
        }
    }
    (wait, tail)
}

/// Span coverage of the busiest rank (most time inside map units) over the
/// traced wall clock. Only leaf layer calls count: inside a `mrmpi.map`
/// window a unit's time counts only through the layer spans within it, and
/// the rest of the window only where the rank is between units (scheduler
/// waits and the tail). So map-callback work that no span times shows as
/// uncovered.
pub fn coverage(r: &Replica) -> f64 {
    let busiest = r.ranks.iter().max_by(|a, b| {
        let busy = |l: &RankLog| l.units.iter().map(|u| u.end - u.start).sum::<f64>();
        busy(a).total_cmp(&busy(b))
    });
    let Some(log) = busiest else { return 0.0 };
    let mut covered: Vec<(f64, f64)> = log
        .spans
        .iter()
        .filter(|s| s.name != "mrmpi.map")
        .map(|s| (s.start, s.end))
        .collect();
    for map in named(log, "mrmpi.map") {
        let mut units: Vec<(f64, f64)> = log
            .units
            .iter()
            .filter(|u| u.start >= map.start && u.end <= map.end)
            .map(|u| (u.start, u.end))
            .collect();
        units.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut idle_from = map.start;
        for (start, end) in units {
            if start > idle_from {
                covered.push((idle_from, start));
            }
            idle_from = idle_from.max(end);
        }
        if map.end > idle_from {
            covered.push((idle_from, map.end));
        }
    }
    covered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut reach) = (0.0, f64::NEG_INFINITY);
    for (start, end) in covered {
        if end > reach {
            total += end - start.max(reach);
            reach = end;
        }
    }
    total / r.wall_s
}
