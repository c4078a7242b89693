#!/usr/bin/env bash
# Tier-1 pre-merge gate: release build, clippy over every workspace crate,
# the root package's test suite, every workspace crate's tests, a
# warning-free rustdoc build, the benchmark's build (so deleting an API it
# uses fails here, not when the benchmark runs), and the fault-injection
# smoke and regression tests run explicitly by name so a filter or harness
# change can never silently drop them.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test -q (root package: integration + property tests) =="
cargo test -q

echo "== cargo test -q --workspace (every crate's unit, integration and doc tests) =="
cargo test -q --workspace --exclude mrmpi-bio

echo "== rustdoc: no broken intra-doc links or other doc warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== benchmark builds: perfbench compiles against this tree (warnings allowed) =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "== engine pin: serial blastn/blastp/blastx hit counts and tabular digests, exact =="
cargo test -q --test blast_output_pin

echo "== diagonal ring: the ring tracker agrees with the map tracker over subject scans, ring and generation wraps included =="
cargo test -q -p blast --lib -- --exact extend::tests::ring_tracker_agrees_with_map_tracker_on_subject_scans

echo "== neighbourhood table: the table-built protein lookup equals the enumerated one (w 2-4, T 9/11/13) =="
cargo test -q -p blast --lib -- --exact lookup::tests::table_built_protein_lookup_equals_the_enumerated_one

echo "== contained-HSP skip: the containment rule, its per-context cover, and unchanged hits on an indel homolog =="
cargo test -q -p blast --lib -- --exact search::tests::containment_counts_shared_edges
cargo test -q -p blast --lib -- --exact search::tests::containment_rejects_one_residue_outside_on_any_edge
cargo test -q -p blast --lib -- --exact search::tests::cover_is_per_context_and_cleared_at_the_next_subject
cargo test -q -p blast --lib -- --exact search::tests::contained_seed_of_an_indel_alignment_is_skipped_with_unchanged_hits

echo "== engine heuristics guard: hit scores never exceed the Smith-Waterman optimum and stay near it =="
cargo test -q --test blast_oracle_diff

echo "== fault-mode smoke: 2 of 8 workers killed mid-map, bit-for-bit BLAST =="
cargo test -q --test parallel_equivalence blast_equivalence_with_two_of_eight_workers_killed_mid_map

echo "== fault-mode smoke: DES dead-worker closed form =="
cargo test -q --test perfmodel_validation faulty_des_matches_reduced_worker_closed_form

echo "== DES replay: real per-grant busy intervals replayed through the DES land within one task of the real map phase =="
cargo test -q --test perfmodel_validation -- --exact des_makespan_matches_real_master_worker_run

echo "== DES pin: paper-scale results of every simulated condition, exact =="
cargo test -q --test perfmodel_validation des_pins_paper_scale_results_for_every_condition

echo "== straggler regression: a fenced straggler's committed unit is reclaimed and re-run =="
cargo test -q -p mrmpi --lib -- --exact sched::tests::ft_straggler_fenced_after_committing_has_its_units_rerun

echo "== failover counter: one master death at 9 ranks counts one election =="
cargo test -q -p mrmpi --lib -- --exact sched::tests::one_master_death_counts_one_election_however_many_survive

echo "== failover regression: two master deaths, elected ranks strictly increase across epochs =="
cargo test -q -p mrmpi --lib -- --exact sched::tests::ft_two_master_deaths_across_epochs

echo "== deposition regression: a stalled master is deposed, steps down and serves the successor =="
cargo test -q -p mrmpi --lib -- --exact sched::tests::ft_stalled_master_is_deposed_and_steps_down

echo "== failover regression: a successor re-quarantines its predecessor's poison unit from claims alone =="
cargo test -q -p mrmpi --lib -- --exact sched::tests::ft_failover_requarantines_poison_from_claims_alone

echo "== exactly-once regression: a successor judges the last survivor's carried unit before requeueing it =="
cargo test -q -p mrmpi --lib -- --exact sched::core::tests::successor_judges_the_last_survivors_carried_unit_before_requeueing_it

echo "== scheduler core property: every interleaving commits each unit exactly once or quarantines it =="
cargo test -q -p mrmpi --lib -- --exact sched::core::tests::core_commits_every_unit_exactly_once_under_any_interleaving

echo "== grants: guided same-key grants; a poison unit inside a grant is the only unit quarantined, with no strike on the others =="
cargo test -q -p mrmpi --lib -- --exact sched::core::tests::grants_share_a_key_and_shrink_as_the_pool_drains
cargo test -q -p mrmpi --lib -- --exact sched::core::tests::a_poison_unit_inside_a_grant_is_the_only_unit_quarantined
cargo test -q -p mrmpi --lib -- --exact sched::tests::ft_poison_unit_inside_a_grant_is_the_only_unit_quarantined

echo "== grants in the BLAST driver: one prepare per grant, fewer grants than units, serial output =="
cargo test -q -p mrbio --lib -- --exact mrblast::tests::protein_grants_prepare_once_per_grant_for_several_units

echo "== staging spills: the spill counters equal the physical page writes, staging included =="
cargo test -q -p mrmpi --lib -- --exact mapreduce::tests::staging_spills_are_counted_with_the_published_kv_spills

echo "== shuffle regression: collate after a death keeps every survivor pair, each key on one rank =="
cargo test -q -p mrmpi --lib -- --exact mapreduce::tests::collate_after_a_death_keeps_every_survivor_pair

echo "== one map contract: chunk, round-robin and 1-rank master-worker isolate and quarantine poison units, staging drops partial output =="
cargo test -q -p mrmpi --lib -- --exact mapreduce::tests::static_styles_isolate_and_quarantine_like_master_worker

echo "== one map contract: a rank death during a static map is DataLost on every survivor =="
cargo test -q -p mrmpi --lib -- --exact mapreduce::tests::death_during_a_static_map_is_data_lost_on_every_survivor

echo "== SOM epoch guard: a death entering the epoch reduce is DataLost on every survivor =="
cargo test -q -p mrbio --lib -- --exact mrsom::tests::mid_epoch_death_during_reduce_is_a_typed_error_not_a_hang

echo "== crash-consistency smoke: BLAST kill-and-restart, bit-for-bit output =="
cargo test -q --test crash_restart blast_crash_restart_bit_for_bit

echo "== crash-consistency smoke: SOM resumes past a corrupt newest checkpoint =="
cargo test -q --test crash_restart som_resume_with_corrupt_newest_checkpoint_falls_back

echo "== straggler smoke: speculation hides a stalled worker, bit-for-bit BLAST =="
cargo test -q --test stragglers speculation_hides_a_straggler_and_output_stays_bit_for_bit

echo "== straggler smoke: a recovered SOM straggler commits, its backup is discarded =="
cargo test -q --test stragglers som_straggler_that_recovers_wins_and_the_backup_is_discarded

echo "== failover smoke: rank 0 (master) killed mid-map, bit-for-bit BLAST =="
cargo test -q --test chaos_soak failover_smoke_master_kill_mid_map_bit_for_bit

echo "== chaos-soak smoke: master kill + worker kill + stall + poison + checkpoint disk faults in one run =="
cargo test -q --test chaos_soak chaos_campaign_composes_every_injection_in_one_run

echo "== golden-trace: same-seed runs share digest, fault-free trace is quiet (serial) =="
cargo test -q --test golden_trace -- --test-threads=1

echo "== obs off is a no-op: run without a collector records nothing process-wide =="
cargo test -q --test obs_noop

echo "== obs smoke: 9-rank traced BLAST via mb-blast, trace schema-validated, FT scheduler counters =="
cargo build --release -p mrbio -p obs --bins
OBS_SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_SMOKE_DIR"' EXIT
# Deterministic pseudo-random DNA; the LCG multiplier is small enough that
# every intermediate stays exactly representable in awk's doubles.
awk 'BEGIN {
  s = 12345; bases = "ACGT";
  for (r = 0; r < 6; r++) {
    printf(">ref%d\n", r);
    for (i = 0; i < 1200; i++) {
      s = (s * 69069 + 1) % 2147483648;
      printf("%s", substr(bases, int(s / 1024) % 4 + 1, 1));
      if (i % 60 == 59) printf("\n");
    }
  }
}' > "$OBS_SMOKE_DIR/refs.fa"
# Queries = the first 120 bases of each reference, so hits are guaranteed.
awk '/^>/ { n++; printf(">q%d\n", n); getline l1; getline l2; print l1; print l2 }' \
  "$OBS_SMOKE_DIR/refs.fa" > "$OBS_SMOKE_DIR/reads.fa"
target/release/mb-formatdb --in "$OBS_SMOKE_DIR/refs.fa" --out "$OBS_SMOKE_DIR/db" \
  --name refdb --partition-bytes 1024
target/release/mb-blast --db "$OBS_SMOKE_DIR/db" --name refdb \
  --queries "$OBS_SMOKE_DIR/reads.fa" --ranks 9 --block-size 2 \
  --out "$OBS_SMOKE_DIR/hits" --trace "$OBS_SMOKE_DIR/trace.json" \
  > "$OBS_SMOKE_DIR/blast.out"
target/release/trace-lint "$OBS_SMOKE_DIR/trace.json"
# The shipped CLI runs the fault-tolerant scheduler: its journal counters are
# in the stage summary, and a fault-free run commits every dispatched unit.
dispatched="$(awk '$1 == "sched.dispatch" { print $2 }' "$OBS_SMOKE_DIR/blast.out")"
committed="$(awk '$1 == "sched.commit" { print $2 }' "$OBS_SMOKE_DIR/blast.out")"
if [ -z "$dispatched" ] || [ "$dispatched" != "$committed" ]; then
  echo "mb-blast trace: sched.dispatch='$dispatched' sched.commit='$committed'" >&2
  exit 1
fi
echo "mb-blast ran the FT scheduler: $dispatched units dispatched and committed"

echo "check.sh: all green"
