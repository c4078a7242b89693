//! With no collector attached, the obs layer must compile down to a branch
//! on a `None` — *zero* recording operations anywhere in the process. The
//! process-global [`obs::touched_count`] exists exactly for this check, so
//! this file holds a single test in its own test binary: a parallel test in
//! the same process that legitimately records would break the delta.

use mpisim::World;
use mrmpi::{FtConfig, MapReduce, Settings};

#[test]
fn obs_off_records_nothing_process_wide() {
    let before = obs::touched_count();
    World::new(3).run(|comm| {
        let mut mr = MapReduce::with_settings(comm, Settings::default());
        mr.map_tasks(9, &FtConfig::default(), &mut |t, kv| {
            comm.charge(0.05);
            kv.emit(&[(t % 4) as u8], &[t as u8]);
        })
        .expect("no faults injected");
        mr.collate().expect("fault-free shuffle");
        mr.reduce(&mut |_key, values, _out| {
            let _ = values.count();
        });
    });
    assert_eq!(
        obs::touched_count(),
        before,
        "a run without a collector must not touch a single obs counter"
    );
}
