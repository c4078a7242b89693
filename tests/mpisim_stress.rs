//! Stress and failure-injection tests for the simulated MPI runtime: the
//! substrate everything else stands on must survive adversarial
//! interleavings and propagate failures without deadlock.

use mpisim::{CostModel, ReduceOp, World, ANY_SOURCE, ANY_TAG};

#[test]
fn many_ranks_all_to_all_pingpong() {
    // Every rank sends a tagged message to every other rank, then receives
    // from everyone with wildcard matching; repeated to shake interleavings.
    let n = 8;
    let rounds = 20;
    let results = World::new(n).run(move |comm| {
        let mut received = 0usize;
        for round in 0..rounds {
            for dst in 0..comm.size() {
                if dst != comm.rank() {
                    comm.send(dst, round as u32, vec![comm.rank() as u8, round as u8]);
                }
            }
            for _ in 0..comm.size() - 1 {
                let msg = comm.recv(ANY_SOURCE, round as u32).unwrap();
                assert_eq!(msg.data[1], round as u8);
                assert_eq!(msg.data[0] as usize, msg.status.source);
                received += 1;
            }
        }
        received
    });
    for r in results {
        assert_eq!(r, (n - 1) * rounds);
    }
}

#[test]
fn tag_selective_receive_under_interleaving() {
    // Rank 0 sends tags 0..10 out of order; rank 1 receives them in strict
    // tag order — matching must pick the right message regardless of queue
    // position.
    let results = World::new(2).run(|comm| {
        if comm.rank() == 0 {
            for tag in [5u32, 1, 9, 0, 3, 7, 2, 8, 6, 4] {
                comm.send(1, tag, vec![tag as u8]);
            }
            0
        } else {
            let mut sum = 0usize;
            for tag in 0..10u32 {
                let msg = comm.recv(0, tag).unwrap();
                assert_eq!(msg.data[0] as u32, tag);
                sum += msg.data[0] as usize;
            }
            sum
        }
    });
    assert_eq!(results[1], 45);
}

#[test]
fn non_overtaking_order_preserved_per_pair_under_load() {
    let results = World::new(2).run(|comm| {
        const N: u32 = 500;
        if comm.rank() == 0 {
            for i in 0..N {
                comm.send(1, 7, i.to_le_bytes().to_vec());
            }
            0
        } else {
            for expect in 0..N {
                let msg = comm.recv(0, 7).unwrap();
                let got = u32::from_le_bytes(msg.data[..4].try_into().unwrap());
                assert_eq!(got, expect, "messages reordered");
            }
            1
        }
    });
    assert_eq!(results, vec![0, 1]);
}

#[test]
fn repeated_collectives_with_varying_payloads() {
    let results = World::new(6).run(|comm| {
        let mut checks = 0usize;
        for round in 1..30usize {
            // Payload size varies per round; contents vary per rank.
            let mine = vec![comm.rank() as f64; round];
            let mut out = vec![0.0; round];
            comm.allreduce_f64(&mine, &mut out, ReduceOp::Sum);
            let expect = (0..comm.size()).sum::<usize>() as f64;
            assert!(out.iter().all(|&x| (x - expect).abs() < 1e-12));
            comm.barrier();
            let mut buf = if comm.rank() == round % comm.size() {
                vec![round as u8; round]
            } else {
                Vec::new()
            };
            comm.bcast(round % comm.size(), &mut buf);
            assert_eq!(buf, vec![round as u8; round]);
            checks += 1;
        }
        checks
    });
    assert!(results.iter().all(|&c| c == 29));
}

#[test]
fn mixed_p2p_and_collectives_do_not_interfere() {
    // P2p traffic in flight across a barrier: MPI allows this (barrier only
    // synchronizes control flow, not the message queues).
    let results = World::new(4).run(|comm| {
        let next = (comm.rank() + 1) % comm.size();
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        comm.send(next, 42, vec![comm.rank() as u8]);
        comm.barrier();
        let msg = comm.recv(prev, 42).unwrap();
        msg.data[0] as usize
    });
    assert_eq!(results, vec![3, 0, 1, 2]);
}

#[test]
fn panic_during_collective_released_without_deadlock() {
    // Rank 2 dies before joining the barrier: the other ranks must be woken
    // and the original panic propagated — not a hang.
    let result = std::panic::catch_unwind(|| {
        World::new(4).run(|comm| {
            if comm.rank() == 2 {
                panic!("rank 2 dies before the barrier");
            }
            comm.barrier();
        })
    });
    assert!(result.is_err());
}

#[test]
fn panic_during_reduce_released_without_deadlock() {
    let result = std::panic::catch_unwind(|| {
        World::new(3).run(|comm| {
            if comm.rank() == 0 {
                panic!("root dies");
            }
            let mut out = [0.0];
            comm.allreduce_f64(&[1.0], &mut out, ReduceOp::Sum);
        })
    });
    assert!(result.is_err());
}

#[test]
fn try_recv_and_probe_are_consistent() {
    let results = World::new(2).run(|comm| {
        if comm.rank() == 0 {
            comm.send(1, 3, vec![9]);
            comm.barrier();
            0
        } else {
            comm.barrier(); // ensure the message arrived
            let st = comm.probe(ANY_SOURCE, ANY_TAG).expect("message queued");
            assert_eq!(st.source, 0);
            assert_eq!(st.tag, 3);
            assert_eq!(st.len, 1);
            let msg = comm.try_recv(0, 3).expect("probe said it is there");
            assert_eq!(msg.data, vec![9]);
            assert!(comm.try_recv(ANY_SOURCE, ANY_TAG).is_err(), "queue now empty");
            1
        }
    });
    assert_eq!(results, vec![0, 1]);
}

#[test]
fn virtual_clocks_consistent_under_load_imbalance() {
    // Heavily skewed charges + cost model: after a barrier everyone agrees
    // on a clock ≥ the slowest rank's compute.
    let results = World::new(5)
        .with_cost(CostModel { alpha: 1e-3, beta: 1e-9 })
        .run(|comm| {
            comm.charge(if comm.rank() == 3 { 10.0 } else { 0.1 });
            comm.barrier();
            comm.now()
        });
    for &t in &results {
        assert!(t >= 10.0, "clock {t} below the slowest rank");
        assert!((t - results[0]).abs() < 1e-12, "clocks must agree after barrier");
    }
}

#[test]
fn gather_and_alltoallv_stress_sizes() {
    let results = World::new(4).run(|comm| {
        let mut ok = true;
        for round in 0..10usize {
            // Ragged alltoallv: rank r sends (r + dst + round) bytes to dst.
            let sends: Vec<Vec<u8>> = (0..comm.size())
                .map(|dst| vec![comm.rank() as u8; comm.rank() + dst + round])
                .collect();
            let recvd = comm.alltoallv(sends);
            for (src, buf) in recvd.iter().enumerate() {
                ok &= buf.len() == src + comm.rank() + round;
                ok &= buf.iter().all(|&b| b == src as u8);
            }
        }
        ok
    });
    assert!(results.iter().all(|&ok| ok));
}
