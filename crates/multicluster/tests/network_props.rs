//! Property-based tests for the contended-network layer:
//!
//! * **fair-share invariants** — under any topology and flow set, the
//!   max-min allocation never oversubscribes a link, gives every active
//!   flow a positive rate, and saturates at least one bottleneck link
//!   on every flow's route;
//! * **interleaving independence** — the generation-stamped reschedule
//!   protocol makes the completion trajectory identical whether stale
//!   completion events are cancelled eagerly or left in the queue to be
//!   dropped on delivery, and bytes are conserved end to end;
//! * **seq == par bit-identity with networking on** — the full stack
//!   (scheduler + staging + reconfiguration traffic) produces
//!   byte-identical reports from the sequential and the multi-threaded
//!   cell runners under random seeds and thread counts.

use appsim::workload::{SubmittedJob, WorkloadSpec};
use appsim::{AppKind, JobSpec};
use multicluster::{ClusterId, FlowNet, FlowSchedule, NetworkTopology};
use proptest::prelude::*;
use simcore::{SimDuration, SimTime};

const N_CLUSTERS: usize = 5;

/// One of the registry's topology families, all over five clusters.
fn topology(pick: usize) -> NetworkTopology {
    let ms = SimDuration::from_millis(2);
    match pick % 4 {
        0 => NetworkTopology::flat_wan(N_CLUSTERS, 1.0, ms).unwrap(),
        1 => NetworkTopology::uniform_star(N_CLUSTERS, 1.0, ms).unwrap(),
        2 => NetworkTopology::fat_tree(N_CLUSTERS, 4, 1.0, ms).unwrap(),
        _ => NetworkTopology::das3(N_CLUSTERS).unwrap(),
    }
}

/// A cross-cluster endpoint pair: `dst` is derived so it always differs
/// from `src` (local transfers never open flows).
fn endpoints(src: usize, hop: usize) -> (ClusterId, ClusterId) {
    let s = src % N_CLUSTERS;
    let d = (s + 1 + hop % (N_CLUSTERS - 1)) % N_CLUSTERS;
    (ClusterId(s as u16), ClusterId(d as u16))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Max-min fairness, pinned as three invariants over random flow
    /// sets: (1) per-link, the rates of the flows crossing it sum to at
    /// most its capacity; (2) every active flow makes progress; (3)
    /// every flow is bottlenecked — some link on its route is saturated
    /// (otherwise the allocation would not be max-min).
    #[test]
    fn fair_shares_respect_capacity_and_saturate_bottlenecks(
        pick in 0usize..4,
        flows in prop::collection::vec((0usize..N_CLUSTERS, 0usize..4, 1u32..200), 1..24),
    ) {
        let topo = topology(pick);
        let mut net = FlowNet::new(topo);
        let mut routes: Vec<(u64, Vec<multicluster::LinkId>)> = Vec::new();
        for &(src, hop, size) in &flows {
            let (s, d) = endpoints(src, hop);
            let route = net.topology().route(s, d).to_vec();
            let (id, _) = net.open(SimTime::ZERO, s, d, f64::from(size));
            routes.push((id, route));
        }
        // (1) + (2): no link oversubscribed, every flow active.
        let caps: Vec<f64> = net.topology().links().iter().map(|l| l.bandwidth_gbps).collect();
        let mut used = vec![0.0f64; caps.len()];
        for (id, route) in &routes {
            let rate = net.rate_gbps(*id).expect("flow is open");
            prop_assert!(rate > 0.0, "flow {id} starved");
            for l in route {
                used[l.index()] += rate;
            }
        }
        for (i, (&u, &c)) in used.iter().zip(&caps).enumerate() {
            prop_assert!(u <= c * (1.0 + 1e-9) + 1e-9, "link {i} oversubscribed: {u} > {c}");
        }
        // (3): each flow crosses at least one saturated link.
        for (id, route) in &routes {
            let bottlenecked = route
                .iter()
                .any(|l| used[l.index()] >= caps[l.index()] * (1.0 - 1e-6));
            prop_assert!(bottlenecked, "flow {id} has spare capacity on every link (not max-min)");
        }
    }
}

/// A queued completion event, as the engine would hold it: the schedule
/// plus a FIFO sequence number for deterministic tie-breaking.
#[derive(Debug, Clone, Copy)]
struct Queued {
    sched: FlowSchedule,
    seq: u64,
}

/// Drives a [`FlowNet`] through `opens` with a miniature stable-FIFO
/// event loop and returns the completion trajectory `(flow, time,
/// size_gb)`. With `cancel_stale` the queue drops superseded events for
/// a flow as soon as a fresh schedule arrives (eager cancellation);
/// without it every schedule ever issued is delivered and stale
/// generations are rejected by [`FlowNet::complete`]. Both disciplines
/// must yield the identical trajectory.
fn drive(
    pick: usize,
    opens: &[(u64, usize, usize, u32)],
    cancel_stale: bool,
) -> Vec<(u64, SimTime, f64)> {
    let mut net = FlowNet::new(topology(pick));
    let mut queue: Vec<Queued> = Vec::new();
    let mut seq = 0u64;
    let push = |queue: &mut Vec<Queued>, scheds: Vec<FlowSchedule>, seq: &mut u64| {
        for sched in scheds {
            if cancel_stale {
                queue.retain(|q| q.sched.flow != sched.flow);
            }
            queue.push(Queued { sched, seq: *seq });
            *seq += 1;
        }
    };
    let mut opens: Vec<_> = opens.to_vec();
    opens.sort_by_key(|o| o.0);
    let mut opens = opens.into_iter().peekable();
    let mut done = Vec::new();
    loop {
        // Earliest pending completion, FIFO on eta ties — the same
        // discipline as the simulation engine.
        let next_ev = queue
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (a.sched.eta, a.seq)
                    .partial_cmp(&(b.sched.eta, b.seq))
                    .unwrap()
            })
            .map(|(i, q)| (i, *q));
        let next_open_at = opens.peek().map(|o| SimTime::from_secs(o.0));
        match (next_ev, next_open_at) {
            (Some((i, q)), open_at) => {
                if open_at.is_some_and(|t| t <= q.sched.eta) {
                    let (at, src, hop, size) = opens.next().unwrap();
                    let (s, d) = endpoints(src, hop);
                    let (_, scheds) = net.open(SimTime::from_secs(at), s, d, f64::from(size));
                    push(&mut queue, scheds, &mut seq);
                } else {
                    queue.remove(i);
                    if let Some((fin, scheds)) =
                        net.complete(q.sched.eta, q.sched.flow, q.sched.gen)
                    {
                        done.push((q.sched.flow, q.sched.eta, fin.size_gb));
                        push(&mut queue, scheds, &mut seq);
                    }
                }
            }
            (None, Some(_)) => {
                let (at, src, hop, size) = opens.next().unwrap();
                let (s, d) = endpoints(src, hop);
                let (_, scheds) = net.open(SimTime::from_secs(at), s, d, f64::from(size));
                push(&mut queue, scheds, &mut seq);
            }
            (None, None) => break,
        }
    }
    assert_eq!(net.active(), 0, "every flow must drain");
    done
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// The completion trajectory is a pure function of the open
    /// sequence: re-running is byte-identical, leaving stale events in
    /// the queue changes nothing (generation stamps reject them), every
    /// opened byte is delivered, and time never runs backwards.
    #[test]
    fn completion_trajectory_is_interleaving_independent(
        pick in 0usize..4,
        opens in prop::collection::vec(
            (0u64..500, 0usize..N_CLUSTERS, 0usize..4, 1u32..100),
            1..16,
        ),
    ) {
        let eager = drive(pick, &opens, true);
        let lazy = drive(pick, &opens, false);
        let again = drive(pick, &opens, true);
        prop_assert_eq!(format!("{eager:?}"), format!("{lazy:?}"),
            "stale-event delivery changed the trajectory");
        prop_assert_eq!(format!("{eager:?}"), format!("{again:?}"), "rerun diverged");
        prop_assert_eq!(eager.len(), opens.len(), "every flow completes exactly once");
        let opened: f64 = opens.iter().map(|o| f64::from(o.3)).sum();
        let delivered: f64 = eager.iter().map(|d| d.2).sum();
        prop_assert!((opened - delivered).abs() < 1e-9 * opened.max(1.0),
            "bytes not conserved: opened {opened}, delivered {delivered}");
        for w in eager.windows(2) {
            prop_assert!(w[0].1 <= w[1].1, "completions out of order: {w:?}");
        }
    }
}

fn staged_job(at_s: u64, size: u32, files: Vec<u64>) -> SubmittedJob {
    let mut spec = JobSpec::rigid(AppKind::Gadget2, size);
    spec.input_files = files;
    SubmittedJob {
        at: SimTime::from_secs(at_s),
        spec,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// Full-stack determinism with networking ON: the sequential and the
    /// multi-threaded cell runners produce byte-identical reports for
    /// random seeds, workloads and thread counts.
    #[test]
    fn seq_matches_par_bit_for_bit_with_networking_on(
        seed0 in 1u64..1_000_000,
        jobs in 8usize..25,
        threads in 2usize..5,
        topo_idx in 0usize..3,
    ) {
        let mut cfg = koala::config::ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
        cfg.workload.jobs = jobs;
        cfg.trace = Some(vec![
            staged_job(0, 4, vec![0]),
            staged_job(50, 6, vec![0, 1]),
        ]);
        cfg.network = Some(koala::config::NetworkConfig {
            topology: ["flat_wan", "das3", "fat_tree_4"][topo_idx].to_string(),
            files: vec![
                koala::config::FileSpec { size_gb: 60.0, replicas: vec![4] },
                koala::config::FileSpec { size_gb: 25.0, replicas: vec![0, 2] },
            ],
            reconfig_gb_per_proc: 0.2,
        });
        let seeds: Vec<u64> = (0..3).map(|i| seed0.wrapping_add(i * 7919)).collect();
        let seq: Vec<koala::RunReport> = koala::run(&koala::Run::seeds(&cfg, &seeds).threads(1)).unwrap();
        let par: Vec<koala::RunReport> =
            koala::run(&koala::Run::seeds(&cfg, &seeds).threads(threads)).unwrap();
        prop_assert_eq!(
            format!("{seq:?}"),
            format!("{par:?}"),
            "seq and par diverged with networking on ({} threads)",
            threads
        );
    }
}
