//! Property-based tests for the incremental occupancy counters: after
//! every operation of a random sequence — KOALA and local allocations,
//! grows, shrinks, releases, crashes, repairs, withdrawals and
//! capture → restore round trips — `used_by_koala()` and
//! `used_by_local()` equal a recount of the captured allocation list,
//! every node is accounted for exactly once, and `check_invariants()`
//! holds.

use multicluster::{AllocId, AllocOwner, Cluster, ClusterSpec};
use proptest::prelude::*;

const NODES: u32 = 48;

#[derive(Debug, Clone)]
enum Op {
    /// Allocate `n` nodes to a KOALA (`true`) or local (`false`) owner.
    Allocate(bool, u32),
    Grow(usize, u32),
    Shrink(usize, u32),
    Release(usize),
    Crash(u32),
    Restore(u32),
    WithdrawFree(u32),
    /// Move the cluster's state into a freshly built one.
    CaptureRestore,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<bool>(), 1u32..16).prop_map(|(k, n)| Op::Allocate(k, n)),
        (0usize..8, 1u32..8).prop_map(|(i, n)| Op::Grow(i, n)),
        (0usize..8, 1u32..8).prop_map(|(i, n)| Op::Shrink(i, n)),
        (0usize..8).prop_map(Op::Release),
        (1u32..12).prop_map(Op::Crash),
        (1u32..12).prop_map(Op::Restore),
        (1u32..12).prop_map(Op::WithdrawFree),
        Just(Op::CaptureRestore),
    ]
}

fn fresh() -> Cluster {
    Cluster::new(ClusterSpec::new("occupancy", NODES, "GbE"))
}

/// Asserts the three occupancy properties against a recount of the
/// captured allocation list.
fn check_occupancy(c: &Cluster, step: usize, op: &Op) {
    let state = c.capture_state();
    let held = |koala: bool| -> u32 {
        state
            .allocs
            .iter()
            .filter(|(_, owner, _)| matches!(owner, AllocOwner::Koala(_)) == koala)
            .map(|(_, _, nodes)| nodes.len() as u32)
            .sum()
    };
    let (koala, local) = (held(true), held(false));
    assert_eq!(
        c.used_by_koala(),
        koala,
        "KOALA count after step {step} ({op:?})"
    );
    assert_eq!(
        c.used_by_local(),
        local,
        "local count after step {step} ({op:?})"
    );
    assert_eq!(
        c.idle() + koala + local + state.down,
        NODES,
        "node conservation after step {step} ({op:?})"
    );
    assert_eq!(c.check_invariants(), Ok(()), "after step {step} ({op:?})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The counters track every node movement, and a restore rebuilds
    /// them from the captured allocations.
    #[test]
    fn counters_match_a_recount(ops in prop::collection::vec(op_strategy(), 1..150)) {
        let mut c = fresh();
        let mut live: Vec<AllocId> = Vec::new();
        let mut next_owner = 0u64;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Allocate(koala, n) => {
                    next_owner += 1;
                    let owner = if koala {
                        AllocOwner::Koala(next_owner)
                    } else {
                        AllocOwner::Local(next_owner)
                    };
                    if let Ok(id) = c.allocate(owner, n) {
                        live.push(id);
                    }
                }
                Op::Grow(i, n) => {
                    if let Some(&id) = live.get(i) {
                        let _ = c.grow(id, n);
                    }
                }
                Op::Shrink(i, n) => {
                    if let Some(&id) = live.get(i) {
                        let _ = c.shrink(id, n);
                    }
                }
                Op::Release(i) => {
                    if i < live.len() {
                        let id = live.remove(i);
                        prop_assert!(c.release(id).is_ok());
                    }
                }
                Op::Crash(n) => {
                    c.crash(n);
                }
                Op::Restore(n) => {
                    c.restore(n);
                }
                Op::WithdrawFree(n) => {
                    c.withdraw_free(n);
                }
                Op::CaptureRestore => {
                    let mut r = fresh();
                    prop_assert!(r.restore_state(c.capture_state()).is_ok());
                    c = r;
                }
            }
            // Shrinks and crashes can empty an allocation, which then
            // disappears; forget those handles.
            live.retain(|&id| c.alloc_size(id).is_some());
            check_occupancy(&c, step, op);
        }
    }
}
