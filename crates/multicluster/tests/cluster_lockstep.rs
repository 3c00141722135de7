//! Lockstep specification of [`Cluster`]: random scripts of KOALA and
//! local allocations, grows, shrinks, releases, crashes, free-node
//! withdrawals, repairs, lookups of live, dead and never-issued handles,
//! and capture → restore round trips drive the real cluster and a
//! reference model side by side.
//!
//! The model is the straightforward ordered-map design: a `BTreeMap`
//! from allocation id to `(owner, node list)`. After every step the two
//! must agree on every returned id and error, on each allocation's node
//! list in order, on the free stack, on the crash victim list and on
//! `capture_state`. Whatever table the real cluster keeps its
//! allocations in, none of that may show through.

use std::collections::BTreeMap;

use multicluster::{
    AllocError, AllocId, AllocOwner, Cluster, ClusterSpec, ClusterState, CrashVictim, NodeId,
    NodeState,
};
use proptest::prelude::*;

const NODES: u32 = 40;

/// The reference: allocations in an ordered map, nodes in plain vectors.
#[derive(Clone)]
struct Model {
    states: Vec<NodeState>,
    free: Vec<NodeId>,
    allocs: BTreeMap<AllocId, (AllocOwner, Vec<NodeId>)>,
    next_alloc: u64,
    down: u32,
}

impl Model {
    fn new(n: u32) -> Self {
        Model {
            states: vec![NodeState::Free; n as usize],
            free: (0..n).rev().map(NodeId).collect(),
            allocs: BTreeMap::new(),
            next_alloc: 0,
            down: 0,
        }
    }

    fn idle(&self) -> u32 {
        self.free.len() as u32
    }

    fn used_by_koala(&self) -> u32 {
        self.allocs
            .values()
            .filter(|(o, _)| matches!(o, AllocOwner::Koala(_)))
            .map(|(_, n)| n.len() as u32)
            .sum()
    }

    fn allocate(&mut self, owner: AllocOwner, count: u32) -> Result<AllocId, AllocError> {
        if count == 0 {
            return Err(AllocError::ZeroRequest);
        }
        if self.idle() < count {
            return Err(AllocError::Insufficient {
                requested: count,
                available: self.idle(),
            });
        }
        let id = AllocId(self.next_alloc);
        self.next_alloc += 1;
        let mut nodes = Vec::new();
        for _ in 0..count {
            let n = self.free.pop().unwrap();
            self.states[n.0 as usize] = NodeState::Busy(id);
            nodes.push(n);
        }
        self.allocs.insert(id, (owner, nodes));
        Ok(id)
    }

    fn grow(&mut self, id: AllocId, extra: u32) -> Result<(), AllocError> {
        if extra == 0 {
            return Err(AllocError::ZeroRequest);
        }
        let available = self.idle();
        let (_, nodes) = self
            .allocs
            .get_mut(&id)
            .ok_or(AllocError::UnknownAlloc(id))?;
        if available < extra {
            return Err(AllocError::Insufficient {
                requested: extra,
                available,
            });
        }
        for _ in 0..extra {
            let n = self.free.pop().unwrap();
            self.states[n.0 as usize] = NodeState::Busy(id);
            nodes.push(n);
        }
        Ok(())
    }

    fn shrink(&mut self, id: AllocId, by: u32) -> Result<u32, AllocError> {
        if by == 0 {
            return Err(AllocError::ZeroRequest);
        }
        let (_, nodes) = self
            .allocs
            .get_mut(&id)
            .ok_or(AllocError::UnknownAlloc(id))?;
        let held = nodes.len() as u32;
        if by > held {
            return Err(AllocError::ShrinkTooLarge {
                held,
                requested: by,
            });
        }
        for _ in 0..by {
            let n = nodes.pop().unwrap();
            self.states[n.0 as usize] = NodeState::Free;
            self.free.push(n);
        }
        if nodes.is_empty() {
            self.allocs.remove(&id);
        }
        Ok(by)
    }

    fn release(&mut self, id: AllocId) -> Result<u32, AllocError> {
        let (_, nodes) = self
            .allocs
            .remove(&id)
            .ok_or(AllocError::UnknownAlloc(id))?;
        let n = nodes.len() as u32;
        for node in nodes {
            self.states[node.0 as usize] = NodeState::Free;
            self.free.push(node);
        }
        Ok(n)
    }

    fn withdraw_free(&mut self, count: u32) -> u32 {
        let take = count.min(self.idle());
        for _ in 0..take {
            let n = self.free.pop().unwrap();
            self.states[n.0 as usize] = NodeState::Down;
            self.down += 1;
        }
        take
    }

    fn crash(&mut self, count: u32) -> (u32, Vec<CrashVictim>) {
        let mut taken = 0u32;
        let mut victims: BTreeMap<AllocId, CrashVictim> = BTreeMap::new();
        for i in 0..self.states.len() {
            if taken == count {
                break;
            }
            match self.states[i] {
                NodeState::Down => {}
                NodeState::Free => {
                    let pos = self.free.iter().position(|n| n.0 as usize == i).unwrap();
                    self.free.remove(pos);
                    self.states[i] = NodeState::Down;
                    self.down += 1;
                    taken += 1;
                }
                NodeState::Busy(id) => {
                    let (owner, nodes) = self.allocs.get_mut(&id).unwrap();
                    let pos = nodes.iter().position(|n| n.0 as usize == i).unwrap();
                    nodes.remove(pos);
                    let owner = *owner;
                    let destroyed = nodes.is_empty();
                    if destroyed {
                        self.allocs.remove(&id);
                    }
                    self.states[i] = NodeState::Down;
                    self.down += 1;
                    taken += 1;
                    let v = victims.entry(id).or_insert(CrashVictim {
                        alloc: id,
                        owner,
                        lost: 0,
                        destroyed: false,
                    });
                    v.lost += 1;
                    v.destroyed = destroyed;
                }
            }
        }
        (taken, victims.into_values().collect())
    }

    fn restore(&mut self, count: u32) -> u32 {
        let mut restored = 0;
        for (i, st) in self.states.iter_mut().enumerate() {
            if restored == count {
                break;
            }
            if *st == NodeState::Down {
                *st = NodeState::Free;
                self.free.push(NodeId(i as u32));
                self.down -= 1;
                restored += 1;
            }
        }
        restored
    }

    fn capture(&self) -> ClusterState {
        ClusterState {
            states: self.states.clone(),
            free: self.free.clone(),
            allocs: self
                .allocs
                .iter()
                .map(|(&id, (owner, nodes))| (id, *owner, nodes.clone()))
                .collect(),
            next_alloc: self.next_alloc,
            down: self.down,
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Allocate `n` nodes to a KOALA (`true`) or local (`false`) owner.
    Allocate(bool, u32),
    /// The operations below address handle `k % (issued + 2)`: live,
    /// dead and never-issued ids all occur.
    Grow(u64, u32),
    Shrink(u64, u32),
    Release(u64),
    Lookup(u64),
    Crash(u32),
    Restore(u32),
    WithdrawFree(u32),
    /// Move both sides' state into freshly built ones.
    CaptureRestore,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<bool>(), 0u32..14).prop_map(|(k, n)| Op::Allocate(k, n)),
        (any::<u64>(), 0u32..9).prop_map(|(k, n)| Op::Grow(k, n)),
        (any::<u64>(), 0u32..9).prop_map(|(k, n)| Op::Shrink(k, n)),
        any::<u64>().prop_map(Op::Release),
        any::<u64>().prop_map(Op::Lookup),
        (0u32..10).prop_map(Op::Crash),
        (0u32..10).prop_map(Op::Restore),
        (0u32..10).prop_map(Op::WithdrawFree),
        Just(Op::CaptureRestore),
    ]
}

fn fresh() -> Cluster {
    Cluster::new(ClusterSpec::new("lockstep", NODES, "GbE"))
}

/// Every observable of the cluster equals the model's.
fn assert_same(c: &Cluster, m: &Model, step: usize, op: &Op) {
    let state = c.capture_state();
    assert_eq!(state, m.capture(), "capture after step {step} ({op:?})");
    assert_eq!(c.idle(), m.idle(), "idle after step {step} ({op:?})");
    assert_eq!(
        c.used_by_koala(),
        m.used_by_koala(),
        "KOALA count after step {step} ({op:?})"
    );
    assert_eq!(c.capacity(), NODES - m.down, "capacity after step {step}");
    assert_eq!(
        c.allocation_count(),
        m.allocs.len(),
        "count after step {step}"
    );
    for (&id, (owner, nodes)) in &m.allocs {
        assert_eq!(c.alloc_size(id), Some(nodes.len() as u32), "{id:?}");
        assert_eq!(c.alloc_owner(id), Some(*owner), "{id:?}");
    }
    assert_eq!(c.check_invariants(), Ok(()), "after step {step} ({op:?})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cluster and the ordered-map model agree on everything, step
    /// for step.
    #[test]
    fn cluster_matches_the_ordered_map_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut c = fresh();
        let mut m = Model::new(NODES);
        let mut owner = 0u64;
        for (step, op) in ops.iter().enumerate() {
            let handle = |k: u64, m: &Model| AllocId(k % (m.next_alloc + 2));
            match *op {
                Op::Allocate(koala, n) => {
                    owner += 1;
                    let o = if koala { AllocOwner::Koala(owner) } else { AllocOwner::Local(owner) };
                    prop_assert_eq!(c.allocate(o, n), m.allocate(o, n), "step {}", step);
                }
                Op::Grow(k, n) => {
                    let id = handle(k, &m);
                    prop_assert_eq!(c.grow(id, n), m.grow(id, n), "step {}", step);
                }
                Op::Shrink(k, n) => {
                    let id = handle(k, &m);
                    prop_assert_eq!(c.shrink(id, n), m.shrink(id, n), "step {}", step);
                }
                Op::Release(k) => {
                    let id = handle(k, &m);
                    prop_assert_eq!(c.release(id), m.release(id), "step {}", step);
                }
                Op::Lookup(k) => {
                    let id = handle(k, &m);
                    let want = m.allocs.get(&id);
                    prop_assert_eq!(c.alloc_size(id), want.map(|(_, n)| n.len() as u32));
                    prop_assert_eq!(c.alloc_owner(id), want.map(|(o, _)| *o));
                }
                Op::Crash(n) => {
                    prop_assert_eq!(c.crash(n), m.crash(n), "step {}", step);
                }
                Op::Restore(n) => {
                    prop_assert_eq!(c.restore(n), m.restore(n), "step {}", step);
                }
                Op::WithdrawFree(n) => {
                    prop_assert_eq!(c.withdraw_free(n), m.withdraw_free(n), "step {}", step);
                }
                Op::CaptureRestore => {
                    let mut r = fresh();
                    prop_assert_eq!(r.restore_state(c.capture_state()), Ok(()));
                    c = r;
                    let mut fresh_model = Model::new(NODES);
                    let s = m.capture();
                    fresh_model.states = s.states;
                    fresh_model.free = s.free;
                    fresh_model.allocs = s
                        .allocs
                        .into_iter()
                        .map(|(id, o, nodes)| (id, (o, nodes)))
                        .collect();
                    fresh_model.next_alloc = s.next_alloc;
                    fresh_model.down = s.down;
                    m = fresh_model;
                }
            }
            assert_same(&c, &m, step, op);
        }
    }
}
