//! A cluster of space-shared nodes with growable/shrinkable allocations.
//!
//! DAS-3 clusters run SGE configured for exclusive, space-shared node
//! allocation ("the granularity of allocation is the node", Section
//! VI-B). A malleable job's holding is a *collection* of such nodes that
//! the MRunner extends and trims one GRAM job at a time, so the central
//! abstraction here is an allocation that can [`grow`](Cluster::grow) and
//! [`shrink`](Cluster::shrink) in place.
//!
//! Node identity is tracked explicitly (not just counters) so that the
//! availability experiments can withdraw specific nodes and so invariants
//! ("a node belongs to at most one allocation") are checkable.
//!
//! Every background job and every KOALA claim creates and frees an
//! allocation, so the bookkeeping is built to allocate nothing in steady
//! state: live allocations sit in a table hashed by their (monotone,
//! never reused) id with [`simcore::IdHasher`], and the node list of a
//! released allocation is kept, emptied, for the next allocation to
//! fill. The table's order is never observable — captures, invariant
//! reports, restores and crash victims all run in id order.

use simcore::IdHashMap;

use crate::ids::{AllocId, NodeId};

/// Static description of a cluster (Table I row).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClusterSpec {
    /// Human-readable site name.
    pub name: String,
    /// Number of compute nodes.
    pub nodes: u32,
    /// Interconnect label (informational; timing effects are captured by
    /// the application speedup models).
    pub interconnect: String,
    /// Relative compute speed of this cluster's nodes (1.0 = the
    /// reference Delft nodes that calibrate Fig. 6). Execution times
    /// divide by this factor. The paper stresses that "applications are
    /// not supposed to scale the same in all of the clusters, which may
    /// be heterogeneous" — this is the knob that makes them differ.
    pub speed_factor: f64,
}

impl ClusterSpec {
    /// A homogeneous-speed spec (factor 1.0).
    pub fn new(name: impl Into<String>, nodes: u32, interconnect: impl Into<String>) -> Self {
        ClusterSpec {
            name: name.into(),
            nodes,
            interconnect: interconnect.into(),
            speed_factor: 1.0,
        }
    }
}

/// Who owns an allocation — a KOALA-managed job or a local (background)
/// user bypassing the multicluster scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AllocOwner {
    /// A job managed by the multicluster scheduler; the payload is the
    /// scheduler's job identifier.
    Koala(u64),
    /// A local user's job submitted directly to the LRM; the payload is
    /// the LRM-local job identifier.
    Local(u64),
}

/// State of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Idle and allocatable.
    Free,
    /// Held by the given allocation.
    Busy(AllocId),
    /// Withdrawn from the resource pool (maintenance / failure).
    Down,
}

/// Errors from allocation operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Fewer free nodes than requested.
    Insufficient {
        /// Number of nodes requested.
        requested: u32,
        /// Number of nodes currently free.
        available: u32,
    },
    /// The allocation handle is unknown (already released?).
    UnknownAlloc(AllocId),
    /// A shrink asked for more nodes than the allocation holds.
    ShrinkTooLarge {
        /// Nodes the allocation currently holds.
        held: u32,
        /// Nodes the shrink tried to remove.
        requested: u32,
    },
    /// A request for zero nodes (always a caller bug).
    ZeroRequest,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::Insufficient {
                requested,
                available,
            } => {
                write!(f, "requested {requested} nodes but only {available} free")
            }
            AllocError::UnknownAlloc(id) => write!(f, "unknown allocation {id:?}"),
            AllocError::ShrinkTooLarge { held, requested } => {
                write!(f, "cannot shrink by {requested}: allocation holds {held}")
            }
            AllocError::ZeroRequest => write!(f, "zero-node request"),
        }
    }
}

impl std::error::Error for AllocError {}

#[derive(Debug, Clone)]
struct Allocation {
    owner: AllocOwner,
    nodes: Vec<NodeId>,
}

impl Allocation {
    fn is_koala(&self) -> bool {
        matches!(self.owner, AllocOwner::Koala(_))
    }
}

/// One allocation's losses in a [`Cluster::crash`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashVictim {
    /// The allocation that lost nodes.
    pub alloc: AllocId,
    /// Who owned it (so the scheduler can re-queue KOALA jobs and drop
    /// background jobs).
    pub owner: AllocOwner,
    /// How many of its nodes went down.
    pub lost: u32,
    /// True when the crash removed the allocation's last node; the
    /// handle is gone and must not be released again.
    pub destroyed: bool,
}

/// A full capture of a [`Cluster`]'s dynamic state, for checkpointing.
///
/// Ordering matters throughout: the free list is a *stack* (its order
/// decides which node ids the next allocation receives) and each
/// allocation's node list is append-ordered (shrinks pop from the back),
/// so a faithful restore reinstates both sequences verbatim — a restored
/// cluster then hands out exactly the node ids the captured one would
/// have. The static [`ClusterSpec`] is not part of the state; restore
/// targets a cluster freshly built from the same spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterState {
    /// Per-node state, indexed by node id.
    pub states: Vec<NodeState>,
    /// The free stack, bottom-to-top.
    pub free: Vec<NodeId>,
    /// Live allocations in id order: `(id, owner, nodes)` with the node
    /// list in append order.
    pub allocs: Vec<(AllocId, AllocOwner, Vec<NodeId>)>,
    /// The id the next allocation will receive.
    pub next_alloc: u64,
    /// Number of withdrawn/crashed nodes.
    pub down: u32,
}

/// A cluster: nodes, free list, and live allocations.
///
/// Allocation ids count up from zero and are never reused; node ids are
/// handed out from the free stack, so which nodes an allocation receives
/// depends only on the sequence of operations. Lookups by id are O(1);
/// the operations that walk every allocation (capture, restore, the
/// invariant check, a crash's victim list) visit them in id order.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
    states: Vec<NodeState>,
    /// Free nodes kept as a stack; lowest ids allocated first for
    /// determinism.
    free: Vec<NodeId>,
    /// Live allocations. Hash order is arbitrary: nothing observable
    /// iterates this table without sorting the ids first.
    allocs: IdHashMap<AllocId, Allocation>,
    /// Node lists of dead allocations, emptied but keeping their
    /// capacity, reused last-in first-out by [`Cluster::allocate`]. Each
    /// one was a live allocation's list, so live allocations plus spares
    /// never exceed the peak live count, and each list's capacity never
    /// exceeds the node count (lists only grow by exact reservations).
    spare: Vec<Vec<NodeId>>,
    next_alloc: u64,
    down: u32,
    /// Nodes held by KOALA-owned allocations — derived state kept by
    /// every operation that moves a node into or out of an allocation,
    /// so the occupancy queries the scheduler makes on every event are
    /// O(1). Recomputed on [`Cluster::restore_state`] and recounted by
    /// [`Cluster::check_invariants`]; never captured.
    koala: u32,
}

impl Cluster {
    /// Builds an all-free cluster from a spec.
    pub fn new(spec: ClusterSpec) -> Self {
        let n = spec.nodes;
        Cluster {
            spec,
            states: vec![NodeState::Free; n as usize],
            // Reverse order so pops hand out the lowest node id first.
            free: (0..n).rev().map(NodeId).collect(),
            allocs: IdHashMap::default(),
            spare: Vec::new(),
            next_alloc: 0,
            down: 0,
            koala: 0,
        }
    }

    /// The static spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Nodes currently part of the pool (total minus withdrawn).
    pub fn capacity(&self) -> u32 {
        self.spec.nodes - self.down
    }

    /// Free (allocatable) nodes.
    pub fn idle(&self) -> u32 {
        self.free.len() as u32
    }

    /// Nodes currently held by allocations.
    pub fn used(&self) -> u32 {
        self.capacity() - self.idle()
    }

    /// Nodes held by KOALA-owned allocations only (O(1)).
    pub fn used_by_koala(&self) -> u32 {
        self.koala
    }

    /// Nodes held by local (background) allocations only (O(1)).
    pub fn used_by_local(&self) -> u32 {
        self.used() - self.koala
    }

    /// Recounts KOALA-held nodes from the allocation table — the slow
    /// reference the incremental counter is checked against.
    fn count_koala(&self) -> u32 {
        self.allocs
            .values()
            .filter(|a| a.is_koala())
            .map(|a| a.nodes.len() as u32)
            .sum()
    }

    /// Number of live allocations.
    pub fn allocation_count(&self) -> usize {
        self.allocs.len()
    }

    /// Size of a live allocation.
    pub fn alloc_size(&self, id: AllocId) -> Option<u32> {
        self.allocs.get(&id).map(|a| a.nodes.len() as u32)
    }

    /// Owner of a live allocation.
    pub fn alloc_owner(&self, id: AllocId) -> Option<AllocOwner> {
        self.allocs.get(&id).map(|a| a.owner)
    }

    /// Allocates `count` nodes to `owner`.
    pub fn allocate(&mut self, owner: AllocOwner, count: u32) -> Result<AllocId, AllocError> {
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
        let mut nodes = self.spare.pop().unwrap_or_default();
        nodes.reserve_exact(count as usize);
        for _ in 0..count {
            let n = self.free.pop().expect("checked idle() above");
            self.states[n.0 as usize] = NodeState::Busy(id);
            nodes.push(n);
        }
        let alloc = Allocation { owner, nodes };
        if alloc.is_koala() {
            self.koala += count;
        }
        self.allocs.insert(id, alloc);
        Ok(id)
    }

    /// Extends a live allocation by `extra` nodes.
    pub fn grow(&mut self, id: AllocId, extra: u32) -> Result<(), AllocError> {
        if extra == 0 {
            return Err(AllocError::ZeroRequest);
        }
        let available = self.idle();
        let alloc = self
            .allocs
            .get_mut(&id)
            .ok_or(AllocError::UnknownAlloc(id))?;
        if available < extra {
            return Err(AllocError::Insufficient {
                requested: extra,
                available,
            });
        }
        alloc.nodes.reserve_exact(extra as usize);
        for _ in 0..extra {
            let n = self.free.pop().expect("checked idle() above");
            self.states[n.0 as usize] = NodeState::Busy(id);
            alloc.nodes.push(n);
        }
        if alloc.is_koala() {
            self.koala += extra;
        }
        Ok(())
    }

    /// Trims `by` nodes off a live allocation (most recently added nodes
    /// are released first, matching the MRunner releasing its newest GRAM
    /// jobs). Returns the number of nodes actually freed (always `by`).
    pub fn shrink(&mut self, id: AllocId, by: u32) -> Result<u32, AllocError> {
        if by == 0 {
            return Err(AllocError::ZeroRequest);
        }
        let alloc = self
            .allocs
            .get_mut(&id)
            .ok_or(AllocError::UnknownAlloc(id))?;
        let held = alloc.nodes.len() as u32;
        if by > held {
            return Err(AllocError::ShrinkTooLarge {
                held,
                requested: by,
            });
        }
        for _ in 0..by {
            let n = alloc.nodes.pop().expect("checked held above");
            self.states[n.0 as usize] = NodeState::Free;
            self.free.push(n);
        }
        if alloc.is_koala() {
            self.koala -= by;
        }
        if alloc.nodes.is_empty() {
            let alloc = self.allocs.remove(&id).expect("found above");
            self.recycle(alloc.nodes);
        }
        Ok(by)
    }

    /// Releases an allocation entirely; returns the number of nodes freed.
    pub fn release(&mut self, id: AllocId) -> Result<u32, AllocError> {
        let alloc = self
            .allocs
            .remove(&id)
            .ok_or(AllocError::UnknownAlloc(id))?;
        let n = alloc.nodes.len() as u32;
        if alloc.is_koala() {
            self.koala -= n;
        }
        for &node in &alloc.nodes {
            self.states[node.0 as usize] = NodeState::Free;
            self.free.push(node);
        }
        self.recycle(alloc.nodes);
        Ok(n)
    }

    /// Keeps a dead allocation's node list for the next allocation.
    fn recycle(&mut self, mut nodes: Vec<NodeId>) {
        nodes.clear();
        self.spare.push(nodes);
    }

    /// Withdraws up to `count` *free* nodes from the pool (maintenance /
    /// failure model); busy nodes are untouched. Returns how many were
    /// actually withdrawn.
    pub fn withdraw_free(&mut self, count: u32) -> u32 {
        let take = count.min(self.idle());
        for _ in 0..take {
            let n = self.free.pop().expect("bounded by idle()");
            self.states[n.0 as usize] = NodeState::Down;
            self.down += 1;
        }
        take
    }

    /// Crashes up to `count` nodes outright — busy nodes included, unlike
    /// the polite [`Cluster::withdraw_free`]. Nodes fail in ascending
    /// node-id order among those not already down, so a crash
    /// deterministically hits the oldest allocations first (low ids are
    /// handed out first). Returns how many nodes actually went down plus
    /// one [`CrashVictim`] per allocation that lost nodes, in allocation
    /// id order; crashed nodes rejoin the pool via [`Cluster::restore`].
    pub fn crash(&mut self, count: u32) -> (u32, Vec<CrashVictim>) {
        let mut taken = 0u32;
        let mut victims: Vec<CrashVictim> = Vec::new();
        for i in 0..self.states.len() {
            if taken == count {
                break;
            }
            match self.states[i] {
                NodeState::Down => {}
                NodeState::Free => {
                    let pos = self
                        .free
                        .iter()
                        .position(|n| n.0 as usize == i)
                        .expect("Free state implies free-list membership");
                    self.free.remove(pos);
                    self.states[i] = NodeState::Down;
                    self.down += 1;
                    taken += 1;
                }
                NodeState::Busy(id) => {
                    let alloc = self
                        .allocs
                        .get_mut(&id)
                        .expect("Busy state implies a live allocation");
                    let pos = alloc
                        .nodes
                        .iter()
                        .position(|n| n.0 as usize == i)
                        .expect("Busy state implies membership in its allocation");
                    alloc.nodes.remove(pos);
                    if alloc.is_koala() {
                        self.koala -= 1;
                    }
                    let owner = alloc.owner;
                    let destroyed = alloc.nodes.is_empty();
                    if destroyed {
                        let alloc = self.allocs.remove(&id).expect("found above");
                        self.recycle(alloc.nodes);
                    }
                    self.states[i] = NodeState::Down;
                    self.down += 1;
                    taken += 1;
                    let v = match victims.iter().position(|v| v.alloc == id) {
                        Some(k) => &mut victims[k],
                        None => {
                            victims.push(CrashVictim {
                                alloc: id,
                                owner,
                                lost: 0,
                                destroyed: false,
                            });
                            victims.last_mut().expect("just pushed")
                        }
                    };
                    v.lost += 1;
                    v.destroyed = destroyed;
                }
            }
        }
        victims.sort_unstable_by_key(|v| v.alloc);
        (taken, victims)
    }

    /// Returns withdrawn nodes to the pool. Returns how many came back.
    pub fn restore(&mut self, count: u32) -> u32 {
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

    /// Captures the cluster's dynamic state (see [`ClusterState`] for
    /// the ordering guarantees). The cluster is untouched.
    pub fn capture_state(&self) -> ClusterState {
        let mut allocs: Vec<(AllocId, AllocOwner, Vec<NodeId>)> = self
            .allocs
            .iter()
            .map(|(&id, a)| (id, a.owner, a.nodes.clone()))
            .collect();
        allocs.sort_unstable_by_key(|&(id, _, _)| id);
        ClusterState {
            states: self.states.clone(),
            free: self.free.clone(),
            allocs,
            next_alloc: self.next_alloc,
            down: self.down,
        }
    }

    /// Overwrites this cluster's dynamic state with a captured one and
    /// re-checks every structural invariant. The cluster must have been
    /// built from the same spec the capture came from; a mismatched or
    /// corrupt state is reported as `Err` with the violated invariant
    /// (the cluster is then in the restored-but-invalid state and must
    /// be discarded).
    pub fn restore_state(&mut self, state: ClusterState) -> Result<(), String> {
        if state.states.len() != self.spec.nodes as usize {
            return Err(format!(
                "state covers {} nodes but the spec has {}",
                state.states.len(),
                self.spec.nodes
            ));
        }
        let in_range = |n: &NodeId| (n.0 as usize) < state.states.len();
        if let Some(n) = state.free.iter().find(|n| !in_range(n)) {
            return Err(format!("free-list {n:?} outside the node range"));
        }
        if let Some(n) = state
            .allocs
            .iter()
            .flat_map(|(_, _, nodes)| nodes.iter())
            .find(|n| !in_range(n))
        {
            return Err(format!("allocated {n:?} outside the node range"));
        }
        self.states = state.states;
        self.free = state.free;
        // Rebuilt in the capture's (id) order; buffers recycled before
        // the restore belong to another history and are dropped.
        self.allocs = state
            .allocs
            .into_iter()
            .map(|(id, owner, nodes)| (id, Allocation { owner, nodes }))
            .collect();
        self.spare = Vec::new();
        self.next_alloc = state.next_alloc;
        self.down = state.down;
        self.koala = self.count_koala();
        if self.allocs.keys().any(|id| id.0 >= self.next_alloc) {
            return Err("live allocation id at or past next_alloc".into());
        }
        self.check_invariants()
    }

    /// Internal consistency check: every node appears in exactly one of
    /// {free list, some allocation, down}; the down and KOALA-held
    /// counters agree with a recount. Allocations are checked in id
    /// order, so the first violation reported does not depend on the
    /// table's layout. O(nodes + allocations · log allocations). Used by
    /// tests, debug assertions in the scheduler and once per run at
    /// report time.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = vec![0u8; self.spec.nodes as usize];
        for n in &self.free {
            seen[n.0 as usize] += 1;
            if self.states[n.0 as usize] != NodeState::Free {
                return Err(format!(
                    "{n:?} in free list but state {:?}",
                    self.states[n.0 as usize]
                ));
            }
        }
        let mut ids: Vec<AllocId> = self.allocs.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let a = &self.allocs[&id];
            if a.nodes.is_empty() {
                return Err(format!("{id:?} is empty but still registered"));
            }
            for n in &a.nodes {
                seen[n.0 as usize] += 1;
                if self.states[n.0 as usize] != NodeState::Busy(id) {
                    return Err(format!(
                        "{n:?} in {id:?} but state {:?}",
                        self.states[n.0 as usize]
                    ));
                }
            }
        }
        let mut down = 0;
        for (i, st) in self.states.iter().enumerate() {
            if st == &NodeState::Down {
                down += 1;
                seen[i] += 1;
            }
        }
        if down != self.down {
            return Err(format!("down counter {} != {}", self.down, down));
        }
        let koala = self.count_koala();
        if koala != self.koala {
            return Err(format!("KOALA-held counter {} != {koala}", self.koala));
        }
        if let Some(i) = seen.iter().position(|&c| c != 1) {
            return Err(format!("node n{i} appears {} times", seen[i]));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: u32) -> Cluster {
        Cluster::new(ClusterSpec::new("test", n, "GbE"))
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut c = cluster(10);
        let a = c.allocate(AllocOwner::Koala(1), 4).unwrap();
        assert_eq!(c.idle(), 6);
        assert_eq!(c.used(), 4);
        assert_eq!(c.alloc_size(a), Some(4));
        assert_eq!(c.release(a).unwrap(), 4);
        assert_eq!(c.idle(), 10);
        c.check_invariants().unwrap();
    }

    #[test]
    fn over_allocation_is_rejected() {
        let mut c = cluster(4);
        c.allocate(AllocOwner::Koala(1), 3).unwrap();
        let err = c.allocate(AllocOwner::Koala(2), 2).unwrap_err();
        assert_eq!(
            err,
            AllocError::Insufficient {
                requested: 2,
                available: 1
            }
        );
        c.check_invariants().unwrap();
    }

    #[test]
    fn zero_requests_are_bugs() {
        let mut c = cluster(4);
        assert_eq!(
            c.allocate(AllocOwner::Koala(1), 0),
            Err(AllocError::ZeroRequest)
        );
        let a = c.allocate(AllocOwner::Koala(1), 1).unwrap();
        assert_eq!(c.grow(a, 0), Err(AllocError::ZeroRequest));
        assert_eq!(c.shrink(a, 0), Err(AllocError::ZeroRequest));
    }

    #[test]
    fn grow_extends_in_place() {
        let mut c = cluster(10);
        let a = c.allocate(AllocOwner::Koala(7), 2).unwrap();
        c.grow(a, 5).unwrap();
        assert_eq!(c.alloc_size(a), Some(7));
        assert_eq!(c.idle(), 3);
        assert_eq!(
            c.grow(a, 4),
            Err(AllocError::Insufficient {
                requested: 4,
                available: 3
            })
        );
        c.check_invariants().unwrap();
    }

    #[test]
    fn shrink_trims_and_auto_releases_empty() {
        let mut c = cluster(10);
        let a = c.allocate(AllocOwner::Koala(7), 6).unwrap();
        assert_eq!(c.shrink(a, 2).unwrap(), 2);
        assert_eq!(c.alloc_size(a), Some(4));
        assert_eq!(
            c.shrink(a, 9),
            Err(AllocError::ShrinkTooLarge {
                held: 4,
                requested: 9
            })
        );
        assert_eq!(c.shrink(a, 4).unwrap(), 4);
        assert_eq!(c.alloc_size(a), None, "empty allocation disappears");
        assert_eq!(c.idle(), 10);
        c.check_invariants().unwrap();
    }

    #[test]
    fn owner_accounting_separates_koala_and_local() {
        let mut c = cluster(20);
        c.allocate(AllocOwner::Koala(1), 5).unwrap();
        c.allocate(AllocOwner::Local(9), 3).unwrap();
        assert_eq!(c.used_by_koala(), 5);
        assert_eq!(c.used_by_local(), 3);
        assert_eq!(c.used(), 8);
    }

    #[test]
    fn withdraw_and_restore() {
        let mut c = cluster(10);
        c.allocate(AllocOwner::Koala(1), 6).unwrap();
        assert_eq!(c.withdraw_free(8), 4, "only free nodes can be withdrawn");
        assert_eq!(c.capacity(), 6);
        assert_eq!(c.idle(), 0);
        assert_eq!(c.restore(2), 2);
        assert_eq!(c.capacity(), 8);
        assert_eq!(c.idle(), 2);
        c.check_invariants().unwrap();
    }

    #[test]
    fn crash_takes_busy_nodes_and_reports_victims() {
        let mut c = cluster(10);
        let a = c.allocate(AllocOwner::Koala(1), 3).unwrap(); // nodes 0,1,2
        let b = c.allocate(AllocOwner::Local(9), 2).unwrap(); // nodes 3,4
        let (taken, mut victims) = c.crash(4); // nodes 0..=3 go down
        assert_eq!(taken, 4);
        victims.sort_by_key(|v| v.alloc);
        assert_eq!(
            victims,
            vec![
                CrashVictim {
                    alloc: a,
                    owner: AllocOwner::Koala(1),
                    lost: 3,
                    destroyed: true,
                },
                CrashVictim {
                    alloc: b,
                    owner: AllocOwner::Local(9),
                    lost: 1,
                    destroyed: false,
                },
            ]
        );
        assert_eq!(c.capacity(), 6);
        assert_eq!(c.alloc_size(a), None, "fully crashed allocation is gone");
        assert_eq!(c.alloc_size(b), Some(1));
        c.check_invariants().unwrap();
        // Crashed nodes come back through the same repair path as
        // withdrawn ones.
        assert_eq!(c.restore(4), 4);
        assert_eq!(c.capacity(), 10);
        c.check_invariants().unwrap();
    }

    #[test]
    fn crash_saturates_at_pool_size_and_skips_down_nodes() {
        let mut c = cluster(5);
        c.withdraw_free(2); // nodes 0,1 down (free stack pops lowest first)
        let (taken, victims) = c.crash(10);
        assert_eq!(taken, 3, "only nodes still up can crash");
        assert!(victims.is_empty(), "no allocations were harmed");
        assert_eq!(c.capacity(), 0);
        assert_eq!(c.idle(), 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn released_handle_is_gone() {
        let mut c = cluster(4);
        let a = c.allocate(AllocOwner::Koala(1), 2).unwrap();
        c.release(a).unwrap();
        assert_eq!(c.release(a), Err(AllocError::UnknownAlloc(a)));
        assert_eq!(c.grow(a, 1), Err(AllocError::UnknownAlloc(a)));
    }

    #[test]
    fn capture_restore_preserves_handout_order() {
        let mut c = cluster(12);
        let a = c.allocate(AllocOwner::Koala(1), 3).unwrap();
        let b = c.allocate(AllocOwner::Local(9), 2).unwrap();
        c.shrink(a, 1).unwrap();
        c.release(b).unwrap();
        c.withdraw_free(2);
        let state = c.capture_state();
        let mut r = cluster(12);
        r.restore_state(state.clone()).unwrap();
        assert_eq!(r.capture_state(), state, "restore is a fixed point");
        // The restored cluster hands out exactly the same node ids and
        // allocation handles the original would.
        let na = c.allocate(AllocOwner::Koala(2), 4).unwrap();
        let nb = r.allocate(AllocOwner::Koala(2), 4).unwrap();
        assert_eq!(na, nb);
        assert_eq!(c.capture_state(), r.capture_state());
        r.check_invariants().unwrap();
    }

    #[test]
    fn restore_rejects_mismatched_and_corrupt_state() {
        let c = cluster(8);
        let mut wrong_size = cluster(10);
        assert!(wrong_size.restore_state(c.capture_state()).is_err());
        let mut corrupt = c.capture_state();
        corrupt.free.push(NodeId(0)); // node 0 now appears twice
        let mut target = cluster(8);
        assert!(target.restore_state(corrupt).is_err());
    }

    #[test]
    fn deterministic_node_handout() {
        let mut a = cluster(8);
        let mut b = cluster(8);
        let ia = a.allocate(AllocOwner::Koala(1), 3).unwrap();
        let ib = b.allocate(AllocOwner::Koala(1), 3).unwrap();
        assert_eq!(ia, ib);
        assert_eq!(a.idle(), b.idle());
    }
}
