//! Contended wide-area network: links, routes, named topologies, and
//! max-min fair sharing of concurrent transfers.
//!
//! The paper's Close-to-Files placement policy is motivated by the cost
//! of staging input files across the DAS-3 wide-area interconnect
//! (Table I: Myri-10G sites on a 10 Gb/s light path, Delft on 1 Gb/s
//! Ethernet only). A static bandwidth matrix can *rank* clusters but
//! cannot show what happens when many transfers share a link — which is
//! exactly the regime where CF placement should pay off. This module
//! supplies the missing substrate:
//!
//! * [`NetworkTopology`] — links with bandwidth + latency, and a route
//!   (a sequence of [`LinkId`]s) between every ordered cluster pair.
//!   Builders: [`NetworkTopology::flat_wan`], [`NetworkTopology::star`],
//!   [`NetworkTopology::hierarchical`], [`NetworkTopology::fat_tree`],
//!   and the [`NetworkTopology::das3`] preset wired to the Table-I
//!   interconnect labels.
//! * [`NetworkTopology::by_name`] — the closed name → builder table
//!   (fourth twin of the policy/workload/autoscaler tables), including
//!   parametric `fat_tree_<k>` names.
//! * [`FlowNet`] — the runtime: active transfers receive max-min fair
//!   shares of every link they cross, recomputed incrementally on each
//!   transfer start/finish (progressive filling, deterministic order),
//!   with event-driven completion-time re-estimation in the dslab
//!   style: every rate change bumps a per-flow generation and yields a
//!   fresh ETA; stale completion events are dropped by generation.
//!
//! Latency is modelled as a constant serial tail: a flow's completion
//! time is its drain time plus the route's summed latency, and the flow
//! occupies its links until the completion event fires. For multi-
//! hundred-second transfers over millisecond-latency links the
//! overhold is negligible, and the simplification keeps the fair-share
//! state free of per-flow timers.

use std::collections::BTreeMap;
use std::fmt;

use simcore::{SimDuration, SimTime};

use crate::ids::ClusterId;
use crate::topology::{das3 as das3_clusters, Interconnect};

/// Residual data below this threshold counts as fully drained.
const EPS_GB: f64 = 1e-9;

/// Identifier of a network link (index into the topology's link table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The link's index into [`NetworkTopology::links`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A directed-capacity network link.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Human-readable name (rendered in reports and errors).
    pub name: String,
    /// Capacity in gigabits per second, shared max-min fairly by the
    /// flows crossing the link.
    pub bandwidth_gbps: f64,
    /// One-way latency, paid once per link on a route as a serial tail.
    pub latency: SimDuration,
}

/// Errors from topology construction and registry lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// The requested topology name is not registered.
    UnknownTopology {
        /// The name that failed to resolve.
        name: String,
        /// Known names (plus the parametric `fat_tree_<k>` form).
        known: Vec<String>,
    },
    /// The topology needs more clusters than the experiment has.
    TooFewClusters {
        /// Topology name.
        topology: &'static str,
        /// Clusters supplied.
        clusters: usize,
        /// Minimum required.
        min: usize,
    },
    /// A builder parameter is out of range.
    BadParameter {
        /// Topology name.
        topology: &'static str,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::UnknownTopology { name, known } => {
                write!(f, "unknown network topology {name:?}; known: {known:?}")
            }
            NetworkError::TooFewClusters {
                topology,
                clusters,
                min,
            } => write!(
                f,
                "topology {topology:?} needs at least {min} clusters, got {clusters}"
            ),
            NetworkError::BadParameter { topology, detail } => {
                write!(f, "bad parameter for topology {topology:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// A static network shape: links plus a route between every ordered
/// pair of distinct clusters (`route(c, c)` is empty — local access is
/// free).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTopology {
    name: String,
    clusters: usize,
    links: Vec<Link>,
    /// Route table indexed `src * clusters + dst`; empty on the
    /// diagonal.
    routes: Vec<Vec<LinkId>>,
    /// Per-cluster access link: the first wide-area hop out of the
    /// site, used to charge reconfiguration/redistribution traffic.
    access: Vec<LinkId>,
}

impl NetworkTopology {
    fn check_positive(topology: &'static str, what: &str, value: f64) -> Result<(), NetworkError> {
        if !(value.is_finite() && value > 0.0) {
            return Err(NetworkError::BadParameter {
                topology,
                detail: format!("{what} must be positive and finite, got {value}"),
            });
        }
        Ok(())
    }

    /// A single shared wide-area backbone: every inter-cluster route
    /// crosses the one `wan` link, so all concurrent transfers contend.
    pub fn flat_wan(
        clusters: usize,
        wan_gbps: f64,
        latency: SimDuration,
    ) -> Result<Self, NetworkError> {
        if clusters < 2 {
            return Err(NetworkError::TooFewClusters {
                topology: "flat_wan",
                clusters,
                min: 2,
            });
        }
        Self::check_positive("flat_wan", "wan_gbps", wan_gbps)?;
        let wan = LinkId(0);
        let links = vec![Link {
            name: "wan".to_string(),
            bandwidth_gbps: wan_gbps,
            latency,
        }];
        let mut routes = vec![Vec::new(); clusters * clusters];
        for s in 0..clusters {
            for d in 0..clusters {
                if s != d {
                    routes[s * clusters + d] = vec![wan];
                }
            }
        }
        Ok(NetworkTopology {
            name: format!("flat_wan_{clusters}"),
            clusters,
            links,
            routes,
            access: vec![wan; clusters],
        })
    }

    /// A star around a non-blocking core: each cluster has its own
    /// access link; the route between two clusters crosses both access
    /// links. `access_gbps[i]` is cluster `i`'s access capacity.
    pub fn star(
        name: &str,
        access_gbps: &[f64],
        latency: SimDuration,
    ) -> Result<Self, NetworkError> {
        let clusters = access_gbps.len();
        if clusters < 2 {
            return Err(NetworkError::TooFewClusters {
                topology: "star",
                clusters,
                min: 2,
            });
        }
        let mut links = Vec::with_capacity(clusters);
        for (i, &bw) in access_gbps.iter().enumerate() {
            Self::check_positive("star", "access_gbps", bw)?;
            links.push(Link {
                name: format!("access_{i}"),
                bandwidth_gbps: bw,
                latency,
            });
        }
        let mut routes = vec![Vec::new(); clusters * clusters];
        for s in 0..clusters {
            for d in 0..clusters {
                if s != d {
                    routes[s * clusters + d] = vec![LinkId(s as u32), LinkId(d as u32)];
                }
            }
        }
        Ok(NetworkTopology {
            name: name.to_string(),
            clusters,
            links,
            routes,
            access: (0..clusters).map(|i| LinkId(i as u32)).collect(),
        })
    }

    /// A star with one uniform access capacity per cluster.
    pub fn uniform_star(
        clusters: usize,
        access_gbps: f64,
        latency: SimDuration,
    ) -> Result<Self, NetworkError> {
        Self::star(
            &format!("star_{clusters}"),
            &vec![access_gbps; clusters],
            latency,
        )
    }

    /// Two-level hierarchy: clusters are grouped into groups of
    /// `group_size` (last group may be smaller). Intra-group routes
    /// cross the two access links; inter-group routes additionally
    /// cross both groups' (typically oversubscribed) uplinks. The core
    /// is non-blocking.
    pub fn hierarchical(
        clusters: usize,
        group_size: usize,
        access_gbps: f64,
        uplink_gbps: f64,
        latency: SimDuration,
    ) -> Result<Self, NetworkError> {
        if clusters < 2 {
            return Err(NetworkError::TooFewClusters {
                topology: "hierarchical",
                clusters,
                min: 2,
            });
        }
        if group_size == 0 {
            return Err(NetworkError::BadParameter {
                topology: "hierarchical",
                detail: "group_size must be nonzero".to_string(),
            });
        }
        Self::check_positive("hierarchical", "access_gbps", access_gbps)?;
        Self::check_positive("hierarchical", "uplink_gbps", uplink_gbps)?;
        let groups = clusters.div_ceil(group_size);
        let mut links = Vec::with_capacity(clusters + groups);
        for i in 0..clusters {
            links.push(Link {
                name: format!("access_{i}"),
                bandwidth_gbps: access_gbps,
                latency,
            });
        }
        for g in 0..groups {
            links.push(Link {
                name: format!("uplink_g{g}"),
                bandwidth_gbps: uplink_gbps,
                latency,
            });
        }
        let uplink = |g: usize| LinkId((clusters + g) as u32);
        let mut routes = vec![Vec::new(); clusters * clusters];
        for s in 0..clusters {
            for d in 0..clusters {
                if s == d {
                    continue;
                }
                let (gs, gd) = (s / group_size, d / group_size);
                let mut route = vec![LinkId(s as u32)];
                if gs != gd {
                    route.push(uplink(gs));
                    route.push(uplink(gd));
                }
                route.push(LinkId(d as u32));
                routes[s * clusters + d] = route;
            }
        }
        Ok(NetworkTopology {
            name: format!("hierarchical_{clusters}x{group_size}"),
            clusters,
            links,
            routes,
            access: (0..clusters).map(|i| LinkId(i as u32)).collect(),
        })
    }

    /// A folded-Clos (fat-tree) approximation with `k` pods over a
    /// non-blocking core: cluster `i` sits in pod `i % k` behind a
    /// `link_gbps` access link; each pod aggregates `k/2` core uplinks
    /// into one link of capacity `(k/2)·link_gbps`. Intra-pod routes
    /// cross the two access links; inter-pod routes additionally cross
    /// both pods' aggregated uplinks. (Per-switch ECMP fan-out is
    /// collapsed into the aggregate uplink — the standard simulation
    /// simplification; what survives is the k-scaled oversubscription
    /// behaviour that matters for contention.)
    pub fn fat_tree(
        clusters: usize,
        k: usize,
        link_gbps: f64,
        latency: SimDuration,
    ) -> Result<Self, NetworkError> {
        if clusters < 2 {
            return Err(NetworkError::TooFewClusters {
                topology: "fat_tree",
                clusters,
                min: 2,
            });
        }
        if k < 2 || !k.is_multiple_of(2) {
            return Err(NetworkError::BadParameter {
                topology: "fat_tree",
                detail: format!("k must be an even number >= 2, got {k}"),
            });
        }
        Self::check_positive("fat_tree", "link_gbps", link_gbps)?;
        let pods = k.min(clusters);
        let mut links = Vec::with_capacity(clusters + pods);
        for i in 0..clusters {
            links.push(Link {
                name: format!("edge_{i}"),
                bandwidth_gbps: link_gbps,
                latency,
            });
        }
        for p in 0..pods {
            links.push(Link {
                name: format!("pod_{p}_uplink"),
                bandwidth_gbps: (k as f64 / 2.0) * link_gbps,
                latency,
            });
        }
        let uplink = |p: usize| LinkId((clusters + p) as u32);
        let pod = |c: usize| c % pods;
        let mut routes = vec![Vec::new(); clusters * clusters];
        for s in 0..clusters {
            for d in 0..clusters {
                if s == d {
                    continue;
                }
                let mut route = vec![LinkId(s as u32)];
                if pod(s) != pod(d) {
                    route.push(uplink(pod(s)));
                    route.push(uplink(pod(d)));
                }
                route.push(LinkId(d as u32));
                routes[s * clusters + d] = route;
            }
        }
        Ok(NetworkTopology {
            name: format!("fat_tree_{k}"),
            clusters,
            links,
            routes,
            access: (0..clusters).map(|i| LinkId(i as u32)).collect(),
        })
    }

    /// The DAS-3 preset (Table I of the paper): a star over SURFnet
    /// where the Myri-10G sites get a 10 Gb/s light-path access link
    /// and Delft (Ethernet only) gets 1 Gb/s, all at 1 ms latency.
    pub fn das3(clusters: usize) -> Result<Self, NetworkError> {
        let das = das3_clusters();
        if clusters != das.len() {
            return Err(NetworkError::BadParameter {
                topology: "das3",
                detail: format!(
                    "the das3 preset is fixed at {} clusters, got {clusters}",
                    das.len()
                ),
            });
        }
        let eth_only = Interconnect::EthernetOnly.label();
        let access: Vec<f64> = das
            .clusters()
            .map(|c| {
                if c.spec().interconnect == eth_only {
                    1.0
                } else {
                    10.0
                }
            })
            .collect();
        let mut topo = Self::star("das3", &access, SimDuration::from_millis(1))?;
        for (i, (link, cluster)) in topo.links.iter_mut().zip(das.clusters()).enumerate() {
            link.name = format!("surfnet_{i}_{}", cluster.spec().interconnect);
        }
        Ok(topo)
    }

    /// The topology's name (as rendered in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of clusters the topology spans.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// The link table.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The route from `src` to `dst`; empty when `src == dst`.
    pub fn route(&self, src: ClusterId, dst: ClusterId) -> &[LinkId] {
        &self.routes[src.index() * self.clusters + dst.index()]
    }

    /// The cluster's access link (first wide-area hop), used to charge
    /// redistribution traffic that stays "at" the site.
    pub fn access_link(&self, cluster: ClusterId) -> LinkId {
        self.access[cluster.index()]
    }

    /// Uncontended bottleneck bandwidth of the `src → dst` route in
    /// Gb/s; `f64::INFINITY` for local access.
    pub fn path_bandwidth_gbps(&self, src: ClusterId, dst: ClusterId) -> f64 {
        self.route(src, dst)
            .iter()
            .map(|l| self.links[l.index()].bandwidth_gbps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Summed one-way latency of the `src → dst` route.
    pub fn path_latency(&self, src: ClusterId, dst: ClusterId) -> SimDuration {
        self.route(src, dst)
            .iter()
            .fold(SimDuration::ZERO, |acc, l| {
                acc + self.links[l.index()].latency
            })
    }

    /// The topology names [`NetworkTopology::by_name`] resolves, sorted,
    /// with the parametric `fat_tree_<k>` form.
    pub const NAMES: [&'static str; 5] =
        ["das3", "fat_tree_<k>", "flat_wan", "hierarchical", "star"];

    /// Builds the named topology for `clusters` clusters:
    ///
    /// | name | shape |
    /// |------|-------|
    /// | `flat_wan` | one shared 1 Gb/s backbone |
    /// | `star` | per-cluster 10 Gb/s access, non-blocking core |
    /// | `hierarchical` | groups of 2; 10 Gb/s access, 5 Gb/s uplinks |
    /// | `das3` | Table-I SURFnet star (10 Gb/s Myri-10G, 1 Gb/s Delft) |
    /// | `fat_tree_<k>` | parametric k-pod fat tree (k even, ≥ 2), 10 Gb/s edges |
    pub fn by_name(name: &str, clusters: usize) -> Result<Self, NetworkError> {
        let ms1 = SimDuration::from_millis(1);
        match name {
            "das3" => Self::das3(clusters),
            "flat_wan" => Self::flat_wan(clusters, 1.0, ms1),
            "hierarchical" => Self::hierarchical(clusters, 2, 10.0, 5.0, ms1),
            "star" => Self::uniform_star(clusters, 10.0, ms1),
            _ => match name.strip_prefix("fat_tree_").map(str::parse::<usize>) {
                Some(Ok(k)) => Self::fat_tree(clusters, k, 10.0, ms1),
                _ => Err(NetworkError::UnknownTopology {
                    name: name.to_string(),
                    known: Self::NAMES.map(String::from).to_vec(),
                }),
            },
        }
    }
}

/// A rescheduled completion estimate: the flow's completion event must
/// be re-armed at `eta` with generation `gen`; any previously scheduled
/// event for the flow carries a stale generation and must be ignored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSchedule {
    /// Flow id.
    pub flow: u64,
    /// Generation the rescheduled event must carry.
    pub gen: u64,
    /// Absolute completion estimate under the current fair shares.
    pub eta: SimTime,
}

/// Returned by [`FlowNet::complete`] for a successfully closed flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDone {
    /// Bytes moved, in gigabytes.
    pub size_gb: f64,
    /// When the flow was opened.
    pub opened_at: SimTime,
}

#[derive(Debug, Clone)]
struct Flow {
    route: Vec<LinkId>,
    size_gb: f64,
    remaining_gb: f64,
    rate_gbps: f64,
    gen: u64,
    latency: SimDuration,
    opened_at: SimTime,
}

/// Working buffers of [`FlowNet::recompute`], kept between calls so a
/// recomputation allocates nothing once they have grown. Not state:
/// never captured, and their contents are meaningless between calls.
#[derive(Debug, Clone, Default)]
struct FairShareScratch {
    /// Capacity not yet handed out, per link.
    residual: Vec<f64>,
    /// Unfixed flows crossing each link.
    count: Vec<u32>,
    /// Flows whose rate is not fixed yet, in id order.
    unfixed: Vec<u64>,
    /// The next round's `unfixed`.
    still: Vec<u64>,
}

/// Runtime fair-share state over a [`NetworkTopology`]: tracks active
/// flows, assigns max-min fair rates, and re-estimates completion
/// times whenever the flow set changes.
#[derive(Debug, Clone)]
pub struct FlowNet {
    topo: NetworkTopology,
    flows: BTreeMap<u64, Flow>,
    next_flow: u64,
    /// Concurrent flows per link.
    link_load: Vec<u32>,
    /// Accumulated busy time (≥ 1 active flow) per link.
    busy_s: Vec<f64>,
    last_update: SimTime,
    scratch: FairShareScratch,
    /// A consumed reschedule list handed back through
    /// [`FlowNet::recycle`], reused by the next `open`/`complete`.
    spare_schedules: Vec<FlowSchedule>,
}

impl FlowNet {
    /// A fresh runtime over `topo` with no active flows.
    pub fn new(topo: NetworkTopology) -> Self {
        let n = topo.links().len();
        FlowNet {
            topo,
            flows: BTreeMap::new(),
            next_flow: 0,
            link_load: vec![0; n],
            busy_s: vec![0.0; n],
            last_update: SimTime::ZERO,
            scratch: FairShareScratch::default(),
            spare_schedules: Vec::new(),
        }
    }

    /// The static topology.
    pub fn topology(&self) -> &NetworkTopology {
        &self.topo
    }

    /// Number of active flows.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// The current fair rate of a flow, in Gb/s.
    pub fn rate_gbps(&self, flow: u64) -> Option<f64> {
        self.flows.get(&flow).map(|f| f.rate_gbps)
    }

    /// Advances flow progress and link busy-time to `now` under the
    /// current rates. Called internally by `open`/`complete`; callers
    /// only need it directly at finalisation time.
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            for f in self.flows.values_mut() {
                f.remaining_gb = (f.remaining_gb - f.rate_gbps * dt / 8.0).max(0.0);
            }
            for (i, &load) in self.link_load.iter().enumerate() {
                if load > 0 {
                    self.busy_s[i] += dt;
                }
            }
        }
        self.last_update = now;
    }

    /// Opens a transfer of `size_gb` along the `src → dst` route and
    /// returns its flow id plus the full set of completion reschedules
    /// (including the new flow's). Panics if `src == dst` — local
    /// access never opens a flow.
    pub fn open(
        &mut self,
        now: SimTime,
        src: ClusterId,
        dst: ClusterId,
        size_gb: f64,
    ) -> (u64, Vec<FlowSchedule>) {
        let route = self.topo.route(src, dst).to_vec();
        assert!(
            !route.is_empty(),
            "cannot open a flow from {src:?} to itself"
        );
        let latency = self.topo.path_latency(src, dst);
        self.open_on(now, route, latency, size_gb)
    }

    /// Opens a transfer on an explicit link sequence (used for
    /// redistribution traffic charged to a site's access link).
    pub fn open_on(
        &mut self,
        now: SimTime,
        route: Vec<LinkId>,
        latency: SimDuration,
        size_gb: f64,
    ) -> (u64, Vec<FlowSchedule>) {
        assert!(!route.is_empty(), "a flow must cross at least one link");
        self.advance(now);
        let id = self.next_flow;
        self.next_flow += 1;
        for l in &route {
            self.link_load[l.index()] += 1;
        }
        self.flows.insert(
            id,
            Flow {
                route,
                size_gb: size_gb.max(0.0),
                remaining_gb: size_gb.max(0.0),
                rate_gbps: 0.0,
                gen: 0,
                latency,
                opened_at: now,
            },
        );
        self.recompute();
        (id, self.reschedules(now))
    }

    /// Closes a flow on its completion event. Returns `None` when the
    /// event is stale (the flow was rescheduled since, or already
    /// closed); otherwise the flow's summary plus the reschedules for
    /// every remaining flow (their shares just grew).
    pub fn complete(
        &mut self,
        now: SimTime,
        flow: u64,
        gen: u64,
    ) -> Option<(FlowDone, Vec<FlowSchedule>)> {
        if self.flows.get(&flow).is_none_or(|f| f.gen != gen) {
            return None;
        }
        self.advance(now);
        let f = self.flows.remove(&flow).expect("flow checked above");
        for l in &f.route {
            self.link_load[l.index()] -= 1;
        }
        self.recompute();
        let done = FlowDone {
            size_gb: f.size_gb,
            opened_at: f.opened_at,
        };
        Some((done, self.reschedules(now)))
    }

    /// Max-min fair allocation by progressive filling: repeatedly find
    /// the bottleneck link (smallest residual capacity per unfixed
    /// flow; ties broken by lowest link index), fix every flow crossing
    /// it at that share, subtract, repeat. Deterministic because flows
    /// iterate in `BTreeMap` (id) order and links by index.
    fn recompute(&mut self) {
        let FairShareScratch {
            residual,
            count,
            unfixed,
            still,
        } = &mut self.scratch;
        residual.clear();
        residual.extend(self.topo.links().iter().map(|l| l.bandwidth_gbps));
        count.clear();
        count.resize(residual.len(), 0);
        for f in self.flows.values() {
            for l in &f.route {
                count[l.index()] += 1;
            }
        }
        unfixed.clear();
        unfixed.extend(self.flows.keys().copied());
        while !unfixed.is_empty() {
            let mut best: Option<(f64, usize)> = None;
            for (i, &c) in count.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let share = (residual[i] / c as f64).max(0.0);
                if best.is_none_or(|(s, _)| share < s) {
                    best = Some((share, i));
                }
            }
            let Some((share, bottleneck)) = best else {
                break;
            };
            still.clear();
            for &id in unfixed.iter() {
                let f = self.flows.get_mut(&id).expect("unfixed flow exists");
                if f.route.iter().any(|l| l.index() == bottleneck) {
                    f.rate_gbps = share;
                    for l in &f.route {
                        residual[l.index()] -= share;
                        count[l.index()] -= 1;
                    }
                } else {
                    still.push(id);
                }
            }
            std::mem::swap(unfixed, still);
        }
    }

    /// Fresh completion estimates for every flow whose ETA changed:
    /// bumps the flow generation and computes `now + drain + latency`.
    /// Flows already fully drained keep their scheduled event (their
    /// ETA is a constant latency tail that no rate change can move).
    fn reschedules(&mut self, now: SimTime) -> Vec<FlowSchedule> {
        let mut out = std::mem::take(&mut self.spare_schedules);
        out.clear();
        for (&id, f) in self.flows.iter_mut() {
            if f.remaining_gb <= EPS_GB && f.gen > 0 {
                continue;
            }
            f.gen += 1;
            let drain_s = if f.remaining_gb <= EPS_GB {
                0.0
            } else {
                debug_assert!(f.rate_gbps > 0.0, "active flow with zero rate");
                f.remaining_gb * 8.0 / f.rate_gbps
            };
            let eta = now + SimDuration::from_secs_f64(drain_s + f.latency.as_secs_f64());
            out.push(FlowSchedule {
                flow: id,
                gen: f.gen,
                eta,
            });
        }
        out
    }

    /// Hands back a reschedule list returned by [`FlowNet::open`],
    /// [`FlowNet::open_on`] or [`FlowNet::complete`] once its entries
    /// are consumed, so the next call fills it instead of allocating.
    pub fn recycle(&mut self, schedules: Vec<FlowSchedule>) {
        self.spare_schedules = schedules;
    }

    /// Total accumulated link-busy seconds (over all links), up to the
    /// last `advance`.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_s.iter().sum()
    }

    /// Number of links in the topology.
    pub fn link_count(&self) -> usize {
        self.topo.links().len()
    }

    /// Captures the runtime's dynamic state (open flows in id order,
    /// per-link busy time, clocks and counters), for checkpointing. The
    /// topology is configuration and travels separately; per-link flow
    /// counts are derivable from the flows and are rebuilt on restore.
    pub fn capture_state(&self) -> FlowNetState {
        FlowNetState {
            flows: self
                .flows
                .iter()
                .map(|(&id, f)| FlowState {
                    id,
                    route: f.route.clone(),
                    size_gb: f.size_gb,
                    remaining_gb: f.remaining_gb,
                    rate_gbps: f.rate_gbps,
                    gen: f.gen,
                    latency: f.latency,
                    opened_at: f.opened_at,
                })
                .collect(),
            next_flow: self.next_flow,
            busy_s: self.busy_s.clone(),
            last_update: self.last_update,
        }
    }

    /// Overwrites the runtime's dynamic state with a captured one; fair
    /// shares and link loads are recomputed from the restored flow set,
    /// so subsequent opens/completions continue exactly. Fails when a
    /// flow id or link index is out of range for this topology, or the
    /// busy-time vector has the wrong length.
    pub fn restore_state(&mut self, state: FlowNetState) -> Result<(), String> {
        let nl = self.topo.links().len();
        if state.busy_s.len() != nl {
            return Err(format!(
                "busy_s has {} entries, topology has {nl} links",
                state.busy_s.len()
            ));
        }
        for f in &state.flows {
            if f.id >= state.next_flow {
                return Err(format!(
                    "flow id {} not below next_flow {}",
                    f.id, state.next_flow
                ));
            }
            if f.route.is_empty() {
                return Err(format!("flow {} has an empty route", f.id));
            }
            if let Some(l) = f.route.iter().find(|l| l.index() >= nl) {
                return Err(format!("flow {} crosses unknown link {:?}", f.id, l));
            }
        }
        self.flows = state
            .flows
            .into_iter()
            .map(|f| {
                (
                    f.id,
                    Flow {
                        route: f.route,
                        size_gb: f.size_gb,
                        remaining_gb: f.remaining_gb,
                        rate_gbps: f.rate_gbps,
                        gen: f.gen,
                        latency: f.latency,
                        opened_at: f.opened_at,
                    },
                )
            })
            .collect();
        self.next_flow = state.next_flow;
        self.busy_s = state.busy_s;
        self.last_update = state.last_update;
        self.link_load = vec![0; nl];
        for f in self.flows.values() {
            for l in &f.route {
                self.link_load[l.index()] += 1;
            }
        }
        self.recompute();
        Ok(())
    }
}

/// One captured open flow (see [`FlowNetState`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowState {
    /// Flow id.
    pub id: u64,
    /// Links the flow crosses.
    pub route: Vec<LinkId>,
    /// Total transfer size in gigabytes.
    pub size_gb: f64,
    /// Gigabytes still to drain (as of `last_update`).
    pub remaining_gb: f64,
    /// Fair rate at capture time, in Gb/s.
    pub rate_gbps: f64,
    /// Completion-event generation stamp.
    pub gen: u64,
    /// Summed route latency (serial tail).
    pub latency: SimDuration,
    /// When the flow was opened.
    pub opened_at: SimTime,
}

/// A full capture of a [`FlowNet`]'s dynamic state (the topology is
/// configuration, not state; link loads are derived from the flows).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowNetState {
    /// Open flows in ascending id order.
    pub flows: Vec<FlowState>,
    /// The next flow id to hand out.
    pub next_flow: u64,
    /// Accumulated busy seconds per link.
    pub busy_s: Vec<f64>,
    /// Clock of the last progress advance.
    pub last_update: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn flat_wan_routes_all_cross_the_backbone() {
        let t = NetworkTopology::flat_wan(3, 1.0, SimDuration::ZERO).unwrap();
        assert_eq!(t.links().len(), 1);
        assert_eq!(t.route(ClusterId(0), ClusterId(2)), &[LinkId(0)]);
        assert!(t.route(ClusterId(1), ClusterId(1)).is_empty());
        assert_eq!(t.path_bandwidth_gbps(ClusterId(0), ClusterId(1)), 1.0);
    }

    #[test]
    fn star_bottleneck_is_the_slower_access_link() {
        let t = NetworkTopology::star("t", &[10.0, 1.0, 10.0], SimDuration::ZERO).unwrap();
        assert_eq!(t.path_bandwidth_gbps(ClusterId(0), ClusterId(1)), 1.0);
        assert_eq!(t.path_bandwidth_gbps(ClusterId(0), ClusterId(2)), 10.0);
    }

    #[test]
    fn fat_tree_inter_pod_routes_cross_uplinks() {
        let t = NetworkTopology::fat_tree(5, 4, 10.0, SimDuration::ZERO).unwrap();
        // Clusters 0 and 4 share pod 0 (4 % 4 == 0): no uplinks.
        assert_eq!(t.route(ClusterId(0), ClusterId(4)).len(), 2);
        // Clusters 0 and 1 are in different pods: 4 hops.
        assert_eq!(t.route(ClusterId(0), ClusterId(1)).len(), 4);
        // Pod uplink capacity is (k/2)·link = 20 Gb/s; edge is 10.
        assert_eq!(t.path_bandwidth_gbps(ClusterId(0), ClusterId(1)), 10.0);
    }

    #[test]
    fn fat_tree_rejects_odd_k() {
        assert!(matches!(
            NetworkTopology::fat_tree(4, 3, 10.0, SimDuration::ZERO),
            Err(NetworkError::BadParameter { .. })
        ));
    }

    #[test]
    fn das3_preset_matches_table_one() {
        let t = NetworkTopology::das3(5).unwrap();
        assert_eq!(t.clusters(), 5);
        // Delft (index 2) is the Ethernet-only site.
        assert_eq!(t.links()[2].bandwidth_gbps, 1.0);
        assert_eq!(t.links()[0].bandwidth_gbps, 10.0);
        assert!(t.links()[2].name.contains("1/10 GbE"));
        assert!(NetworkTopology::das3(4).is_err());
    }

    #[test]
    fn registry_resolves_builtins_and_parametric_fat_trees() {
        assert_eq!(
            NetworkTopology::by_name("flat_wan", 5)
                .unwrap()
                .links()
                .len(),
            1
        );
        assert_eq!(NetworkTopology::by_name("das3", 5).unwrap().clusters(), 5);
        let ft = NetworkTopology::by_name("fat_tree_16", 5).unwrap();
        assert_eq!(ft.name(), "fat_tree_16");
        let err = NetworkTopology::by_name("nope", 5).unwrap_err();
        match err {
            NetworkError::UnknownTopology { known, .. } => {
                assert!(known.contains(&"das3".to_string()));
                assert!(known.contains(&"fat_tree_<k>".to_string()));
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn lone_flow_gets_the_bottleneck_bandwidth() {
        let topo = NetworkTopology::star("t", &[10.0, 1.0], SimDuration::ZERO).unwrap();
        let mut net = FlowNet::new(topo);
        // 10 GB over a 1 Gb/s bottleneck: 80 s.
        let (id, scheds) = net.open(secs(0), ClusterId(0), ClusterId(1), 10.0);
        assert_eq!(net.rate_gbps(id), Some(1.0));
        assert_eq!(scheds.len(), 1);
        assert_eq!(scheds[0].eta, secs(80));
        let (done, rest) = net.complete(secs(80), id, scheds[0].gen).unwrap();
        assert_eq!(done.size_gb, 10.0);
        assert!(rest.is_empty());
        assert_eq!(net.active(), 0);
    }

    #[test]
    fn concurrent_flows_share_max_min_fairly() {
        // Two flows into cluster 1 (1 Gb/s access): 0.5 Gb/s each.
        let topo = NetworkTopology::star("t", &[10.0, 1.0, 10.0], SimDuration::ZERO).unwrap();
        let mut net = FlowNet::new(topo);
        let (a, _) = net.open(secs(0), ClusterId(0), ClusterId(1), 10.0);
        let (b, scheds) = net.open(secs(0), ClusterId(2), ClusterId(1), 10.0);
        assert_eq!(net.rate_gbps(a), Some(0.5));
        assert_eq!(net.rate_gbps(b), Some(0.5));
        // Both flows rescheduled to the halved rate: 160 s.
        assert_eq!(scheds.len(), 2);
        assert!(scheds.iter().all(|s| s.eta == secs(160)));
        // Completing one at 160 s frees the other... which is also done.
        let sched_a = scheds.iter().find(|s| s.flow == a).unwrap();
        let (_, rest) = net.complete(secs(160), a, sched_a.gen).unwrap();
        // Flow b has fully drained: its pending event stays valid.
        assert!(rest.is_empty());
    }

    #[test]
    fn mid_flight_arrival_stretches_the_eta() {
        let topo = NetworkTopology::flat_wan(2, 8.0, SimDuration::ZERO).unwrap();
        let mut net = FlowNet::new(topo);
        // 80 GB at 8 Gb/s: would finish at t=80.
        let (a, s1) = net.open(secs(0), ClusterId(0), ClusterId(1), 80.0);
        assert_eq!(s1[0].eta, secs(80));
        // At t=40 (40 GB left), a second flow halves the rate: 40 GB at
        // 4 Gb/s = 80 s more → ETA 120.
        let (_b, s2) = net.open(secs(40), ClusterId(1), ClusterId(0), 80.0);
        let re_a = s2.iter().find(|s| s.flow == a).unwrap();
        assert_eq!(re_a.eta, secs(120));
        // The original t=80 event is stale by generation.
        assert!(net.complete(secs(80), a, s1[0].gen).is_none());
        assert!(net.complete(secs(120), a, re_a.gen).is_some());
    }

    #[test]
    fn latency_is_a_constant_serial_tail() {
        let topo = NetworkTopology::star("t", &[8.0, 8.0], SimDuration::from_millis(500)).unwrap();
        let mut net = FlowNet::new(topo);
        // 8 GB at 8 Gb/s = 8 s drain + 2 × 0.5 s latency = 9 s.
        let (_, scheds) = net.open(secs(0), ClusterId(0), ClusterId(1), 8.0);
        assert_eq!(scheds[0].eta, secs(9));
    }

    #[test]
    fn zero_size_flow_completes_after_latency_only() {
        let topo = NetworkTopology::star("t", &[8.0, 8.0], SimDuration::from_millis(1)).unwrap();
        let mut net = FlowNet::new(topo);
        let (id, scheds) = net.open(secs(0), ClusterId(0), ClusterId(1), 0.0);
        assert_eq!(scheds.len(), 1);
        assert_eq!(scheds[0].eta, SimTime::from_millis(2));
        assert!(net.complete(scheds[0].eta, id, scheds[0].gen).is_some());
    }

    #[test]
    fn capture_restore_resumes_flows_and_rejects_corrupt_state() {
        let topo = NetworkTopology::flat_wan(2, 8.0, SimDuration::ZERO).unwrap();
        let mut net = FlowNet::new(topo.clone());
        let (a, s1) = net.open(secs(0), ClusterId(0), ClusterId(1), 80.0);
        let (_b, s2) = net.open(secs(40), ClusterId(1), ClusterId(0), 80.0);

        let state = net.capture_state();
        let mut fresh = FlowNet::new(topo.clone());
        fresh.restore_state(state.clone()).unwrap();
        assert_eq!(fresh.capture_state(), state, "restore is a fixed point");
        assert_eq!(fresh.rate_gbps(a), net.rate_gbps(a));

        // Both runtimes evolve identically from here.
        let re_a = s2.iter().find(|s| s.flow == a).unwrap();
        assert!(net.complete(secs(80), a, s1[0].gen).is_none());
        assert!(fresh.complete(secs(80), a, s1[0].gen).is_none());
        let (d1, r1) = net.complete(re_a.eta, a, re_a.gen).unwrap();
        let (d2, r2) = fresh.complete(re_a.eta, a, re_a.gen).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(r1, r2);
        assert_eq!(net.capture_state(), fresh.capture_state());

        // Corruption is rejected, never a panic.
        let mut bad = state.clone();
        bad.busy_s.push(0.0);
        assert!(FlowNet::new(topo.clone()).restore_state(bad).is_err());
        let mut bad = state.clone();
        bad.flows[0].route = vec![LinkId(99)];
        assert!(FlowNet::new(topo.clone()).restore_state(bad).is_err());
        let mut bad = state.clone();
        bad.next_flow = 0;
        assert!(FlowNet::new(topo).restore_state(bad).is_err());
    }

    #[test]
    fn busy_time_tracks_occupied_links() {
        let topo = NetworkTopology::flat_wan(2, 8.0, SimDuration::ZERO).unwrap();
        let mut net = FlowNet::new(topo);
        let (id, s) = net.open(secs(10), ClusterId(0), ClusterId(1), 80.0);
        net.complete(s[0].eta, id, s[0].gen).unwrap();
        net.advance(secs(200));
        // Busy from t=10 to t=90 only.
        assert!((net.busy_seconds() - 80.0).abs() < 1e-9);
    }
}
