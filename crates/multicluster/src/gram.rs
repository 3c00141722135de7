//! GRAM-style submission latency model.
//!
//! Section V-A of the paper describes how the MRunner works around GRAM's
//! inability to manage malleable jobs: a malleable application is run as
//! a *collection of GRAM jobs of size 1*. Growing submits new GRAM jobs;
//! to hide their cost, submissions launch an **empty stub** that is
//! turned into an application process later ("that latter operation is
//! faster than submitting a job to GRAM as it is relieved from tasks such
//! as security enforcement and queue management"). Interactions with GRAM
//! overlap application execution; the application suspends only once all
//! resources are held.
//!
//! This module captures those costs as a pure timing model. Defaults are
//! justified in `koala::config` (they reproduce the order of magnitude of
//! GLOBUS pre-WS GRAM on DAS-3-era hardware).
//!
//! On top of the timing model sits an *optional* fault model,
//! [`ControlPlaneFaults`]: real Globus-era control planes lose, delay and
//! duplicate messages, and whole scheduler↔cluster channels go flaky for
//! minutes at a time. Like [`crate::failure::FailureStream`], the fault
//! model is a **pure function of its seed** — per-message outcomes are
//! derived by hashing (seed, message class, per-class sequence number),
//! so the outcome of the 7th `Submit` never depends on how many `Release`
//! messages were interleaved before it, and two runs with equal specs and
//! equal RNG forks see identical faults regardless of event ordering.

use simcore::{SimDuration, SimRng, SimTime};

use crate::ids::ClusterId;

/// Latency model for GRAM-like interactions.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GramConfig {
    /// Submitting one GRAM job (security, queue handling) until the stub
    /// is running on the node.
    pub submit_latency: SimDuration,
    /// Additional per-job serialization when a batch of GRAM jobs is
    /// submitted at once (submissions pipeline but not perfectly).
    pub submit_per_job: SimDuration,
    /// Releasing a GRAM job after the application has shrunk.
    pub release_latency: SimDuration,
    /// Turning an already-running stub into an application process
    /// (the fast path the paper contrasts with full submission).
    pub stub_recruit_latency: SimDuration,
    /// One-way scheduler ↔ runner ↔ application message latency.
    pub message_latency: SimDuration,
}

impl Default for GramConfig {
    fn default() -> Self {
        GramConfig {
            submit_latency: SimDuration::from_secs(2),
            submit_per_job: SimDuration::from_millis(100),
            release_latency: SimDuration::from_secs(1),
            stub_recruit_latency: SimDuration::from_millis(500),
            message_latency: SimDuration::from_millis(50),
        }
    }
}

impl GramConfig {
    /// A zero-latency model, for tests that want pure scheduling
    /// behaviour without timing noise.
    pub fn instantaneous() -> Self {
        GramConfig {
            submit_latency: SimDuration::ZERO,
            submit_per_job: SimDuration::ZERO,
            release_latency: SimDuration::ZERO,
            stub_recruit_latency: SimDuration::ZERO,
            message_latency: SimDuration::ZERO,
        }
    }

    /// Time until a batch of `n` size-1 GRAM jobs all have running stubs.
    ///
    /// The batch submits in parallel but serializes partially at the
    /// gatekeeper: `submit_latency + n · submit_per_job`.
    pub fn batch_submit_time(&self, n: u32) -> SimDuration {
        if n == 0 {
            return SimDuration::ZERO;
        }
        self.submit_latency + self.submit_per_job.saturating_mul(n as u64)
    }

    /// Time from "stubs all running" until the application actually holds
    /// the new processes (recruitment of the stubs).
    pub fn recruit_time(&self, n: u32) -> SimDuration {
        if n == 0 {
            return SimDuration::ZERO;
        }
        // Stub recruitment is a local operation per node, done in
        // parallel; model as a single constant.
        self.stub_recruit_latency
    }

    /// Time to release `n` GRAM jobs after a shrink.
    pub fn batch_release_time(&self, n: u32) -> SimDuration {
        if n == 0 {
            return SimDuration::ZERO;
        }
        self.release_latency
    }
}

/// The classes of control-plane messages the scheduler exchanges with
/// GRAM and the information service. Each class has its own loss
/// probability and its own fault-sequence counter, so faults in one
/// message family never perturb another's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MessageClass {
    /// A batch GRAM submission (placement start, stub batch).
    Submit,
    /// Recruiting already-running stubs into application processes.
    Recruit,
    /// A grow command from the scheduler to the runner.
    Grow,
    /// A shrink command from the scheduler to the runner.
    Shrink,
    /// Releasing GRAM jobs after a shrink or completion.
    Release,
    /// A poll of the KOALA information service.
    InfoPoll,
}

/// Hash salts keeping each message class on its own fault stream; must
/// stay pairwise distinct (asserted by test) or two classes would share
/// outcomes.
const CLASS_SALTS: [u64; 6] = [
    0x5EED_5AB1_7000_0001,
    0x5EED_5AB1_7000_0002,
    0x5EED_5AB1_7000_0003,
    0x5EED_5AB1_7000_0004,
    0x5EED_5AB1_7000_0005,
    0x5EED_5AB1_7000_0006,
];

/// SplitMix64 increment — mixes the per-class sequence number into the
/// per-message hash seed.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl MessageClass {
    /// Every class, in salt order.
    pub const ALL: [MessageClass; 6] = [
        MessageClass::Submit,
        MessageClass::Recruit,
        MessageClass::Grow,
        MessageClass::Shrink,
        MessageClass::Release,
        MessageClass::InfoPoll,
    ];

    fn salt(self) -> u64 {
        CLASS_SALTS[self as usize]
    }
}

/// Per-class message loss probabilities (each in `[0, 1]`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClassLoss {
    /// Loss probability for [`MessageClass::Submit`].
    pub submit: f64,
    /// Loss probability for [`MessageClass::Recruit`].
    pub recruit: f64,
    /// Loss probability for [`MessageClass::Grow`].
    pub grow: f64,
    /// Loss probability for [`MessageClass::Shrink`].
    pub shrink: f64,
    /// Loss probability for [`MessageClass::Release`].
    pub release: f64,
    /// Loss probability for [`MessageClass::InfoPoll`].
    pub info_poll: f64,
}

impl ClassLoss {
    /// The same loss probability for every message class.
    pub fn uniform(p: f64) -> Self {
        ClassLoss {
            submit: p,
            recruit: p,
            grow: p,
            shrink: p,
            release: p,
            info_poll: p,
        }
    }

    /// The loss probability of one class.
    pub fn get(&self, class: MessageClass) -> f64 {
        match class {
            MessageClass::Submit => self.submit,
            MessageClass::Recruit => self.recruit,
            MessageClass::Grow => self.grow,
            MessageClass::Shrink => self.shrink,
            MessageClass::Release => self.release,
            MessageClass::InfoPoll => self.info_poll,
        }
    }
}

/// Per-cluster "flaky channel" episodes: windows during which the
/// scheduler↔cluster channel loses messages at an elevated rate.
/// Episode gaps and durations are exponential; each cluster owns an
/// independent forked stream, so channels flake independently.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FlakyChannelSpec {
    /// Mean gap between episodes on one channel (exponential).
    pub mean_gap: SimDuration,
    /// Mean episode duration (exponential, min 1 ms).
    pub mean_duration: SimDuration,
    /// Loss probability while the episode is active — applied when it
    /// exceeds the class's base probability.
    pub loss: f64,
}

/// Configuration of the control-plane fault layer. `None` anywhere in a
/// scenario means the layer is absent and messaging is perfectly
/// reliable (the PR 6 baseline).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ControlPlaneFaultSpec {
    /// Per-class loss probabilities.
    pub loss: ClassLoss,
    /// Probability a *delivered* message arrives twice (the duplicate
    /// carries its own jitter).
    pub duplicate: f64,
    /// Extra delivery delay, uniform in `[0, max_jitter]`.
    pub max_jitter: SimDuration,
    /// Optional per-cluster flaky-channel episodes.
    pub flaky: Option<FlakyChannelSpec>,
}

impl ControlPlaneFaultSpec {
    /// A spec losing every class with probability `p`, with no
    /// duplication, no jitter and no flaky episodes.
    pub fn uniform(p: f64) -> Self {
        ControlPlaneFaultSpec {
            loss: ClassLoss::uniform(p),
            duplicate: 0.0,
            max_jitter: SimDuration::ZERO,
            flaky: None,
        }
    }
}

/// The fate of one control-plane message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageOutcome {
    /// Whether the message arrives at all.
    pub delivered: bool,
    /// Whether a second copy also arrives (only meaningful when
    /// `delivered`).
    pub duplicated: bool,
    /// Extra delay on the primary copy.
    pub jitter: SimDuration,
    /// Extra delay on the duplicate copy.
    pub dup_jitter: SimDuration,
}

/// One cluster's flaky-channel episode stream: a lazy sequence of
/// `[start, end)` windows, advanced monotonically as the simulation
/// clock queries it.
#[derive(Debug, Clone)]
struct FlakyChannel {
    rng: SimRng,
    start: SimTime,
    end: SimTime,
}

impl FlakyChannel {
    fn new(mut rng: SimRng, spec: &FlakyChannelSpec) -> Self {
        let start = SimTime::ZERO + sample_exp(&mut rng, spec.mean_gap);
        let end = start + sample_exp(&mut rng, spec.mean_duration).max(SimDuration::from_millis(1));
        FlakyChannel { rng, start, end }
    }

    /// Whether the channel is inside an episode at `now`. Queries must
    /// come at nondecreasing times (the event loop guarantees this);
    /// expired windows are replaced by freshly drawn ones.
    fn is_flaky(&mut self, now: SimTime, spec: &FlakyChannelSpec) -> bool {
        while now >= self.end {
            self.start = self.end + sample_exp(&mut self.rng, spec.mean_gap);
            self.end = self.start
                + sample_exp(&mut self.rng, spec.mean_duration).max(SimDuration::from_millis(1));
        }
        self.start <= now
    }
}

/// Exponential draw with the given mean, on the integer clock (min 1 ms
/// so consecutive windows never collapse to a point).
fn sample_exp(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
    let u = rng.f64_open0();
    SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln()).max(SimDuration::from_millis(1))
}

/// Seeded control-plane fault model: decides, per message, whether it is
/// lost, delayed or duplicated, and tracks per-cluster flaky episodes.
///
/// Outcomes are a pure function of `(seed, class, per-class sequence
/// number)` — see the module docs. The flaky-episode streams own forked
/// RNGs and never read simulation state, so the whole model stays
/// reproducible under any event interleaving.
#[derive(Debug, Clone)]
pub struct ControlPlaneFaults {
    spec: ControlPlaneFaultSpec,
    hash_seed: u64,
    seq: [u64; 6],
    channels: Vec<FlakyChannel>,
}

impl ControlPlaneFaults {
    /// Builds the model over `n_clusters` channels from its own RNG
    /// fork (the simulation dedicates fork label 4 to it).
    pub fn new(spec: ControlPlaneFaultSpec, n_clusters: u16, mut rng: SimRng) -> Self {
        let hash_seed = rng.next_u64();
        let channels = match &spec.flaky {
            Some(flaky) => (0..n_clusters)
                .map(|c| FlakyChannel::new(rng.fork(c as u64), flaky))
                .collect(),
            None => Vec::new(),
        };
        ControlPlaneFaults {
            spec,
            hash_seed,
            seq: [0; 6],
            channels,
        }
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &ControlPlaneFaultSpec {
        &self.spec
    }

    /// Whether `cluster`'s channel is inside a flaky episode at `now`
    /// (always `false` without a [`FlakyChannelSpec`]). Query times must
    /// be nondecreasing.
    pub fn is_flaky(&mut self, cluster: ClusterId, now: SimTime) -> bool {
        let Some(flaky) = &self.spec.flaky else {
            return false;
        };
        match self.channels.get_mut(cluster.0 as usize) {
            Some(ch) => ch.is_flaky(now, flaky),
            None => false,
        }
    }

    /// Decides the fate of the next message of `class`, optionally bound
    /// to a cluster channel (flaky episodes elevate its loss rate).
    ///
    /// Draw order per message is fixed (loss, duplicate, jitter,
    /// duplicate jitter) from a hash-derived RNG, so adding messages of
    /// one class never perturbs another class's outcomes.
    pub fn outcome(
        &mut self,
        class: MessageClass,
        cluster: Option<ClusterId>,
        now: SimTime,
    ) -> MessageOutcome {
        let seq = self.seq[class as usize];
        self.seq[class as usize] += 1;
        let mut p = self.spec.loss.get(class);
        if let Some(c) = cluster {
            if self.is_flaky(c, now) {
                if let Some(flaky) = &self.spec.flaky {
                    p = p.max(flaky.loss);
                }
            }
        }
        let mut rng =
            SimRng::seed_from_u64(self.hash_seed ^ class.salt() ^ seq.wrapping_mul(GOLDEN));
        let lost = rng.bool_with(p);
        let duplicated = rng.bool_with(self.spec.duplicate);
        let jitter_ms = self.spec.max_jitter.as_millis();
        let jitter = SimDuration::from_millis(rng.u64_below(jitter_ms + 1));
        let dup_jitter = SimDuration::from_millis(rng.u64_below(jitter_ms + 1));
        MessageOutcome {
            delivered: !lost,
            duplicated,
            jitter,
            dup_jitter,
        }
    }

    /// Captures the model's dynamic state, for checkpointing. The spec is
    /// configuration and is supplied again on restore; `hash_seed` *is*
    /// state (it was drawn from the construction-time RNG fork, which no
    /// longer exists after a restore).
    pub fn capture_state(&self) -> ControlPlaneFaultsState {
        ControlPlaneFaultsState {
            hash_seed: self.hash_seed,
            seq: self.seq,
            channels: self
                .channels
                .iter()
                .map(|ch| FlakyChannelState {
                    rng: ch.rng.state(),
                    start: ch.start,
                    end: ch.end,
                })
                .collect(),
        }
    }

    /// Overwrites the model's dynamic state with a captured one.
    /// Subsequent outcomes and flaky-episode draws continue the original
    /// streams exactly. Fails if the channel count disagrees with the
    /// spec's (flaky specs own one channel per cluster; flaky-free specs
    /// own none).
    pub fn restore_state(&mut self, state: ControlPlaneFaultsState) -> Result<(), String> {
        let expect = if self.spec.flaky.is_some() {
            self.channels.len()
        } else {
            0
        };
        if state.channels.len() != expect {
            return Err(format!(
                "flaky channel count mismatch: state has {}, spec wants {expect}",
                state.channels.len()
            ));
        }
        self.hash_seed = state.hash_seed;
        self.seq = state.seq;
        self.channels = state
            .channels
            .into_iter()
            .map(|ch| FlakyChannel {
                rng: SimRng::from_state(ch.rng),
                start: ch.start,
                end: ch.end,
            })
            .collect();
        Ok(())
    }
}

/// One captured flaky-channel episode stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlakyChannelState {
    /// The xoshiro256++ word state of the channel's RNG.
    pub rng: [u64; 4],
    /// Start of the current (or next) episode window.
    pub start: SimTime,
    /// End of the current (or next) episode window.
    pub end: SimTime,
}

/// A full capture of a [`ControlPlaneFaults`] model's dynamic state (the
/// spec is configuration, not state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlPlaneFaultsState {
    /// The per-message hash seed drawn at construction.
    pub hash_seed: u64,
    /// Per-class fault-sequence counters, in [`MessageClass::ALL`] order.
    pub seq: [u64; 6],
    /// Per-cluster flaky-channel streams (empty without a flaky spec).
    pub channels: Vec<FlakyChannelState>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_submission_scales_per_job() {
        let g = GramConfig::default();
        let one = g.batch_submit_time(1);
        let ten = g.batch_submit_time(10);
        assert!(ten > one);
        assert_eq!(
            ten - one,
            g.submit_per_job.saturating_mul(9),
            "difference is 9 per-job increments"
        );
    }

    #[test]
    fn zero_jobs_cost_nothing() {
        let g = GramConfig::default();
        assert_eq!(g.batch_submit_time(0), SimDuration::ZERO);
        assert_eq!(g.recruit_time(0), SimDuration::ZERO);
        assert_eq!(g.batch_release_time(0), SimDuration::ZERO);
    }

    #[test]
    fn recruitment_is_cheaper_than_submission() {
        // The design point from the paper: turning a stub into a process
        // beats a full GRAM submission.
        let g = GramConfig::default();
        assert!(g.recruit_time(4) < g.batch_submit_time(4));
    }

    #[test]
    fn batch_submit_is_monotone_in_size() {
        let g = GramConfig::default();
        let mut last = simcore::SimDuration::ZERO;
        for n in 1..=64 {
            let t = g.batch_submit_time(n);
            assert!(t >= last, "submission time must not shrink with batch size");
            last = t;
        }
    }

    #[test]
    fn instantaneous_model_is_all_zero() {
        let g = GramConfig::instantaneous();
        assert_eq!(g.batch_submit_time(32), SimDuration::ZERO);
        assert_eq!(g.batch_release_time(32), SimDuration::ZERO);
    }

    fn lossy_spec() -> ControlPlaneFaultSpec {
        ControlPlaneFaultSpec {
            loss: ClassLoss::uniform(0.2),
            duplicate: 0.1,
            max_jitter: SimDuration::from_millis(500),
            flaky: Some(FlakyChannelSpec {
                mean_gap: SimDuration::from_mins(30),
                mean_duration: SimDuration::from_mins(5),
                loss: 0.8,
            }),
        }
    }

    #[test]
    fn class_salts_are_pairwise_distinct() {
        for (i, a) in CLASS_SALTS.iter().enumerate() {
            for b in &CLASS_SALTS[i + 1..] {
                assert_ne!(a, b, "two message classes share a fault stream");
            }
        }
        // And the enum indexes exactly cover the salt table.
        assert_eq!(MessageClass::ALL.len(), CLASS_SALTS.len());
        for (i, c) in MessageClass::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn fault_model_is_a_pure_function_of_seed() {
        let mut a = ControlPlaneFaults::new(lossy_spec(), 5, SimRng::seed_from_u64(42));
        let mut b = ControlPlaneFaults::new(lossy_spec(), 5, SimRng::seed_from_u64(42));
        let mut now = SimTime::ZERO;
        for i in 0..256u64 {
            now += SimDuration::from_secs(20);
            let class = MessageClass::ALL[(i % 6) as usize];
            let cluster = Some(ClusterId((i % 5) as u16));
            assert_eq!(
                a.outcome(class, cluster, now),
                b.outcome(class, cluster, now)
            );
        }
        let mut c = ControlPlaneFaults::new(lossy_spec(), 5, SimRng::seed_from_u64(43));
        let differs = (0..256u64).any(|i| {
            let class = MessageClass::ALL[(i % 6) as usize];
            let t = SimTime::ZERO + SimDuration::from_secs(20 * (i + 1));
            a.outcome(class, None, t) != c.outcome(class, None, t)
        });
        assert!(differs, "different seeds should diverge");
    }

    #[test]
    fn per_class_outcomes_are_independent_of_interleaving() {
        // Run A asks for Submit outcomes only; run B interleaves other
        // classes between them. The Submit stream must be identical.
        let mut a = ControlPlaneFaults::new(lossy_spec(), 3, SimRng::seed_from_u64(7));
        let mut b = ControlPlaneFaults::new(lossy_spec(), 3, SimRng::seed_from_u64(7));
        for i in 0..64u64 {
            let t = SimTime::ZERO + SimDuration::from_secs(i + 1);
            let want = a.outcome(MessageClass::Submit, None, t);
            b.outcome(MessageClass::Release, None, t);
            b.outcome(MessageClass::InfoPoll, None, t);
            let got = b.outcome(MessageClass::Submit, None, t);
            assert_eq!(want, got, "interleaving other classes perturbed Submit");
        }
    }

    #[test]
    fn capture_restore_resumes_fault_streams_exactly() {
        let mut a = ControlPlaneFaults::new(lossy_spec(), 4, SimRng::seed_from_u64(21));
        let mut now = SimTime::ZERO;
        for i in 0..37u64 {
            now += SimDuration::from_secs(45);
            let class = MessageClass::ALL[(i % 6) as usize];
            a.outcome(class, Some(ClusterId((i % 4) as u16)), now);
        }
        let state = a.capture_state();
        // A differently seeded model inherits the captured state and must
        // continue a's streams exactly (hash_seed travels with the state).
        let mut b = ControlPlaneFaults::new(lossy_spec(), 4, SimRng::seed_from_u64(9999));
        b.restore_state(state).expect("matching channel count");
        for i in 0..256u64 {
            now += SimDuration::from_secs(45);
            let class = MessageClass::ALL[(i % 6) as usize];
            let cluster = Some(ClusterId((i % 4) as u16));
            assert_eq!(
                a.outcome(class, cluster, now),
                b.outcome(class, cluster, now)
            );
        }
    }

    #[test]
    fn restore_rejects_channel_count_mismatch() {
        let a = ControlPlaneFaults::new(lossy_spec(), 4, SimRng::seed_from_u64(21));
        let mut wrong = ControlPlaneFaults::new(lossy_spec(), 2, SimRng::seed_from_u64(21));
        assert!(wrong.restore_state(a.capture_state()).is_err());
        let mut flakeless = ControlPlaneFaults::new(
            ControlPlaneFaultSpec::uniform(0.1),
            4,
            SimRng::seed_from_u64(21),
        );
        assert!(flakeless.restore_state(a.capture_state()).is_err());
    }

    #[test]
    fn loss_extremes_behave() {
        let mut never = ControlPlaneFaults::new(
            ControlPlaneFaultSpec::uniform(0.0),
            3,
            SimRng::seed_from_u64(1),
        );
        let mut always = ControlPlaneFaults::new(
            ControlPlaneFaultSpec::uniform(1.0),
            3,
            SimRng::seed_from_u64(1),
        );
        // The no-fault outcome: delivered once, on time.
        let clean = MessageOutcome {
            delivered: true,
            duplicated: false,
            jitter: SimDuration::ZERO,
            dup_jitter: SimDuration::ZERO,
        };
        for i in 0..128u64 {
            let class = MessageClass::ALL[(i % 6) as usize];
            let t = SimTime::ZERO + SimDuration::from_secs(i);
            assert_eq!(never.outcome(class, None, t), clean);
            assert!(!always.outcome(class, None, t).delivered);
        }
    }

    #[test]
    fn flaky_episodes_are_ordered_and_elevate_loss() {
        let spec = lossy_spec();
        let flaky = spec.flaky.clone().unwrap();
        let mut ch = FlakyChannel::new(SimRng::seed_from_u64(9), &flaky);
        let mut last_end = SimTime::ZERO;
        for _ in 0..64 {
            assert!(ch.start >= last_end, "episodes must not overlap");
            assert!(ch.end > ch.start, "episodes have positive length");
            last_end = ch.end;
            let end = ch.end;
            ch.is_flaky(end, &flaky); // advance to the next window
        }
        // A model with certain loss during episodes and none outside:
        // messages sent inside a known episode are lost, outside are not.
        let mut m = ControlPlaneFaults::new(
            ControlPlaneFaultSpec {
                loss: ClassLoss::uniform(0.0),
                duplicate: 0.0,
                max_jitter: SimDuration::ZERO,
                flaky: Some(FlakyChannelSpec {
                    loss: 1.0,
                    ..flaky.clone()
                }),
            },
            1,
            SimRng::seed_from_u64(11),
        );
        let mut probe = m.clone();
        let cluster = ClusterId(0);
        let mut hits = 0;
        let mut misses = 0;
        let mut now = SimTime::ZERO;
        for _ in 0..2048 {
            now += SimDuration::from_secs(60);
            let inside = probe.is_flaky(cluster, now);
            let out = m.outcome(MessageClass::Grow, Some(cluster), now);
            assert_eq!(out.delivered, !inside);
            if inside {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        assert!(hits > 0, "no probe ever landed inside an episode");
        assert!(misses > 0, "every probe landed inside an episode");
    }
}
