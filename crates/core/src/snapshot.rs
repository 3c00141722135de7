//! Deterministic, versioned serialization of mid-run world state.
//!
//! A [`Snapshot`] captures **everything** a summarized-mode
//! [`World`](crate::World) needs to continue bit-identically: the
//! engine's pending events in `(time, seq)` order with the next
//! sequence number, the job slab's mutable runtime overlay, cluster and
//! allocation state (free-stack order included — it decides which node
//! ids the next allocation receives), the availability index, in-flight
//! control-plane retry timers, open network flows with their generation
//! stamps, the streaming report accumulators (reservoir priorities
//! *and* stream positions), and every seeded RNG stream's word state.
//!
//! The encoding is a little-endian byte format behind a versioned
//! header, hand-rolled so the byte layout is an explicit contract
//! rather than an accident of a derive: canonical (maps are sorted,
//! queue entries are pop-ordered), so
//! snapshot → bytes → restore → snapshot is a byte-level fixed point.
//!
//! Two FNV-1a fingerprints of the experiment configuration ride in the
//! header: the **full** fingerprint gates strict
//! [`World::restore`](crate::World::restore) (same configuration,
//! byte for byte), while the **fork-invariant** fingerprint — computed
//! with the name, placement and malleability policies canonicalized —
//! gates [`World::fork_with`](crate::World::fork_with), which resumes
//! the warmed prefix under a *different* policy cell of the same sweep.

use crate::config::{ExperimentConfig, SchedulerConfig};

/// Magic bytes opening every serialized snapshot.
pub const MAGIC: [u8; 4] = *b"KSNP";

/// The current snapshot format version. Version 2 dropped the engine's
/// queue tag, calendar tuning and cancelled-event count, and the job
/// record's completion-timer handle; version 3 added the availability
/// index's blocked-scan tally; version 4 dropped the index's dirty
/// flags and each LRM's local-job id and completion counters. Older
/// blobs are rejected as [`SnapshotError::UnsupportedVersion`].
pub const VERSION: u16 = 4;

/// Why a snapshot could not be taken, decoded, or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob does not start with [`MAGIC`].
    BadMagic,
    /// The header carries a format version this build cannot read.
    UnsupportedVersion(u16),
    /// The blob ended before the structure it promised.
    Truncated,
    /// Decoding consumed the structure but bytes remain.
    TrailingBytes,
    /// The target configuration's fingerprint does not match the one
    /// the snapshot was taken under.
    ConfigMismatch,
    /// The bytes parse but describe an impossible state (bad enum tag,
    /// mismatched cluster count, inconsistent lengths).
    Corrupt(String),
    /// The world cannot be snapshotted: only summarized-mode,
    /// fixed-intake worlds have a serializable closure.
    UnsupportedMode(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a KOALA snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot body"),
            SnapshotError::ConfigMismatch => {
                write!(f, "configuration fingerprint does not match the snapshot")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::UnsupportedMode(what) => {
                write!(f, "world cannot be snapshotted: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A captured mid-run world: versioned header fields plus the opaque
/// encoded body. Produce with [`World::snapshot`](crate::World::snapshot),
/// consume with [`World::restore`](crate::World::restore) or
/// [`World::fork_with`](crate::World::fork_with); round-trip through
/// bytes with [`Snapshot::to_bytes`] / [`Snapshot::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Format version the body is encoded in.
    pub version: u16,
    /// The seed the captured run executes under (the workload is
    /// regenerated from it at restore, so job specifications never
    /// enter the blob).
    pub seed: u64,
    /// FNV-1a fingerprint of the full configuration Debug rendering.
    pub full_fingerprint: u64,
    /// Fingerprint with name/placement/malleability canonicalized —
    /// equal across the policy cells of one sweep.
    pub fork_fingerprint: u64,
    /// The encoded world + engine state.
    pub body: Vec<u8>,
}

impl Snapshot {
    /// Serializes header + body into one self-describing blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u16(self.version);
        w.u64(self.seed);
        w.u64(self.full_fingerprint);
        w.u64(self.fork_fingerprint);
        w.u64(self.body.len() as u64);
        w.bytes(&self.body);
        w.into_bytes()
    }

    /// Parses a blob produced by [`Snapshot::to_bytes`], validating
    /// magic, version and framing. The body is not decoded here — that
    /// happens (and is validated) at restore time.
    pub fn from_bytes(data: &[u8]) -> Result<Snapshot, SnapshotError> {
        let mut r = ByteReader::new(data);
        let magic = r.bytes(4)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let seed = r.u64()?;
        let full_fingerprint = r.u64()?;
        let fork_fingerprint = r.u64()?;
        let len = r.u64()? as usize;
        let body = r.bytes(len)?.to_vec();
        r.finish()?;
        Ok(Snapshot {
            version,
            seed,
            full_fingerprint,
            fork_fingerprint,
            body,
        })
    }
}

/// FNV-1a over the canonical Debug rendering of a configuration. Debug
/// output is deterministic for these config types (no maps), so equal
/// configurations always fingerprint equally; the (vanishing) collision
/// risk only weakens an error check, never correctness of a valid
/// restore.
pub fn config_fingerprint(cfg: &ExperimentConfig) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}

/// The fork-invariant fingerprint: like [`config_fingerprint`] with
/// `name`, `sched.placement`, `sched.malleability` and `seed`
/// canonicalized, so every policy cell of one sweep — which differ in
/// exactly those fields — fingerprints identically and may fork from
/// one shared warmup snapshot.
pub fn fork_fingerprint(cfg: &ExperimentConfig) -> u64 {
    let c = ForkCanonical {
        cfg,
        with_trace: true,
    };
    fnv1a(format!("{c:?}").as_bytes())
}

/// The fork-equivalence key of a configuration: the canonical
/// rendering [`fork_fingerprint`] hashes, with the job `trace` blanked
/// as well, so computing it never renders a job list. Two
/// configurations may share one warmup prefix when their keys are equal
/// and their traces compare equal (`==`). For validated traces that is
/// the condition of equal fork fingerprints, without a hash collision
/// risk, save that `==` does not tell `0.0` from `-0.0` in a synthetic
/// speedup model.
pub(crate) fn fork_key(cfg: &ExperimentConfig) -> String {
    let c = ForkCanonical {
        cfg,
        with_trace: false,
    };
    format!("{c:?}")
}

/// The `Debug` rendering of `cfg` with the fields the policy cells of
/// one sweep differ in blanked (and, unless `with_trace`, the `trace`
/// too), written straight from the borrowed configuration: it renders
/// exactly what the derived `Debug` of the blanked copy would, without
/// copying the job trace.
struct ForkCanonical<'a> {
    cfg: &'a ExperimentConfig,
    with_trace: bool,
}

impl std::fmt::Debug for ForkCanonical<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Destructured in full: a field added to `ExperimentConfig` stops
        // this compiling until it is rendered here, in declaration order.
        let ExperimentConfig {
            name: _,
            sched,
            workload,
            generator,
            background,
            seed: _,
            horizon,
            trace,
            heterogeneous,
            uniform_topology,
            report,
            elasticity,
            network,
            warm_fork,
        } = self.cfg;
        let sched = SchedulerConfig {
            placement: String::new(),
            malleability: String::new(),
            ..sched.clone()
        };
        let trace = if self.with_trace { trace } else { &None };
        f.debug_struct("ExperimentConfig")
            .field("name", &"")
            .field("sched", &sched)
            .field("workload", workload)
            .field("generator", generator)
            .field("background", background)
            .field("seed", &0u64)
            .field("horizon", horizon)
            .field("trace", trace)
            .field("heterogeneous", heterogeneous)
            .field("uniform_topology", uniform_topology)
            .field("report", report)
            .field("elasticity", elasticity)
            .field("network", network)
            .field("warm_fork", warm_fork)
            .finish()
    }
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------

/// Little-endian byte encoder backing the snapshot format.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, verbatim (framing is the caller's contract).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// A `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its IEEE-754 bit pattern (bit-exact round trip,
    /// NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A length prefix (`u64`) for the sequence the caller writes next.
    pub fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// A UTF-8 string, length-prefixed.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.bytes(s.as_bytes());
    }

    /// An `Option` as a presence byte plus, when present, the payload
    /// written by `f`.
    pub fn opt<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            Some(x) => {
                self.bool(true);
                f(self, x);
            }
            None => self.bool(false),
        }
    }
}

/// Little-endian byte decoder; every read is bounds-checked and returns
/// [`SnapshotError::Truncated`] past the end — corrupt input can never
/// panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `data`, positioned at the start.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Succeeds only if every byte was consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes)
        }
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.data.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    /// A `bool` (rejecting anything but 0 or 1 as corruption).
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// A `u16`, little-endian.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    /// A `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// A `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// An `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix, sanity-capped against the remaining bytes so a
    /// corrupted length cannot provoke a huge allocation (`floor` is
    /// the minimum encoded size of one element; pass 1 for unknown).
    pub fn len(&mut self, floor: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| SnapshotError::Truncated)?;
        if n.saturating_mul(floor.max(1)) > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.len(1)?;
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| SnapshotError::Corrupt("invalid UTF-8".into()))
    }

    /// An `Option` mirroring [`ByteWriter::opt`].
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.bool(true);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("koala");
        w.opt(Some(&42u32), |w, v| w.u32(*v));
        w.opt(None::<&u32>, |w, v| w.u32(*v));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "koala");
        assert_eq!(r.opt(|r| r.u32()).unwrap(), Some(42));
        assert_eq!(r.opt(|r| r.u32()).unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let mut w = ByteWriter::new();
        w.u64(123);
        w.str("hello");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let out = r.u64().and_then(|_| r.str());
            assert!(out.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn hostile_length_prefix_cannot_allocate() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX); // absurd length prefix
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.len(1), Err(SnapshotError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(SnapshotError::TrailingBytes));
    }

    #[test]
    fn header_round_trips_and_validates() {
        let snap = Snapshot {
            version: VERSION,
            seed: 99,
            full_fingerprint: 0xAA,
            fork_fingerprint: 0xBB,
            body: vec![1, 2, 3, 4],
        };
        let bytes = snap.to_bytes();
        assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), snap);
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(Snapshot::from_bytes(&bad), Err(SnapshotError::BadMagic));
        // Future version.
        let mut bad = bytes.clone();
        bad[4] = 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        // Truncation anywhere in the blob.
        for cut in 0..bytes.len() {
            assert_eq!(
                Snapshot::from_bytes(&bytes[..cut]),
                Err(SnapshotError::Truncated),
                "cut at {cut}"
            );
        }
        // Trailing junk.
        let mut bad = bytes.clone();
        bad.push(0);
        assert_eq!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::TrailingBytes)
        );
    }

    #[test]
    fn fingerprints_separate_full_from_fork_invariant() {
        use crate::config::ExperimentConfig;
        let a = ExperimentConfig::paper_pra("fpsma", appsim::workload::WorkloadSpec::wm());
        let mut b = a.clone();
        b.name = "other".into();
        b.sched.malleability = "egs".into();
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_eq!(fork_fingerprint(&a), fork_fingerprint(&b));
        let mut c = a.clone();
        c.workload.jobs += 1;
        assert_ne!(fork_fingerprint(&a), fork_fingerprint(&c));
    }

    #[test]
    fn fork_renderings_match_the_blanked_copy() {
        use crate::scenario::Scenario;
        use appsim::workload::WorkloadSpec;
        let w = WorkloadSpec::wm_prime();
        let trace = w.generate(&mut simcore::SimRng::seed_from_u64(7));
        let cfg = Scenario::builder()
            .name("first_fit+egs")
            .placement("first_fit")
            .malleability("egs")
            .pwa()
            .workload(w)
            .seed(11)
            .warm_fork(simcore::SimDuration::from_secs(600))
            .trace(trace)
            .network("das3")
            .network_file(20.0, [0])
            .summarized()
            .build()
            .expect("valid scenario")
            .into_config();
        // The rendering of a blanked copy, as the fork key and the fork
        // fingerprint were first defined.
        let mut c = cfg.clone();
        c.name = String::new();
        c.sched.placement = String::new();
        c.sched.malleability = String::new();
        c.seed = 0;
        assert_eq!(fork_fingerprint(&cfg), fnv1a(format!("{c:?}").as_bytes()));
        c.trace = None;
        assert_eq!(fork_key(&cfg), format!("{c:?}"));
    }
}
