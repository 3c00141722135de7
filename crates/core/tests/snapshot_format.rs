//! Format stability of the versioned snapshot blob: the header is
//! validated before anything is decoded, every way a blob can be wrong
//! — foreign bytes, a future version, truncation at *any* offset, bit
//! corruption, trailing garbage — comes back as a typed
//! [`SnapshotError`] (never a panic), and the codec is a byte-level
//! fixed point: snapshot → bytes → restore → snapshot reproduces the
//! exact same bytes.

use appsim::workload::WorkloadSpec;
use koala::config::ExperimentConfig;
use koala::{warm_snapshot_seeded, Snapshot, SnapshotError, World};
use simcore::SimTime;

fn cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
    cfg.workload.jobs = 10;
    cfg
}

fn snap() -> Snapshot {
    warm_snapshot_seeded(&cfg(), 7, SimTime::from_secs(1200)).expect("snapshot mid-run")
}

#[test]
fn header_is_versioned_and_validated_first() {
    let bytes = snap().to_bytes();
    assert_eq!(&bytes[..4], b"KSNP", "magic leads the blob");
    // Wrong magic: rejected as foreign before any version/body logic.
    let mut foreign = bytes.clone();
    foreign[0] = b'X';
    assert_eq!(
        Snapshot::from_bytes(&foreign).unwrap_err(),
        SnapshotError::BadMagic
    );
    // Future version: rejected with the version echoed back.
    let mut vnext = bytes.clone();
    vnext[4] = 0xFF;
    let SnapshotError::UnsupportedVersion(v) = Snapshot::from_bytes(&vnext).unwrap_err() else {
        panic!("future version must surface as UnsupportedVersion");
    };
    assert_ne!(v, 1);
    // The canonical bytes themselves parse back.
    let parsed = Snapshot::from_bytes(&bytes).expect("canonical bytes parse");
    assert_eq!(parsed.to_bytes(), bytes);
}

/// Version 1 blobs carried the engine's queue tag, calendar tuning,
/// cancelled-event count and per-job completion handles; version 2
/// blobs lack the availability index's blocked-scan tally; version 3
/// blobs carry its dirty flags and the LRM counters. Their bodies
/// are laid out differently, so the header must refuse them outright
/// rather than let the body decoder misread the fields.
#[test]
fn version_1_blobs_are_refused_not_misread() {
    let snap = snap();
    assert_eq!(snap.version, 4);
    for v in [1u16, 2, 3] {
        let mut old_bytes = snap.to_bytes();
        old_bytes[4..6].copy_from_slice(&v.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&old_bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion(v)
        );
        // A hand-built old header reaches restore and fork the same way.
        let old = Snapshot {
            version: v,
            ..snap.clone()
        };
        let c = cfg();
        for out in [World::restore(&c, &old), World::fork_with(&c, &old)] {
            assert_eq!(out.err(), Some(SnapshotError::UnsupportedVersion(v)));
        }
    }
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    let bytes = snap().to_bytes();
    for cut in 0..bytes.len() {
        match Snapshot::from_bytes(&bytes[..cut]) {
            Err(_) => {}
            Ok(parsed) => {
                // A cut inside the body can still frame-parse (the body
                // length prefix shrinks the frame only if the cut lands
                // before it); the *decode* must then catch it.
                let c = cfg();
                assert!(
                    World::restore(&c, &parsed).is_err(),
                    "truncation at {cut}/{} decoded successfully",
                    bytes.len()
                );
            }
        }
    }
}

#[test]
fn header_truncation_is_truncated_specifically() {
    let bytes = snap().to_bytes();
    // Every cut inside the fixed-size header (magic + version + seed +
    // two fingerprints + body length = 38 bytes) is Truncated.
    for cut in 0..38.min(bytes.len()) {
        assert_eq!(
            Snapshot::from_bytes(&bytes[..cut]).unwrap_err(),
            SnapshotError::Truncated,
            "cut at {cut}"
        );
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = snap().to_bytes();
    bytes.push(0);
    assert_eq!(
        Snapshot::from_bytes(&bytes).unwrap_err(),
        SnapshotError::TrailingBytes
    );
}

#[test]
fn bit_corruption_never_panics() {
    let c = cfg();
    let good = snap();
    let bytes = good.to_bytes();
    // Flip one byte at a sample of offsets across the whole blob
    // (header and body). Every outcome must be a value: either a typed
    // parse/decode error, or — when the flip lands on a don't-break
    // scalar like a statistics counter — a successful restore. A panic
    // fails the test by itself.
    for i in (0..bytes.len()).step_by(3) {
        for flip in [0x01u8, 0x80] {
            let mut bad = bytes.clone();
            bad[i] ^= flip;
            if let Ok(parsed) = Snapshot::from_bytes(&bad) {
                let _ = World::restore(&c, &parsed);
            }
        }
    }
}

#[test]
fn wrong_config_is_a_mismatch_not_a_guess() {
    let good = snap();
    let mut other = cfg();
    other.seed ^= 1;
    let err = match World::restore(&other, &good) {
        Err(e) => e,
        Ok(_) => panic!("restore under a different config must fail"),
    };
    assert_eq!(err, SnapshotError::ConfigMismatch);
}

#[test]
fn snapshot_bytes_restore_snapshot_is_a_byte_level_fixed_point() {
    let c = cfg();
    let first = snap();
    let bytes = first.to_bytes();
    let parsed = Snapshot::from_bytes(&bytes).expect("parse canonical bytes");
    let (world, engine) = World::restore(&c, &parsed).expect("restore canonical snapshot");
    let second = world.snapshot(&engine).expect("re-snapshot restored world");
    assert_eq!(
        second.to_bytes(),
        bytes,
        "snapshot -> bytes -> restore -> snapshot must reproduce the exact bytes"
    );
}

#[test]
fn unsupported_modes_are_typed_rejections() {
    // Full-report mode cannot snapshot (unbounded job tables).
    let c = cfg();
    let engine = koala::engine_for(&c);
    let world = World::for_seed(&c, 7);
    assert!(matches!(
        world.snapshot(&engine),
        Err(SnapshotError::UnsupportedMode(_))
    ));
    // An explicit World::with_files catalog (installed outside the
    // configuration) cannot snapshot: restore could not rebuild it.
    let catalog = multicluster::FileCatalog::uniform(5, 10.0).unwrap();
    let world = World::for_seed_summarized(&c, 7).with_files(catalog);
    assert!(matches!(
        world.snapshot(&engine),
        Err(SnapshotError::UnsupportedMode(_))
    ));
}
