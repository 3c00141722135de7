//! Replica catalog and transfer-time estimation.
//!
//! KOALA's Close-to-Files (CF) placement policy "uses information about
//! the presence of input files to decide where to place (components of)
//! jobs. Clusters with the necessary input files already present are
//! favoured as placement candidates, followed by clusters for which
//! transfer of those files take the least amount of time." (Section
//! IV-A.) The paper's malleability experiments use WF and stage no files,
//! but CF is part of the KOALA design, so the reproduction implements it;
//! this module is its substrate: a replica location service (RLS) plus a
//! bandwidth matrix for transfer-time estimates.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use simcore::SimDuration;

use crate::ids::ClusterId;
use crate::network::NetworkTopology;

/// Errors from catalog construction and fallible staging queries.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogError {
    /// A bandwidth-matrix row has the wrong width.
    NonSquareMatrix {
        /// Offending row index.
        row: usize,
        /// Entries found in the row.
        len: usize,
        /// Expected width (the number of rows).
        n: usize,
    },
    /// A matrix entry is negative or not finite (zero is allowed and
    /// means "no route").
    InvalidBandwidth {
        /// Source cluster index.
        from: usize,
        /// Destination cluster index.
        to: usize,
        /// The offending value.
        value: f64,
    },
    /// The uniform WAN bandwidth is zero, negative or not finite.
    NonPositiveUniform {
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::NonSquareMatrix { row, len, n } => write!(
                f,
                "bandwidth matrix must be square: row {row} has {len} entries, expected {n}"
            ),
            CatalogError::InvalidBandwidth { from, to, value } => write!(
                f,
                "bandwidth[{from}][{to}] = {value} is invalid (must be finite and >= 0)"
            ),
            CatalogError::NonPositiveUniform { value } => {
                write!(f, "uniform WAN bandwidth must be positive, got {value}")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// Identifier of a logical input file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

/// Metadata of a logical file.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMeta {
    /// Size in gigabytes.
    pub size_gb: f64,
    /// Clusters holding a replica.
    pub replicas: BTreeSet<ClusterId>,
}

/// Replica location service + wide-area bandwidth model.
#[derive(Debug, Clone)]
pub struct FileCatalog {
    files: BTreeMap<FileId, FileMeta>,
    /// `bandwidth_gbps[i][j]`: bandwidth from cluster i to cluster j in
    /// gigabits per second. Diagonal entries are ignored (local access is
    /// free).
    bandwidth_gbps: Vec<Vec<f64>>,
    next_file: u64,
}

impl FileCatalog {
    /// Creates a catalog for `n` clusters with a uniform wide-area
    /// bandwidth (Gb/s) between distinct clusters. Errors when the
    /// bandwidth is zero, negative or not finite.
    pub fn uniform(n: usize, wan_gbps: f64) -> Result<Self, CatalogError> {
        if !(wan_gbps.is_finite() && wan_gbps > 0.0) {
            return Err(CatalogError::NonPositiveUniform { value: wan_gbps });
        }
        Ok(FileCatalog {
            files: BTreeMap::new(),
            bandwidth_gbps: vec![vec![wan_gbps; n]; n],
            next_file: 0,
        })
    }

    /// Creates a catalog with an explicit bandwidth matrix. Errors on a
    /// non-square matrix or a negative/non-finite entry; a zero entry
    /// is allowed and means "no route".
    pub fn with_matrix(bandwidth_gbps: Vec<Vec<f64>>) -> Result<Self, CatalogError> {
        let n = bandwidth_gbps.len();
        for (i, row) in bandwidth_gbps.iter().enumerate() {
            if row.len() != n {
                return Err(CatalogError::NonSquareMatrix {
                    row: i,
                    len: row.len(),
                    n,
                });
            }
            for (j, &bw) in row.iter().enumerate() {
                if !(bw.is_finite() && bw >= 0.0) {
                    return Err(CatalogError::InvalidBandwidth {
                        from: i,
                        to: j,
                        value: bw,
                    });
                }
            }
        }
        Ok(FileCatalog {
            files: BTreeMap::new(),
            bandwidth_gbps,
            next_file: 0,
        })
    }

    /// Creates a catalog whose bandwidth matrix is derived from a
    /// network topology: entry `[i][j]` is the uncontended bottleneck
    /// bandwidth of the `i → j` route. This keeps Close-to-Files
    /// ranking and deferred-claiming estimates consistent with the
    /// contended network the transfers actually cross.
    pub fn over_network(net: &NetworkTopology) -> Self {
        let n = net.clusters();
        let mut matrix = vec![vec![0.0; n]; n];
        for (i, row) in matrix.iter_mut().enumerate() {
            for (j, bw) in row.iter_mut().enumerate() {
                if i != j {
                    *bw = net.path_bandwidth_gbps(ClusterId(i as u16), ClusterId(j as u16));
                }
            }
        }
        FileCatalog {
            files: BTreeMap::new(),
            bandwidth_gbps: matrix,
            next_file: 0,
        }
    }

    /// Registers a file with replicas at the given clusters; returns its id.
    pub fn register(
        &mut self,
        size_gb: f64,
        replicas: impl IntoIterator<Item = ClusterId>,
    ) -> FileId {
        let id = FileId(self.next_file);
        self.next_file += 1;
        self.files.insert(
            id,
            FileMeta {
                size_gb,
                replicas: replicas.into_iter().collect(),
            },
        );
        id
    }

    /// Adds a replica (e.g. after a staged transfer completes).
    pub fn add_replica(&mut self, file: FileId, at: ClusterId) {
        if let Some(meta) = self.files.get_mut(&file) {
            meta.replicas.insert(at);
        }
    }

    /// Metadata of a file.
    pub fn meta(&self, file: FileId) -> Option<&FileMeta> {
        self.files.get(&file)
    }

    /// Number of registered files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when no files are registered.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Estimated time to make `file` available at `dest`: zero if a
    /// replica is local, otherwise the transfer time from the
    /// best-connected replica site. `None` for unknown files, files
    /// without replicas, and unreachable destinations. A zero-size file transfers in zero time from any replica.
    pub fn transfer_time(&self, file: FileId, dest: ClusterId) -> Option<SimDuration> {
        let meta = self.files.get(&file)?;
        if meta.replicas.contains(&dest) {
            return Some(SimDuration::ZERO);
        }
        let mut best: Option<f64> = None;
        for &src in &meta.replicas {
            let bw = self.bandwidth_gbps[src.index()][dest.index()];
            if bw <= 0.0 {
                continue;
            }
            // size GB → gigabits, divided by Gb/s.
            let secs = meta.size_gb * 8.0 / bw;
            best = Some(best.map_or(secs, |b: f64| b.min(secs)));
        }
        best.map(SimDuration::from_secs_f64)
    }

    /// Total estimated staging time for a set of files at `dest`
    /// (transfers run sequentially from the runner's submission site, per
    /// KOALA's third-party transfer model). Unknown, replica-less and
    /// unreachable files count as zero — the estimate is a placement
    /// heuristic, not an admission check.
    pub fn staging_time(&self, files: &[FileId], dest: ClusterId) -> SimDuration {
        files
            .iter()
            .filter_map(|&f| self.transfer_time(f, dest))
            .fold(SimDuration::ZERO, |acc, d| acc + d)
    }

    /// Captures the catalog's dynamic state (registered files in id order
    /// plus the id counter), for checkpointing. The bandwidth matrix is
    /// derived from configuration and is rebuilt on restore.
    pub fn capture_state(&self) -> FileCatalogState {
        FileCatalogState {
            files: self
                .files
                .iter()
                .map(|(id, meta)| (*id, meta.clone()))
                .collect(),
            next_file: self.next_file,
        }
    }

    /// Overwrites the catalog's file table with a captured one (the
    /// bandwidth matrix is left untouched). Fails when a file id is not
    /// below the id counter, which would let a future registration
    /// collide with a restored file.
    pub fn restore_state(&mut self, state: FileCatalogState) -> Result<(), String> {
        if let Some((id, _)) = state.files.iter().find(|(id, _)| id.0 >= state.next_file) {
            return Err(format!(
                "file id {} not below next_file {}",
                id.0, state.next_file
            ));
        }
        self.files = state.files.into_iter().collect();
        self.next_file = state.next_file;
        Ok(())
    }
}

/// A full capture of a [`FileCatalog`]'s dynamic state (the bandwidth
/// matrix is configuration-derived, not state).
#[derive(Debug, Clone, PartialEq)]
pub struct FileCatalogState {
    /// Registered files with their metadata, in ascending id order.
    pub files: Vec<(FileId, FileMeta)>,
    /// The next file id to hand out.
    pub next_file: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_replica_is_free() {
        let mut cat = FileCatalog::uniform(3, 10.0).unwrap();
        let f = cat.register(100.0, [ClusterId(1)]);
        assert_eq!(cat.transfer_time(f, ClusterId(1)), Some(SimDuration::ZERO));
    }

    #[test]
    fn remote_transfer_uses_bandwidth() {
        let mut cat = FileCatalog::uniform(2, 10.0).unwrap(); // 10 Gb/s
        let f = cat.register(10.0, [ClusterId(0)]); // 10 GB = 80 Gb
                                                    // 80 Gb / 10 Gb/s = 8 s.
        assert_eq!(
            cat.transfer_time(f, ClusterId(1)),
            Some(SimDuration::from_secs(8))
        );
    }

    #[test]
    fn best_replica_wins() {
        let mut m = vec![vec![1.0; 3]; 3];
        m[2][1] = 40.0; // cluster 2 → 1 is fast
        let mut cat = FileCatalog::with_matrix(m).unwrap();
        let f = cat.register(10.0, [ClusterId(0), ClusterId(2)]);
        // From 0: 80/1 = 80 s; from 2: 80/40 = 2 s.
        assert_eq!(
            cat.transfer_time(f, ClusterId(1)),
            Some(SimDuration::from_secs(2))
        );
    }

    #[test]
    fn unknown_file_is_none_and_replica_updates() {
        let mut cat = FileCatalog::uniform(2, 10.0).unwrap();
        assert_eq!(cat.transfer_time(FileId(99), ClusterId(0)), None);
        let f = cat.register(10.0, [ClusterId(0)]);
        assert!(cat.transfer_time(f, ClusterId(1)).unwrap() > SimDuration::ZERO);
        cat.add_replica(f, ClusterId(1));
        assert_eq!(cat.transfer_time(f, ClusterId(1)), Some(SimDuration::ZERO));
    }

    #[test]
    fn staging_time_sums_files() {
        let mut cat = FileCatalog::uniform(2, 8.0).unwrap();
        let f1 = cat.register(1.0, [ClusterId(0)]); // 8 Gb / 8 = 1 s
        let f2 = cat.register(2.0, [ClusterId(0)]); // 16 Gb / 8 = 2 s
        assert_eq!(
            cat.staging_time(&[f1, f2], ClusterId(1)),
            SimDuration::from_secs(3)
        );
        assert_eq!(cat.staging_time(&[f1, f2], ClusterId(0)), SimDuration::ZERO);
    }

    #[test]
    fn constructors_reject_bad_bandwidth() {
        assert_eq!(
            FileCatalog::uniform(3, 0.0).unwrap_err(),
            CatalogError::NonPositiveUniform { value: 0.0 }
        );
        assert!(FileCatalog::uniform(3, f64::NAN).is_err());
        assert_eq!(
            FileCatalog::with_matrix(vec![vec![1.0, 2.0], vec![3.0]]).unwrap_err(),
            CatalogError::NonSquareMatrix {
                row: 1,
                len: 1,
                n: 2
            }
        );
        assert_eq!(
            FileCatalog::with_matrix(vec![vec![1.0, -2.0], vec![3.0, 1.0]]).unwrap_err(),
            CatalogError::InvalidBandwidth {
                from: 0,
                to: 1,
                value: -2.0
            }
        );
        // Zero entries are legal: they mean "no route".
        assert!(FileCatalog::with_matrix(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).is_ok());
    }

    #[test]
    fn zero_size_file_stages_in_zero_time() {
        let mut cat = FileCatalog::uniform(2, 1.0).unwrap();
        let f = cat.register(0.0, [ClusterId(0)]);
        assert_eq!(cat.transfer_time(f, ClusterId(1)), Some(SimDuration::ZERO));
    }

    #[test]
    fn staging_edge_cases_are_pinned() {
        let mut cat = FileCatalog::with_matrix(vec![vec![0.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let orphan = cat.register(10.0, []);
        let marooned = cat.register(10.0, [ClusterId(0)]); // 0 → 1 has no route
        let ghost = FileId(99);

        // The estimators collapse every edge case to None / zero (a
        // ranking heuristic must not panic).
        assert_eq!(cat.transfer_time(ghost, ClusterId(0)), None);
        assert_eq!(cat.transfer_time(orphan, ClusterId(1)), None);
        assert_eq!(cat.transfer_time(marooned, ClusterId(1)), None);
        assert_eq!(
            cat.staging_time(&[ghost, orphan, marooned], ClusterId(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn capture_restore_round_trips_and_rejects_colliding_ids() {
        let mut cat = FileCatalog::uniform(3, 10.0).unwrap();
        cat.register(1.0, [ClusterId(0)]);
        let f = cat.register(2.0, [ClusterId(1), ClusterId(2)]);
        let state = cat.capture_state();
        let mut fresh = FileCatalog::uniform(3, 10.0).unwrap();
        fresh.restore_state(state.clone()).unwrap();
        assert_eq!(fresh.capture_state(), state);
        assert_eq!(fresh.meta(f), cat.meta(f));
        // The next registration must not collide with a restored id.
        let g = fresh.register(3.0, [ClusterId(0)]);
        assert!(g.0 >= state.next_file);

        let mut bad = state.clone();
        bad.next_file = 1; // f has id 1 → collision
        assert!(fresh.restore_state(bad).is_err());
    }

    #[test]
    fn over_network_derives_bottleneck_bandwidths() {
        let topo = NetworkTopology::star("t", &[10.0, 1.0, 10.0], SimDuration::ZERO).unwrap();
        let mut cat = FileCatalog::over_network(&topo);
        let f = cat.register(10.0, [ClusterId(0)]);
        // 10 GB = 80 Gb over the 1 Gb/s access of cluster 1: 80 s.
        assert_eq!(
            cat.transfer_time(f, ClusterId(1)),
            Some(SimDuration::from_secs(80))
        );
        // Cluster 0 → 2 bottlenecks at 10 Gb/s: 8 s.
        assert_eq!(
            cat.transfer_time(f, ClusterId(2)),
            Some(SimDuration::from_secs(8))
        );
    }
}
