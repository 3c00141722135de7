//! Standard Workload Format (SWF) import/export.
//!
//! The Parallel Workloads Archive's SWF is the lingua franca of job
//! traces in the scheduling literature the paper builds on (Feitelson's
//! job classification, Iosup et al.'s grid workload characterizations —
//! references \[3\] and \[10\]). This module lets the reproduction consume
//! real traces as KOALA workloads and export its synthetic workloads for
//! analysis by external SWF tools.
//!
//! SWF is line-oriented: `;`-prefixed header comments, then 18
//! whitespace-separated fields per job. The fields used here:
//!
//! | # | Field | Use |
//! |---|-------|-----|
//! | 1 | job number | identifier (re-numbered on import) |
//! | 2 | submit time (s) | arrival instant |
//! | 4 | run time (s) | converted to a work scale against the app model |
//! | 5 | allocated processors | rigid size / malleable initial size |
//! | 8 | requested processors | malleable maximum (when > allocated) |
//!
//! Unknown/missing values are `-1`, per the SWF convention.

use simcore::{SimDuration, SimTime};

use crate::generate::JobStream;
use crate::job::{AppKind, JobClass, JobSpec};
use crate::workload::SubmittedJob;

/// One parsed SWF record (the subset of fields the simulator consumes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwfRecord {
    /// Field 1: job number.
    pub job_id: i64,
    /// Field 2: submit time in seconds.
    pub submit_s: f64,
    /// Field 4: run time in seconds (−1 when unknown).
    pub runtime_s: f64,
    /// Field 5: number of allocated processors (−1 when unknown).
    pub allocated: i64,
    /// Field 8: requested number of processors (−1 when unknown).
    pub requested: i64,
}

/// Errors from SWF parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwfError {
    /// A data line had fewer than the 18 mandatory fields.
    TooFewFields {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        found: usize,
    },
    /// A field failed numeric parsing.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// 1-based field index.
        field: usize,
    },
    /// The underlying reader failed (streaming input only; in-memory
    /// parsing never produces this).
    Io {
        /// 1-based line number the failure occurred at.
        line: usize,
        /// The I/O error's message.
        message: String,
    },
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfError::TooFewFields { line, found } => {
                write!(f, "line {line}: {found} fields (SWF requires 18)")
            }
            SwfError::BadNumber { line, field } => {
                write!(f, "line {line}: field {field} is not a number")
            }
            SwfError::Io { line, message } => {
                write!(f, "line {line}: read failed: {message}")
            }
        }
    }
}

impl std::error::Error for SwfError {}

/// Parses one (pre-trimmed, non-comment) data line at 1-based `lineno`.
fn parse_record_line(line: &str, lineno: usize) -> Result<SwfRecord, SwfError> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() < 18 {
        return Err(SwfError::TooFewFields {
            line: lineno,
            found: fields.len(),
        });
    }
    let num = |i: usize| -> Result<f64, SwfError> {
        // Non-finite values ("nan", "inf") parse as f64 but would
        // poison work-scale arithmetic downstream; reject them here
        // with the field position, like any other malformed number.
        fields[i - 1]
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or(SwfError::BadNumber {
                line: lineno,
                field: i,
            })
    };
    Ok(SwfRecord {
        job_id: num(1)? as i64,
        submit_s: num(2)?,
        runtime_s: num(4)?,
        allocated: num(5)? as i64,
        requested: num(8)? as i64,
    })
}

/// An incremental SWF reader: yields one [`SwfRecord`] per data line in
/// O(1) memory (a single reused line buffer), skipping `;` comments and
/// blank lines. This is the trace path million-job workloads stream
/// through; the eager [`parse`] is a thin wrapper over it, so the two
/// cannot diverge.
///
/// A trailing data line without a newline at EOF is still yielded — the
/// classic incremental-reader edge case, pinned by regression test.
pub struct SwfStream<R> {
    reader: R,
    line: String,
    lineno: usize,
    done: bool,
}

impl<R: std::io::BufRead> SwfStream<R> {
    /// Wraps a buffered reader positioned at the start of an SWF
    /// document.
    pub fn new(reader: R) -> Self {
        SwfStream {
            reader,
            line: String::new(),
            lineno: 0,
            done: false,
        }
    }
}

impl<R: std::io::BufRead> Iterator for SwfStream<R> {
    type Item = Result<SwfRecord, SwfError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) => {
                    // EOF. `read_line` already returned any final line
                    // lacking a terminating newline on the previous
                    // call, so there is nothing left to yield.
                    self.done = true;
                    return None;
                }
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(SwfError::Io {
                        line: self.lineno + 1,
                        message: e.to_string(),
                    }));
                }
            }
            self.lineno += 1;
            let line = self.line.trim();
            if line.is_empty() || line.starts_with(';') {
                continue;
            }
            let parsed = parse_record_line(line, self.lineno);
            if parsed.is_err() {
                self.done = true;
            }
            return Some(parsed);
        }
        None
    }
}

/// Parses SWF text into records, skipping header/comment lines — the
/// eager wrapper over [`SwfStream`] (round-trip equivalence is
/// proptested).
pub fn parse(text: &str) -> Result<Vec<SwfRecord>, SwfError> {
    SwfStream::new(std::io::Cursor::new(text.as_bytes())).collect()
}

/// Conversion policy from SWF records to simulator jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SwfImport {
    /// Application model used for every imported job (its speedup shape;
    /// the SWF runtime is honoured via the work scale).
    pub kind: AppKind,
    /// Import jobs as malleable (min = 2, max = requested or the app's
    /// paper max) instead of rigid at their allocated size.
    pub as_malleable: bool,
    /// Minimum size for malleable imports.
    pub min_size: u32,
}

impl Default for SwfImport {
    fn default() -> Self {
        SwfImport {
            kind: AppKind::Gadget2,
            as_malleable: true,
            min_size: 2,
        }
    }
}

impl SwfImport {
    /// Converts one parsed record into a submitted job, or `None` when
    /// the record is skipped.
    ///
    /// Records with unknown runtime or non-positive processor counts are
    /// skipped (the SWF convention for cancelled/failed jobs), as are
    /// records whose sizes are incompatible with the application's
    /// constraint. The SWF runtime at the allocated size determines the
    /// job's work scale: a job that ran `r` seconds on `p` processors
    /// gets `work_scale = r / T_model(p)`, so replaying it rigidly at
    /// `p` reproduces `r` exactly.
    pub fn convert_one(&self, r: &SwfRecord) -> Option<SubmittedJob> {
        if r.runtime_s <= 0.0 || r.allocated <= 0 {
            return None;
        }
        let model = self.kind.model();
        let alloc = r.allocated as u32;
        let work_scale = r.runtime_s / model.exec_time(alloc);
        let class = if self.as_malleable {
            let max = if r.requested > r.allocated {
                r.requested as u32
            } else {
                self.kind.paper_max_size().max(alloc)
            };
            let min = self.min_size.min(alloc).max(1);
            // The initial size must satisfy the application's
            // constraint; fall back to the constraint floor.
            let initial = self.kind.constraint().floor(alloc).unwrap_or(min);
            JobClass::Malleable {
                min,
                max,
                initial: initial.clamp(min, max),
            }
        } else {
            JobClass::Rigid { size: alloc }
        };
        let spec = JobSpec {
            kind: self.kind.clone(),
            class,
            work_scale,
            initiative: None,
            coalloc: None,
            input_files: Vec::new(),
        };
        if spec.validate().is_err() {
            return None; // sizes incompatible with the app constraint
        }
        Some(SubmittedJob {
            at: SimTime::from_secs_f64(r.submit_s.max(0.0)),
            spec,
        })
    }

    /// Converts parsed records into a submitted-job stream (skipping
    /// records per [`SwfImport::convert_one`]).
    pub fn convert(&self, records: &[SwfRecord]) -> Vec<SubmittedJob> {
        records.iter().filter_map(|r| self.convert_one(r)).collect()
    }
}

/// A streaming trace replay: an SWF reader composed with an import
/// policy, yielding simulator jobs through the workload engine's
/// [`JobStream`] interface — so a million-job archive trace feeds the
/// scheduler's streaming intake without ever materializing a
/// `Vec<SubmittedJob>`.
///
/// Malformed input stops the stream at the offending line; the error is
/// kept for the caller to inspect through [`SwfJobStream::error`]
/// (streams have no per-item error channel).
pub struct SwfJobStream<R> {
    stream: SwfStream<R>,
    import: SwfImport,
    error: Option<SwfError>,
}

impl<R: std::io::BufRead> SwfJobStream<R> {
    /// Opens a streaming replay over `reader` with the given import
    /// policy.
    pub fn new(reader: R, import: SwfImport) -> Self {
        SwfJobStream {
            stream: SwfStream::new(reader),
            import,
            error: None,
        }
    }

    /// The parse error that terminated the stream, if any.
    pub fn error(&self) -> Option<&SwfError> {
        self.error.as_ref()
    }
}

impl<R: std::io::BufRead> JobStream for SwfJobStream<R> {
    fn next_job(&mut self) -> Option<SubmittedJob> {
        if self.error.is_some() {
            return None;
        }
        loop {
            match self.stream.next() {
                None => return None,
                Some(Err(e)) => {
                    self.error = Some(e);
                    return None;
                }
                Some(Ok(r)) => {
                    if let Some(j) = self.import.convert_one(&r) {
                        return Some(j);
                    }
                }
            }
        }
    }
}

/// Exports a submitted-job stream as SWF text (18 fields per line,
/// unknown fields as −1). Runtimes are the *model* runtimes at the
/// initial/rigid size, making the export self-consistent under re-import.
pub fn export(jobs: &[SubmittedJob]) -> String {
    let mut out = String::new();
    out.push_str("; SWF export from malleable-koala\n");
    out.push_str("; UnixStartTime: 0\n");
    out.push_str("; MaxNodes: 272\n");
    for (i, j) in jobs.iter().enumerate() {
        let model = j.spec.kind.model();
        let (size, max) = match j.spec.class {
            JobClass::Rigid { size } => (size, size),
            JobClass::Moldable { min, max } => (min, max),
            JobClass::Malleable {
                min: _,
                max,
                initial,
            } => (initial, max),
        };
        let runtime = model.exec_time(size) * j.spec.work_scale;
        // Millisecond precision: SWF runtimes are real-valued, and whole
        // seconds would round sub-second jobs to 0 — which a re-import
        // then silently drops as "unknown runtime".
        out.push_str(&format!(
            "{} {} -1 {:.3} {} -1 -1 {} {:.3} -1 -1 -1 -1 -1 -1 -1 -1 -1\n",
            i + 1,
            j.at.as_secs_f64() as u64,
            runtime,
            size,
            max,
            runtime,
        ));
    }
    out
}

/// Nominal span helper for imported workloads.
pub fn span(jobs: &[SubmittedJob]) -> SimDuration {
    match (jobs.first(), jobs.last()) {
        (Some(a), Some(b)) => b.at.saturating_since(a.at),
        _ => SimDuration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Computer: DAS-3
; MaxJobs: 3
1 0 5 120 2 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
2 120 3 600 2 -1 -1 46 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
3 240 1 -1 4 -1 -1 -1 -1 -1 0 -1 -1 -1 -1 -1 -1 -1
";

    #[test]
    fn parses_records_and_skips_comments() {
        let recs = parse(SAMPLE).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].job_id, 1);
        assert_eq!(recs[1].submit_s, 120.0);
        assert_eq!(recs[1].requested, 46);
        assert_eq!(recs[2].runtime_s, -1.0);
    }

    #[test]
    fn short_lines_are_rejected_with_position() {
        let err = parse("1 2 3\n").unwrap_err();
        assert_eq!(err, SwfError::TooFewFields { line: 1, found: 3 });
        let err = parse("1 x 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18\n").unwrap_err();
        assert_eq!(err, SwfError::BadNumber { line: 1, field: 2 });
    }

    #[test]
    fn conversion_skips_unknown_runtimes() {
        let recs = parse(SAMPLE).unwrap();
        let jobs = SwfImport::default().convert(&recs);
        assert_eq!(jobs.len(), 2, "the -1-runtime record is dropped");
        assert_eq!(jobs[0].at, SimTime::ZERO);
        assert_eq!(jobs[1].at, SimTime::from_secs(120));
    }

    #[test]
    fn work_scale_reproduces_swf_runtime() {
        let recs = parse(SAMPLE).unwrap();
        let imp = SwfImport {
            as_malleable: false,
            ..SwfImport::default()
        };
        let jobs = imp.convert(&recs);
        let model = AppKind::Gadget2.model();
        // Record 1: 120 s on 2 procs.
        let j = &jobs[0];
        match j.spec.class {
            JobClass::Rigid { size } => {
                let t = model.exec_time(size) * j.spec.work_scale;
                assert!((t - 120.0).abs() < 1e-9);
            }
            _ => panic!("rigid import expected"),
        }
    }

    #[test]
    fn malleable_import_uses_requested_as_max() {
        let recs = parse(SAMPLE).unwrap();
        let jobs = SwfImport::default().convert(&recs);
        match jobs[1].spec.class {
            JobClass::Malleable { min, max, initial } => {
                assert_eq!(min, 2);
                assert_eq!(max, 46, "field 8 becomes the malleable max");
                assert_eq!(initial, 2);
            }
            _ => panic!("malleable import expected"),
        }
    }

    #[test]
    fn export_import_roundtrip_preserves_arrivals_and_runtimes() {
        use crate::workload::WorkloadSpec;
        let mut rng = simcore::SimRng::seed_from_u64(5);
        let mut spec = WorkloadSpec::wm();
        spec.jobs = 20;
        let original = spec.generate(&mut rng);
        let text = export(&original);
        let reimported = SwfImport::default().convert(&parse(&text).unwrap());
        assert_eq!(reimported.len(), original.len());
        for (a, b) in original.iter().zip(&reimported) {
            assert_eq!(a.at.as_millis() / 1000, b.at.as_millis() / 1000);
        }
    }

    #[test]
    fn comments_blanks_and_whitespace_variants_are_tolerated() {
        // CRLF endings, tabs as separators, leading whitespace before a
        // comment marker, and blank lines must all parse cleanly.
        let text = "; header\r\n\
                    \r\n\
                    \t; indented comment\r\n\
                    1\t0\t5\t120\t2\t-1\t-1\t4\t-1\t-1\t1\t-1\t-1\t-1\t-1\t-1\t-1\t-1\r\n\
                    \n\
                    2 120 3 600 2 -1 -1 46 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let recs = parse(text).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].runtime_s, 120.0);
        assert_eq!(recs[1].requested, 46);
        // Comment-only and empty inputs parse to nothing.
        assert_eq!(parse("").unwrap(), vec![]);
        assert_eq!(parse("; just\n; headers\n").unwrap(), vec![]);
    }

    #[test]
    fn truncated_and_malformed_lines_report_their_position() {
        // 17 of 18 fields, on line 3 (after a comment and a blank).
        let text = "; hdr\n\n1 0 5 120 2 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1\n";
        assert_eq!(
            parse(text).unwrap_err(),
            SwfError::TooFewFields { line: 3, found: 17 }
        );
        // A single stray token.
        assert_eq!(
            parse("garbage\n").unwrap_err(),
            SwfError::TooFewFields { line: 1, found: 1 }
        );
        // Bad numbers anywhere in the consumed fields carry the field index.
        let bad_field5 = "1 0 5 120 x -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        assert_eq!(
            parse(bad_field5).unwrap_err(),
            SwfError::BadNumber { line: 1, field: 5 }
        );
        // Errors display their position for the operator.
        let msg = parse(bad_field5).unwrap_err().to_string();
        assert!(msg.contains("line 1") && msg.contains("field 5"), "{msg}");
        // Extra fields beyond 18 are tolerated (lenient parsing).
        let extra = "1 0 5 120 2 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1 99 99\n";
        assert_eq!(parse(extra).unwrap().len(), 1);
    }

    #[test]
    fn non_finite_fields_are_rejected_not_imported() {
        // "nan"/"inf" parse as f64 — they must still be treated as
        // malformed, or a NaN runtime would slip a NaN work scale into
        // the simulator.
        for bad in ["nan", "inf", "-inf", "NaN"] {
            let line = format!("1 0 5 {bad} 2 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
            assert_eq!(
                parse(&line).unwrap_err(),
                SwfError::BadNumber { line: 1, field: 4 },
                "{bad} accepted"
            );
        }
    }

    #[test]
    fn subsecond_runtimes_survive_a_roundtrip() {
        // A 0.4 s job: whole-second export used to round it to 0, and
        // the re-import then dropped it as "unknown runtime".
        let spec = crate::JobSpec {
            work_scale: 0.4 / AppKind::Ft.model().exec_time(2),
            ..crate::JobSpec::rigid(AppKind::Ft, 2)
        };
        let jobs = vec![SubmittedJob {
            at: SimTime::ZERO,
            spec,
        }];
        let text = export(&jobs);
        let imp = SwfImport {
            kind: AppKind::Ft,
            as_malleable: false,
            ..SwfImport::default()
        };
        let reimported = imp.convert(&parse(&text).unwrap());
        assert_eq!(reimported.len(), 1, "sub-second job lost in roundtrip");
        let model = AppKind::Ft.model();
        let t = model.exec_time(2) * reimported[0].spec.work_scale;
        assert!((t - 0.4).abs() < 1e-3, "runtime drifted: {t}");
    }

    #[test]
    fn export_parse_export_is_idempotent() {
        // After one import cycle the textual representation is a fixed
        // point: exporting the re-imported stream reproduces the bytes.
        use crate::workload::WorkloadSpec;
        let mut rng = simcore::SimRng::seed_from_u64(42);
        let mut spec = WorkloadSpec::wm();
        spec.jobs = 30;
        let original = spec.generate(&mut rng);
        let e1 = export(&original);
        let j2 = SwfImport::default().convert(&parse(&e1).unwrap());
        let e2 = export(&j2);
        let j3 = SwfImport::default().convert(&parse(&e2).unwrap());
        let e3 = export(&j3);
        assert_eq!(j2.len(), j3.len());
        assert_eq!(e2, e3, "export∘parse∘convert must be a fixed point");
    }

    #[test]
    fn trailing_line_without_newline_is_still_yielded() {
        // The streaming edge case: a final data line with no '\n' at EOF
        // must be yielded, not dropped by the EOF check — in both the
        // streaming reader and the eager wrapper, and regardless of the
        // reader's buffer size.
        let text = "; hdr\n1 0 5 120 2 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n\
                    2 120 3 600 2 -1 -1 46 -1 -1 1 -1 -1 -1 -1 -1 -1 -1";
        assert!(!text.ends_with('\n'));
        let eager = parse(text).unwrap();
        assert_eq!(eager.len(), 2, "eager parse dropped the final line");
        assert_eq!(eager[1].submit_s, 120.0);
        let streamed: Vec<SwfRecord> = SwfStream::new(std::io::Cursor::new(text.as_bytes()))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, eager);
        // A 1-byte BufReader forces the reader through every refill path.
        let tiny = std::io::BufReader::with_capacity(1, std::io::Cursor::new(text.as_bytes()));
        let chunked: Vec<SwfRecord> = SwfStream::new(tiny).collect::<Result<_, _>>().unwrap();
        assert_eq!(chunked, eager);
        // Errors on an unterminated final line carry the right position.
        let bad = "; hdr\n1 2 3";
        assert_eq!(
            parse(bad).unwrap_err(),
            SwfError::TooFewFields { line: 2, found: 3 }
        );
    }

    #[test]
    fn stream_matches_eager_parse_and_stops_at_first_error() {
        let ok = SAMPLE;
        let streamed: Vec<SwfRecord> = SwfStream::new(std::io::Cursor::new(ok.as_bytes()))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, parse(ok).unwrap());
        // After an error the stream terminates (no further items).
        let bad = "1 0 5 120 2 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n\
                   garbage\n\
                   2 120 3 600 2 -1 -1 46 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let mut s = SwfStream::new(std::io::Cursor::new(bad.as_bytes()));
        assert!(s.next().unwrap().is_ok());
        assert_eq!(
            s.next().unwrap().unwrap_err(),
            SwfError::TooFewFields { line: 2, found: 1 }
        );
        assert!(s.next().is_none(), "stream must stop after an error");
    }

    #[test]
    fn swf_job_stream_matches_eager_convert() {
        let imp = SwfImport::default();
        let eager = imp.convert(&parse(SAMPLE).unwrap());
        let mut s = SwfJobStream::new(std::io::Cursor::new(SAMPLE.as_bytes()), imp);
        let streamed: Vec<SubmittedJob> = std::iter::from_fn(|| s.next_job()).collect();
        assert_eq!(streamed, eager);
        assert!(s.error().is_none());
        // A malformed line surfaces through error() after the stream ends.
        let bad = "1 0 5 120 2 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\nbroken\n";
        let mut s = SwfJobStream::new(std::io::Cursor::new(bad.as_bytes()), SwfImport::default());
        assert!(s.next_job().is_some());
        assert!(s.next_job().is_none());
        assert_eq!(
            s.error(),
            Some(&SwfError::TooFewFields { line: 2, found: 1 })
        );
    }

    #[test]
    fn io_errors_surface_with_their_line_position() {
        struct FailAfter {
            inner: std::io::Cursor<&'static [u8]>,
            reads: usize,
        }
        impl std::io::Read for FailAfter {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                std::io::Read::read(&mut self.inner, buf)
            }
        }
        impl std::io::BufRead for FailAfter {
            fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
                if self.reads > 0 {
                    self.reads -= 1;
                    return std::io::BufRead::fill_buf(&mut self.inner);
                }
                Err(std::io::Error::other("disk on fire"))
            }
            fn consume(&mut self, amt: usize) {
                std::io::BufRead::consume(&mut self.inner, amt)
            }
        }
        let mut s = SwfStream::new(FailAfter {
            inner: std::io::Cursor::new(b"; header only, then the reader dies"),
            reads: 0,
        });
        match s.next() {
            Some(Err(SwfError::Io { line: 1, message })) => {
                assert!(message.contains("disk on fire"))
            }
            other => panic!("expected an Io error, got {other:?}"),
        }
        assert!(s.next().is_none());
    }

    #[test]
    fn all_imports_validate() {
        let recs = parse(SAMPLE).unwrap();
        for imp in [
            SwfImport::default(),
            SwfImport {
                as_malleable: false,
                ..SwfImport::default()
            },
            SwfImport {
                kind: AppKind::Ft,
                ..SwfImport::default()
            },
        ] {
            for j in imp.convert(&recs) {
                j.spec.validate().unwrap();
            }
        }
    }
}
