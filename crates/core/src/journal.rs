//! The sweep checkpoint journal: crash-safe, bit-exact resume for
//! long-running latency-throughput sweeps.
//!
//! A sweep campaign can run for hours; a crash (or a `kill -9`) near the
//! end used to discard every completed point. The journal makes completed
//! points durable: as each sweep point finishes, one line is appended to a
//! plain-text journal file and `fsync`'d before the job reports success.
//! Re-running the same sweep with the same journal path skips the recorded
//! points and re-runs only the missing ones — and because each point's
//! seed is a pure function of `(base seed, index)` and the recorded values
//! round-trip through exact bit patterns, a resumed sweep's outputs are
//! **bit-identical** to an uninterrupted run at any thread count.
//!
//! # Format
//!
//! Line-oriented text, one record per line, no external dependencies:
//!
//! ```text
//! footprint-sweep-v2 seed=000000000000f007 rates=3fa999999999999a,3fc3333333333333 config=SimulationBuilder { topology: Mesh { width: 4, height: 4 }, … }
//! point 0 3fa999999999999a 3fa95810624dd2f2 4028f5c28f5c28f6
//! point 1 3fc3333333333333 3fc30a3d70a3d70a 402e147ae147ae14
//! ```
//!
//! * The header binds the journal to the sweep's base seed, its exact
//!   rate grid (`f64::to_bits` hex) and its configuration identity: every
//!   other builder field plus the sweep options that shape the recorded
//!   numbers (latency class, fault plan, unreachable policy). A journal
//!   from a *different* sweep is a hard error, never silently merged.
//! * Each `point` line records `index offered accepted latency`, all three
//!   values as `f64` bit patterns, so restored points compare equal to the
//!   freshly-computed ones down to the last bit.
//! * A torn final line (the crash happened mid-append, so it lacks its
//!   newline) is cut off on open and its point re-runs; a malformed
//!   *complete* line means real corruption and is reported as an error.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use footprint_stats::{SweepPoint, SweepProgress};

/// Magic + version tag of the journal header line.
const HEADER_TAG: &str = "footprint-sweep-v2";

/// A sweep checkpoint journal bound to one `(config, seed, rates)`
/// campaign.
///
/// Obtained through [`SweepJournal::open`]; the completed-point map it
/// restores is consumed by `SimulationBuilder::sweep_with` when
/// `SweepOptions::checkpoint` is set.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    file: File,
    total: usize,
    restored: usize,
    completed: BTreeMap<usize, SweepPoint>,
}

impl SweepJournal {
    /// Opens (or creates) the journal at `path` for a sweep of `rates`
    /// seeded with `seed` under the configuration identity `config` (a
    /// single line; `SimulationBuilder::sweep_with` derives it from the
    /// builder and the sweep options).
    ///
    /// A fresh file gets the header written and synced immediately. An
    /// existing file is validated against `(config, seed, rates)` and its
    /// recorded points are restored; a torn trailing line is dropped.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the file cannot be opened or
    /// synced, when the header belongs to a different campaign, or when a
    /// complete line is corrupt.
    pub fn open(path: &Path, config: &str, seed: u64, rates: &[f64]) -> Result<Self, String> {
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open checkpoint journal {}: {e}", path.display()))?;
        let mut contents = String::new();
        file.read_to_string(&mut contents)
            .map_err(|e| format!("cannot read checkpoint journal {}: {e}", path.display()))?;
        let mut journal = SweepJournal {
            path: path.to_path_buf(),
            file,
            total: rates.len(),
            restored: 0,
            completed: BTreeMap::new(),
        };
        // Every append ends with a newline, so anything after the last one
        // is a torn append: never a record, even if what survived of it
        // parses. It is cut off, so the next append starts on a line of
        // its own, and its point re-runs.
        let complete = contents.rfind('\n').map_or(0, |i| i + 1);
        if complete > 0 {
            journal.replay(&contents[..complete], config, seed, rates)?;
            journal.restored = journal.completed.len();
        }
        if complete < contents.len() {
            journal
                .file
                .set_len(complete as u64)
                .map_err(|e| format!("cannot trim checkpoint journal {}: {e}", path.display()))?;
        }
        if complete == 0 {
            let header = Self::header_line(config, seed, rates);
            journal.append_line(&header)?;
        }
        Ok(journal)
    }

    fn header_line(config: &str, seed: u64, rates: &[f64]) -> String {
        let mut line = format!("{HEADER_TAG} seed={seed:016x} rates=");
        for (i, r) in rates.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "{:016x}", r.to_bits());
        }
        let _ = write!(line, " config={config}");
        line
    }

    /// Validates the header and restores the recorded points from a
    /// non-empty journal body made of complete lines.
    fn replay(
        &mut self,
        contents: &str,
        config: &str,
        seed: u64,
        rates: &[f64],
    ) -> Result<(), String> {
        let display = self.path.display();
        let expected_header = Self::header_line(config, seed, rates);
        for (lineno, line) in contents.lines().enumerate() {
            if lineno == 0 {
                if line != expected_header {
                    return Err(format!(
                        "checkpoint journal {display} belongs to a different sweep \
                         (header mismatch): refusing to resume. Delete the file to \
                         start over, or point the sweep at a fresh journal path."
                    ));
                }
                continue;
            }
            let (index, point) = Self::parse_point(line, rates).ok_or_else(|| {
                format!(
                    "checkpoint journal {display} is corrupt at line {}: {line:?}",
                    lineno + 1
                )
            })?;
            self.completed.insert(index, point);
        }
        Ok(())
    }

    /// Parses one `point <index> <offered> <accepted> <latency>` record.
    /// Returns `None` on any malformation, including an index outside the
    /// rate grid or an offered-load bit pattern that does not match the
    /// grid (both mean the journal is not from this sweep).
    fn parse_point(line: &str, rates: &[f64]) -> Option<(usize, SweepPoint)> {
        let mut parts = line.split(' ');
        if parts.next()? != "point" {
            return None;
        }
        let index: usize = parts.next()?.parse().ok()?;
        let offered = f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?);
        let accepted = f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?);
        let latency = f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?);
        if parts.next().is_some() {
            return None;
        }
        if rates.get(index)?.to_bits() != offered.to_bits() {
            return None;
        }
        Some((
            index,
            SweepPoint {
                offered,
                accepted,
                latency,
            },
        ))
    }

    fn append_line(&mut self, line: &str) -> Result<(), String> {
        let display = self.path.display();
        self.file
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("cannot append to checkpoint journal {display}: {e}"))?;
        // Durability is the whole point: the record must survive a
        // `kill -9` the instant after the job reports completion.
        self.file
            .sync_data()
            .map_err(|e| format!("cannot sync checkpoint journal {display}: {e}"))
    }

    /// Records sweep point `index` as completed, fsync'd before return.
    ///
    /// # Errors
    ///
    /// Returns a message when the append or sync fails (the sweep treats
    /// this as fatal: continuing would silently lose crash safety).
    pub fn record(&mut self, index: usize, point: &SweepPoint) -> Result<(), String> {
        let line = format!(
            "point {index} {:016x} {:016x} {:016x}",
            point.offered.to_bits(),
            point.accepted.to_bits(),
            point.latency.to_bits()
        );
        self.append_line(&line)?;
        self.completed.insert(index, *point);
        Ok(())
    }

    /// The points restored from disk plus those recorded this run, keyed
    /// by sweep index (ascending — i.e. ascending offered load).
    pub fn completed(&self) -> &BTreeMap<usize, SweepPoint> {
        &self.completed
    }

    /// Progress accounting: total grid size, completed points, and how
    /// many of those were restored from disk rather than computed by this
    /// process.
    pub fn progress(&self) -> SweepProgress {
        SweepProgress {
            total: self.total,
            completed: self.completed.len(),
            resumed: self.restored,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONFIG: &str = "routing=footprint";

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("footprint-journal-test-{}-{name}", std::process::id()));
        p
    }

    fn point(offered: f64) -> SweepPoint {
        SweepPoint {
            offered,
            accepted: offered * 0.96,
            latency: 12.75,
        }
    }

    #[test]
    fn fresh_journal_roundtrips_points_bit_exactly() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let rates = [0.05, 0.15, 0.25];
        {
            let mut j = SweepJournal::open(&path, CONFIG, 0xF007, &rates).unwrap();
            assert!(j.completed().is_empty());
            j.record(0, &point(0.05)).unwrap();
            j.record(2, &point(0.25)).unwrap();
        }
        let j = SweepJournal::open(&path, CONFIG, 0xF007, &rates).unwrap();
        assert_eq!(j.completed().len(), 2);
        assert_eq!(j.completed()[&0], point(0.05));
        assert_eq!(j.completed()[&2], point(0.25));
        let progress = j.progress();
        assert_eq!(progress.total, 3);
        assert_eq!(progress.completed, 2);
        assert_eq!(progress.resumed, 2);
        assert!(!progress.is_complete());
        assert_eq!(progress.remaining(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_campaign_is_refused() {
        let path = tmp("mismatch");
        let _ = std::fs::remove_file(&path);
        let rates = [0.05, 0.15];
        drop(SweepJournal::open(&path, CONFIG, 1, &rates).unwrap());
        // Different seed.
        let err = SweepJournal::open(&path, CONFIG, 2, &rates).unwrap_err();
        assert!(err.contains("different sweep"), "{err}");
        // Different rate grid.
        let err = SweepJournal::open(&path, CONFIG, 1, &[0.05, 0.20]).unwrap_err();
        assert!(err.contains("different sweep"), "{err}");
        // Different configuration.
        let err = SweepJournal::open(&path, "routing=dor", 1, &rates).unwrap_err();
        assert!(err.contains("different sweep"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_but_midfile_corruption_is_fatal() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let rates = [0.05, 0.15];
        {
            let mut j = SweepJournal::open(&path, CONFIG, 9, &rates).unwrap();
            j.record(0, &point(0.05)).unwrap();
        }
        // Simulate a crash mid-append: a truncated record with no newline.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"point 1 3fc333").unwrap();
        }
        let mut j = SweepJournal::open(&path, CONFIG, 9, &rates).unwrap();
        assert_eq!(j.completed().len(), 1, "torn tail ignored, point 0 kept");
        // The re-run point is appended on a line of its own, so the
        // resumed journal replays cleanly.
        j.record(1, &point(0.15)).unwrap();
        drop(j);
        let j = SweepJournal::open(&path, CONFIG, 9, &rates).unwrap();
        assert_eq!(j.completed().len(), 2);
        assert_eq!(j.completed()[&1], point(0.15));
        drop(j);
        // A torn line is never a record, even when what survived of it
        // happens to parse: its last field may be cut short.
        let header = SweepJournal::header_line(CONFIG, 9, &rates);
        let (offered, accepted) = (0.15f64.to_bits(), 0.14f64.to_bits());
        let torn = format!("{header}\npoint 1 {offered:016x} {accepted:016x} 4028f5c2");
        std::fs::write(&path, torn).unwrap();
        let j = SweepJournal::open(&path, CONFIG, 9, &rates).unwrap();
        assert!(j.completed().is_empty(), "{:?}", j.completed());
        drop(j);
        // Now corrupt a *complete* line in the middle: that is real
        // corruption, not a torn append.
        std::fs::write(
            &path,
            format!(
                "{}\ngarbage line\npoint 0 {:016x} {:016x} {:016x}\n",
                SweepJournal::header_line(CONFIG, 9, &rates),
                0.05f64.to_bits(),
                0.04f64.to_bits(),
                10.0f64.to_bits()
            ),
        )
        .unwrap();
        let err = SweepJournal::open(&path, CONFIG, 9, &rates).unwrap_err();
        assert!(err.contains("corrupt at line 2"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn point_records_from_a_different_grid_are_rejected() {
        let rates = [0.05, 0.15];
        // Offered bits must match the grid entry at the index.
        let line = format!(
            "point 1 {:016x} {:016x} {:016x}",
            0.10f64.to_bits(),
            0.09f64.to_bits(),
            11.0f64.to_bits()
        );
        assert!(SweepJournal::parse_point(&line, &rates).is_none());
        // Index out of range.
        let line = format!(
            "point 7 {:016x} {:016x} {:016x}",
            0.05f64.to_bits(),
            0.04f64.to_bits(),
            11.0f64.to_bits()
        );
        assert!(SweepJournal::parse_point(&line, &rates).is_none());
    }
}
