//! Streaming shard output: one JSONL record per completed cell.
//!
//! The executor appends a [`CellRecord`] line to the shard file the moment a
//! cell finishes, so a killed sweep loses at most the cells that were still
//! in flight. Re-running the same sweep against the same shard path *resumes*:
//! records whose spec and round count still match the enumerated cell are
//! trusted (each cell is a pure function of its spec), everything else —
//! missing cells, a truncated final line from a kill, records left by an
//! older sweep definition — is simply recomputed.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};
use tsa_scenario::ScenarioOutcome;

use crate::spec::SweepCell;

/// One completed cell, as stored on a shard line.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellRecord {
    /// The cell's position in the sweep enumeration order.
    pub cell: usize,
    /// The measured rounds the cell ran.
    pub rounds: u64,
    /// The cell's outcome (its spec embedded inside).
    pub outcome: ScenarioOutcome,
}

impl CellRecord {
    /// Whether this record is a valid checkpoint for `cell`: same position,
    /// same requested rounds, and the outcome's embedded spec matches the
    /// enumerated spec. For one-shot kinds the bootstrap flag is ignored (it
    /// is meaningless there); maintained cells compare it strictly, because
    /// it changes the result.
    pub fn matches(&self, cell: &SweepCell) -> bool {
        let mut spec = self.outcome.spec.clone();
        if !matches!(cell.spec.kind, tsa_scenario::ScenarioKind::MaintainedLds) {
            spec.bootstrap = cell.spec.bootstrap;
        }
        self.cell == cell.index && self.rounds == cell.rounds && spec == cell.spec
    }

    /// The record's compact single-line JSON form.
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(self).expect("cell records serialize")
    }
}

/// Appends one record to `writer` as a JSONL line and flushes, so the line is
/// durable the moment the cell completes.
pub fn append_record<W: Write>(writer: &mut W, record: &CellRecord) -> std::io::Result<()> {
    writeln!(writer, "{}", record.to_jsonl())?;
    writer.flush()
}

/// Reads every parseable record from a shard file. Unparseable lines — the
/// truncated tail a killed run leaves behind, or garbage, UTF-8 or not — are
/// counted, not fatal.
pub fn read_shards(path: &Path) -> std::io::Result<(Vec<CellRecord>, usize)> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in BufReader::new(file).split(b'\n') {
        let Ok(line) = String::from_utf8(line?) else {
            skipped += 1;
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<CellRecord>(&line) {
            Ok(record) => records.push(record),
            Err(_) => skipped += 1,
        }
    }
    Ok((records, skipped))
}

/// Splits shard records into checkpoints usable for `cells` (keyed by cell
/// index) and the count of stale records that no longer match the sweep.
pub fn usable_checkpoints(
    records: Vec<CellRecord>,
    cells: &[SweepCell],
) -> (HashMap<usize, CellRecord>, usize) {
    let mut usable = HashMap::new();
    let mut stale = 0usize;
    for record in records {
        match cells.get(record.cell) {
            Some(cell) if record.matches(cell) => {
                usable.insert(record.cell, record);
            }
            _ => stale += 1,
        }
    }
    (usable, stale)
}

/// Opens a shard file for appending (creating parent directories and the file
/// as needed), wrapped in a buffered writer. If a previous run was killed
/// mid-write the file ends without a newline; a separator is written first so
/// the next record starts on its own line instead of merging into the
/// truncated tail.
pub fn open_shard_for_append(path: &Path) -> std::io::Result<BufWriter<File>> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let ends_mid_line = (|| -> std::io::Result<bool> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = File::open(path)?;
        if file.metadata()?.len() == 0 {
            return Ok(false);
        }
        file.seek(SeekFrom::End(-1))?;
        let mut last = [0u8; 1];
        file.read_exact(&mut last)?;
        Ok(last[0] != b'\n')
    })()
    .unwrap_or(false);
    let mut writer = BufWriter::new(OpenOptions::new().create(true).append(true).open(path)?);
    if ends_mid_line {
        writeln!(writer)?;
        writer.flush()?;
    }
    Ok(writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use tsa_scenario::{Scenario, ScenarioKind, ScenarioSpec};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tsa-sweep-shard-{}-{name}", std::process::id()))
    }

    fn sample_record(index: usize) -> (SweepCell, CellRecord) {
        let spec = ScenarioSpec::new(ScenarioKind::Sampling, 32).with_seed(9 + index as u64);
        let mut spec = spec;
        spec.attempts = 500;
        let outcome = Scenario::from_spec(spec.clone()).run(0);
        let cell = SweepCell {
            index,
            spec,
            rounds: 0,
        };
        (
            cell,
            CellRecord {
                cell: index,
                rounds: 0,
                outcome,
            },
        )
    }

    #[test]
    fn records_survive_a_write_read_cycle_and_tolerate_truncation() {
        let path = tmp("rw");
        let _ = std::fs::remove_file(&path);
        let (cell, record) = sample_record(0);
        {
            let mut w = open_shard_for_append(&path).unwrap();
            append_record(&mut w, &record).unwrap();
            // Simulate a kill mid-write: a truncated second line.
            write!(w, "{{\"cell\":1,\"rounds\":0,\"outc").unwrap();
            w.flush().unwrap();
        }
        let (records, skipped) = read_shards(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(skipped, 1, "the truncated tail is skipped, not fatal");
        assert!(records[0].matches(&cell));
        assert_eq!(records[0].to_jsonl(), record.to_jsonl());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_hostile_line_is_skipped_and_the_records_around_it_survive() {
        // A million unclosed `[` would overflow a recursive parser's stack.
        let path = tmp("hostile");
        let (_, record) = sample_record(0);
        let (_, next) = sample_record(1);
        std::fs::write(
            &path,
            [
                record.to_jsonl().as_bytes(),
                b"\n",
                "[".repeat(1_000_000).as_bytes(),
                // Not UTF-8 at all.
                b"\n\xFF\xFE\n",
                next.to_jsonl().as_bytes(),
                b"\n",
            ]
            .concat(),
        )
        .unwrap();
        let (records, skipped) = read_shards(&path).unwrap();
        assert_eq!(skipped, 2);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].to_jsonl(), next.to_jsonl());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_shard_files_read_as_empty() {
        let (records, skipped) = read_shards(&tmp("missing-never-created")).unwrap();
        assert!(records.is_empty());
        assert_eq!(skipped, 0);
    }

    #[test]
    fn stale_records_are_rejected_by_checkpoint_matching() {
        let (cell, good) = sample_record(0);
        // A record whose spec drifted (different n) must not be trusted.
        let mut stale = good.clone();
        stale.outcome.spec.n = 64;
        // A record pointing past the enumeration is stale too.
        let mut out_of_range = good.clone();
        out_of_range.cell = 99;
        let sweep_cells = vec![cell];
        let (usable, stale_count) =
            usable_checkpoints(vec![good, stale, out_of_range], &sweep_cells);
        assert_eq!(usable.len(), 1);
        assert_eq!(stale_count, 2);
        assert!(usable.contains_key(&0));
    }

    #[test]
    fn bootstrap_correction_does_not_invalidate_checkpoints() {
        // run() corrects spec.bootstrap to what actually happened; a one-shot
        // kind never bootstraps, so the outcome's flag may differ from the
        // enumerated cell's. matches() must tolerate exactly that field.
        let base = ScenarioSpec::new(ScenarioKind::Routing, 32);
        let sweep = SweepSpec::new("b", base);
        let cells = sweep.enumerate();
        let outcome = Scenario::from_spec(cells[0].spec.clone()).run(cells[0].rounds);
        let record = CellRecord {
            cell: 0,
            rounds: cells[0].rounds,
            outcome,
        };
        assert!(record.matches(&cells[0]));
    }
}
