//! A sweep job's CSV in an unlinked temporary file.
//!
//! Every sweep job, local or distributed, appends its rows to a [`CsvFile`]
//! from the moment it starts, and the file is their one record: each append
//! names its shard and lands at the file's end, and the file reads its CSV
//! back by one rule — the header, then each shard's rows in shard order
//! through the first incomplete shard. A local job appends its ranges in
//! order, so its CSV is the file as it stands; a distributed job's chunks
//! arrive interleaved, and its CSV is the file's runs of rows in shard order.
//!
//! The file is created under [`std::env::temp_dir`] and removed from the
//! directory at once, so it has no name: the kernel frees it when its last
//! handle closes — when the job is evicted, when the process exits, or
//! after a `kill -9` — and nothing is ever left behind. A finished job costs
//! the heap a few bytes, not its rows. A `GET` sends the file with
//! `sendfile(2)`, piece by piece, from an offset of its own, and every read
//! and write names its offset, so the file position is never used and any
//! number of fetches may interleave.
//!
//! This relies on Linux's semantics of a file unlinked while open (the
//! server runs only on Linux). Point `$TMPDIR` at a disk: on a tmpfs the
//! bytes stay in memory, as shared memory.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::ops::Range;
use std::os::unix::fs::{FileExt, OpenOptionsExt};
use std::sync::atomic::{AtomicU64, Ordering};

use ayd_sweep::{ShardSpec, CSV_HEADER};

/// Distinguishes the names of the files one process creates.
static NEXT_NAME: AtomicU64 = AtomicU64::new(0);

/// A sweep CSV in an unlinked temporary file: the header, then the rows of
/// `count` shards of a `cells`-cell grid, appended shard by shard in any
/// order.
///
/// The CSV reads back as the header, then each shard's rows in shard order
/// through the first incomplete shard — for [`CsvFile::len`],
/// [`CsvFile::rows`], [`CsvFile::copy_to`], equality and a `GET`'s
/// `sendfile` loop alike — from a table of its pieces kept as the appends
/// come: runs of rows that follow each other in the file are one piece.
///
/// A job that has no file (none could be created, or its thread died
/// before it had one) holds the header alone, in memory. An append that
/// fails counts for nothing: the CSV stays what the appends before it
/// made, whatever the failed write left in the file past them.
///
/// When its job is over the file is sealed ([`CsvFile::seal`]): it keeps
/// its pieces and its row count, and drops the shard records, which only
/// appends need.
pub struct CsvFile {
    file: Option<File>,
    /// Bytes the file holds, read back or not: where the next append lands.
    end: u64,
    cells: usize,
    /// One record per shard; none once sealed.
    shards: Vec<Shard>,
    /// The first incomplete shard, or `shards.len()`.
    frontier: usize,
    /// Cells of the shards before the frontier.
    done: usize,
    /// The CSV's pieces, in order: where each ends in the CSV and in the
    /// file.
    pieces: Vec<(u64, u64)>,
}

/// One shard of a [`CsvFile`]: the cells it owns, the rows appended (its
/// checkpoint), and, while it lies past the frontier, where those rows are
/// in the file.
struct Shard {
    total: usize,
    rows: usize,
    runs: Vec<Range<u64>>,
}

impl CsvFile {
    /// The header's line.
    fn header() -> String {
        format!("{CSV_HEADER}\n")
    }

    /// Creates a file under [`std::env::temp_dir`] (owner-only, a fresh
    /// name) for `count` shards of a `cells`-cell grid, removes its name at
    /// once and writes the header into it.
    pub fn create(cells: usize, count: usize) -> io::Result<Self> {
        let dir = std::env::temp_dir();
        let (path, file) = loop {
            let name = format!(
                "ayd-sweep-{}-{}.csv",
                std::process::id(),
                NEXT_NAME.fetch_add(1, Ordering::Relaxed)
            );
            let path = dir.join(name);
            match OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .mode(0o600)
                .open(&path)
            {
                Ok(file) => break (path, file),
                // A name left by an earlier process of the same id.
                Err(error) if error.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(error) => return Err(error),
            }
        };
        std::fs::remove_file(&path)?;
        file.write_all_at(Self::header().as_bytes(), 0)?;
        Ok(Self::new(Some(file), cells, count))
    }

    /// The header-only CSV of a job over `count` shards of a `cells`-cell
    /// grid that has no file.
    pub fn header_only(cells: usize, count: usize) -> Self {
        Self::new(None, cells, count)
    }

    fn new(file: Option<File>, cells: usize, count: usize) -> Self {
        let header = Self::header().len() as u64;
        let shards = (0..count)
            .map(|index| Shard {
                total: ShardSpec { index, count }.range(cells).len(),
                rows: 0,
                runs: Vec::new(),
            })
            .collect();
        let mut csv = Self {
            file,
            end: header,
            cells,
            shards,
            frontier: 0,
            done: 0,
            pieces: vec![(header, header)],
        };
        // Shards that own no cells are complete from the start.
        csv.advance();
        csv
    }

    /// Appends `count` newline-terminated rows of shard `shard`, which
    /// continue its checkpoint and fit in its cells (the caller checks
    /// both), at the file's end. On an error nothing is counted (see
    /// [`CsvFile`]); a CSV without a file, or a sealed one, refuses every
    /// append. No rows (an empty chunk) leave no trace.
    pub fn append(&mut self, shard: usize, rows: &str, count: usize) -> io::Result<()> {
        let file = self
            .file
            .as_ref()
            .ok_or_else(|| io::Error::other("the job has no CSV file"))?;
        if self.shards.is_empty() {
            return Err(io::Error::other("the job's CSV file is sealed"));
        }
        if rows.is_empty() {
            return Ok(());
        }
        file.write_all_at(rows.as_bytes(), self.end)?;
        let run = self.end..self.end + rows.len() as u64;
        self.end = run.end;
        self.shards[shard].rows += count;
        if shard == self.frontier {
            Self::read(&mut self.pieces, run);
        } else {
            let runs = &mut self.shards[shard].runs;
            match runs.last_mut() {
                Some(last) if last.end == run.start => last.end = run.end,
                _ => runs.push(run),
            }
        }
        self.advance();
        Ok(())
    }

    /// Seals the file at its job's end: the rows of the first incomplete
    /// shard join [`CsvFile::rows`]' count of complete ones, the shard
    /// records go, and the piece table shrinks to fit. The CSV reads back
    /// as before; every later append is refused, and the per-shard
    /// accessors ([`CsvFile::shard_rows`], [`CsvFile::total`]) must not be
    /// called.
    pub fn seal(&mut self) {
        self.done = self.rows();
        self.shards = Vec::new();
        self.frontier = 0;
        self.pieces.shrink_to_fit();
    }

    /// Moves the frontier past every complete shard, reading into the CSV
    /// the runs of each shard it reaches.
    fn advance(&mut self) {
        while let Some(shard) = (self.shards.get(self.frontier)).filter(|s| s.rows == s.total) {
            self.done += shard.total;
            self.frontier += 1;
            if let Some(next) = self.shards.get_mut(self.frontier) {
                for run in std::mem::take(&mut next.runs) {
                    Self::read(&mut self.pieces, run);
                }
            }
        }
    }

    /// Adds the file's bytes `run` to the end of the CSV's `pieces`.
    fn read(pieces: &mut Vec<(u64, u64)>, run: Range<u64>) {
        let (end, file_end) = *pieces.last().expect("the header is a piece");
        if file_end == run.start {
            pieces.pop();
        }
        pieces.push((end + run.end - run.start, run.end));
    }

    /// Bytes of the CSV.
    pub fn len(&self) -> u64 {
        self.pieces.last().map_or(0, |&(end, _)| end)
    }

    /// True when the CSV is empty, which it never is: it has the header.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows of the CSV: every shard's through the first incomplete one.
    pub fn rows(&self) -> usize {
        self.done + self.shards.get(self.frontier).map_or(0, |shard| shard.rows)
    }

    /// Rows appended for shard `index`, read back or not: its checkpoint.
    pub fn shard_rows(&self, index: usize) -> usize {
        self.shards[index].rows
    }

    /// Cells shard `index` owns.
    pub fn total(&self, index: usize) -> usize {
        self.shards[index].total
    }

    /// Cells of the grid.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Bytes the file holds: the CSV's, and any of shards past its first
    /// incomplete one, which it does not read.
    pub fn file_len(&self) -> u64 {
        self.end
    }

    /// Where the CSV's byte `offset` is: the file, the file offset, and the
    /// bytes of its piece from there on; `None` past the CSV's end and for
    /// a CSV without a file.
    pub(crate) fn piece(&self, offset: u64) -> Option<(&File, u64, u64)> {
        let file = self.file.as_ref()?;
        let index = self.pieces.partition_point(|&(end, _)| end <= offset);
        let (end, file_end) = *self.pieces.get(index)?;
        Some((file, file_end - (end - offset), end - offset))
    }

    /// Writes the whole CSV to `out`, reading the file in pieces of at
    /// most 64 KiB.
    pub fn copy_to(&self, out: &mut impl Write) -> io::Result<()> {
        if self.file.is_none() {
            return out.write_all(Self::header().as_bytes());
        }
        let mut buffer = vec![0; (64 << 10).min(self.len() as usize)];
        let mut offset = 0;
        while let Some((file, at, count)) = self.piece(offset) {
            let want = buffer.len().min(count as usize);
            let read = file.read_at(&mut buffer[..want], at)?;
            if read == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            out.write_all(&buffer[..read])?;
            offset += read as u64;
        }
        Ok(())
    }

    /// The whole CSV, read into memory.
    pub fn to_vec(&self) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::with_capacity(self.len() as usize);
        self.copy_to(&mut bytes)?;
        Ok(bytes)
    }
}

impl fmt::Debug for CsvFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsvFile")
            .field("in_file", &self.file.is_some())
            .field("len", &self.len())
            .field("rows", &self.rows())
            .finish()
    }
}

/// A CSV equals a text when its bytes do; one that cannot be read equals
/// none.
impl PartialEq<str> for CsvFile {
    fn eq(&self, text: &str) -> bool {
        self.len() == text.len() as u64 && self.to_vec().is_ok_and(|bytes| bytes == text.as_bytes())
    }
}

impl PartialEq<&str> for CsvFile {
    fn eq(&self, text: &&str) -> bool {
        *self == **text
    }
}

impl PartialEq<String> for CsvFile {
    fn eq(&self, text: &String) -> bool {
        *self == **text
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Swaps `csv`'s file for a read-only handle on it: every later append
    /// fails, and what the file holds stays readable.
    pub(crate) fn refuse_writes(csv: &mut CsvFile) {
        let fd = std::os::fd::AsRawFd::as_raw_fd(csv.file.as_ref().unwrap());
        csv.file = Some(File::open(format!("/proc/self/fd/{fd}")).unwrap());
    }

    /// A row of `shard` numbered `n`, of the header's width.
    fn row(shard: usize, n: usize) -> String {
        format!(
            "{shard}.{n}{}\n",
            ",".repeat(CSV_HEADER.matches(',').count())
        )
    }

    fn rows(shard: usize, from: usize, count: usize) -> String {
        (from..from + count).map(|n| row(shard, n)).collect()
    }

    #[test]
    fn a_csv_file_has_no_name_and_reads_back_its_appends() {
        let mut csv = CsvFile::create(3, 1).unwrap();
        // The kernel still knows the file by the name it was removed from.
        let fd = std::os::fd::AsRawFd::as_raw_fd(csv.file.as_ref().unwrap());
        let link = std::fs::read_link(format!("/proc/self/fd/{fd}")).unwrap();
        let link = link.to_string_lossy();
        assert!(link.ends_with(".csv (deleted)"), "{link}");
        assert!(!std::path::Path::new(link.trim_end_matches(" (deleted)")).exists());
        assert_eq!(csv, CsvFile::header());
        csv.append(0, &rows(0, 0, 2), 2).unwrap();
        csv.append(0, "", 0).unwrap();
        csv.append(0, &rows(0, 2, 1), 1).unwrap();
        let expected = CsvFile::header() + &rows(0, 0, 3);
        assert_eq!(csv, expected);
        assert_eq!((csv.len(), csv.rows()), (expected.len() as u64, 3));
        assert_eq!(csv.pieces.len(), 1, "written in order, the CSV is the file");
        assert_ne!(csv, &expected[1..]);
        // Reads and writes name their offsets: the file position is unused.
        let mut out = Vec::new();
        csv.copy_to(&mut out).unwrap();
        csv.copy_to(&mut out).unwrap();
        assert_eq!(out, (expected.clone() + &expected).into_bytes());
    }

    #[test]
    fn a_csv_without_a_file_is_the_header_and_refuses_rows() {
        let mut csv = CsvFile::header_only(4, 2);
        assert_eq!(csv, CsvFile::header());
        assert_eq!(csv.len(), CsvFile::header().len() as u64);
        assert!(csv.append(0, &row(0, 0), 1).is_err());
        assert_eq!(
            (csv.rows(), csv.shard_rows(0), csv.to_vec().unwrap()),
            (0, 0, CsvFile::header().into_bytes())
        );
        assert!(csv.piece(0).is_none());
    }

    #[test]
    fn a_refused_append_counts_nothing_and_keeps_what_the_file_holds() {
        let mut csv = CsvFile::create(4, 2).unwrap();
        csv.append(1, &rows(1, 0, 2), 2).unwrap();
        csv.append(0, &rows(0, 0, 1), 1).unwrap();
        refuse_writes(&mut csv);
        assert!(csv.append(0, &rows(0, 1, 1), 1).is_err());
        assert_eq!((csv.shard_rows(0), csv.shard_rows(1)), (1, 2));
        assert_eq!(csv, CsvFile::header() + &row(0, 0));
        let held = (CsvFile::header() + &rows(1, 0, 2) + &row(0, 0)).len() as u64;
        assert_eq!(csv.file_len(), held);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// However the shards' appends interleave, the CSV read back —
        /// through `copy_to`, and piece by piece from every offset — is the
        /// header, then each shard's rows in shard order through the first
        /// incomplete shard; `len` and `rows` count those bytes, before and
        /// after the file is sealed.
        #[test]
        fn the_csv_reads_each_shard_in_order_through_the_first_incomplete(
            cells in 0usize..24,
            count in 1usize..9,
            appends in proptest::collection::vec((0usize..8, 1usize..4), 0..40),
        ) {
            let mut csv = CsvFile::create(cells, count).unwrap();
            let totals: Vec<usize> = (0..count).map(|i| csv.total(i)).collect();
            prop_assert_eq!(totals.iter().sum::<usize>(), cells);
            let mut appended = vec![0; count];
            for (pick, want) in appends {
                let shard = pick % count;
                let n = want.min(totals[shard] - appended[shard]);
                csv.append(shard, &rows(shard, appended[shard], n), n).unwrap();
                appended[shard] += n;
                prop_assert_eq!(csv.shard_rows(shard), appended[shard]);
            }
            let mut expected = CsvFile::header();
            let mut expected_rows = 0;
            for (shard, &total) in totals.iter().enumerate() {
                expected.push_str(&rows(shard, 0, appended[shard]));
                expected_rows += appended[shard];
                if appended[shard] < total {
                    break;
                }
            }
            prop_assert_eq!(csv.to_vec().unwrap(), expected.as_bytes().to_vec());
            prop_assert_eq!(csv.len(), expected.len() as u64);
            prop_assert_eq!(csv.rows(), expected_rows);
            for offset in 0..expected.len() {
                let (file, at, len) = csv.piece(offset as u64).unwrap();
                let mut bytes = vec![0; len as usize];
                file.read_exact_at(&mut bytes, at).unwrap();
                prop_assert_eq!(&bytes[..], &expected.as_bytes()[offset..offset + len as usize]);
            }
            prop_assert!(csv.piece(expected.len() as u64).is_none());
            // Sealed, the file reads back the same and takes no more rows.
            csv.seal();
            prop_assert_eq!(csv.to_vec().unwrap(), expected.as_bytes().to_vec());
            prop_assert_eq!((csv.len(), csv.rows()), (expected.len() as u64, expected_rows));
            prop_assert!(csv.append(0, &row(0, 0), 1).is_err());
        }
    }
}
