//! A sweep job's CSV in an unlinked temporary file.
//!
//! Every sweep job, local or distributed, writes its CSV into a [`CsvFile`]
//! from the moment it starts: the header, then its rows in cell order as
//! they are released or merged. The file is created under
//! [`std::env::temp_dir`] and removed from the directory at once, so it has
//! no name: the kernel frees it when its last handle closes — when the job
//! is evicted, when the process exits, or after a `kill -9` — and nothing
//! is ever left behind. A finished job costs the heap a few bytes, not its
//! CSV. A `GET` sends the file with `sendfile(2)` from an offset of its
//! own, and every read and write names its offset, so the file position is
//! never used and any number of fetches may interleave.
//!
//! This relies on Linux's semantics of a file unlinked while open (the
//! server runs only on Linux). Point `$TMPDIR` at a disk: on a tmpfs the
//! bytes stay in memory, as shared memory.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::os::unix::fs::{FileExt, OpenOptionsExt};
use std::sync::atomic::{AtomicU64, Ordering};

use ayd_sweep::CSV_HEADER;

/// Distinguishes the names of the files one process creates.
static NEXT_NAME: AtomicU64 = AtomicU64::new(0);

/// A sweep CSV — the header, then whole rows appended in order — kept in an
/// unlinked temporary file.
///
/// A job that has no file (none could be created, or its thread died
/// before it had one) holds the header alone, in memory. An append that
/// fails counts for nothing: the CSV stays the header and the rows of the
/// appends before it, whatever the failed write left in the file past
/// them.
pub struct CsvFile {
    file: Option<File>,
    /// Bytes of the CSV: the header's, then every appended row's.
    len: u64,
    /// Rows appended.
    rows: usize,
}

impl CsvFile {
    /// The header's line.
    fn header() -> String {
        format!("{CSV_HEADER}\n")
    }

    /// Creates a file under [`std::env::temp_dir`] (owner-only, a fresh
    /// name), removes its name at once and writes the header into it.
    pub fn create() -> io::Result<Self> {
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
        let mut csv = Self {
            file: Some(file),
            len: 0,
            rows: 0,
        };
        csv.write(Self::header().as_bytes())?;
        Ok(csv)
    }

    /// The header-only CSV of a job that has no file.
    pub fn header_only() -> Self {
        Self {
            file: None,
            len: Self::header().len() as u64,
            rows: 0,
        }
    }

    /// Appends `count` newline-terminated rows. On an error nothing is
    /// counted (see [`CsvFile`]); a CSV without a file refuses every append.
    pub fn append(&mut self, rows: &str, count: usize) -> io::Result<()> {
        self.write(rows.as_bytes())?;
        self.rows += count;
        Ok(())
    }

    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        let file = self
            .file
            .as_ref()
            .ok_or_else(|| io::Error::other("the job has no CSV file"))?;
        file.write_all_at(bytes, self.len)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Bytes of the CSV.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the CSV is empty, which it never is: it has the header.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows appended after the header.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The file, for `sendfile(2)`; `None` for a CSV without one.
    pub(crate) fn file(&self) -> Option<&File> {
        self.file.as_ref()
    }

    /// Writes the whole CSV to `out`, reading the file in 64 KiB pieces.
    pub fn copy_to(&self, out: &mut impl Write) -> io::Result<()> {
        let Some(file) = &self.file else {
            return out.write_all(Self::header().as_bytes());
        };
        let mut piece = vec![0; (64 << 10).min(self.len as usize)];
        let mut offset = 0;
        while offset < self.len {
            let want = piece.len().min((self.len - offset) as usize);
            let read = file.read_at(&mut piece[..want], offset)?;
            if read == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            out.write_all(&piece[..read])?;
            offset += read as u64;
        }
        Ok(())
    }

    /// The whole CSV, read into memory.
    pub fn to_vec(&self) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::with_capacity(self.len as usize);
        self.copy_to(&mut bytes)?;
        Ok(bytes)
    }
}

impl fmt::Debug for CsvFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsvFile")
            .field("in_file", &self.file.is_some())
            .field("len", &self.len)
            .field("rows", &self.rows)
            .finish()
    }
}

/// A CSV equals a text when its bytes do; one that cannot be read equals
/// none.
impl PartialEq<str> for CsvFile {
    fn eq(&self, text: &str) -> bool {
        self.len == text.len() as u64 && self.to_vec().is_ok_and(|bytes| bytes == text.as_bytes())
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
mod tests {
    use super::*;

    fn row(n: usize) -> String {
        format!("{n}{}\n", ",".repeat(CSV_HEADER.matches(',').count()))
    }

    #[test]
    fn a_csv_file_has_no_name_and_reads_back_its_appends() {
        let mut csv = CsvFile::create().unwrap();
        // The kernel still knows the file by the name it was removed from.
        let fd = std::os::fd::AsRawFd::as_raw_fd(csv.file().unwrap());
        let link = std::fs::read_link(format!("/proc/self/fd/{fd}")).unwrap();
        let link = link.to_string_lossy();
        assert!(link.ends_with(".csv (deleted)"), "{link}");
        assert!(!std::path::Path::new(link.trim_end_matches(" (deleted)")).exists());
        assert_eq!(csv, CsvFile::header());
        let rows: String = (0..3).map(row).collect();
        csv.append(&rows, 3).unwrap();
        csv.append("", 0).unwrap();
        let expected = CsvFile::header() + &rows;
        assert_eq!(csv, expected);
        assert_eq!((csv.len(), csv.rows()), (expected.len() as u64, 3));
        assert_ne!(csv, &expected[1..]);
        // Reads and writes name their offsets: the file position is unused.
        let mut out = Vec::new();
        csv.copy_to(&mut out).unwrap();
        csv.copy_to(&mut out).unwrap();
        assert_eq!(out, (expected.clone() + &expected).into_bytes());
    }

    #[test]
    fn a_csv_without_a_file_is_the_header_and_refuses_rows() {
        let mut csv = CsvFile::header_only();
        assert_eq!(csv, CsvFile::header());
        assert_eq!(csv.len(), CsvFile::header().len() as u64);
        assert!(csv.append(&row(0), 1).is_err());
        assert_eq!(
            (csv.rows(), csv.to_vec().unwrap()),
            (0, CsvFile::header().into_bytes())
        );
    }
}
