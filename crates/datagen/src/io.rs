//! Relation import/export: CSV for interchange, a compact binary format
//! for fast reload of generated workloads.
//!
//! The binary format is a 16-byte header (`magic`, version, tuple count)
//! followed by little-endian `(key, payload)` pairs — 8 bytes per tuple,
//! the same in-memory layout the joins use. [`to_bytes`] and
//! [`from_bytes`] move each tuple as one little-endian `u64` word with the
//! key in its low half; that is the same bytes as the two `u32`s, so the
//! format (version 1) is unchanged and files written earlier still load.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use skewjoin_common::scratch::ScratchFile;
use skewjoin_common::{Relation, Tuple};

/// Magic bytes identifying the binary relation format.
pub const MAGIC: &[u8; 4] = b"SKJR";
/// Current binary format version.
pub const VERSION: u32 = 1;

/// Errors from relation I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a valid relation in the expected format.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Serializes a relation into the binary format.
pub fn to_bytes(relation: &Relation) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + relation.len() * 8);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(relation.len() as u64).to_le_bytes());
    buf.extend(
        relation
            .iter()
            .flat_map(|t| (u64::from(t.key) | u64::from(t.payload) << 32).to_le_bytes()),
    );
    buf
}

/// Deserializes a relation from the binary format.
pub fn from_bytes(data: &[u8]) -> Result<Relation, IoError> {
    if data.len() < 16 {
        return Err(IoError::Format("truncated header".into()));
    }
    let magic = &data[0..4];
    if magic != MAGIC {
        return Err(IoError::Format(format!(
            "bad magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    let version = u32::from_le_bytes(data[4..8].try_into().expect("4-byte version"));
    if version != VERSION {
        return Err(IoError::Format(format!(
            "unsupported version {version} (this build reads {VERSION})"
        )));
    }
    let count = u64::from_le_bytes(data[8..16].try_into().expect("8-byte count")) as usize;
    let body = &data[16..];
    // A hostile header can claim a count whose byte size overflows usize.
    let expected_bytes = count
        .checked_mul(8)
        .ok_or_else(|| IoError::Format(format!("implausible tuple count {count}")))?;
    if body.len() != expected_bytes {
        return Err(IoError::Format(format!(
            "expected {expected_bytes} tuple bytes, found {}",
            body.len()
        )));
    }
    let tuples = body
        .chunks_exact(8)
        .map(|word| {
            let packed = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            Tuple::new(packed as u32, (packed >> 32) as u32)
        })
        .collect();
    Ok(Relation::from_tuples(tuples))
}

/// Writes through a uniquely named sibling that is renamed over `path`
/// only after a successful flush + sync. The sibling is an RAII scratch
/// guard, so every failure path — an I/O error, a panic, even an abort
/// between runs — leaves the old `path` intact and no partial file behind
/// (the rename makes the guard's drop-time removal a no-op on success).
fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), IoError>,
) -> Result<(), IoError> {
    // The sibling must live in the destination directory: a rename across
    // filesystems (e.g. from a tmpfs scratch default) would not be atomic.
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let tmp = ScratchFile::reserve(Some(parent), ".skewjoin-io-tmp", 0)?;
    let mut out = BufWriter::new(File::create(tmp.path())?);
    write(&mut out)?;
    out.flush()?;
    out.get_ref().sync_all()?;
    drop(out);
    std::fs::rename(tmp.path(), path)?;
    Ok(())
}

/// Writes a relation to `path` in the binary format. The write is atomic:
/// a crash mid-write can never leave a truncated or corrupt file at `path`.
pub fn write_binary(relation: &Relation, path: &Path) -> Result<(), IoError> {
    write_atomic(path, |out| {
        out.write_all(&to_bytes(relation))?;
        Ok(())
    })
}

/// Reads a relation from a binary file written by [`write_binary`].
pub fn read_binary(path: &Path) -> Result<Relation, IoError> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    from_bytes(&data)
}

/// Writes a relation as a two-column `key,payload` CSV with a header row.
/// Atomic like [`write_binary`].
pub fn write_csv(relation: &Relation, path: &Path) -> Result<(), IoError> {
    write_atomic(path, |out| {
        writeln!(out, "key,payload")?;
        for t in relation.iter() {
            writeln!(out, "{},{}", t.key, t.payload)?;
        }
        Ok(())
    })
}

/// Reads a relation from a CSV file.
///
/// The first row may be a header (detected by a non-numeric first field).
/// Each data row needs at least `key_col + 1` comma-separated fields; the
/// payload comes from `payload_col`, or defaults to the row index if the
/// column is absent.
pub fn read_csv(
    path: &Path,
    key_col: usize,
    payload_col: Option<usize>,
) -> Result<Relation, IoError> {
    let reader = BufReader::new(File::open(path)?);
    let mut tuples = Vec::new();
    let mut line_no = 0usize;
    let mut header_candidate = true;
    for line in reader.lines() {
        let line = line?;
        line_no += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        let key_field = *fields.get(key_col).ok_or_else(|| {
            IoError::Format(format!("line {line_no}: missing key column {key_col}"))
        })?;
        let first_content_line = header_candidate;
        header_candidate = false;
        let key: u32 = match key_field.parse() {
            Ok(k) => k,
            // A non-numeric key in the first non-empty line is a header row.
            Err(_) if first_content_line => continue,
            Err(e) => {
                return Err(IoError::Format(format!(
                    "line {line_no}: bad key {key_field:?}: {e}"
                )))
            }
        };
        let payload = match payload_col.and_then(|col| fields.get(col)) {
            Some(f) => f
                .parse()
                .map_err(|e| IoError::Format(format!("line {line_no}: bad payload {f:?}: {e}")))?,
            None => tuples.len() as u32,
        };
        tuples.push(Tuple::new(key, payload));
    }
    Ok(Relation::from_tuples(tuples))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("skewjoin-io-test-{}-{name}", std::process::id()));
        p
    }

    fn sample_relation() -> Relation {
        Relation::from_tuples(vec![
            Tuple::new(7, 0),
            Tuple::new(42, 1),
            Tuple::new(u32::MAX, 2),
        ])
    }

    #[test]
    fn binary_roundtrip_in_memory() {
        let rel = sample_relation();
        let bytes = to_bytes(&rel);
        assert_eq!(bytes.len(), 16 + 24);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn binary_bytes_match_the_format() {
        // Header, then each tuple as its key and payload, little-endian.
        let golden: &[u8] = &[
            b'S', b'K', b'J', b'R', 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, // header
            7, 0, 0, 0, 0, 0, 0, 0, // (7, 0)
            42, 0, 0, 0, 1, 0, 0, 0, // (42, 1)
            0xFF, 0xFF, 0xFF, 0xFF, 2, 0, 0, 0, // (u32::MAX, 2)
        ];
        assert_eq!(to_bytes(&sample_relation()), golden);
        assert_eq!(from_bytes(golden).unwrap(), sample_relation());
    }

    #[test]
    fn binary_roundtrips_at_every_size() {
        for n in [0u32, 1, 65_539] {
            // Keys and payloads with all four bytes set, distinct halves.
            let rel = Relation::from_tuples(
                (0..n)
                    .map(|i| Tuple::new(i.wrapping_mul(0x9E37_79B1), !i))
                    .collect(),
            );
            let bytes = to_bytes(&rel);
            assert_eq!(bytes.len(), 16 + 8 * n as usize);
            assert_eq!(&bytes[8..16], &u64::from(n).to_le_bytes());
            assert_eq!(from_bytes(&bytes).unwrap(), rel, "{n} tuples");
        }
    }

    #[test]
    fn binary_roundtrip_on_disk() {
        let rel = sample_relation();
        let path = temp_path("bin");
        write_binary(&rel, &path).unwrap();
        let back = read_binary(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, rel);
    }

    #[test]
    fn empty_relation_roundtrip() {
        let rel = Relation::new();
        let back = from_bytes(&to_bytes(&rel)).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn rejects_corrupt_input() {
        assert!(from_bytes(b"short").is_err());
        assert!(from_bytes(b"XXXX\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00").is_err());
        // Valid header claiming one tuple but no body.
        let mut bad = to_bytes(&sample_relation()).to_vec();
        bad.truncate(20);
        assert!(from_bytes(&bad).is_err());
        // Wrong version.
        let mut wrong_ver = to_bytes(&Relation::new()).to_vec();
        wrong_ver[4] = 99;
        assert!(matches!(from_bytes(&wrong_ver), Err(IoError::Format(_))));
        // A body that is not a whole number of tuples.
        let mut odd = to_bytes(&sample_relation());
        odd.push(0);
        assert!(from_bytes(&odd)
            .unwrap_err()
            .to_string()
            .contains("tuple bytes"));
        // A count whose byte size overflows.
        let mut hostile = to_bytes(&Relation::new());
        hostile[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = from_bytes(&hostile).unwrap_err().to_string();
        assert!(err.contains("implausible tuple count"), "{err}");
    }

    #[test]
    fn atomic_write_failure_preserves_the_target_and_leaks_nothing() {
        let dir = std::env::temp_dir().join(format!(
            "skewjoin-io-atomic-{}-{:p}",
            std::process::id(),
            &MAGIC
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("rel.bin");
        write_binary(&sample_relation(), &target).unwrap();

        // A writer that emits partial bytes and then fails: the target must
        // keep its old contents and the sibling must be cleaned up.
        let err = write_atomic(&target, |out| {
            out.write_all(b"partial")?;
            Err(IoError::Format("simulated failure".into()))
        });
        assert!(err.is_err());
        assert_eq!(read_binary(&target).unwrap(), sample_relation());
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(entries.len(), 1, "leaked scratch sibling: {entries:?}");
    }

    #[test]
    fn csv_roundtrip_with_header() {
        let rel = sample_relation();
        let path = temp_path("csv");
        write_csv(&rel, &path).unwrap();
        let back = read_csv(&path, 0, Some(1)).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, rel);
    }

    #[test]
    fn csv_default_payload_is_row_index() {
        let path = temp_path("csv2");
        std::fs::write(&path, "key\n5\n6\n5\n").unwrap();
        let rel = read_csv(&path, 0, None).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(rel.len(), 3);
        assert_eq!(rel[0], Tuple::new(5, 0));
        assert_eq!(rel[2], Tuple::new(5, 2));
    }

    #[test]
    fn csv_header_after_blank_line_is_skipped() {
        let path = temp_path("csv4");
        std::fs::write(&path, "\n\nkey,payload\n5,9\n").unwrap();
        let rel = read_csv(&path, 0, Some(1)).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel[0], Tuple::new(5, 9));
    }

    #[test]
    fn csv_reports_bad_rows() {
        let path = temp_path("csv3");
        std::fs::write(&path, "key\n5\nnot-a-number\n").unwrap();
        let err = read_csv(&path, 0, None).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("line 3"));
    }
}
