//! The append-only, CRC32-sealed JSONL log behind both the Runner's
//! checkpoint and the admission write-ahead log — the only code that knows
//! the on-disk format.
//!
//! The first line is a header, `{"Header":<header>}`, whose `fingerprint`
//! binds the file to the configuration that wrote it. Every further line
//! seals one record, `{"<tag>":{"crc":N,"record":<record>}}`, where `N` is
//! the IEEE CRC32 of the record's JSON exactly as written, so any altered
//! byte breaks the seal. The tag names the record's kind: the checkpoint
//! writes `Sealed` and `Failed` lines, the admission log `Graph` lines (each
//! distinct task graph, once) and `Sealed` lines (one concluded request
//! each). One [`Appender::append`] may carry several lines — the admission
//! log writes a new graph's `Graph` line and the record naming it
//! together — so a request still costs one write. A *final* line that does
//! not parse is the one a killed process tore, whatever its kind: [`load`]
//! skips it and [`Appender::reopen`] cuts it off. Any other unreadable or
//! seal-breaking line is a typed [`RunError::CheckpointCorrupt`].
//!
//! Durability covers process kill only: an append reaches the OS before it
//! returns, but nothing calls `sync_data`, so an OS crash or power loss
//! can lose records the caller already saw sealed.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::{RunError, Runner};

/// The IEEE CRC32 (zlib/PNG, reflected polynomial `0xEDB8_8320`) lookup
/// table: entry `n` is the CRC register after shifting byte `n` through
/// eight bitwise steps.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut crc = n as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1));
            bit += 1;
        }
        table[n] = crc;
        n += 1;
    }
    table
};

/// IEEE CRC32 (the zlib/PNG polynomial), one table lookup per byte: an
/// admission log `Graph` line carries a whole task graph (several KB), so
/// a bit-at-a-time loop would dominate the cost of sealing it.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |crc, &b| {
        (crc >> 8) ^ CRC32_TABLE[usize::from((crc as u8) ^ b)]
    })
}

/// One sealed log line, without its newline:
/// `{"<tag>":{"crc":N,"record":<record>}}`, built from a single
/// serialization of `record` that both the CRC and the line reuse. `tag`
/// must be a plain identifier (a variant name), so it needs no JSON
/// escaping.
pub(crate) fn sealed_line<T: Serialize>(tag: &str, record: &T) -> String {
    let body = serde_json::to_string(record).expect("plain data serializes");
    let crc = crc32(body.as_bytes());
    format!("{{\"{tag}\":{{\"crc\":{crc},\"record\":{body}}}}}")
}

/// Replaces the last decimal digit of `text` with a different digit:
/// the deterministic "silent disk corruption" the `checkpoint-corrupt` and
/// `admit-log-corrupt` faults write. The line stays parseable, so only the
/// CRC seal can catch it.
#[cfg(feature = "fault-inject")]
pub(crate) fn corrupt_digit(text: &mut String) {
    if let Some(pos) = text.rfind(|c: char| c.is_ascii_digit()) {
        let old = text.as_bytes()[pos];
        let new = b'0' + (old - b'0' + 1) % 10;
        text.replace_range(pos..=pos, &char::from(new).to_string());
    }
}

/// The header field [`load`] checks; the rest of a header is for human
/// readers of the file.
#[derive(Deserialize)]
struct Header {
    fingerprint: u64,
}

/// Splits a line `{"<tag>":<inner>}` into its tag and inner JSON text.
fn untag(line: &str) -> Option<(&str, &str)> {
    let (tag, rest) = line.strip_prefix("{\"")?.split_once("\":")?;
    Some((tag, rest.strip_suffix('}')?))
}

/// Splits a record line's inner `{"crc":N,"record":<record>}` into the
/// stored CRC and the record's JSON text.
fn unseal(inner: &str) -> Option<(u32, &str)> {
    let (crc, rest) = inner
        .strip_prefix("{\"crc\":")?
        .split_once(",\"record\":")?;
    Some((crc.parse().ok()?, rest.strip_suffix('}')?))
}

/// A log read back by [`load`].
#[derive(Debug)]
pub(crate) struct Loaded<R> {
    /// The sealed records in file order, each with its 1-based line number.
    pub(crate) records: Vec<(usize, R)>,
    /// Where the valid prefix ends, for [`Appender::reopen`].
    pub(crate) tail: Tail,
}

/// The extent of a loaded log's valid prefix.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tail {
    /// Byte offset just past the last valid line (header included);
    /// anything beyond it is a torn fragment.
    valid_len: u64,
    /// Whether the valid prefix ends with its `\n` (`false` only when a
    /// kill tore exactly the final record's newline off).
    terminated: bool,
    /// The file's length when it was loaded.
    len: u64,
}

/// Loads the sealed log at `path`: `Ok(None)` for an empty file, else the
/// verified records. The header must carry `fingerprint`; `what` names the
/// log in messages ("a checkpoint"). `decode(tag, json)` parses one
/// record, `None` marking the line unparseable.
///
/// # Errors
///
/// [`RunError::Io`] when the file cannot be read,
/// [`RunError::CheckpointMismatch`] for a header with another fingerprint,
/// and [`RunError::CheckpointCorrupt`] for a missing header, an unparseable
/// line before the last, an extra header, or a broken seal.
pub(crate) fn load<R>(
    path: &Path,
    what: &str,
    fingerprint: u64,
    mut decode: impl FnMut(&str, &str) -> Option<R>,
) -> Result<Option<Loaded<R>>, RunError> {
    let corrupt = |detail: String| RunError::CheckpointCorrupt {
        path: path.to_path_buf(),
        detail,
    };
    let bytes = std::fs::read(path)?;
    let len = bytes.len() as u64;
    // Each line's text (`None` if not UTF-8) and byte length.
    let mut lines = bytes.split_inclusive(|&b| b == b'\n').map(|line| {
        let text = line.strip_suffix(b"\n").unwrap_or(line);
        (std::str::from_utf8(text).ok(), line.len() as u64)
    });
    let Some((first, mut end)) = lines.next() else {
        return Ok(None);
    };
    match first
        .and_then(untag)
        .filter(|&(tag, _)| tag == "Header")
        .and_then(|(_, inner)| serde_json::from_str::<Header>(inner).ok())
    {
        Some(header) if header.fingerprint == fingerprint => {}
        Some(_) => {
            return Err(RunError::CheckpointMismatch {
                path: path.to_path_buf(),
            })
        }
        None => return Err(corrupt(format!("first line is not {what} header"))),
    }
    let mut valid_len = end;
    let mut records = Vec::new();
    for (i, (text, size)) in lines.enumerate() {
        let line_no = i + 2;
        end += size;
        let at = |detail: &str| corrupt(format!("{detail} at line {line_no}"));
        let tagged = text.and_then(untag);
        if matches!(tagged, Some(("Header", _))) {
            return Err(at("unexpected extra header"));
        }
        let sealed = tagged.and_then(|(tag, inner)| {
            let (crc, json) = unseal(inner)?;
            Some((crc, json, decode(tag, json)?))
        });
        match sealed {
            Some((crc, json, record)) => {
                if crc32(json.as_bytes()) != crc {
                    return Err(at("record checksum mismatch"));
                }
                records.push((line_no, record));
                valid_len = end;
            }
            None if end == len => tracing::warn!(
                path = %path.display(),
                line = line_no,
                "skipping unparseable final line of {what} (torn write)"
            ),
            None => return Err(at("unparseable record")),
        }
    }
    let tail = Tail {
        valid_len,
        terminated: bytes[valid_len as usize - 1] == b'\n',
        len,
    };
    Ok(Some(Loaded { records, tail }))
}

/// What an [`Appender`] writes to: a [`File`], or a test double that
/// fails on cue.
pub(crate) trait LogFile: Write {
    /// Cuts the log back to `len` bytes.
    fn truncate(&self, len: u64) -> std::io::Result<()>;
}

impl LogFile for File {
    fn truncate(&self, len: u64) -> std::io::Result<()> {
        self.set_len(len)
    }
}

/// The append half of a sealed log: unbuffered, so each append goes out in
/// one write, and tracking the offset of the last sealed byte.
#[derive(Debug)]
pub(crate) struct Appender<F = File> {
    file: F,
    /// Byte offset just past the last sealed line.
    end: u64,
}

impl Appender {
    /// Creates (truncating) the log at `path` and writes its header,
    /// `{"Header":<header>}`.
    pub(crate) fn create(path: &Path, header: &impl Serialize) -> std::io::Result<Appender> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        file.set_len(0)?;
        let line = format!(
            "{{\"Header\":{}}}\n",
            serde_json::to_string(header).expect("plain data serializes")
        );
        file.write_all(line.as_bytes())?;
        Ok(Appender::new(file, line.len() as u64))
    }

    /// Reopens the log at `path`, loaded with [`load`], for appending.
    /// Anything past the valid prefix — the torn tail a kill left behind —
    /// is truncated first, and a final record that survived minus its
    /// newline gets its terminator restored, so the next append always
    /// starts a fresh line instead of merging with the fragment.
    pub(crate) fn reopen(path: &Path, tail: Tail) -> std::io::Result<Appender> {
        let mut file = OpenOptions::new().append(true).open(path)?;
        if tail.len > tail.valid_len {
            tracing::warn!(
                path = %path.display(),
                kept = tail.valid_len,
                dropped = tail.len - tail.valid_len,
                "truncating torn log tail before reopening for append"
            );
            file.set_len(tail.valid_len)?;
        }
        let mut end = tail.valid_len;
        if !tail.terminated {
            file.write_all(b"\n")?;
            end += 1;
        }
        Ok(Appender::new(file, end))
    }
}

impl<F: LogFile> Appender<F> {
    /// An appender over `file`, whose sealed prefix ends at byte `end`.
    pub(crate) fn new(file: F, end: u64) -> Appender<F> {
        Appender { file, end }
    }

    /// Appends `line` — one or more sealed lines, each with its newline —
    /// and flushes it, retrying a failed attempt with exponential backoff
    /// ([`Runner::CHECKPOINT_RETRY_LIMIT`] / [`Runner::CHECKPOINT_BACKOFF_BASE`]).
    /// A retry resumes after the bytes the file already accepted, so a
    /// write that fails partway leaves no second copy; a failure that
    /// survives every retry cuts the file back to the last sealed byte, so
    /// it leaves no fragment of any of the lines either. `inject(attempt)` is the fault hook:
    /// an error it returns fails that attempt before any byte is written.
    /// `on_retry(attempt, backoff, error)` reports each retry before its
    /// backoff sleep.
    pub(crate) fn append(
        &mut self,
        line: &[u8],
        mut inject: impl FnMut(u64) -> Option<std::io::Error>,
        mut on_retry: impl FnMut(u64, Duration, &std::io::Error),
    ) -> std::io::Result<()> {
        let mut written = 0;
        let mut attempt: u64 = 0;
        loop {
            let result = match inject(attempt) {
                Some(e) => Err(e),
                None => write_rest(&mut self.file, line, &mut written),
            };
            match result {
                Ok(()) => {
                    self.end += line.len() as u64;
                    return Ok(());
                }
                Err(e) if attempt < u64::from(Runner::CHECKPOINT_RETRY_LIMIT) => {
                    let backoff = Runner::CHECKPOINT_BACKOFF_BASE * 2u32.pow(attempt as u32);
                    on_retry(attempt, backoff, &e);
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
                Err(e) => {
                    if written > 0 {
                        if let Err(cut) = self.file.truncate(self.end) {
                            tracing::warn!("cannot cut a failed append's fragment ({cut})");
                        }
                    }
                    return Err(e);
                }
            }
        }
    }
}

/// Writes `line[*written..]`, advancing `written` by every byte the writer
/// accepts (also when a later write fails), then flushes.
fn write_rest(writer: &mut impl Write, line: &[u8], written: &mut usize) -> std::io::Result<()> {
    while *written < line.len() {
        match writer.write(&line[*written..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => *written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    writer.flush()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The CRC32 sealing a record: computed over the record's canonical JSON,
    /// the same bytes [`sealed_line`] writes.
    pub(crate) fn seal<T: Serialize>(record: &T) -> u32 {
        crc32(
            serde_json::to_string(record)
                .expect("plain data serializes")
                .as_bytes(),
        )
    }

    /// A log file that accepts only the first `prefix` bytes of its first
    /// write, fails the next `failures` writes, then writes through: an
    /// append torn partway by a transient (or, with enough failures,
    /// persistent) error such as ENOSPC.
    #[derive(Debug)]
    pub(crate) struct FlakyFile {
        pub(crate) file: File,
        pub(crate) prefix: Option<usize>,
        pub(crate) failures: u32,
    }

    impl Write for FlakyFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if let Some(prefix) = self.prefix.take() {
                return self.file.write(&buf[..prefix.min(buf.len())]);
            }
            if self.failures > 0 {
                self.failures -= 1;
                return Err(std::io::Error::other("no space left on device"));
            }
            self.file.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.file.flush()
        }
    }

    impl LogFile for FlakyFile {
        fn truncate(&self, len: u64) -> std::io::Result<()> {
            self.file.truncate(len)
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// The bit-at-a-time IEEE CRC32: the reference the table-driven
    /// [`crc32`] must equal.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1));
            }
        }
        !crc
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn table_crc32_equals_the_bitwise_reference(len in 0usize..4096, seed in 0u64..u64::MAX) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn corrupt_digit_keeps_the_line_parseable_but_breaks_the_seal() {
        let mut text = sealed_line("Sealed", &vec![1.5f64, -28.0625]);
        corrupt_digit(&mut text);
        let (tag, inner) = untag(&text).expect("still frames");
        let (crc, json) = unseal(inner).expect("still frames");
        assert_eq!(tag, "Sealed");
        assert!(
            serde_json::from_str::<Vec<f64>>(json).is_ok(),
            "still parses"
        );
        assert_ne!(
            crc32(json.as_bytes()),
            crc,
            "corruption must break the seal"
        );
    }
}
